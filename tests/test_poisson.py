import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from svasym import measures, poisson
from svasym.errors import CenteringError
from svasym.model import ModelParams, VolFnSpec

OU = ModelParams(m=0.0, nu=math.sqrt(2.0), beta=0.0, rho=0.0, r=0.0,
                 sigma=VolFnSpec.power_abs(1.0, 0.5), y0=0.0)
CIR = ModelParams(m=1.0, nu=1.0, beta=0.5, rho=0.0, r=0.0,
                  sigma=VolFnSpec.power_abs(1.0, 0.25), y0=1.0)
CONST = ModelParams(m=0.0, nu=math.sqrt(2.0), beta=0.0, rho=0.0, r=0.0,
                    sigma=VolFnSpec.constant(0.2), y0=0.0)


@pytest.fixture(scope="module")
def ou_corrector():
    return poisson.solve_corrector(OU, 1.0)


class TestSolveCorrector:
    def test_derivative_matches_quadrature_oracle(self, ou_corrector):
        # chi'(y) = int_{-inf}^{y} phi(z)(sbar^2 - |z|) dz / (nu^2 phi(y))
        # with phi the standard normal density, evaluated independently
        sbar = math.sqrt(2.0 / math.pi)
        y_probe = 0.5
        num, _ = quad(lambda z: norm.pdf(z) * (sbar - abs(z)), -12.0, y_probe,
                      limit=400)
        oracle = num / (2.0 * norm.pdf(y_probe))
        mine = np.interp(y_probe, ou_corrector.grid, ou_corrector.chi_prime)
        assert mine == pytest.approx(oracle, abs=1e-5)

    def test_gauge_vanishes_at_mean_reversion_level(self, ou_corrector):
        assert abs(np.interp(OU.m, ou_corrector.grid, ou_corrector.chi)) < 1e-5

    def test_left_right_representations_agree(self, ou_corrector):
        core = (ou_corrector.grid > -3.0) & (ou_corrector.grid < 3.0)
        gap = np.max(np.abs(ou_corrector.chi_prime_left
                            - ou_corrector.chi_prime_right)[core])
        assert gap < 1e-10

    def test_momentum_scaling_is_exact(self, ou_corrector):
        cor2 = poisson.solve_corrector(OU, 2.0)
        assert np.array_equal(4.0 * ou_corrector.chi, cor2.chi)
        assert np.array_equal(4.0 * ou_corrector.chi_prime, cor2.chi_prime)

    def test_residual_small_and_halving(self, ou_corrector):
        res1 = poisson.core_residual_norm(OU, ou_corrector)
        assert res1 < 1e-4
        cor_fine = poisson.solve_corrector(OU, 1.0, measures.GridSpec(n=8192))
        res2 = poisson.core_residual_norm(OU, cor_fine)
        assert res2 <= 0.66 * res1

    def test_constant_sigma_gives_zero_corrector(self):
        cor = poisson.solve_corrector(CONST, 1.0)
        assert np.max(np.abs(cor.chi_prime)) < 1e-12
        assert np.max(np.abs(cor.chi)) < 1e-12

    def test_square_root_factor_residual(self):
        cor = poisson.solve_corrector(CIR, 1.0)
        assert poisson.core_residual_norm(CIR, cor) < 1e-4

    def test_single_bound_moves_its_edge(self):
        # y_lo alone replaces the auto window's left edge (6 sd below m)
        # and keeps its right edge; the grid holds the window's cell centers
        spec = measures.GridSpec(n=512)
        auto = poisson.solve_corrector(OU, 1.0, spec)
        cor = poisson.solve_corrector(OU, 1.0, replace(spec, y_lo=-5.0))
        edges = lambda c: (c.grid[0] - 0.5 * (c.grid[1] - c.grid[0]),
                           c.grid[-1] + 0.5 * (c.grid[-1] - c.grid[-2]))
        assert edges(auto)[0] == pytest.approx(-6.0)
        assert edges(cor)[0] == pytest.approx(-5.0)
        assert edges(cor)[1] == pytest.approx(edges(auto)[1])

    def test_centering_guard(self):
        with pytest.raises(CenteringError):
            poisson.solve_corrector(OU, 1.0, sigma_bar=0.9)

    def test_csv_format(self, tmp_path, ou_corrector):
        path = tmp_path / "poisson.csv"
        ou_corrector.to_csv(path)
        lines = path.read_bytes().split(b"\r\n")
        assert lines[0] == b"y,chi,chi_prime"
        assert len(lines) == ou_corrector.grid.size + 2


class TestGrowthBound:
    def test_gaussian_factor_plateaus(self, ou_corrector):
        report = poisson.growth_bound_check(ou_corrector, OU)
        assert report.passed
        assert report.c1 > 0.0

    def test_square_root_factor_plateaus(self):
        cor = poisson.solve_corrector(CIR, 1.0)
        report = poisson.growth_bound_check(cor, CIR)
        assert report.passed

    def test_trivial_for_vanishing_corrector(self):
        cor = poisson.solve_corrector(CONST, 1.0)
        report = poisson.growth_bound_check(cor, CONST)
        assert report.passed
        assert report.c1 == 0.0
