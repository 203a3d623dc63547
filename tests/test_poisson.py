import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from svasym import measures, poisson
from svasym.errors import CenteringError
from svasym.model import ModelParams, VolFnSpec

from golden import digest


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
        # at beta = 0 the window is the start window, 6 sd about m, unexpanded;
        # the grid holds the window's cell centers
        cor = poisson.solve_corrector(OU, 1.0, measures.GridSpec(n=512))
        edges = (cor.grid[0] - 0.5 * (cor.grid[1] - cor.grid[0]),
                 cor.grid[-1] + 0.5 * (cor.grid[-1] - cor.grid[-2]))
        assert edges == pytest.approx((-6.0, 6.0))

    def test_centering_guard(self):
        # 16 cells on +-6 sd cannot resolve the cusp of sigma^2 = |y| at 0,
        # so the grid average is far from the converged sqrt(2/pi)
        with pytest.raises(CenteringError):
            poisson.solve_corrector(OU, 1.0, measures.GridSpec(n=16))

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


# Corrector outputs pinned bit for bit: any change to the window, the
# working grid or the quadratures changes these digests.
def _corrector(params, spec=None):
    cor = poisson.solve_corrector(params, 1.0, spec)
    return digest(cor.grid, cor.chi, cor.chi_prime, cor.chi_prime_left,
                   cor.chi_prime_right, [cor.sigma_bar_sq],
                   poisson.generator_residual(params, cor))


GOLDEN = {
    "ou_auto": (lambda: _corrector(OU), "cd512de274a51801"),
    "cir_auto": (lambda: _corrector(CIR), "54990ed95c2c5d02"),
    "ou_n1000": (lambda: _corrector(OU, measures.GridSpec(n=1000)), "2645372a0f553af4"),
    "cir_n1000": (lambda: _corrector(CIR, measures.GridSpec(n=1000)), "73933527d0fa51dd"),
}


class TestGoldenOutputs:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_digest(self, name):
        run, expected = GOLDEN[name]
        assert run() == expected
