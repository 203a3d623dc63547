import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.stats import gamma as gamma_dist
from scipy.stats import norm

from svasym import measures
from svasym.errors import ValidationError
from svasym.model import ModelParams, VolFnSpec

from golden import digest


OU = ModelParams(m=0.0, nu=math.sqrt(2.0), beta=0.0, rho=0.0, r=0.0,
                 sigma=VolFnSpec.power_abs(1.0, 0.5), y0=0.0)
CIR = ModelParams(m=1.0, nu=1.0, beta=0.5, rho=0.0, r=0.0,
                  sigma=VolFnSpec.power_abs(1.0, 0.25), y0=1.0)


class TestInvariantDensity:
    # a grid of fewer than 3 points, or a count that is not an integer, is a
    # ValidationError from GridSpec itself, not an IndexError in the layers
    @pytest.mark.parametrize("n", [0, 1, 2, 64.0, True])
    def test_grid_count_must_be_an_integer_of_at_least_3(self, n):
        with pytest.raises(ValidationError, match="GridSpec.n must be an integer >= 3"):
            measures.invariant_density(OU, 0.0, measures.GridSpec(n=n))

    def test_gaussian_factor_is_standard_normal(self):
        tab = measures.invariant_density(OU)
        dev = np.max(np.abs(tab.values - norm.pdf(tab.grid)))
        assert dev < 1e-8

    def test_square_root_factor_is_gamma(self):
        tab = measures.invariant_density(CIR, grid_spec=measures.GridSpec(n=16385))
        dev = np.max(np.abs(tab.values - gamma_dist.pdf(tab.grid, a=2.0, scale=0.5)))
        assert dev < 1e-6

    def test_normalized(self):
        tab = measures.invariant_density(OU)
        assert trapezoid(tab.values, tab.grid) == pytest.approx(1.0, abs=1e-12)

    def test_tilt_shifts_gaussian_mean(self):
        # with rho != 0 and constant sigma the tilted drift is an OU process
        # with shifted mean m + rho p sigma0 nu
        params = ModelParams(m=0.0, nu=math.sqrt(2.0), beta=0.0, rho=0.5, r=0.0,
                             sigma=VolFnSpec.constant(0.2), y0=0.0)
        p = 1.5
        tab = measures.invariant_density(params, p)
        expected = params.rho * p * 0.2 * params.nu
        assert tab.mean() == pytest.approx(expected, abs=1e-8)

    def test_density_on_grid_normalizes(self):
        y = np.linspace(-8.0, 8.0, 2001)
        tab = measures.density_on_grid(OU, 0.0, y)
        assert trapezoid(tab.values, tab.grid) == pytest.approx(1.0, abs=1e-12)

    def test_csv_format(self, tmp_path):
        tab = measures.invariant_density(OU, grid_spec=measures.GridSpec(n=16))
        path = tmp_path / "invariant.csv"
        tab.to_csv(path)
        raw = path.read_bytes()
        lines = raw.split(b"\r\n")
        assert lines[0] == b"y,density"
        assert len(lines) == 16 + 2  # header + rows + trailing terminator


class TestSigmaBarSq:
    def test_gaussian_half_power_closed_form(self):
        # E|Z| = sqrt(2/pi) for Z standard normal
        assert measures.sigma_bar_sq(OU) == pytest.approx(
            math.sqrt(2.0 / math.pi), abs=1e-8)

    def test_constant_sigma(self):
        params = ModelParams(m=0.0, nu=math.sqrt(2.0), beta=0.0, rho=0.0, r=0.0,
                             sigma=VolFnSpec.constant(0.2), y0=0.0)
        assert measures.sigma_bar_sq(params) == pytest.approx(0.04, rel=1e-9)

    def test_error_estimate_is_honest(self):
        value, err = measures.sigma_bar_sq(OU, with_error=True)
        assert abs(value - math.sqrt(2.0 / math.pi)) <= max(err * 10, 1e-8)
        assert err >= 0.0


# fast_smile's seed 1, round 1, model 19: on the start window its two
# left-edge density values are 1.0e-305 and 6.8e-304
BETA_094 = ModelParams(
    m=1.6695674881376248, nu=0.3077568909976559, beta=0.9420703286607313,
    rho=-0.4722838923119701, r=0.0, y0=1.6695674881376248,
    sigma=VolFnSpec.power_abs(0.9364373492145881, 0.010289211157427852,
                              0.25654741554830385))


class TestWindow:
    def test_edge_slope_survives_underflow(self):
        # slopes from a density clamped at 1e-300 read 0 at such an edge,
        # so the bound there was inf however far the window grew
        y = np.linspace(0.0, 4.0, 5)
        logw = np.array([-800.0, -700.0, 0.0, -1.0, -2.0])
        left, right = measures._edge_tail_bounds(y, np.exp(logw), logw,
                                                 left_open=True)
        assert left == 0.0
        assert right == pytest.approx(math.exp(-2.0))

    @pytest.mark.parametrize("p", [-2.0, 0.0, 1.0, 2.0])
    def test_underflowing_edge_keeps_the_start_window(self, p):
        assert measures._choose_window(BETA_094, p) == measures._start_window(BETA_094)

    def test_underflowing_edge_model_is_served(self):
        assert measures.sigma_bar_sq(BETA_094) == pytest.approx(0.88853, abs=1e-5)
        tab = measures.invariant_density(BETA_094)
        assert trapezoid(tab.values, tab.grid) == pytest.approx(1.0)


class TestGeneratorForms:
    def test_reversibility(self):
        # |int f B g dpi - int g B f dpi| for f, g vanishing near the edges,
        # limited by the O(dy^2) error of the central differences
        tab = measures.invariant_density(OU)
        f = np.exp(-tab.grid ** 2)
        g = tab.grid * np.exp(-tab.grid ** 2)
        bg = measures._apply_generator(OU, tab.grid, g)
        bf = measures._apply_generator(OU, tab.grid, f)
        assert abs(tab.quad(f * bg) - tab.quad(g * bf)) < 1e-6

    def test_stationarity(self):
        # int B xi dpi = 0 for a compactly supported xi
        tab = measures.invariant_density(OU)
        xi = np.exp(-tab.grid ** 2)
        assert abs(tab.quad(measures._apply_generator(OU, tab.grid, xi))) < 1e-5

    def test_generator_on_linear_function(self):
        # B y = (m - y) for the untilted Gaussian factor
        tab = measures.invariant_density(OU)
        out = measures._apply_generator(OU, tab.grid, tab.grid)
        core = slice(tab.grid.size // 4, -tab.grid.size // 4)
        assert np.max(np.abs(out[core] - (OU.m - tab.grid[core]))) < 1e-8


# Deterministic outputs pinned bit for bit: any change to the window
# search, the grids, the density quadrature or the Richardson step changes
# these digests.
OU_RHO = replace(OU, rho=-0.5)
CIR_RHO = replace(CIR, rho=-0.5)


def _density(params):
    tab = measures.invariant_density(params, 0.5)
    return digest(tab.grid, tab.values, [tab.norm_constant])


GOLDEN = {
    "sigma_bar_sq_ou": (
        lambda: digest(measures.sigma_bar_sq(OU, with_error=True)), "46e3e9399fdcddc0"),
    "sigma_bar_sq_cir": (
        lambda: digest(measures.sigma_bar_sq(CIR, with_error=True)), "c1f2f76315a04237"),
    "invariant_ou_rho": (lambda: _density(OU_RHO), "e135e27512da3e9a"),
    "invariant_cir_rho": (lambda: _density(CIR_RHO), "6f11b847d04ce20c"),
}


class TestGoldenOutputs:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_digest(self, name):
        run, expected = GOLDEN[name]
        assert run() == expected
