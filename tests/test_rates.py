import hashlib
import math
import warnings

import numpy as np
import pytest

from svasym import hamiltonian as ham
from svasym import rates, verify
from svasym.errors import ATMWarning, RangeError, ResolutionError, ValidationError
from svasym.model import ModelParams, Regime, VolFnSpec
from svasym.simulate import McConfig

CONST = ModelParams(m=0.0, nu=math.sqrt(2.0), beta=0.0, rho=0.0, r=0.0,
                    sigma=VolFnSpec.constant(0.2), y0=0.0)
SBAR2 = 0.04  # averaged variance of the constant-sigma model


@pytest.fixture(scope="module")
def const_legendre():
    curve = ham.build_curve(CONST, np.linspace(-40, 40, 8001),
                            method="closed-form")
    return ham.legendre(curve, np.linspace(-1.5, 1.5, 3001))


class TestRateFunctions:
    def test_quadratic_rate_value(self):
        # |x0 - x|^2 / (2 sbar^2 t)
        assert rates.rate_i4(0.3, 0.0, 1.0, SBAR2) == pytest.approx(
            0.09 / 0.08, rel=1e-12)

    def test_quadratic_rate_validations(self):
        with pytest.raises(ValidationError):
            rates.rate_i4(0.3, 0.0, 0.0, SBAR2)
        with pytest.raises(ValidationError):
            rates.rate_i4(0.3, 0.0, 1.0, -1.0)

    def test_regimes_collapse_for_constant_sigma(self, const_legendre):
        x = np.linspace(-1.0, 1.0, 41)
        i4 = rates.rate_i4(x, 0.0, 1.0, SBAR2)
        i2 = rates.rate_i2(x, 0.0, 1.0, const_legendre)
        assert np.max(np.abs(i2 - i4)) < 1e-6

    def test_rate_curve_requires_ingredients(self):
        with pytest.raises(ValidationError):
            rates.rate_curve(Regime.ULTRA_FAST, 0.0, 1.0, [0.0, 0.1])
        with pytest.raises(ValidationError):
            rates.rate_curve(Regime.FAST, 0.0, 1.0, [0.0, 0.1])

    def test_rate_curve_interpolates_and_guards(self):
        curve = rates.rate_curve(Regime.ULTRA_FAST, 0.0, 1.0,
                                 np.linspace(-1, 1, 201), sigma_bar_sq=SBAR2)
        assert curve(0.4) == pytest.approx(rates.rate_i4(0.4, 0.0, 1.0, SBAR2),
                                           abs=1e-4)
        with pytest.raises(RangeError):
            curve(2.0)

    def test_csv_format(self, tmp_path):
        curve = rates.rate_curve(Regime.ULTRA_FAST, 0.0, 1.0,
                                 np.linspace(-1, 1, 11), sigma_bar_sq=SBAR2)
        path = tmp_path / "rate.csv"
        curve.to_csv(path)
        assert path.read_bytes().split(b"\r\n")[0] == b"x,rate,regime"


class TestLax:
    def test_quadratic_payoff_closed_form(self):
        # h(x') = -x'^2/2 against the quadratic cost q^2/(2 b):
        # u(t, x) = -x^2 / (2 (1 + b t))
        b, t = SBAR2, 1.0
        grid = np.linspace(-5, 5, 20001)
        h = -0.5 * grid ** 2
        for x in (0.0, 0.3, -0.7):
            val = rates.lax_solution(grid, h, t, x, Regime.ULTRA_FAST,
                                     sigma_bar_sq=b)
            assert val == pytest.approx(-x * x / (2 * (1 + b * t)), abs=1e-7)

    def test_constant_payoff_is_invariant(self):
        grid = np.linspace(-5, 5, 2001)
        h = np.full_like(grid, 1.3)
        val = rates.lax_solution(grid, h, 1.0, 0.2, Regime.ULTRA_FAST,
                                 sigma_bar_sq=SBAR2)
        assert val == pytest.approx(1.3, abs=1e-10)

    def test_matches_brute_force_on_tent(self, const_legendre):
        grid = np.linspace(-5, 5, 20001)
        h = -np.abs(grid - 0.2)
        t, x = 1.0, 0.1
        val = rates.lax_solution(grid, h, t, x, Regime.FAST,
                                 legendre=const_legendre)
        cost = np.interp((x - grid) / t, const_legendre.q_grid,
                         const_legendre.values)
        brute = np.max(h - t * cost)
        assert val == pytest.approx(brute, abs=1e-6)

    def test_edge_supremum_raises(self):
        # with cost slope b t x* = 0.04 * 10 = 0.4 the supremum sits well
        # outside this narrow payoff table
        grid = np.linspace(-0.1, 0.1, 21)
        h = 10.0 * grid
        with pytest.raises(RangeError):
            rates.lax_solution(grid, h, 1.0, 0.0, Regime.ULTRA_FAST,
                               sigma_bar_sq=SBAR2)


class TestPricesAndSmiles:
    def test_price_decay_rate(self):
        val = rates.option_price_log_asymptote(1.2, 0.0, 1.0,
                                               Regime.ULTRA_FAST,
                                               sigma_bar_sq=SBAR2)
        lk = math.log(1.2)
        assert val == pytest.approx(-lk * lk / (2 * SBAR2), rel=1e-12)

    def test_put_side_same_rate(self):
        call = rates.option_price_log_asymptote(1.2, 0.0, 1.0,
                                                Regime.ULTRA_FAST,
                                                sigma_bar_sq=SBAR2)
        put = rates.option_price_log_asymptote(1 / 1.2, 0.0, 1.0,
                                               Regime.ULTRA_FAST,
                                               sigma_bar_sq=SBAR2)
        assert put == pytest.approx(call, rel=1e-12)

    def test_atm_degenerates_with_warning(self):
        with pytest.warns(ATMWarning):
            val = rates.option_price_log_asymptote(1.0, 0.0, 1.0,
                                                   Regime.ULTRA_FAST,
                                                   sigma_bar_sq=SBAR2)
        assert val == 0.0

    def test_fast_atm_degenerates_with_warning(self, const_legendre):
        with pytest.warns(ATMWarning):
            val = rates.option_price_log_asymptote(1.0, 0.0, 1.0, Regime.FAST,
                                                   legendre=const_legendre)
        assert val == 0.0

    def test_strike_must_be_positive(self):
        with pytest.raises(ValidationError):
            rates.option_price_log_asymptote(0.0, 0.0, 1.0,
                                             Regime.ULTRA_FAST,
                                             sigma_bar_sq=SBAR2)

    def test_ultra_fast_smile_is_flat(self):
        logk = np.linspace(-0.5, 0.5, 101)
        smile = rates.implied_vol_curve(0.0, Regime.ULTRA_FAST, 1.0, logk,
                                        sigma_bar_sq=SBAR2)
        assert np.max(np.abs(smile.values / SBAR2 - 1.0)) < 1e-10
        assert smile.atm_value == SBAR2

    def test_fast_smile_flat_for_constant_sigma(self, const_legendre):
        logk = np.linspace(-0.4, 0.4, 81)
        smile = rates.implied_vol_curve(0.0, Regime.FAST, 1.0, logk,
                                        sigma_bar_sq=SBAR2,
                                        legendre=const_legendre)
        assert np.max(np.abs(smile.values / SBAR2 - 1.0)) < 1e-4

    def test_smile_csv_format(self, tmp_path):
        logk = np.linspace(-0.1, 0.1, 5)
        smile = rates.implied_vol_curve(0.0, Regime.ULTRA_FAST, 1.0, logk,
                                        sigma_bar_sq=SBAR2)
        path = tmp_path / "smile.csv"
        smile.to_csv(path)
        assert path.read_bytes().split(b"\r\n")[0] == b"logK,implied_var,regime"


class TestAtmProbe:
    def test_probe_trends_to_averaged_variance(self):
        # a cost with a quartic correction: q^2/(2 b) + q^4 gives the ratio
        # b / (1 + 2 b q^2), which climbs to b as the probe points shrink
        q = np.linspace(-1.0, 1.0, 4001)
        leg = ham.LegendreCurve(q_grid=q,
                                values=q ** 2 / (2 * SBAR2) + q ** 4,
                                p_star=np.zeros_like(q),
                                flags=("interior",) * q.size)
        probe = rates.atm_conjecture_probe(1.0, leg, target=SBAR2)
        assert probe.trending is True
        # the smallest probe points sit between table nodes, so linear
        # interpolation caps the attainable accuracy near the vertex
        assert probe.ratio[-1] == pytest.approx(SBAR2, rel=1e-2)

    def test_noise_floor_guard(self):
        q = np.linspace(-1, 1, 101)
        flat = ham.LegendreCurve(q_grid=q, values=np.zeros_like(q),
                                 p_star=np.zeros_like(q),
                                 flags=("interior",) * q.size)
        with pytest.raises(ResolutionError):
            rates.atm_conjecture_probe(1.0, flat, target=SBAR2)


# Rate, Hopf-Lax and smile outputs pinned bit for bit on a small asymmetric
# curve: any change to their arithmetic or operand order changes these.
P_GOLD = np.linspace(-2.0, 2.0, 33)
H_GOLD = 0.02 * P_GOLD ** 2 + 0.004 * P_GOLD ** 3 + 0.003 * P_GOLD ** 4
LEG_GOLD = ham.legendre(
    ham.HamiltonianCurve(p_grid=P_GOLD, values=H_GOLD, method="eigen",
                         errors=np.zeros_like(P_GOLD)),
    np.linspace(-0.2, 0.3, 201))
X0, T_GOLD, SBAR2_GOLD = 0.05, 0.8, 0.037
X_GOLD = X0 + T_GOLD * np.linspace(-0.19, 0.15, 37)
# x0 sits on the grid, so the ATM band is exercised
LOGK_GOLD = X0 + np.linspace(-0.15, 0.15, 61)
H_TABLE = X0 + np.linspace(-1.0, 1.0, 301)
PAYOFF = -0.5 * (H_TABLE - X0) ** 2 + 0.1 * np.sin(3.0 * H_TABLE)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part, dtype="<f8").tobytes())
    return h.hexdigest()[:16]


def _rate_curve(regime):
    c = rates.rate_curve(regime, X0, T_GOLD, X_GOLD, sigma_bar_sq=SBAR2_GOLD,
                         legendre=LEG_GOLD)
    return _digest(c.x_grid, c.values)


def _lax(regime):
    x = X_GOLD[::3]
    kw = dict(sigma_bar_sq=SBAR2_GOLD, legendre=LEG_GOLD)
    vals = rates.lax_solution(H_TABLE, PAYOFF, T_GOLD, x, regime, **kw)
    one = rates.lax_solution(H_TABLE, PAYOFF, T_GOLD, x[2], regime, **kw)
    return _digest(vals, [one])


def _smile(regime):
    sm = rates.implied_vol_curve(X0, regime, T_GOLD, LOGK_GOLD,
                                 sigma_bar_sq=SBAR2_GOLD, legendre=LEG_GOLD)
    return _digest(sm.logK_grid, sm.values, [sm.atm_value])


def _probe():
    pr = rates.atm_conjecture_probe(T_GOLD, LEG_GOLD, target=SBAR2_GOLD)
    return _digest(pr.z, pr.ratio, [pr.trending])


GOLDEN = {
    "rate_i2": (lambda: _digest(
        rates.rate_i2(X_GOLD, X0, T_GOLD, LEG_GOLD),
        [rates.rate_i2(X_GOLD[5], X0, T_GOLD, LEG_GOLD)]), "0bf5961b97bd8553"),
    "rate_curve_fast": (lambda: _rate_curve(Regime.FAST), "ac99a605d5718bb0"),
    "rate_curve_ultra_fast": (lambda: _rate_curve(Regime.ULTRA_FAST),
                              "15bc50ef47f6f8c0"),
    "lax_fast": (lambda: _lax(Regime.FAST), "07cac3e5c2e3a0cd"),
    "lax_ultra_fast": (lambda: _lax(Regime.ULTRA_FAST), "4ac1dea2978c2bef"),
    "smile_fast": (lambda: _smile(Regime.FAST), "303d2a573b7022e6"),
    "smile_ultra_fast": (lambda: _smile(Regime.ULTRA_FAST), "840f224ba09e6cd3"),
    "atm_probe": (_probe, "3ce93e934a3ba715"),
}


class TestTransformGoldens:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_digest(self, name):
        run, expected = GOLDEN[name]
        assert run() == expected

    @pytest.mark.parametrize("regime", [Regime.FAST, Regime.ULTRA_FAST])
    def test_smile_matches_per_point_formula(self, regime):
        # a fine grid, so the last-bit rounding of the square is exercised
        logk = X0 + np.linspace(-0.15, 0.15, 4001)
        band = float(np.min(np.diff(logk)))
        sm = rates.implied_vol_curve(X0, regime, T_GOLD, logk,
                                     sigma_bar_sq=SBAR2_GOLD, legendre=LEG_GOLD)
        rate = ((lambda lk: rates.rate_i2(lk, X0, T_GOLD, LEG_GOLD))
                if regime is Regime.FAST else
                (lambda lk: rates.rate_i4(lk, X0, T_GOLD, SBAR2_GOLD)))
        ref = np.array([SBAR2_GOLD if abs(lk - X0) < band
                        else (lk - X0) ** 2 / (2.0 * rate(lk) * T_GOLD)
                        for lk in logk])
        assert sm.values.tobytes() == ref.tobytes()

    def test_rate_i4_rounds_scalars_like_arrays(self):
        logk = X0 + np.linspace(-0.15, 0.15, 4001)
        arr = rates.rate_i4(logk, X0, T_GOLD, SBAR2_GOLD)
        one = np.array([rates.rate_i4(np.array([lk]), X0, T_GOLD, SBAR2_GOLD)[0]
                        for lk in logk])
        scalar = np.array([rates.rate_i4(lk, X0, T_GOLD, SBAR2_GOLD)
                           for lk in logk])
        assert arr.tobytes() == one.tobytes() == scalar.tobytes()

    def test_rate_i2_outside_legendre_range(self):
        # x0 - 10 asks for q = 12.5, the first point outside [-0.2, 0.3]
        x = np.array([X0, X0 - 10.0, X0 + 8.0])
        with pytest.raises(RangeError, match=r"^q = 12\.5 outside"):
            rates.rate_i2(x, X0, T_GOLD, LEG_GOLD)

    def test_degenerate_triple_takes_the_sample(self):
        # a zero cost leaves the payoff itself, whose argmax triple has
        # differences that underflow (denom == 0)
        zero = ham.LegendreCurve(q_grid=np.linspace(-10.0, 10.0, 5),
                                 values=np.zeros(5), p_star=np.zeros(5),
                                 flags=("interior",) * 5)
        grid = np.linspace(-1.0, 1.0, 9)
        h = np.array([-1.0, 0.0, 5e-324, 5e-324, -1.0, -2.0, -3.0, -4.0, -5.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            val = rates.lax_solution(grid, h, 1.0, 0.0, Regime.FAST,
                                     legendre=zero)
        assert val == 5e-324


# Each call lacks its regime's ingredient (or has a negative sigma_bar^2) and
# must end in ValidationError, raised before any Monte Carlo work.
def _ldp_tail(regime):
    return verify.ldp_tail(CONST, regime, 0.15, 1.0, (0.5, 0.4, 0.3),
                           McConfig(paths=10))


BAD_INGREDIENT = {
    "price_ultra_fast": lambda: rates.option_price_log_asymptote(
        1.2, 0.0, 1.0, Regime.ULTRA_FAST),
    "price_fast": lambda: rates.option_price_log_asymptote(
        1.2, 0.0, 1.0, Regime.FAST),
    # at the money the asymptote is 0, but the ingredient is still checked
    "price_atm_ultra_fast": lambda: rates.option_price_log_asymptote(
        1.0, 0.0, 1.0, Regime.ULTRA_FAST),
    "price_atm_ultra_fast_negative_sigma_bar_sq": lambda:
        rates.option_price_log_asymptote(1.0, 0.0, 1.0, Regime.ULTRA_FAST,
                                         sigma_bar_sq=-1.0),
    "price_atm_fast": lambda: rates.option_price_log_asymptote(
        1.0, 0.0, 1.0, Regime.FAST),
    "ldp_tail_ultra_fast": lambda: _ldp_tail(Regime.ULTRA_FAST),
    "ldp_tail_fast": lambda: _ldp_tail(Regime.FAST),
    "smile_fast": lambda: rates.implied_vol_curve(
        X0, Regime.FAST, T_GOLD, LOGK_GOLD, sigma_bar_sq=SBAR2_GOLD),
    "rate_i2": lambda: rates.rate_i2(X_GOLD, X0, T_GOLD, None),
    "regime_compare": lambda: verify.regime_compare(
        X_GOLD, X0, T_GOLD, sigma_bar_sq=SBAR2_GOLD, legendre=None),
    "smile_fast_negative_sigma_bar_sq": lambda: rates.implied_vol_curve(
        X0, Regime.FAST, T_GOLD, LOGK_GOLD, sigma_bar_sq=-1.0,
        legendre=LEG_GOLD),
}


@pytest.mark.parametrize("name", sorted(BAD_INGREDIENT))
def test_missing_or_invalid_ingredient_is_validation_error(name):
    with pytest.raises(ValidationError):
        BAD_INGREDIENT[name]()
