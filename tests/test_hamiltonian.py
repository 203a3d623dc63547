import hashlib
import math
import warnings

import numpy as np
import pytest

from svasym import hamiltonian as ham
from svasym import measures
from svasym.errors import RangeError, ValidationError
from svasym.model import ModelParams, VolFnSpec
from svasym.simulate import McConfig

OU = ModelParams(m=0.0, nu=math.sqrt(2.0), beta=0.0, rho=0.0, r=0.0,
                 sigma=VolFnSpec.power_abs(1.0, 0.5), y0=0.0)
CONST = ModelParams(m=0.0, nu=math.sqrt(2.0), beta=0.0, rho=0.0, r=0.0,
                    sigma=VolFnSpec.constant(0.2), y0=0.0)


class TestEigen:
    def test_constant_sigma_quadratic(self):
        # with sigma frozen the functional is deterministic:
        # Hbar0(p) = sigma0^2 p^2 / 2 exactly
        val, err = ham.hbar0_eigen(CONST, 2.0)
        assert val == pytest.approx(0.5 * 0.04 * 4.0, abs=1e-9)
        assert err < 1e-9

    def test_symmetry_without_correlation(self):
        vp, _ = ham.hbar0_eigen(OU, 1.0)
        vm, _ = ham.hbar0_eigen(OU, -1.0)
        assert vp == pytest.approx(vm, abs=1e-10)

    def test_dominates_averaged_variance_parabola(self):
        # the constant test function in the variational form gives the
        # lower bound (sbar^2 / 2) p^2
        sbar2 = measures.sigma_bar_sq(OU)
        val, _ = ham.hbar0_eigen(OU, 1.0)
        assert val >= 0.5 * sbar2 - 1e-8

    def test_error_estimate_is_honest(self):
        coarse, err = ham.hbar0_eigen(OU, 1.0, grid_spec=measures.GridSpec(n=513))
        fine, _ = ham.hbar0_eigen(OU, 1.0, grid_spec=measures.GridSpec(n=4097))
        assert abs(coarse - fine) <= max(10.0 * err, 1e-10)


class TestBuildCurve:
    def test_closed_form_pins_origin(self):
        curve = ham.build_curve(CONST, np.linspace(-2, 2, 9), method="closed-form")
        assert curve(0.0) == 0.0
        assert curve(2.0) == pytest.approx(0.08, abs=1e-12)

    def test_grid_must_be_symmetric_with_zero(self):
        with pytest.raises(ValidationError):
            ham.build_curve(CONST, [0.0, 1.0, 2.0], method="closed-form")
        with pytest.raises(ValidationError):
            ham.build_curve(CONST, [-2.0, 0.5, 2.0], method="closed-form")

    def test_closed_form_requires_constant_sigma(self):
        with pytest.raises(ValidationError):
            ham.build_curve(OU, np.linspace(-1, 1, 5), method="closed-form")

    def test_eigen_curve_is_convex(self):
        curve = ham.build_curve(OU, np.linspace(-1.5, 1.5, 13))
        d2 = np.diff(curve.values, 2)
        assert np.min(d2) > -1e-8

    def test_call_outside_range(self):
        curve = ham.build_curve(CONST, np.linspace(-1, 1, 5), method="closed-form")
        with pytest.raises(RangeError):
            curve(1.5)

    def test_mc_horizon_guard(self):
        with pytest.raises(ValidationError):
            ham.hbar0_mc(CONST, 1.0, 5.0, McConfig(paths=10))

    def test_mc_forms_draw_derived_substreams(self, monkeypatch):
        # with seed + 1 for the martingale form, seed s and seed s + 1
        # shared a stream
        seeds, real = [], ham.simulate_tilted

        def spy(params, T, mc, **kw):
            seeds[-1].add(mc.seed)
            return real(params, T, mc, **kw)

        monkeypatch.setattr(ham, "simulate_tilted", spy)
        for seed in (5, 6):
            seeds.append(set())
            ham.hbar0_mc(OU, 0.5, 10.5, McConfig(paths=16, seed=seed))
        assert len(seeds[0]) == len(seeds[1]) == 2
        assert not seeds[0] & seeds[1]

    def test_csv_format(self, tmp_path):
        curve = ham.build_curve(CONST, np.linspace(-1, 1, 5), method="closed-form")
        path = tmp_path / "hamiltonian.csv"
        curve.to_csv(path)
        lines = path.read_bytes().split(b"\r\n")
        assert lines[0] == b"p,value,err"


class TestConjugacy:
    def test_conjugate_of_quadratic(self):
        # f(x) = a x^2 / 2  =>  f*(q) = q^2 / (2a)
        a = 0.7
        x = np.linspace(-10, 10, 4001)
        f = 0.5 * a * x ** 2
        q = np.linspace(-3, 3, 41)
        vals, x_star, flags = ham.conjugate(x, f, q)
        assert np.max(np.abs(vals - q ** 2 / (2 * a))) < 1e-6
        assert np.max(np.abs(x_star - q / a)) < 1e-3
        assert set(flags) == {"interior"}

    def test_range_error_without_extrapolation(self):
        x = np.linspace(-1, 1, 101)
        f = 0.5 * x ** 2
        with pytest.raises(RangeError):
            ham.conjugate(x, f, [5.0], extrapolate=False)

    def test_edge_slope_flagged_extrapolated(self):
        x = np.linspace(-1, 1, 101)
        f = 0.5 * x ** 2
        _, _, flags = ham.conjugate(x, f, [5.0])
        assert flags == ("extrapolated",)

    def test_legendre_of_quadratic_hamiltonian(self):
        # Lbar0(q) = q^2 / (2 sigma0^2) for the constant-sigma curve
        curve = ham.build_curve(CONST, np.linspace(-40, 40, 8001),
                                method="closed-form")
        q = np.linspace(-1, 1, 101)
        leg = ham.legendre(curve, q)
        assert np.max(np.abs(leg.values - q ** 2 / (2 * 0.04))) < 1e-6

    def test_biconjugation_recovers_hull(self):
        curve = ham.build_curve(CONST, np.linspace(-40, 40, 8001),
                                method="closed-form")
        q = np.linspace(-1.6, 1.6, 2001)  # covers slopes of |p| <= 40
        back = ham.biconjugate(curve, q)
        interior = np.abs(curve.p_grid) <= 30
        assert np.max(np.abs(back[interior] - curve.values[interior])) < 1e-6

    def test_convex_hull_repairs_dents(self):
        x = np.linspace(-1, 1, 201)
        f = x ** 2
        dented = f.copy()
        dented[100] += 0.05  # a concave spike at the bottom
        hull = ham._convex_hull_values(x, dented)
        assert np.all(hull <= dented + 1e-12)
        assert hull[100] < dented[100]
        # convexity of the repaired curve
        assert np.min(np.diff(hull, 2)) > -1e-12


# Transform outputs pinned bit for bit: any change to the sup scan, the
# parabolic refinement or their operand order changes these digests.
P_GOLD = np.linspace(-2.0, 2.0, 33)
H_GOLD = 0.02 * P_GOLD ** 2 + 0.004 * P_GOLD ** 3 + 0.003 * P_GOLD ** 4
H_GOLD[20] += 2e-4   # a concave dent for the hull to repair
CURVE_GOLD = ham.HamiltonianCurve(p_grid=P_GOLD, values=H_GOLD, method="eigen",
                                  errors=np.zeros_like(P_GOLD))
# slopes of H_GOLD span about [-0.128, 0.224]: both ends extrapolate
Q_GOLD = np.linspace(-0.2, 0.3, 201)
X_UNEVEN = np.cumsum(0.05 + 0.04 * np.sin(np.arange(40.0)))
F_UNEVEN = np.exp(0.5 * (X_UNEVEN - 0.8)) + 0.1 * X_UNEVEN ** 2


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part, dtype="<f8").tobytes())
    return h.hexdigest()[:16]


def _flags(flags):
    return [f == "interior" for f in flags]


def _conjugate_loop(x, f, q):
    """Per-point reference: scan each q, then take the vertex of the
    parabola through the argmax triple, clipped to the triple."""
    out, x_star, flags = [], [], []
    for qj in q:
        vals = qj * x - f
        i = int(np.argmax(vals))
        if i == 0 or i == x.size - 1:
            out.append(vals[i])
            x_star.append(x[i])
            flags.append("extrapolated")
            continue
        xa, xb, xc = x[i - 1:i + 2]
        fa, fb, fc = vals[i - 1:i + 2]
        denom = (xa - xb) * (fb - fc) - (xb - xc) * (fa - fb)
        if abs(denom) > 0:
            num = (xa * xa - xb * xb) * (fb - fc) - (xb * xb - xc * xc) * (fa - fb)
            xv = min(max(0.5 * num / denom, xa), xc)
            la = (xv - xb) * (xv - xc) / ((xa - xb) * (xa - xc))
            lb = (xv - xa) * (xv - xc) / ((xb - xa) * (xb - xc))
            lc = (xv - xa) * (xv - xb) / ((xc - xa) * (xc - xb))
            out.append(la * fa + lb * fb + lc * fc)
            x_star.append(xv)
        else:
            out.append(fb)
            x_star.append(xb)
        flags.append("interior")
    return np.array(out), np.array(x_star), tuple(flags)


def _conjugate(x, f, q):
    values, x_star, flags = ham.conjugate(x, f, q)
    return _digest(values, x_star, _flags(flags))


def _legendre():
    leg = ham.legendre(CURVE_GOLD, Q_GOLD)
    return _digest(leg.q_grid, leg.values, leg.p_star, _flags(leg.flags))


GOLDEN = {
    "conjugate_uniform": (lambda: _conjugate(P_GOLD, H_GOLD, Q_GOLD),
                          "657fc374270ae0c6"),
    "conjugate_uneven": (
        lambda: _conjugate(X_UNEVEN, F_UNEVEN, np.linspace(0.0, 1.5, 97)),
        "d8fec6781942d9eb"),
    "legendre": (_legendre, "30babf94052e5c4d"),
    "biconjugate": (lambda: _digest(ham.biconjugate(CURVE_GOLD, Q_GOLD)),
                    "ba9c207a13469a23"),
}


class TestTransformGoldens:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_digest(self, name):
        run, expected = GOLDEN[name]
        assert run() == expected

    def test_matches_per_point_reference(self):
        rng = np.random.default_rng(7)
        for n in (5, 60, 700):
            x = np.sort(rng.uniform(-2.0, 2.0, n))
            f = np.cumsum(np.cumsum(rng.uniform(0.0, 0.02, n))) - 0.3 * x
            q = rng.uniform(-1.0, 1.0, 2 * n)
            got = ham.conjugate(x, f, q)
            ref = _conjugate_loop(x, f, q)
            assert got[0].tobytes() == ref[0].tobytes()
            assert got[1].tobytes() == ref[1].tobytes()
            assert got[2] == ref[2]

    def test_first_edge_q_is_named(self):
        x = np.linspace(-1, 1, 101)
        with pytest.raises(RangeError, match=r"^q = 5\.0 is outside"):
            ham.conjugate(x, 0.5 * x ** 2, [0.0, 0.3, 5.0, -3.0, 0.1],
                          extrapolate=False)

    def test_degenerate_triple_takes_the_sample(self):
        # the triple's differences underflow, so the parabola through it is
        # degenerate (denom == 0): the sample itself is the sup, silently
        x = np.linspace(-1.0, 1.0, 9)
        f = np.array([1.0, 0.0, -5e-324, -5e-324, 1.0, 2.0, 3.0, 4.0, 5.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            values, x_star, flags = ham.conjugate(x, f, [0.0])
        assert values[0] == 5e-324 and x_star[0] == x[2]
        assert flags == ("interior",)
