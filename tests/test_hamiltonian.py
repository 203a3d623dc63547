import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from svasym import hamiltonian as ham
from svasym import measures, poisson
from svasym.errors import ResolutionError, ValidationError
from svasym.model import ModelParams, VolFnSpec
from svasym.simulate import McConfig, substream_seed

from golden import digest


OU = ModelParams(m=0.0, nu=math.sqrt(2.0), beta=0.0, rho=0.0, r=0.0,
                 sigma=VolFnSpec.power_abs(1.0, 0.5), y0=0.0)
CONST = ModelParams(m=0.0, nu=math.sqrt(2.0), beta=0.0, rho=0.0, r=0.0,
                    sigma=VolFnSpec.constant(0.2), y0=0.0)


# tridiagonal, with eigenvalues near 0.990, 2.000 and 3.010
TRI = (np.array([1.0, 2.0, 3.0]), np.array([0.1, 0.1]))
# at p = 2 the eigenfunction reaches past the invariant law's window, so the
# eigen route grows it
CIR = ModelParams(m=1.0, nu=1.0, beta=0.5, rho=0.0, r=0.0,
                  sigma=VolFnSpec.power_abs(1.0, 0.25), y0=1.0)


class TestEigen:
    # GridSpec rejects a count below 3 before the eigen route indexes it
    @pytest.mark.parametrize("n", [0, 1, 2, 64.0, True])
    def test_grid_count_must_be_an_integer_of_at_least_3(self, n):
        with pytest.raises(ValidationError, match="GridSpec.n must be an integer >= 3"):
            ham.hbar0_eigen(OU, 1.0, grid_spec=measures.GridSpec(n=n))

    def test_constant_sigma_quadratic(self):
        # with sigma frozen the functional is deterministic:
        # Hbar0(p) = sigma0^2 p^2 / 2 exactly, and the potential's bracket
        # is that single point
        cir_const = ModelParams(m=1.0, nu=1.0, beta=0.5, rho=-0.5, r=0.0,
                                sigma=VolFnSpec.constant(0.3), y0=1.0)
        for params in (CONST, cir_const):
            for p in (-2.0, 0.5, 2.0, 5.0):
                val, err = ham.hbar0_eigen(params, p)
                exact = 0.5 * params.sigma.s0 ** 2 * p * p
                assert val == pytest.approx(exact, rel=1e-9)
                assert err < 1e-9

    def test_symmetry_without_correlation(self):
        for p in (0.25, 1.0, 2.0):
            assert ham.hbar0_eigen(OU, p) == ham.hbar0_eigen(OU, -p)

    def test_dominates_averaged_variance_parabola(self):
        # the constant test function in the variational form gives the
        # lower bound (sbar^2 / 2) p^2
        sbar2 = measures.sigma_bar_sq(OU)
        val, _ = ham.hbar0_eigen(OU, 1.0)
        assert val >= 0.5 * sbar2 - 1e-8

    # below the floor a value misses by more than its error bar: OU at p = 1
    # is 40% off on 9 nodes (1.1x its bar), CIR at p = 2 2.2e-3 off on 129
    # (7.4x); n = 128 is made odd, to 129 nodes
    @pytest.mark.parametrize("params, p, n", [(OU, 1.0, 9), (CIR, 2.0, 128)],
                             ids=["ou_9", "cir_129"])
    def test_grid_below_the_floor_raises(self, params, p, n):
        with pytest.raises(ResolutionError, match="at least 257 grid nodes"):
            ham.hbar0_eigen(params, p, grid_spec=measures.GridSpec(n=n))

    def test_grid_at_the_floor_is_within_its_bar(self):
        # n = 256 is made odd, to the floor's 257 nodes
        val, err = ham.hbar0_eigen(CIR, 2.0, grid_spec=measures.GridSpec(n=256))
        ref, _ = ham.hbar0_eigen(CIR, 2.0, grid_spec=measures.GridSpec(n=16385))
        assert abs(val - ref) <= err

    def test_error_estimate_is_honest(self):
        coarse, err = ham.hbar0_eigen(OU, 1.0, grid_spec=measures.GridSpec(n=513))
        fine, _ = ham.hbar0_eigen(OU, 1.0, grid_spec=measures.GridSpec(n=4097))
        assert abs(coarse - fine) <= max(10.0 * err, 1e-10)


class TestBracketSolve:
    """The top eigenvalue is bisected inside the potential's bracket, to a
    tolerance relative to the bracket, not to the matrix norm."""

    @pytest.mark.parametrize("rho", [0.0, -0.5])
    @pytest.mark.parametrize("ratio", [1.2, 1.5, 2.0, 3.0])
    def test_heston_closed_form(self, ratio, rho):
        # Feng, Forde & Fouque (2010): sigma = sqrt(y) on the CIR factor
        # with Feller ratio 2 m / nu^2; finite while (1 - rho p nu)^2 > nu^2 p^2
        prm = ModelParams(m=0.5 * ratio, nu=1.0, beta=0.5, rho=rho, r=0.0,
                          sigma=VolFnSpec.power_abs(1.0, 0.5), y0=0.5 * ratio)
        for p in (-0.5, 0.3, 0.6, 0.9):
            a = 1.0 - rho * p * prm.nu
            assert a * a > (prm.nu * p) ** 2
            exact = prm.m * (a - math.sqrt(a * a - (prm.nu * p) ** 2)) / prm.nu ** 2
            val, err = ham.hbar0_eigen(prm, p)
            assert abs(val - exact) <= err, (p, val, exact, err)

    def test_curve_solves_each_momentum_once_without_correlation(self, monkeypatch):
        calls, real = [], ham.hbar0_eigen

        def spy(params, p, **kw):
            calls.append(p)
            return real(params, p, **kw)

        monkeypatch.setattr(ham, "hbar0_eigen", spy)
        p_grid = np.linspace(-2.0, 2.0, 17)
        curve = ham.build_curve(OU, p_grid)
        assert sorted(calls) == list(p_grid[9:])
        assert curve.values.tobytes() == curve.values[::-1].tobytes()
        assert curve.errors.tobytes() == curve.errors[::-1].tobytes()
        calls.clear()
        ham.build_curve(replace(OU, rho=-0.5), p_grid)
        assert len(calls) == 16

    @pytest.mark.parametrize("params, p", [(OU, 1.0), (CIR, 2.0)],
                             ids=["one_window", "grown_window"])
    def test_fine_solve_requests_no_eigenvector(self, params, p, monkeypatch):
        # the window grows on the coarse grid, whose eigenvector gives the
        # edge mass; the fine grid is solved once, for its eigenvalue alone
        sizes, windows = [], []
        real_stein, real_grid = ham.dstein, ham._make_grid

        def stein(d, *args):
            sizes.append(d.size)
            return real_stein(d, *args)

        def grid(prm, lo, hi, n):
            windows.append((lo, hi, n))
            return real_grid(prm, lo, hi, n)

        monkeypatch.setattr(ham, "dstein", stein)
        monkeypatch.setattr(ham, "_make_grid", grid)
        ham.hbar0_eigen(params, p, grid_spec=measures.GridSpec(n=1001))
        assert set(sizes) == {501} and len(sizes) == len(windows) - 1
        assert [n for _, _, n in windows] == [501] * len(sizes) + [1001]
        assert windows[-1][:2] == windows[-2][:2]
        fine = real_grid(params, *windows[-1])
        assert ham._rayleigh_top(params, p, fine, vector=False)[1] is None
        assert set(sizes) == {501}

    def test_zero_momentum(self):
        # the bracket is [0, 0]: hbar0_eigen returns the normalization, and
        # the bare solve names its empty bracket
        assert ham.hbar0_eigen(OU, 0.0) == (0.0, 0.0)
        lo, hi = measures._choose_window(OU, 0.0)
        with pytest.raises(ResolutionError, match=r"bracket \[0\.0, 0\.0\]"):
            ham._rayleigh_top(OU, 0.0, measures._make_grid(OU, lo, hi, 1001))

    # a guess at the second eigenvalue or below the top meets the top in the
    # count; one above the top finds its narrow bracket empty; one at hi is
    # not used: each takes the potential's bracket
    @pytest.mark.parametrize("guess", ["second", "below_top", "above_top",
                                       "at_hi", "top"])
    @pytest.mark.parametrize("vector", [False, True])
    def test_guessed_solve_matches_the_cold_one(self, guess, vector):
        d, e = TRI
        lo, hi = 0.5, 3.5
        eig = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        g = {"second": eig[1], "below_top": eig[2] - 1e-3,
             "above_top": eig[2] + 1e-3, "at_hi": hi, "top": eig[2]}[guess]
        cold, cold_vec = ham._top_eigen(d, e, lo, hi, vector)
        val, vec = ham._top_eigen(d, e, lo, hi, vector, g)
        if guess == "top":
            # the narrow bracket bisects to the same tolerance
            assert abs(val - cold) <= 2.0 * ham._EIGEN_RTOL * hi
        else:
            assert val == cold
        assert val == pytest.approx(eig[2], abs=ham._EIGEN_RTOL * hi)
        if vector:
            assert abs(vec @ cold_vec) == pytest.approx(1.0, abs=1e-12)
        else:
            assert vec is None and cold_vec is None

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entry_raises_before_the_guess_is_read(self, bad):
        d, e = TRI[0].copy(), TRI[1]
        d[1] = bad
        # a guess that is read at all raises TypeError
        with pytest.raises(ValueError) as info:
            ham._top_eigen(d, e, 0.5, 3.5, True, "unread")
        assert type(info.value) is ValueError
        assert str(info.value) == "array must not contain infs or NaNs"

    def test_empty_bracket_is_named(self):
        d, e = TRI
        assert ham._top_eigen(d, e, 2.5, 3.5, False)[0] == pytest.approx(
            3.0 + 0.01, abs=1e-3)
        with pytest.raises(ResolutionError, match="no eigenvalue"):
            ham._top_eigen(d, e, 4.0, 5.0, True)


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf, 1e300, -1e155])
@pytest.mark.parametrize("call", [
    lambda p: ham.hbar0_eigen(OU, p),
    lambda p: ham.hbar0_direct(OU, p, 10.5, McConfig(paths=16)),
    lambda p: ham.hbar0_mc(OU, p, 10.5, McConfig(paths=16)),
    lambda p: measures.invariant_density(OU, p),
    lambda p: poisson.solve_corrector(OU, p),
], ids=["hbar0_eigen", "hbar0_direct", "hbar0_mc", "invariant_density",
        "solve_corrector"])
def test_momentum_must_be_finite(call, p):
    with pytest.raises(ValidationError, match="p must be finite"):
        call(p)


class TestBuildCurve:
    def test_closed_form_pins_origin(self):
        curve = ham.build_curve(CONST, np.linspace(-2, 2, 9), method="closed-form")
        assert curve.values[4] == 0.0
        assert curve.values[-1] == pytest.approx(0.08, abs=1e-12)

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

    def test_direct_form_runs_alone(self, monkeypatch):
        # hbar0_direct is hbar0_mc's direct form, with one simulation
        mc = McConfig(paths=16, seed=5)
        calls, real = [], ham.simulate_tilted

        def spy(params, T, mc, **kw):
            calls.append(kw["p"])
            return real(params, T, mc, **kw)

        monkeypatch.setattr(ham, "simulate_tilted", spy)
        direct = ham.hbar0_direct(OU, 0.5, 10.5, mc)
        assert calls == [0.5]
        assert direct == ham.hbar0_mc(OU, 0.5, 10.5, mc).direct

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
        leg = ham.legendre(curve, q)
        back, _, _ = ham.conjugate(leg.q_grid, leg.values, curve.p_grid)
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
CURVE_GOLD = ham.HamiltonianCurve(p_grid=P_GOLD, values=H_GOLD,
                                  errors=np.zeros_like(P_GOLD))
# slopes of H_GOLD span about [-0.128, 0.224]: both ends extrapolate
Q_GOLD = np.linspace(-0.2, 0.3, 201)
X_UNEVEN = np.cumsum(0.05 + 0.04 * np.sin(np.arange(40.0)))
F_UNEVEN = np.exp(0.5 * (X_UNEVEN - 0.8)) + 0.1 * X_UNEVEN ** 2


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
    return digest(values, x_star, _flags(flags))


def _legendre():
    leg = ham.legendre(CURVE_GOLD, Q_GOLD)
    return digest(leg.q_grid, leg.values, leg.p_star, _flags(leg.flags))


def _biconjugate():
    leg = ham.legendre(CURVE_GOLD, Q_GOLD)
    back, _, _ = ham.conjugate(leg.q_grid, leg.values, CURVE_GOLD.p_grid)
    return digest(back)


GOLDEN = {
    "conjugate_uniform": (lambda: _conjugate(P_GOLD, H_GOLD, Q_GOLD),
                          "657fc374270ae0c6"),
    "conjugate_uneven": (
        lambda: _conjugate(X_UNEVEN, F_UNEVEN, np.linspace(0.0, 1.5, 97)),
        "d8fec6781942d9eb"),
    "legendre": (_legendre, "30babf94052e5c4d"),
    "biconjugate": (_biconjugate, "ba9c207a13469a23"),
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


# Eigen outputs pinned bit for bit: any change to the window search, its
# growth, the grids or the Richardson step changes these digests.
POWER_075 = ModelParams(m=1.0, nu=0.8, beta=0.75, rho=-0.3, r=0.0,
                        sigma=VolFnSpec.power_abs(0.5, 0.2, 0.1), y0=1.0)
TABULATED = ModelParams(
    m=0.0, nu=1.0, beta=0.0, rho=0.2, r=0.0, y0=0.0,
    sigma=VolFnSpec.tabulated([-2.0, -1.0, 0.0, 1.0, 2.0],
                              [0.4, 0.3, 0.2, 0.3, 0.45], 0.3))
# a beta = 1/2 model whose eigen curve missed discrete convexity while the
# solve stopped at LAPACK's default tolerance
CONVEXITY_GAP = ModelParams(
    m=1.314933138049224, nu=1.4755900355867957, beta=0.5, rho=0.0, r=0.0,
    sigma=VolFnSpec.power_abs(0.49121274943216464, 0.1260382966618113,
                              0.3977008325228026), y0=1.314933138049224)
# a beta = 0.8 model whose density mass underflows the 1e-300 clamp, so an
# inf or NaN reaches the eigensolver
MASS_CLAMP = ModelParams(m=2.0, nu=0.3, beta=0.8, rho=0.2, r=0.0,
                         sigma=VolFnSpec.constant(0.35), y0=2.0)
P_EIGEN = np.linspace(-2.0, 2.0, 33)


def _eigen_curve(params):
    curve = ham.build_curve(params, P_EIGEN, method="eigen")
    return digest(curve.values, curve.errors)


EIGEN_GOLDEN = {
    "ou": (lambda: _eigen_curve(OU), "6db844fce02b425a"),
    "cir": (lambda: _eigen_curve(CIR), "b2fddf8bacbc9804"),
    "cir_rho": (lambda: _eigen_curve(replace(CIR, rho=-0.5)), "271f63ab5353ad24"),
    "power_abs_beta_075": (lambda: _eigen_curve(POWER_075), "269ee357e9140490"),
    "tabulated": (lambda: _eigen_curve(TABULATED), "ebcc3e048362278b"),
}


class TestEigenGoldens:
    @pytest.mark.parametrize("name", sorted(EIGEN_GOLDEN))
    def test_digest(self, name):
        run, expected = EIGEN_GOLDEN[name]
        assert run() == expected

    def test_convexity_gap_model_is_convex(self):
        curve = ham.build_curve(CONVEXITY_GAP, P_EIGEN, method="eigen")
        assert np.min(np.diff(curve.values, 2)) > 0.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_raising_model_keeps_its_error(self):
        with pytest.raises(ValueError) as info:
            ham.build_curve(MASS_CLAMP, P_EIGEN, method="eigen")
        assert type(info.value) is ValueError
        assert str(info.value) == "array must not contain infs or NaNs"


# Both Monte Carlo forms of hbar0_mc pinned bit for bit: value, stderr and
# the seed of the form's sub-stream k (split into 32-bit halves, so the
# digest holds it exactly).  Any change to the forms' sub-streams, call
# order or arithmetic changes these.
OU_CORR = replace(OU, rho=-0.5)


def _hbar_mc(params, p, steps):
    mc = McConfig(paths=1000, steps_per_unit_time=steps, seed=17)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = ham.hbar0_mc(params, p, 10.5, mc)
    return digest(*([f.value, f.stderr, *divmod(substream_seed(17, k), 2 ** 32)]
                     for k, f in enumerate((res.direct, res.martingale))))


MC_GOLDEN = {
    "cir": (lambda: _hbar_mc(CIR, 1.0, 100), "a3e70320fab33691"),
    "cir_rho": (lambda: _hbar_mc(replace(CIR, rho=-0.5), -1.0, 100), "c9e50d17d57c333a"),
    "ou_rho": (lambda: _hbar_mc(OU_CORR, 0.5, 20), "68657f037c047230"),
    "ou_rho_negative_p": (lambda: _hbar_mc(OU_CORR, -1.0, 20), "82b5c515644e9ed6"),
}


class TestMcGoldens:
    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("name", sorted(MC_GOLDEN))
    def test_digest(self, name, threads, monkeypatch):
        monkeypatch.setenv("SVASYM_THREADS", threads)
        run, expected = MC_GOLDEN[name]
        assert run() == expected
