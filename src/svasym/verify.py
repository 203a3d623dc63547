"""Empirical harness tying simulation to asymptotics.

`ldp_tail` measures eps * log P(X > x) along a decreasing eps sequence and
compares the trend against the predicted rate -I_r(x).  `regime_compare`
tabulates the two rate functions side by side.  `run_acceptance` executes
the package's full acceptance suite and emits a machine-readable report.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
import warnings
from dataclasses import asdict, dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.stats import gamma as gamma_dist
from scipy.stats import norm, spearmanr
from scipy.interpolate import CubicSpline
from scipy.special import log_ndtr

from . import hamiltonian as ham
from . import measures, poisson, rates, simulate
from .errors import ValidationError, VarianceWarning
from .model import (ModelParams, Regime, VolFnSpec, _check_time, _write_json,
                    validate)

WILSON_Z = 1.959963984540054  # two-sided 95%
MIN_HITS = 50


@dataclass(frozen=True)
class EpsPoint:
    eps: float
    hits: int            # effective tail count: the binomial hit count with
                         # the same relative SE, min(paths, (1 - p_hat) / relSE^2)
    paths: int
    p_hat: float         # path mean of the conditional tail probability
    estimate: float      # eps * log p_hat
    ci_lo: float         # estimate -+ eps WILSON_Z relSE (delta method), on
    ci_hi: float         # the eps * log P scale
    undersampled: bool   # hits < MIN_HITS: relSE above about 1/sqrt(MIN_HITS)


@dataclass(frozen=True)
class LdpReport:
    regime: Regime
    x: float
    x0: float
    t: float
    eps_sequence: Tuple[float, ...]
    points: Tuple[EpsPoint, ...]
    predicted: float     # -I_r(x)
    spearman: float
    trend_ok: bool
    final_ok: bool

    @property
    def verdict(self) -> str:
        return "PASS" if (self.trend_ok and self.final_ok) else "FAIL"

    def to_json(self) -> dict:
        return {
            "regime": self.regime.r, "x": self.x, "x0": self.x0, "t": self.t,
            "eps_sequence": list(self.eps_sequence),
            "points": [asdict(q) for q in self.points],
            "predicted": self.predicted, "spearman": self.spearman,
            "verdict": self.verdict,
        }


def _zero_hit_upper(n: int) -> float:
    """Upper end of the Wilson score interval (two-sided 95%, z = WILSON_Z)
    of a binomial proportion with 0 hits in n >= 1 trials, in the score
    form center + half (the closed form z^2/(n + z^2) rounds differently)."""
    z = WILSON_Z
    denom = 1.0 + z * z / n
    center = z * z / (2 * n) / denom
    half = z * math.sqrt(z * z / (4 * n * n)) / denom
    return min(center + half, 1.0)


def _log_tail(params: ModelParams, regime: Regime, eps: float, t: float,
              x: float, upper: bool, mc: simulate.McConfig) -> Tuple[float, float]:
    """log P(X_t > x) (X_t < x when not ``upper``) and the relative SE of P.

    Given the factor path, the Euler X of ``simulate_xy`` is exactly
    N(mu, s^2) with mu = x0 + eps (r t - I/2) + rho sqrt(eps) J and
    s^2 = eps (1 - rho^2) I, where I = int sigma^2 ds and J = int sigma dW2
    in slow time.  So P is the path mean of Phi-bar(+-(x - mu)/s), taken in
    log space by ``simulate.log_mean_exp``.  The factor runs on its own
    clock u = lam s, with the same steps as ``simulate_xy`` and W2 draws
    only; the returned arrays are reused in place.
    """
    lam = eps / eps ** regime.r
    tb = simulate.simulate_tilted(params, lam * t, mc)
    rho = params.rho
    z, s, scratch = tb.int_sigma_dw2, tb.int_sigma_sq, tb.y
    z *= rho * math.sqrt(eps / lam)                  # rho sqrt(eps) J
    z -= np.multiply(s, 0.5 * eps / lam, out=scratch)
    z += params.x0 + eps * params.r * t - x          # mu - x
    s *= eps * (1.0 - rho * rho) / lam
    np.sqrt(s, out=s)
    with np.errstate(divide="ignore", invalid="ignore"):
        z /= s
    np.copyto(z, -np.inf, where=np.isnan(z))         # s = 0 and mu = x: P = 0
    if not upper:
        np.negative(z, out=z)
    return simulate.log_mean_exp(log_ndtr(z, out=z))


def _check_tail(params: ModelParams, x: float, eps_sequence: Sequence[float],
                mc: simulate.McConfig) -> tuple:
    """``ldp_tail``'s checks of its target, eps sequence and Monte Carlo
    budget; returns the eps sequence as a tuple of floats."""
    if x == params.x0:
        raise ValidationError("the tail target x must differ from x0")
    eps_sequence = tuple(float(e) for e in eps_sequence)
    if any(b >= a for a, b in zip(eps_sequence, eps_sequence[1:])):
        raise ValidationError("eps_sequence must be strictly decreasing")
    simulate._check_mc(params, mc)
    if not all(0.0 < e <= 1.0 for e in eps_sequence):
        raise ValidationError("eps must lie in (0, 1]")
    return eps_sequence


def ldp_tail(params: ModelParams, regime: Regime, x: float, t: float,
             eps_sequence: Sequence[float], mc: simulate.McConfig, *,
             sigma_bar_sq: Optional[float] = None,
             legendre=None) -> LdpReport:
    """Estimate eps * log P(X > x) (or < x below the start) by conditional MC.

    Only the factor is simulated; each path contributes the exact Gaussian
    tail of ``simulate_xy``'s X given its factor path (see ``_log_tail``)
    in place of a 0/1 hit.  ``hits`` is then the effective hit count, the
    binomial count with the same relative SE.  Eps k runs on its own
    SFC64 block streams, from sub-stream k of ``mc.seed``
    (``simulate.substream_seed``).
    The verdict is PASS when the estimates trend monotonically toward the
    predicted limit -I_r(x), from the regime's ingredient (``sigma_bar_sq``
    for r = 4, ``legendre`` for r = 2), by a Spearman sign test, and the
    final point lies within max(15% relative, its CI width) of it.
    """
    eps_sequence = _check_tail(params, x, eps_sequence, mc)
    _check_time(t)
    upper = x > params.x0
    predicted = -rates._rate(regime, x, params.x0, t, sigma_bar_sq, legendre)

    points = []
    for k, eps in enumerate(eps_sequence):
        cfg = replace(mc, seed=simulate.substream_seed(mc.seed, k))
        log_p, rel_se = _log_tail(params, regime, eps, t, x, upper, cfg)
        p_hat = math.exp(log_p)
        if log_p == -math.inf:  # no path reaches x: 0 hits, Wilson upper bound
            hits, est, lo = 0, -math.inf, -math.inf
            hi = eps * math.log(_zero_hit_upper(mc.paths))
        else:
            hits = int(min(mc.paths, (1.0 - p_hat) / rel_se ** 2 if rel_se > 0 else math.inf))
            est, half = eps * log_p, eps * WILSON_Z * rel_se
            lo, hi = est - half, est + half
        points.append(EpsPoint(eps=eps, hits=hits, paths=mc.paths, p_hat=p_hat,
                               estimate=est, ci_lo=lo, ci_hi=hi,
                               undersampled=hits < MIN_HITS))

    finite = [(q.eps, q.estimate) for q in points if math.isfinite(q.estimate)]
    if len(finite) >= 3:
        ee = np.array([f[0] for f in finite])
        vv = np.array([f[1] for f in finite])
        rho_s = float(spearmanr(vv, ee).statistic)
        # approaching the limit from below means estimates rise as eps falls
        expected_sign = -1.0 if vv[0] < predicted else 1.0
        trend_ok = rho_s * expected_sign > 0
    else:
        rho_s = math.nan
        trend_ok = False
    last = points[-1]
    if last.undersampled or not math.isfinite(last.estimate):
        final_ok = False
    else:
        ci_width = (last.ci_hi - last.ci_lo
                    if math.isfinite(last.ci_lo) else math.inf)
        final_ok = abs(last.estimate - predicted) <= max(
            0.15 * abs(predicted), ci_width)
    return LdpReport(regime=regime, x=x, x0=params.x0, t=t,
                     eps_sequence=eps_sequence, points=tuple(points),
                     predicted=predicted, spearman=rho_s,
                     trend_ok=trend_ok, final_ok=final_ok)


@dataclass(frozen=True)
class RegimeRow:
    x: float
    i2: float
    i4: float
    ok: Optional[bool]   # I2 <= I4 check; None when rho != 0


def regime_compare(x_grid: Sequence[float], x0: float, t: float, *,
                   sigma_bar_sq: float, legendre, rho: float = 0.0,
                   tol: float = 1e-8) -> Tuple[RegimeRow, ...]:
    """Tabulate I2 and I4 side by side; for rho = 0 the variational lower
    bound on the Hamiltonian forces I2 <= I4, which is flagged per row."""
    x = np.asarray(x_grid, dtype=float)
    i4 = rates.rate_i4(x, x0, t, sigma_bar_sq)
    i2 = rates.rate_i2(x, x0, t, legendre)
    ok = (i2 <= i4 + tol).tolist() if rho == 0.0 else [None] * x.size
    return tuple(RegimeRow(x=a, i2=b, i4=c, ok=d) for a, b, c, d
                 in zip(x.tolist(), i2.tolist(), i4.tolist(), ok))


# --- acceptance suite -------------------------------------------------------

def fixture_bs() -> ModelParams:
    """Constant-volatility fixture: both regimes collapse to Black-Scholes."""
    return ModelParams(m=0.0, nu=math.sqrt(2.0), beta=0.0, rho=0.0, r=0.0,
                       sigma=VolFnSpec.constant(0.2), y0=0.0, x0=0.0)


def fixture_ou() -> ModelParams:
    """Gaussian factor with square-root volatility map, uncorrelated."""
    return ModelParams(m=0.0, nu=math.sqrt(2.0), beta=0.0, rho=0.0, r=0.0,
                       sigma=VolFnSpec.power_abs(1.0, 0.5), y0=0.0, x0=0.0)


def fixture_cir() -> ModelParams:
    """Square-root factor on (0, inf) with a quarter-power volatility map."""
    return ModelParams(m=1.0, nu=1.0, beta=0.5, rho=0.0, r=0.0,
                       sigma=VolFnSpec.power_abs(1.0, 0.25), y0=1.0, x0=0.0)


FIXTURES = {"bs": fixture_bs, "ou": fixture_ou, "cir": fixture_cir}


def _entry(desc: str, measured, expected, tol, ok: bool) -> dict:
    """A criterion's verdict; _run_criterion adds its id, seed and runtime."""
    return {"description": desc, "measured": measured, "expected": expected,
            "tolerance": tol, "pass": bool(ok)}


def _ou_eigen_curve(n_points: int):
    params = fixture_ou()
    grid = np.linspace(-2.0, 2.0, n_points)
    return params, ham.build_curve(params, grid, method="eigen")


def _c0_validation(model: Optional[ModelParams]) -> dict:
    targets = {name: f() for name, f in FIXTURES.items()}
    if model is not None:
        targets["config"] = model
    failed = [name for name, prm in targets.items() if not validate(prm).passed]
    return _entry("fixture models pass the admissibility rules",
                  {"failed": failed}, {"failed": []}, None, not failed)


def _c1_bs_collapse(seed: int) -> dict:
    params = fixture_bs()
    t = 1.0
    sbar2 = measures.sigma_bar_sq(params)
    x_grid = np.linspace(-0.5, 0.5, 101)
    q_needed = np.unique(rates._slope(x_grid, params.x0, t))
    p_grid = np.linspace(-15.0, 15.0, 3001)
    curve = ham.build_curve(params, p_grid, method="closed-form")
    leg = ham.legendre(curve, q_needed)
    i4 = rates.rate_i4(x_grid, params.x0, t, sbar2)
    i2 = rates.rate_i2(x_grid, params.x0, t, leg)
    scale = np.maximum(np.abs(i4), 1e-12)
    rate_dev = float(np.max(np.abs(i2 - i4) / scale))
    logk = np.linspace(-0.4, 0.4, 81)
    leg_s = ham.legendre(curve, np.unique(rates._slope(logk, params.x0, t)))
    dev_sm = 0.0
    for regime in (Regime.FAST, Regime.ULTRA_FAST):
        smile = rates.implied_vol_curve(params.x0, regime, t, logk,
                                        sigma_bar_sq=sbar2, legendre=leg_s)
        dev_sm = max(dev_sm, float(np.max(np.abs(smile.values / 0.04 - 1.0))))
    measured = max(rate_dev, dev_sm)
    return _entry("constant sigma: both regimes collapse to the "
                  "Black-Scholes rate function and a flat smile",
                  measured, 0.0, 1e-6, measured < 1e-6)


def _c2_invariant_laws(seed: int) -> dict:
    ou = fixture_ou()
    tab = measures.invariant_density(ou)
    dev_ou = float(np.max(np.abs(tab.values - norm.pdf(tab.grid))))
    cir = fixture_cir()
    # the log-spaced grid needs extra resolution for the trapezoid
    # normalization of the Gamma density to reach the 1e-6 pointwise target
    tab_c = measures.invariant_density(cir, grid_spec=measures.GridSpec(n=16385))
    dev_cir = float(np.max(np.abs(
        tab_c.values - gamma_dist.pdf(tab_c.grid, a=2.0, scale=0.5))))
    ok = dev_ou < 1e-8 and dev_cir < 1e-6
    return _entry("invariant laws match the standard normal and "
                  "Gamma(2, 1/2) closed forms pointwise",
                  {"ou": dev_ou, "cir": dev_cir},
                  {"ou": 0.0, "cir": 0.0}, {"ou": 1e-8, "cir": 1e-6}, ok)


def _c3_sigma_bar_three_ways(seed: int) -> dict:
    params = fixture_ou()
    closed = math.sqrt(2.0 / math.pi)
    quad_val = measures.sigma_bar_sq(params)
    quad_dev = abs(quad_val - closed)
    # the factor update is exact in law, so per-step sampling error is nil;
    # a long horizon (burn-in T/10 = 5 relaxation times) kills the
    # start-point transient that a short run leaves in the time average
    mc = simulate.McConfig(paths=100_000, steps_per_unit_time=100, seed=seed)
    est = simulate.ergodic_average(params, lambda y: np.abs(y), 50.0, mc)
    mc_dev = abs(est.value - closed)
    rel_se = est.stderr / est.value
    ok = quad_dev < 1e-6 and mc_dev <= 3.0 * est.stderr and rel_se < 0.01
    return _entry("averaged variance by quadrature, ergodic Monte "
                  "Carlo, and the sqrt(2/pi) closed form agree",
                  {"quad_dev": quad_dev, "mc_dev": mc_dev,
                   "mc_se": est.stderr},
                  {"closed_form": closed},
                  {"quad": 1e-6, "mc": "3 SE", "rel_se": 0.01}, ok)


def _c4_hamiltonian_cross(seed: int) -> dict:
    params = fixture_ou()
    p_grid = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    curve = ham.build_curve(params, p_grid, method="eigen")
    horizons = {0.5: 50.0, 1.0: 50.0, 2.0: 15.0}
    gaps = {}
    ok = True
    for i, p in enumerate(p_grid):
        if p == 0.0:
            continue
        mc = simulate.McConfig(paths=100_000, steps_per_unit_time=100,
                               seed=simulate.substream_seed(seed, i))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = ham.hbar0_direct(params, p, horizons[abs(p)], mc)
        gap = abs(curve.values[i] - est.value)
        tol = 2.0 * est.stderr + 0.02
        gaps[f"p={p:g}"] = {"gap": gap, "tol": tol}
        ok = ok and gap <= tol
    d = np.diff(p_grid)
    dd = np.diff(curve.values) / d
    convexity = float(np.min(np.diff(dd)))
    ok = ok and curve.values[p_grid == 0.0][0] == 0.0 and convexity > -1e-8
    return _entry("eigenvalue and Monte Carlo Hamiltonians agree at "
                  "p in {0.5, 1, 2} and the curve is convex with H(0) = 0",
                  {"gaps": gaps, "min_divided_d2": convexity},
                  "eigen == mc", "2 SE + 0.02", ok)


def _c5_variational_bound(seed: int) -> dict:
    params, curve = _ou_eigen_curve(33)
    sbar2 = measures.sigma_bar_sq(params)
    slack = float(np.min(curve.values - 0.5 * sbar2 * curve.p_grid ** 2))
    return _entry("Hamiltonian dominates the averaged-variance "
                  "parabola (constant test function in the variational form)",
                  slack, ">= 0", -1e-8, slack >= -1e-8)


def _c6_legendre_duality(seed: int) -> dict:
    params, coarse = _ou_eigen_curve(65)
    spline = CubicSpline(coarse.p_grid, coarse.values)
    p_dense = np.linspace(coarse.p_grid[0], coarse.p_grid[-1], 4001)
    curve = ham.HamiltonianCurve(p_grid=p_dense, values=spline(p_dense),
                                 errors=np.zeros_like(p_dense))
    slope = np.gradient(curve.values, p_dense)
    q_max = float(np.max(np.abs(slope))) * 0.98
    q_grid = np.linspace(-q_max, q_max, 4001)
    leg = ham.legendre(curve, q_grid)
    back, _, _ = ham.conjugate(leg.q_grid, leg.values, curve.p_grid)
    hull = ham._convex_hull_values(curve.p_grid, curve.values)
    interior = np.abs(curve.p_grid) <= 0.8 * curve.p_grid[-1]
    bidual_dev = float(np.max(np.abs(back[interior] - hull[interior])))

    fy_min = math.inf
    eq_dev = 0.0
    for j in range(0, q_grid.size, 100):
        q = q_grid[j]
        fy = leg.values[j] + curve.values - curve.p_grid * q
        fy_min = min(fy_min, float(np.min(fy)))
        h_at_star = float(spline(leg.p_star[j]))
        eq_dev = max(eq_dev, abs(leg.values[j] + h_at_star
                                 - leg.p_star[j] * q))
    ok = bidual_dev < 1e-6 and fy_min > -1e-9 and eq_dev < 1e-5
    return _entry("biconjugation reproduces the Hamiltonian hull; "
                  "Fenchel-Young holds with equality at matched pairs",
                  {"bidual_dev": bidual_dev, "fenchel_young_min": fy_min,
                   "matched_eq_dev": eq_dev},
                  {"bidual": 0.0, "fy": ">= 0", "eq": 0.0},
                  {"bidual": 1e-6, "fy": 1e-9, "eq": 1e-5}, ok)


def _c7_poisson_corrector(seed: int) -> dict:
    params = fixture_ou()
    cor1 = poisson.solve_corrector(params, 1.0, measures.GridSpec(n=4096))
    res1 = poisson.core_residual_norm(params, cor1)
    cor2 = poisson.solve_corrector(params, 1.0, measures.GridSpec(n=8192))
    res2 = poisson.core_residual_norm(params, cor2)
    cor_2p = poisson.solve_corrector(params, 2.0, measures.GridSpec(n=4096))
    scaling_exact = bool(np.array_equal(4.0 * cor1.chi, cor_2p.chi)
                         and np.array_equal(4.0 * cor1.chi_prime,
                                            cor_2p.chi_prime))
    growth = poisson.growth_bound_check(cor1, params)
    ok = res1 < 1e-4 and res2 <= 0.66 * res1 and scaling_exact and growth.passed
    return _entry("corrector residual is small and halves under "
                  "refinement; p-scaling is exactly 1:4; derivative growth "
                  "bound holds",
                  {"residual_4096": res1, "residual_8192": res2,
                   "scaling_exact": scaling_exact,
                   "growth_passed": growth.passed},
                  {"residual": 0.0}, {"residual": 1e-4, "halving": 0.66}, ok)


def _c8_ldp_trend(seed: int) -> dict:
    params = fixture_ou()
    sbar2 = measures.sigma_bar_sq(params)
    mc = simulate.McConfig(paths=1_000_000, steps_per_unit_time=50, seed=seed)
    report = ldp_tail(params, Regime.ULTRA_FAST, 0.15, 1.0,
                      (0.5, 0.35, 0.25, 0.18), mc, sigma_bar_sq=sbar2)
    last = report.points[-1]
    return _entry("tail estimates trend toward the quadratic rate and "
                  "the final eps point meets the 15%/CI tolerance",
                  {"estimates": [q.estimate for q in report.points],
                   "final": last.estimate, "spearman": report.spearman,
                   "trend_ok": report.trend_ok, "final_ok": report.final_ok},
                  report.predicted, "max(15% rel, CI width)",
                  report.verdict == "PASS")


def _c9_positivity(seed: int) -> dict:
    params = fixture_cir()
    mc = simulate.McConfig(paths=100_000, steps_per_unit_time=100, seed=seed)
    batch = simulate.simulate_xy(params, Regime.FAST, 0.25, 1.0, mc)
    n_neg = int(np.count_nonzero(batch.y < 0.0))
    frac = batch.truncated_fraction
    ok = n_neg == 0 and frac < 0.01
    return _entry("square-root-factor paths stay nonnegative with "
                  "under 1% truncated steps",
                  {"negative_samples": n_neg, "truncated_fraction": frac},
                  {"negative_samples": 0}, {"truncated_fraction": 0.01}, ok)


def _c10_regime4_smile(seed: int) -> dict:
    params = fixture_ou()
    sbar2 = measures.sigma_bar_sq(params)
    logk = np.linspace(-0.5, 0.5, 201)
    smile = rates.implied_vol_curve(params.x0, Regime.ULTRA_FAST, 1.0, logk,
                                    sigma_bar_sq=sbar2)
    dev = float(np.max(np.abs(smile.values / sbar2 - 1.0)))
    return _entry("ultra-fast smile is identically the averaged "
                  "variance by algebraic cancellation",
                  dev, 0.0, 1e-10, dev < 1e-10)


def _c11_determinism(seed: int) -> dict:
    from . import cli  # deferred: cli imports this module for `accept`
    blobs = []
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "fixture.cfg")
        cli.write_config(cli.RunConfig(
            model=fixture_ou(), regime=Regime.ULTRA_FAST, eps=0.5, t=1.0,
            mc=simulate.McConfig(paths=200_000, seed=seed)), cfg_path)
        old = os.environ.get("SVASYM_THREADS")
        try:
            for threads in ("1", "4"):
                os.environ["SVASYM_THREADS"] = threads
                out = os.path.join(tmp, f"run{threads}")
                os.makedirs(out)
                code = cli.dispatch(["simulate", "--config", cfg_path,
                                     "--out", out])
                with open(os.path.join(out, "simulate_summary.csv"), "rb") as fh:
                    blobs.append((code, fh.read()))
        finally:
            if old is None:
                os.environ.pop("SVASYM_THREADS", None)
            else:
                os.environ["SVASYM_THREADS"] = old
    ok = (blobs[0][0] == blobs[1][0] == 0) and blobs[0][1] == blobs[1][1]
    return _entry("identical seed with different SVASYM_THREADS "
                  "yields byte-identical summary artifacts",
                  {"identical": blobs[0][1] == blobs[1][1]},
                  {"identical": True}, None, ok)


def _c12_moment_sanity(seed: int) -> dict:
    """eps log E[S^2] at t = 1 in the ultra-fast regime, eps k on sub-stream
    k of ``seed``: its magnitude decreases toward 0 (within one SE per
    point) and matches the lognormal closed form within 3 SE."""
    params = fixture_bs()
    mc = simulate.McConfig(paths=100_000, steps_per_unit_time=50, seed=seed)
    s0_sq = params.sigma.s0 ** 2
    rows = []
    for k, eps in enumerate((0.5, 0.25, 0.125)):
        batch = simulate.simulate_xy(params, Regime.ULTRA_FAST, eps, 1.0,
                                     replace(mc, seed=simulate.substream_seed(seed, k)))
        lme, se = simulate.log_mean_exp(2.0 * batch.x)
        if se > 0.25:
            warnings.warn(f"heavy-tailed moment estimate at eps={eps:g} "
                          f"(relative SE {se:.1%})", VarianceWarning)
        # lognormal closed form: eps log E[S^p] = eps(p x0 + eps t (p r +
        # sigma0^2 p(p-1)/2))
        closed = eps ** 2 * 1.0 * (2.0 * params.r + s0_sq * 2.0 * 1.0 / 2.0)
        rows.append({"eps": eps, "value": eps * lme, "closed": closed,
                     "se": eps * se})
    monotone = all(abs(b["value"]) <= abs(a["value"]) + a["se"] + b["se"]
                   for a, b in zip(rows, rows[1:]))
    closed_ok = all(abs(row["value"] - row["closed"]) <= 3.0 * row["se"]
                    for row in rows)
    return _entry("eps log E[S^2] decreases toward 0 and matches the "
                  "lognormal closed form within Monte Carlo error",
                  rows, "lognormal closed form", "3 SE", monotone and closed_ok)


CRITERIA = {
    "C1": _c1_bs_collapse, "C2": _c2_invariant_laws,
    "C3": _c3_sigma_bar_three_ways, "C4": _c4_hamiltonian_cross,
    "C5": _c5_variational_bound, "C6": _c6_legendre_duality,
    "C7": _c7_poisson_corrector, "C8": _c8_ldp_trend,
    "C9": _c9_positivity, "C10": _c10_regime4_smile,
    "C11": _c11_determinism, "C12": _c12_moment_sanity,
}


def _run_criterion(cid: str, seed: int, model: Optional[ModelParams]) -> dict:
    """The report entry of criterion ``cid`` (C0 also validates ``model``,
    if given) at ``seed``, with its run time.  A crash is a failure, not an
    abort."""
    t0 = time.perf_counter()
    try:
        entry = _c0_validation(model) if cid == "C0" else CRITERIA[cid](seed)
    except Exception as exc:
        entry = _entry(f"criterion crashed: {exc}", None, None, None, False)
    return {"criterion_id": cid, **entry,
            "runtime_s": round(time.perf_counter() - t0, 3), "seed": seed}


def run_acceptance(seed: int = 42, *, model: Optional[ModelParams] = None,
                   out: Optional[str] = None) -> dict:
    """Run the acceptance suite with ``seed`` and return a machine-readable
    report; C0 also validates ``model``, if given, alongside the fixtures.
    ``out`` is a path for the JSON report.  Failures are recorded, never
    raised."""
    entries = [_run_criterion(cid, seed, model) for cid in ("C0", *CRITERIA)]
    report = {"seed": seed, "criteria": entries,
              "passed": all(e["pass"] for e in entries)}
    if out:
        _write_json(out, report)
    return report
