"""Empirical harness tying simulation to asymptotics.

`ldp_tail` measures eps * log P(X > x) along a decreasing eps sequence and
compares the trend against the predicted rate -I_r(x).  `regime_compare`
tabulates the two rate functions side by side.  `run_acceptance` executes
the package's full acceptance suite and emits a machine-readable report.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.stats import gamma as gamma_dist
from scipy.stats import norm, spearmanr
from scipy.interpolate import CubicSpline
from scipy.special import log_ndtr

from . import hamiltonian as ham
from . import measures, poisson, rates, simulate
from .errors import SvasymError, ValidationError
from .model import ModelParams, Regime, VolFnSpec, validate

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
            "points": [{"eps": q.eps, "hits": q.hits, "paths": q.paths,
                        "p_hat": q.p_hat, "estimate": q.estimate,
                        "ci_lo": q.ci_lo, "ci_hi": q.ci_hi,
                        "undersampled": q.undersampled} for q in self.points],
            "predicted": self.predicted, "spearman": self.spearman,
            "verdict": self.verdict,
        }


def wilson_interval(hits: int, n: int, z: float = WILSON_Z) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n <= 0:
        return 0.0, 1.0
    p = hits / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def _log_tail(params: ModelParams, regime: Regime, eps: float, t: float,
              x: float, upper: bool, mc: simulate.McConfig) -> Tuple[float, float]:
    """log P(X_t > x) (X_t < x when not ``upper``) and the relative SE of P.

    Given the factor path, the Euler X of ``simulate_xy`` is exactly
    N(mu, s^2) with mu = x0 + eps (r t - I/2) + rho sqrt(eps) J and
    s^2 = eps (1 - rho^2) I, where I = int sigma^2 ds and J = int sigma dW2
    in slow time.  So P is the path mean of Phi-bar(+-(x - mu)/s), taken in
    log space.  The factor runs on its own clock u = lam s, with the same
    steps as ``simulate_xy`` and W2 draws only; the returned arrays are
    reused in place.
    """
    lam = eps / eps ** regime.r
    tb = simulate.simulate_tilted(params, lam * t, mc)
    rho, n = params.rho, mc.paths
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
    log_p = log_ndtr(z, out=z)
    top = float(np.max(log_p))
    if top == -math.inf:
        return -math.inf, math.inf
    # log-sum-exp: w = P / max P, then the delta-method SE of the mean
    log_p -= top
    w = np.exp(log_p, out=log_p)
    mean = float(np.mean(w))
    w -= mean
    var = float(np.sum(np.multiply(w, w, out=scratch))) / max(n - 1, 1)
    return top + math.log(mean), math.sqrt(var / n) / mean


def ldp_tail(params: ModelParams, regime: Regime, x: float, t: float,
             eps_sequence: Sequence[float], mc: simulate.McConfig, *,
             predicted: Optional[float] = None,
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
    predicted limit (Spearman sign test) and the final point lies within
    max(15% relative, its CI width) of the prediction.
    """
    if x == params.x0:
        raise SvasymError("the tail target x must differ from x0")
    eps_sequence = tuple(float(e) for e in eps_sequence)
    if any(b >= a for a, b in zip(eps_sequence, eps_sequence[1:])):
        raise SvasymError("eps_sequence must be strictly decreasing")
    simulate._check_mc(params, mc)
    if not all(0.0 < e <= 1.0 for e in eps_sequence):
        raise ValidationError("eps must lie in (0, 1]")
    if t <= 0:
        raise ValidationError("t must be > 0")
    upper = x > params.x0
    if predicted is None:
        predicted = -rates._rate(regime, x, params.x0, t, sigma_bar_sq, legendre)

    points = []
    for k, eps in enumerate(eps_sequence):
        cfg = replace(mc, seed=simulate.substream_seed(mc.seed, k))
        log_p, rel_se = _log_tail(params, regime, eps, t, x, upper, cfg)
        p_hat = math.exp(log_p)
        if log_p == -math.inf:  # no path reaches x: 0 hits, Wilson upper bound
            hits, est, lo = 0, -math.inf, -math.inf
            hi = eps * math.log(wilson_interval(0, mc.paths)[1])
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


def _entry(cid: str, desc: str, measured, expected, tol, ok: bool,
           runtime: float, seed: int) -> dict:
    return {"criterion_id": cid, "description": desc, "measured": measured,
            "expected": expected, "tolerance": tol, "pass": bool(ok),
            "runtime_s": round(runtime, 3), "seed": seed}


def _ou_eigen_curve(n_points: int = 65, p_max: float = 2.0):
    params = fixture_ou()
    grid = np.linspace(-p_max, p_max, n_points)
    return params, ham.build_curve(params, grid, method="eigen")


def _c0_validation(seed: int, model: Optional[ModelParams]) -> dict:
    t0 = time.perf_counter()
    targets = {name: f() for name, f in FIXTURES.items()}
    if model is not None:
        targets["config"] = model
    failed = [name for name, prm in targets.items() if not validate(prm).passed]
    return _entry("C0", "fixture models pass the admissibility rules",
                  {"failed": failed}, {"failed": []}, None, not failed,
                  time.perf_counter() - t0, seed)


def _c1_bs_collapse(seed: int) -> dict:
    t0 = time.perf_counter()
    params = fixture_bs()
    t = 1.0
    sbar2 = measures.sigma_bar_sq(params)
    x_grid = np.linspace(-0.5, 0.5, 101)
    q_needed = np.unique((params.x0 - x_grid) / t)
    p_grid = np.linspace(-15.0, 15.0, 3001)
    curve = ham.build_curve(params, p_grid, method="closed-form")
    leg = ham.legendre(curve, q_needed)
    i4 = rates.rate_i4(x_grid, params.x0, t, sbar2)
    i2 = rates.rate_i2(x_grid, params.x0, t, leg)
    scale = np.maximum(np.abs(i4), 1e-12)
    rate_dev = float(np.max(np.abs(i2 - i4) / scale))
    logk = np.linspace(-0.4, 0.4, 81)
    dev_sm = 0.0
    for regime in (Regime.FAST, Regime.ULTRA_FAST):
        leg_s = ham.legendre(curve, np.unique((params.x0 - logk) / t))
        smile = rates.implied_vol_curve(params.x0, regime, t, logk,
                                        sigma_bar_sq=sbar2, legendre=leg_s)
        dev_sm = max(dev_sm, float(np.max(np.abs(smile.values / 0.04 - 1.0))))
    measured = max(rate_dev, dev_sm)
    return _entry("C1", "constant sigma: both regimes collapse to the "
                  "Black-Scholes rate function and a flat smile",
                  measured, 0.0, 1e-6, measured < 1e-6,
                  time.perf_counter() - t0, seed)


def _c2_invariant_laws(seed: int) -> dict:
    t0 = time.perf_counter()
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
    return _entry("C2", "invariant laws match the standard normal and "
                  "Gamma(2, 1/2) closed forms pointwise",
                  {"ou": dev_ou, "cir": dev_cir},
                  {"ou": 0.0, "cir": 0.0}, {"ou": 1e-8, "cir": 1e-6}, ok,
                  time.perf_counter() - t0, seed)


def _c3_sigma_bar_three_ways(seed: int) -> dict:
    t0 = time.perf_counter()
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
    return _entry("C3", "averaged variance by quadrature, ergodic Monte "
                  "Carlo, and the sqrt(2/pi) closed form agree",
                  {"quad_dev": quad_dev, "mc_dev": mc_dev,
                   "mc_se": est.stderr},
                  {"closed_form": closed},
                  {"quad": 1e-6, "mc": "3 SE", "rel_se": 0.01}, ok,
                  time.perf_counter() - t0, seed)


def _c4_hamiltonian_cross(seed: int) -> dict:
    t0 = time.perf_counter()
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
            est = ham.hbar0_mc(params, p, horizons[abs(p)], mc)
        gap = abs(curve.values[i] - est.value)
        tol = 2.0 * est.stderr + 0.02
        gaps[f"p={p:g}"] = {"gap": gap, "tol": tol}
        ok = ok and gap <= tol
    d = np.diff(p_grid)
    dd = np.diff(curve.values) / d
    convexity = float(np.min(np.diff(dd)))
    ok = ok and curve.values[p_grid == 0.0][0] == 0.0 and convexity > -1e-8
    return _entry("C4", "eigenvalue and Monte Carlo Hamiltonians agree at "
                  "p in {0.5, 1, 2} and the curve is convex with H(0) = 0",
                  {"gaps": gaps, "min_divided_d2": convexity},
                  "eigen == mc", "2 SE + 0.02", ok,
                  time.perf_counter() - t0, seed)


def _c5_variational_bound(seed: int) -> dict:
    t0 = time.perf_counter()
    params, curve = _ou_eigen_curve(33)
    sbar2 = measures.sigma_bar_sq(params)
    slack = float(np.min(curve.values - 0.5 * sbar2 * curve.p_grid ** 2))
    return _entry("C5", "Hamiltonian dominates the averaged-variance "
                  "parabola (constant test function in the variational form)",
                  slack, ">= 0", -1e-8, slack >= -1e-8,
                  time.perf_counter() - t0, seed)


def _c6_legendre_duality(seed: int) -> dict:
    t0 = time.perf_counter()
    params, coarse = _ou_eigen_curve(65)
    spline = CubicSpline(coarse.p_grid, coarse.values)
    p_dense = np.linspace(coarse.p_grid[0], coarse.p_grid[-1], 4001)
    curve = ham.HamiltonianCurve(p_grid=p_dense, values=spline(p_dense),
                                 method="eigen",
                                 errors=np.zeros_like(p_dense))
    slope = np.gradient(curve.values, p_dense)
    q_max = float(np.max(np.abs(slope))) * 0.98
    q_grid = np.linspace(-q_max, q_max, 4001)
    leg = ham.legendre(curve, q_grid)
    back = ham.biconjugate(curve, q_grid)
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
    return _entry("C6", "biconjugation reproduces the Hamiltonian hull; "
                  "Fenchel-Young holds with equality at matched pairs",
                  {"bidual_dev": bidual_dev, "fenchel_young_min": fy_min,
                   "matched_eq_dev": eq_dev},
                  {"bidual": 0.0, "fy": ">= 0", "eq": 0.0},
                  {"bidual": 1e-6, "fy": 1e-9, "eq": 1e-5}, ok,
                  time.perf_counter() - t0, seed)


def _c7_poisson_corrector(seed: int) -> dict:
    t0 = time.perf_counter()
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
    return _entry("C7", "corrector residual is small and halves under "
                  "refinement; p-scaling is exactly 1:4; derivative growth "
                  "bound holds",
                  {"residual_4096": res1, "residual_8192": res2,
                   "scaling_exact": scaling_exact,
                   "growth_passed": growth.passed},
                  {"residual": 0.0}, {"residual": 1e-4, "halving": 0.66}, ok,
                  time.perf_counter() - t0, seed)


def _c8_ldp_trend(seed: int) -> dict:
    t0 = time.perf_counter()
    params = fixture_ou()
    sbar2 = measures.sigma_bar_sq(params)
    mc = simulate.McConfig(paths=1_000_000, steps_per_unit_time=50, seed=seed)
    report = ldp_tail(params, Regime.ULTRA_FAST, 0.15, 1.0,
                      (0.5, 0.35, 0.25, 0.18), mc, sigma_bar_sq=sbar2)
    last = report.points[-1]
    return _entry("C8", "tail estimates trend toward the quadratic rate and "
                  "the final eps point meets the 15%/CI tolerance",
                  {"estimates": [q.estimate for q in report.points],
                   "final": last.estimate, "spearman": report.spearman,
                   "trend_ok": report.trend_ok, "final_ok": report.final_ok},
                  report.predicted, "max(15% rel, CI width)",
                  report.verdict == "PASS",
                  time.perf_counter() - t0, seed)


def _c9_positivity(seed: int) -> dict:
    t0 = time.perf_counter()
    params = fixture_cir()
    mc = simulate.McConfig(paths=100_000, steps_per_unit_time=100, seed=seed)
    batch = simulate.simulate_xy(params, Regime.FAST, 0.25, 1.0, mc)
    n_neg = int(np.count_nonzero(batch.y < 0.0))
    frac = batch.truncated_fraction
    ok = n_neg == 0 and frac < 0.01
    return _entry("C9", "square-root-factor paths stay nonnegative with "
                  "under 1% truncated steps",
                  {"negative_samples": n_neg, "truncated_fraction": frac},
                  {"negative_samples": 0}, {"truncated_fraction": 0.01}, ok,
                  time.perf_counter() - t0, seed)


def _c10_regime4_smile(seed: int) -> dict:
    t0 = time.perf_counter()
    params = fixture_ou()
    sbar2 = measures.sigma_bar_sq(params)
    logk = np.linspace(-0.5, 0.5, 201)
    smile = rates.implied_vol_curve(params.x0, Regime.ULTRA_FAST, 1.0, logk,
                                    sigma_bar_sq=sbar2)
    dev = float(np.max(np.abs(smile.values / sbar2 - 1.0)))
    return _entry("C10", "ultra-fast smile is identically the averaged "
                  "variance by algebraic cancellation",
                  dev, 0.0, 1e-10, dev < 1e-10,
                  time.perf_counter() - t0, seed)


def _c11_determinism(seed: int) -> dict:
    from . import cli  # deferred: cli imports this module for `accept`
    t0 = time.perf_counter()
    blobs = []
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "fixture.cfg")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write("m = 0\nnu = 1.4142135623730951\nbeta = 0\nrho = 0\n"
                     "rate = 0\ny0 = 0\nx0 = 0\nsigma.kind = power_abs\n"
                     "sigma.c = 1\nsigma.q = 0.5\n"
                     f"mc.paths = 200000\nmc.seed = {seed}\n"
                     "regime = 4\neps = 0.5\nt = 1.0\n")
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
    return _entry("C11", "identical seed with different SVASYM_THREADS "
                  "yields byte-identical summary artifacts",
                  {"identical": blobs[0][1] == blobs[1][1]},
                  {"identical": True}, None, ok,
                  time.perf_counter() - t0, seed)


def _c12_moment_sanity(seed: int) -> dict:
    t0 = time.perf_counter()
    params = fixture_bs()
    eps_seq = (0.5, 0.25, 0.125)
    mc = simulate.McConfig(paths=100_000, steps_per_unit_time=50, seed=seed)
    table = simulate.moment_check(params, Regime.ULTRA_FAST, eps_seq, 2.0,
                                  1.0, mc)
    s0_sq = params.sigma.s0 ** 2
    closed_ok = True
    rows = []
    for row in table.rows:
        # lognormal closed form: eps log E[S^p] = eps(p x0 + eps t (p r +
        # sigma0^2 p(p-1)/2))
        closed = row.eps ** 2 * 1.0 * (2.0 * params.r + s0_sq * 2.0 * 1.0 / 2.0)
        rows.append({"eps": row.eps, "value": row.value, "closed": closed,
                     "se": row.stderr})
        closed_ok = closed_ok and abs(row.value - closed) <= 3.0 * row.stderr
    ok = table.passed and closed_ok
    return _entry("C12", "eps log E[S^2] decreases toward 0 and matches the "
                  "lognormal closed form within Monte Carlo error",
                  rows, "lognormal closed form", "3 SE", ok,
                  time.perf_counter() - t0, seed)


CRITERIA = {
    "C1": _c1_bs_collapse, "C2": _c2_invariant_laws,
    "C3": _c3_sigma_bar_three_ways, "C4": _c4_hamiltonian_cross,
    "C5": _c5_variational_bound, "C6": _c6_legendre_duality,
    "C7": _c7_poisson_corrector, "C8": _c8_ldp_trend,
    "C9": _c9_positivity, "C10": _c10_regime4_smile,
    "C11": _c11_determinism, "C12": _c12_moment_sanity,
}


def run_acceptance(config: Optional[dict] = None) -> dict:
    """Run the acceptance suite and return a machine-readable report.

    ``config`` keys (all optional): seed (int, default 42), criteria (list
    of criterion ids to run), model (a ModelParams to validate alongside
    the built-in fixtures), out (path for the JSON report).  Failures are
    recorded, never raised.
    """
    config = dict(config or {})
    seed = int(config.get("seed", 42))
    wanted = config.get("criteria")
    model = config.get("model")
    entries = [_c0_validation(seed, model)]
    for cid, fn in CRITERIA.items():
        if wanted is not None and cid not in wanted:
            continue
        try:
            entries.append(fn(seed))
        except Exception as exc:  # a crash is a failure, not an abort
            entries.append(_entry(cid, f"criterion crashed: {exc}", None,
                                  None, None, False, 0.0, seed))
    report = {"seed": seed, "criteria": entries,
              "passed": all(e["pass"] for e in entries)}
    out = config.get("out")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    return report
