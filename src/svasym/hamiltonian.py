"""Effective Hamiltonian of the fast regime, by two independent routes.

The effective Hamiltonian is the exponential growth rate

    Hbar0(p) = lim_{T->inf} (1/T) log E[ exp{ (p^2/2) int_0^T
               sigma^2(Y^p_s) ds } ],

where Y^p is the momentum-tilted factor process.  Equivalently it is the
principal eigenvalue of the tilted generator plus the potential
(p^2/2) sigma^2, with the variational (Rayleigh) characterization

    Hbar0(p) = sup_{||h||_{L2(pi^p)} = 1}
               (p^2/2) int sigma^2 h^2 dpi^p  -  (nu^2/2) int |y|^{2 beta}
               |h'|^2 dpi^p.

`hbar0_eigen` discretizes the Rayleigh quotient as a symmetric tridiagonal
generalized eigenproblem; `hbar0_mc` estimates the growth rate by plain
Monte Carlo over a long horizon, in both the direct form above and the
equivalent exponential-martingale form on the untilted process.  Agreement
of the two routes is the core cross-check of this package.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import (ConvexityError, RangeError, TruncationError,
                     ValidationError, VarianceWarning)
from .measures import (DensityTable, GridSpec, _choose_window, _make_grid,
                       _resolve_window, density_on_grid, invariant_density)
from .model import ModelParams, _write_csv, sigma_eval
from .simulate import (McConfig, McEstimate, _check_mc, log_mean_exp,
                       simulate_tilted, substream_seed)

EDGE_MASS_TOL = 1e-6
MAX_WINDOW_GROWTH = 8
_SUP_BLOCK = 1 << 16      # objective samples per block of the sup scan


@dataclass(frozen=True)
class HamiltonianCurve:
    """Sampled convex curve p -> Hbar0(p)."""

    p_grid: np.ndarray
    values: np.ndarray
    method: str                  # "eigen" | "closed-form"
    errors: np.ndarray           # per-point error estimates

    def __call__(self, p: float) -> float:
        if not self.p_grid[0] <= p <= self.p_grid[-1]:
            raise RangeError(f"p = {p} outside the sampled range "
                             f"[{self.p_grid[0]}, {self.p_grid[-1]}]")
        return float(np.interp(p, self.p_grid, self.values))

    def to_csv(self, path) -> None:
        _write_csv(path, ("p", "value", "err"),
                   (self.p_grid, self.values, self.errors))


@dataclass(frozen=True)
class LegendreCurve:
    """Sampled convex conjugate q -> Lbar0(q) with per-point provenance."""

    q_grid: np.ndarray
    values: np.ndarray
    p_star: np.ndarray           # maximizing momentum per point
    flags: tuple                 # "interior" | "extrapolated"

    def __call__(self, q):
        q = np.asarray(q, dtype=float)
        outside = ~((self.q_grid[0] <= q) & (q <= self.q_grid[-1]))
        if outside.any():
            raise RangeError(f"q = {q[outside][0]} outside the sampled range "
                             f"[{self.q_grid[0]}, {self.q_grid[-1]}]")
        out = np.interp(q, self.q_grid, self.values)
        return float(out) if out.ndim == 0 else out

    def to_csv(self, path) -> None:
        _write_csv(path, ("q", "value", "flag"),
                   (self.q_grid, self.values, self.flags))


@dataclass(frozen=True)
class HbarMcResult:
    """Monte Carlo growth-rate estimates: the direct (tilted-process) form
    and the exponential-martingale form on the untilted process."""

    direct: McEstimate
    martingale: McEstimate

    @property
    def value(self) -> float:
        return self.direct.value

    @property
    def stderr(self) -> float:
        return self.direct.stderr


def _rayleigh_top(params: ModelParams, p: float, table: DensityTable):
    """Largest eigenvalue of the discretized Rayleigh quotient on the table's
    grid, plus the edge mass of its eigenfunction (squared, density-weighted,
    outer 5% of nodes)."""
    y = table.grid
    w = table.values
    n = y.size
    # trapezoid mass weights
    tau = np.empty(n)
    dy = np.diff(y)
    tau[0] = 0.5 * dy[0]
    tau[-1] = 0.5 * dy[-1]
    tau[1:-1] = 0.5 * (dy[:-1] + dy[1:])
    mass = w * tau
    mass = np.maximum(mass, 1e-300)

    sig_sq = sigma_eval(params.sigma, y, beta=params.beta) ** 2
    y_mid = 0.5 * (y[1:] + y[:-1])
    w_mid = np.sqrt(w[1:] * w[:-1])
    c_mid = 0.5 * params.nu ** 2 * np.abs(y_mid) ** (2.0 * params.beta) * w_mid
    k = c_mid / dy  # stiffness couplings: E(h,h) = sum k_i (h_{i+1}-h_i)^2

    diag = 0.5 * p * p * sig_sq * mass.copy()
    diag[:-1] -= k
    diag[1:] -= k
    # symmetrize against the diagonal mass matrix
    d = diag / mass
    e = k / np.sqrt(mass[:-1] * mass[1:])
    vals, vecs = eigh_tridiagonal(d, e, select="i", select_range=(n - 1, n - 1))
    phi = vecs[:, 0] / np.sqrt(mass)          # back to function values
    weight = phi * phi * mass
    weight /= weight.sum()
    edge = max(int(round(0.05 * n)), 2)
    edge_mass = float(weight[:edge].sum() + weight[-edge:].sum())
    return float(vals[0]), edge_mass


def hbar0_eigen(params: ModelParams, p: float, *,
                grid_spec: Optional[GridSpec] = None) -> Tuple[float, float]:
    """Principal eigenvalue route to Hbar0(p), with a Richardson error bar.

    The truncation window starts from the tilted invariant law's window and
    is enlarged until the eigenfunction keeps its mass away from the edges;
    TruncationError if that fails after repeated growth.
    """
    p = float(p)
    spec = grid_spec or GridSpec()
    y_lo, y_hi = _resolve_window(spec, lambda: _choose_window(params, p))

    n = spec.n if spec.n % 2 == 1 else spec.n + 1
    for _ in range(MAX_WINDOW_GROWTH):
        def solve(nn: int):
            table = density_on_grid(params, p, _make_grid(params, y_lo, y_hi, nn))
            return _rayleigh_top(params, p, table)

        lam_coarse, _ = solve((n - 1) // 2 + 1)
        lam, edge_mass = solve(n)
        if edge_mass <= EDGE_MASS_TOL:
            err = abs(lam - lam_coarse) / 3.0
            return lam + (lam - lam_coarse) / 3.0, err
        # potential pushes the eigenfunction outward: widen and retry
        if params.beta == 0.0:
            mid = 0.5 * (y_lo + y_hi)
            half = 0.75 * (y_hi - y_lo)
            y_lo, y_hi = mid - half, mid + half
        else:
            y_lo, y_hi = y_lo / 2.0, y_hi * 1.5
    raise TruncationError(
        "eigenfunction mass stays at the window edge; the potential grows too "
        "fast for a finite window at this p")


def hbar0_mc(params: ModelParams, p: float, T: float, mc: McConfig) -> HbarMcResult:
    """Monte Carlo growth-rate estimate over horizon T.

    Direct form: simulate the tilted process from the mode of its invariant
    law (burn-in T/10 discarded) and average exp{(p^2/2) int sigma^2 ds}.
    Martingale form: the same expectation rewritten on the untilted process
    through the exponential martingale of the drift tilt, giving the
    functional (p^2(1-rho^2)/2) int sigma^2 ds + rho p int sigma dW2.
    Both are returned; their agreement is a consistency check.  The direct
    form runs on sub-stream 0 of ``mc.seed`` and the martingale form on
    sub-stream 1.
    """
    p = float(p)
    if T * 1.0 <= 10.0:
        raise ValidationError("horizon T must exceed 10 relaxation times")
    _check_mc(params, mc)
    burn = T / 10.0
    mc_p, mc_0 = (replace(mc, seed=substream_seed(mc.seed, k)) for k in (0, 1))

    start_p = invariant_density(params, p).mode()
    tb = simulate_tilted(params, T, mc_p, p=p, y_start=start_p, burn_in=burn)
    s_direct = 0.5 * p * p * tb.int_sigma_sq
    lme, se = log_mean_exp(s_direct)
    if se > 0.25:
        warnings.warn(f"heavy-tailed exponential functional at p={p:g} "
                      f"(relative SE {se:.1%}); estimate may be biased low",
                      VarianceWarning)
    direct = McEstimate(value=lme / tb.duration, stderr=se / tb.duration,
                        n=mc.paths, seed=mc_p.seed)

    start_0 = invariant_density(params, 0.0).mode()
    tb0 = simulate_tilted(params, T, mc_0, p=0.0, y_start=start_0, burn_in=burn)
    s_mart = (0.5 * p * p * (1.0 - params.rho ** 2) * tb0.int_sigma_sq
              + params.rho * p * tb0.int_sigma_dw2)
    lme_m, se_m = log_mean_exp(s_mart)
    martingale = McEstimate(value=lme_m / tb0.duration, stderr=se_m / tb0.duration,
                            n=mc.paths, seed=mc_0.seed)
    return HbarMcResult(direct=direct, martingale=martingale)


def build_curve(params: ModelParams, p_grid: Sequence[float],
                method: str = "eigen", *,
                grid_spec: Optional[GridSpec] = None) -> HamiltonianCurve:
    """Sample Hbar0 on a symmetric momentum grid.

    ``method`` is "eigen" (``hbar0_eigen`` on ``grid_spec``, with its error
    estimates) or "closed-form" (constant sigma only: sigma0^2 p^2 / 2,
    errors 0); the Monte Carlo route is ``hbar0_mc``, called per momentum.

    The value at p = 0 is pinned to 0 exactly (the defining normalization);
    discrete convexity violations beyond 3x the stacked error estimates
    raise ConvexityError.
    """
    p_grid = np.asarray(p_grid, dtype=float)
    if p_grid.ndim != 1 or p_grid.size < 3 or np.any(np.diff(p_grid) <= 0):
        raise ValidationError("p_grid must be a sorted 1-D grid with >= 3 points")
    if not np.any(p_grid == 0.0):
        raise ValidationError("p_grid must contain 0")
    if np.max(np.abs(p_grid + p_grid[::-1])) > 1e-12 * max(1.0, np.max(np.abs(p_grid))):
        raise ValidationError("p_grid must be symmetric about 0")

    values = np.empty_like(p_grid)
    errors = np.zeros_like(p_grid)
    for i, p in enumerate(p_grid):
        if p == 0.0:
            values[i] = 0.0
            continue
        if method == "eigen":
            values[i], errors[i] = hbar0_eigen(params, p, grid_spec=grid_spec)
        elif method == "closed-form":
            if params.sigma.kind != "constant":
                raise ValidationError("closed-form curve requires constant sigma")
            values[i] = 0.5 * params.sigma.s0 ** 2 * p * p
        else:
            raise ValidationError(f"unknown method {method!r}")

    d2 = values[:-2] - 2.0 * values[1:-1] + values[2:]
    tol = 3.0 * (errors[:-2] + 2.0 * errors[1:-1] + errors[2:]) + 1e-10
    if np.any(d2 < -tol):
        worst = float(np.min(d2 + tol))
        raise ConvexityError(f"discrete convexity violated by {-worst:.3g} "
                             "beyond 3x the error estimates")
    return HamiltonianCurve(p_grid=p_grid, values=values, method=method,
                            errors=errors)


def _sup_refined(x: np.ndarray, rows, m: int):
    """Sup over the grid x of m sampled objectives, refined by a parabola.

    ``rows(s)`` returns the objectives of the points in slice ``s`` as rows
    sampled on x, in blocks of about _SUP_BLOCK samples.  Each argmax is
    refined to the vertex of the parabola through its triple, clipped to
    the triple (kept if the triple is degenerate).  Returns (edge, value,
    vertex); where edge marks an argmax on the first or last sample, value
    and vertex are that sample's.
    """
    n = x.size
    edge, value, vertex = np.empty(m, dtype=bool), np.empty(m), np.empty(m)
    step = max(1, _SUP_BLOCK // max(n, 1))
    for lo in range(0, m, step):
        s = slice(lo, min(lo + step, m))
        vals = rows(s)
        i = np.argmax(vals, axis=1)
        edge[s] = (i == 0) | (i == n - 1)
        value[s] = vals[np.arange(i.size), i]
        vertex[s] = x[i]
        r = np.flatnonzero(~edge[s])
        c = i[r]
        xa, xb, xc = x[c - 1], x[c], x[c + 1]
        fa, fb, fc = vals[r, c - 1], vals[r, c], vals[r, c + 1]
        denom = (xa - xb) * (fb - fc) - (xb - xc) * (fa - fb)
        num = (xa * xa - xb * xb) * (fb - fc) - (xb * xb - xc * xc) * (fa - fb)
        fit = np.abs(denom) > 0
        xv = np.divide(0.5 * num, denom, out=xb.copy(), where=fit)
        xv = np.minimum(np.maximum(xv, xa), xc)
        la = (xv - xb) * (xv - xc) / ((xa - xb) * (xa - xc))
        lb = (xv - xa) * (xv - xc) / ((xb - xa) * (xb - xc))
        lc = (xv - xa) * (xv - xb) / ((xc - xa) * (xc - xb))
        value[lo + r] = np.where(fit, la * fa + lb * fb + lc * fc, fb)
        vertex[lo + r] = np.where(fit, xv, xb)
    return edge, value, vertex


def conjugate(x_grid: np.ndarray, f_values: np.ndarray, q_grid: Sequence[float],
              *, extrapolate: bool = True):
    """Pointwise convex conjugate sup_x (q x - f(x)) over a sampled f.

    The sup is one vectorized scan per block of q (see _sup_refined),
    refined by a parabolic fit through each argmax triple.  Boundary q
    beyond f's sampled slope range are handled by the supporting line at
    the edge sample and flagged "extrapolated" (or raise RangeError naming
    the first such q when extrapolation is disabled).
    Returns (values, x_star, flags).
    """
    x_grid = np.asarray(x_grid, dtype=float)
    f_values = np.asarray(f_values, dtype=float)
    q_grid = np.asarray(q_grid, dtype=float)
    edge, out, x_star = _sup_refined(
        x_grid, lambda s: q_grid[s, None] * x_grid - f_values, q_grid.size)
    if not extrapolate and edge.any():
        raise RangeError(f"q = {q_grid[np.argmax(edge)]} is outside the "
                         "sampled slope range of the curve")
    flags = np.array(("interior", "extrapolated"), dtype=object)[edge.astype(int)]
    return out, x_star, tuple(flags)


def _convex_hull_values(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Greatest convex minorant of the sampled points, evaluated at x."""
    hull = [0]
    for i in range(1, x.size):
        hull.append(i)
        while len(hull) >= 3:
            i0, i1, i2 = hull[-3:]
            cross = ((f[i2] - f[i0]) * (x[i1] - x[i0])
                     - (f[i1] - f[i0]) * (x[i2] - x[i0]))
            if cross < 0:
                del hull[-2]
            else:
                break
    idx = np.asarray(hull)
    return np.interp(x, x[idx], f[idx])


def legendre(curve: HamiltonianCurve, q_grid: Sequence[float],
             *, extrapolate: bool = True) -> LegendreCurve:
    """Legendre transform Lbar0(q) = sup_p (p q - Hbar0(p)).

    Tiny sampling concavities are repaired by taking the convex hull first;
    the transform only ever sees the hull.
    """
    hull = _convex_hull_values(curve.p_grid, curve.values)
    values, p_star, flags = conjugate(curve.p_grid, hull, q_grid,
                                      extrapolate=extrapolate)
    return LegendreCurve(q_grid=np.asarray(q_grid, dtype=float), values=values,
                         p_star=p_star, flags=flags)


def biconjugate(curve: HamiltonianCurve, q_grid: Sequence[float]) -> np.ndarray:
    """Hbar0** on the curve's own p-grid, via the sampled conjugate on
    q_grid; equals the convex hull of the curve on interior points."""
    leg = legendre(curve, q_grid)
    back, _, _ = conjugate(leg.q_grid, leg.values, curve.p_grid)
    return back
