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
generalized eigenproblem.  Its stiffness part is negative semidefinite, so
the top eigenvalue lies between the constant function's quotient (the
mass-weighted mean of the potential, the discrete C5 bound) and the
potential's maximum on the grid; bisection runs on that bracket alone, to
1e-12 of its top.  The window is grown on the coarse grid of the Richardson
step, with the eigenvector there; the fine grid is then solved once, for
the eigenvalue alone, inside a narrow bracket around the coarse value that
a Sturm count certifies.  Without correlation the problem at -p is the one
at p, and `build_curve` solves each |p| once.  `hbar0_direct` estimates the
growth rate by plain Monte Carlo over a long horizon, in the direct form
above; `hbar0_mc` adds the equivalent exponential-martingale form on the
untilted process.  Agreement of the two routes is the core cross-check of
this package.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.linalg.lapack import dstebz, dstein

from .errors import (ConvexityError, RangeError, ResolutionError,
                     TruncationError, ValidationError, VarianceWarning)
from .measures import (GridSpec, _choose_window, _make_grid,
                       _richardson, density_on_grid, invariant_density)
from .model import (ModelParams, _check_momentum, _diffusion_sq, _write_csv,
                    sigma_eval)
from .simulate import (McConfig, McEstimate, _check_mc, log_mean_exp,
                       simulate_tilted, substream_seed)

EDGE_MASS_TOL = 1e-6
MAX_WINDOW_GROWTH = 8
_SUP_BLOCK = 1 << 16      # objective samples per block of the sup scan
_BRACKET_PAD = 1e-6       # pad of the eigenvalue bracket and half-width of
                          # the one about a guess, relative to its top
_EIGEN_RTOL = 1e-12       # bisection tolerance, relative to the bracket's top


@dataclass(frozen=True)
class HamiltonianCurve:
    """Sampled convex curve p -> Hbar0(p)."""

    p_grid: np.ndarray
    values: np.ndarray
    errors: np.ndarray           # per-point error estimates

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


def _top_eigen(d: np.ndarray, e: np.ndarray, lo: float, hi: float,
               vector: bool, guess: Optional[float] = None):
    """Largest eigenvalue of the symmetric tridiagonal matrix with diagonal
    d and off-diagonal e, known to lie in [lo, hi] (0 <= lo <= hi), and its
    unit eigenvector if ``vector`` (else None).

    Bisection (LAPACK stebz) runs only on the bracket, padded by
    _BRACKET_PAD of hi, and stops at _EIGEN_RTOL of hi, not at LAPACK's
    default eps * ||T||_1, which the stiff rows of a graded grid make
    coarse.  A ``guess`` of the top (below hi) narrows it: if a Sturm
    count (stebz with a tolerance of the whole bracket) finds no
    eigenvalue above guess + pad, bisection runs on guess -+ pad; if the
    count finds one, or the narrow bracket holds none, it runs on the
    padded bracket as without a guess.  It finds every eigenvalue in the
    bracket it bisects; inverse iteration (stein) then computes the
    eigenvector of the largest alone.  ValueError if d or e holds an inf
    or NaN, before the guess is read; ResolutionError if no eigenvalue
    lies in the padded bracket.
    """
    d, e = np.asarray_chkfinite(d), np.asarray_chkfinite(e)
    # the tiny floor keeps the interval open where the potential vanishes
    pad = _BRACKET_PAD * hi + np.finfo(float).tiny
    tol = _EIGEN_RTOL * hi
    found, info = 0, 0
    if guess is not None and guess < hi:
        above, *_, info = dstebz(d, e, 1, guess + pad, hi + pad, 0, 0, hi, b"E")
        if info == 0 and above == 0:
            found, vals, block, split, info = dstebz(
                d, e, 1, guess - pad, guess + pad, 0, 0, tol, b"E")
    if found == 0 or info != 0:
        found, vals, block, split, info = dstebz(
            d, e, 1, lo - pad, hi + pad, 0, 0, tol, b"E")
        if info != 0 or found == 0:
            raise ResolutionError(
                f"no eigenvalue in the potential's bracket [{lo!r}, {hi!r}]: "
                "rounding in the assembled eigenproblem exceeds the bracket's pad")
    top = vals[found - 1:found]
    if not vector:
        return float(top[0]), None
    block[0] = block[found - 1]
    vecs, _ = dstein(d, e, top, block, split)
    return float(top[0]), vecs[:, 0]


def _rayleigh_top(params: ModelParams, p: float, y: np.ndarray,
                  vector: bool = True, guess: Optional[float] = None):
    """Largest eigenvalue of the discretized Rayleigh quotient on the grid y,
    weighted by the tilted invariant density there, plus the edge mass of
    its eigenfunction (squared, density-weighted, outer 5% of nodes), or
    None without ``vector``.

    The stiffness is negative semidefinite, so the eigenvalue lies between
    the constant function's Rayleigh quotient -- the mass-weighted mean of
    the potential (p^2/2) sigma^2, the discrete C5 bound -- and the
    potential's maximum on y; ``_top_eigen`` solves inside that bracket,
    narrowed about ``guess`` where one is given.
    """
    w = density_on_grid(params, p, y).values
    n = y.size
    # trapezoid mass weights
    tau = np.empty(n)
    dy = np.diff(y)
    tau[0] = 0.5 * dy[0]
    tau[-1] = 0.5 * dy[-1]
    tau[1:-1] = 0.5 * (dy[:-1] + dy[1:])
    mass = w * tau
    mass = np.maximum(mass, 1e-300)

    v = 0.5 * p * p * sigma_eval(params.sigma, y, beta=params.beta) ** 2
    y_mid = 0.5 * (y[1:] + y[:-1])
    w_mid = np.sqrt(w[1:] * w[:-1])
    c_mid = 0.5 * _diffusion_sq(params, y_mid) * w_mid
    k = c_mid / dy  # stiffness couplings: E(h,h) = sum k_i (h_{i+1}-h_i)^2

    diag = v * mass
    diag[:-1] -= k
    diag[1:] -= k
    # symmetrize against the diagonal mass matrix
    d = diag / mass
    e = k / np.sqrt(mass[:-1] * mass[1:])
    lo = float(np.sum(v * mass) / np.sum(mass))
    top, vec = _top_eigen(d, e, lo, float(np.max(v)), vector, guess)
    if vec is None:
        return top, None
    # vec is sqrt(mass) phi with unit norm, so vec^2 is phi's normalized
    # mass-weighted square
    weight = vec * vec
    edge = max(int(round(0.05 * n)), 2)
    edge_mass = float(weight[:edge].sum() + weight[-edge:].sum())
    return top, edge_mass


def hbar0_eigen(params: ModelParams, p: float, *,
                grid_spec: Optional[GridSpec] = None) -> Tuple[float, float]:
    """Principal eigenvalue route to Hbar0(p), with a Richardson error bar.

    The truncation window starts from the tilted invariant law's window and
    is enlarged until the eigenfunction of the coarse grid of the
    Richardson step ((n - 1) / 2 + 1 nodes, for n = ``grid_spec.n`` made
    odd) keeps its mass away from the edges; TruncationError if that fails
    after repeated growth.  The fine grid (n nodes) is then solved once, on
    the window kept, for the eigenvalue alone, bracketed around the coarse
    value.

    Each solve bisects only between the potential's bounds on the grid, to
    1e-12 of the larger, the fine one only within 1e-6 of that about the
    coarse value when a Sturm count shows that the top lies no higher (see
    ``_rayleigh_top`` and ``_top_eigen``).  Hbar0(0) is 0 exactly, with
    error 0.  ValidationError if p is not finite.

    The error bar is the one Richardson step's |fine - coarse| / 3 alone.
    It leaves out the rounding of the assembled matrix, which can be the
    larger part: with constant sigma = 0.2 at p = 0.5 the value is
    0.005000000001321636 with error 3.04e-13, while the true error is
    1.32e-12.
    """
    p = _check_momentum(p)
    if p == 0.0:
        return 0.0, 0.0
    spec = grid_spec or GridSpec()
    y_lo, y_hi = _choose_window(params, p)

    n = spec.n if spec.n % 2 == 1 else spec.n + 1
    for _ in range(MAX_WINDOW_GROWTH):
        lam_coarse, edge_mass = _rayleigh_top(
            params, p, _make_grid(params, y_lo, y_hi, (n - 1) // 2 + 1))
        if edge_mass <= EDGE_MASS_TOL:
            lam, _ = _rayleigh_top(params, p, _make_grid(params, y_lo, y_hi, n),
                                   vector=False, guess=lam_coarse)
            return _richardson(lam_coarse, lam)
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


def _growth_rate(params: ModelParams, T: float, mc: McConfig, k: int,
                 tilt: float, functional) -> Tuple[McEstimate, float]:
    """(1/duration) log E[exp functional(batch)] over the factor tilted by
    ``tilt``, from the mode of its invariant law with burn-in T/10, on
    sub-stream k of ``mc.seed``; with the relative SE of the mean."""
    sub = replace(mc, seed=substream_seed(mc.seed, k))
    start = invariant_density(params, tilt).mode()
    tb = simulate_tilted(params, T, sub, p=tilt, y_start=start, burn_in=T / 10.0)
    lme, se = log_mean_exp(functional(tb))
    return McEstimate(value=lme / tb.duration, stderr=se / tb.duration), se


def hbar0_direct(params: ModelParams, p: float, T: float, mc: McConfig) -> McEstimate:
    """Monte Carlo growth rate over horizon T, direct form: the tilted
    process averages exp{(p^2/2) int sigma^2 ds}, on sub-stream 0 of
    ``mc.seed``.  A VarianceWarning flags a relative SE above 25%."""
    p = _check_momentum(p)
    if T * 1.0 <= 10.0:
        raise ValidationError("horizon T must exceed 10 relaxation times")
    _check_mc(params, mc)
    est, se = _growth_rate(params, T, mc, 0, p,
                           lambda tb: 0.5 * p * p * tb.int_sigma_sq)
    if se > 0.25:
        warnings.warn(f"heavy-tailed exponential functional at p={p:g} "
                      f"(relative SE {se:.1%}); estimate may be biased low",
                      VarianceWarning)
    return est


def hbar0_mc(params: ModelParams, p: float, T: float, mc: McConfig) -> HbarMcResult:
    """``hbar0_direct`` and the martingale form on sub-stream 1: the same
    expectation on the untilted process, through the exponential martingale
    of the drift tilt: (p^2(1-rho^2)/2) int sigma^2 ds + rho p int sigma dW2."""
    direct = hbar0_direct(params, p, T, mc)
    p = float(p)  # checked finite by hbar0_direct
    martingale, _ = _growth_rate(
        params, T, mc, 1, 0.0,
        lambda tb: (0.5 * p * p * (1.0 - params.rho ** 2) * tb.int_sigma_sq
                    + params.rho * p * tb.int_sigma_dw2))
    return HbarMcResult(direct=direct, martingale=martingale)


def build_curve(params: ModelParams, p_grid: Sequence[float],
                method: str = "eigen", *,
                grid_spec: Optional[GridSpec] = None) -> HamiltonianCurve:
    """Sample Hbar0 on a symmetric momentum grid.

    ``method`` is "eigen" (``hbar0_eigen`` on ``grid_spec``, with its error
    estimates) or "closed-form" (constant sigma only: sigma0^2 p^2 / 2,
    errors 0); the Monte Carlo route is ``hbar0_direct``, per momentum.

    The value at p = 0 is pinned to 0 exactly (the defining normalization).
    With rho = 0 the value and error at -p are those solved at p, so the
    curve is even bit for bit.  Discrete convexity violations beyond 3x the
    stacked error estimates raise ConvexityError.
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
    # without correlation the problem at -p is the one at p
    mirror = params.rho == 0.0
    for i in reversed(range(p_grid.size)):
        p = p_grid[i]
        if p == 0.0:
            values[i] = 0.0
        elif mirror and p < 0.0:
            values[i], errors[i] = values[-1 - i], errors[-1 - i]
        elif method == "eigen":
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
    return HamiltonianCurve(p_grid=p_grid, values=values, errors=errors)


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


def conjugate(x_grid: np.ndarray, f_values: np.ndarray, q_grid: Sequence[float]):
    """Pointwise convex conjugate sup_x (q x - f(x)) over a sampled f.

    The sup is one vectorized scan per block of q (see _sup_refined),
    refined by a parabolic fit through each argmax triple.  Boundary q
    beyond f's sampled slope range are handled by the supporting line at
    the edge sample and flagged "extrapolated".
    Returns (values, x_star, flags).
    """
    x_grid = np.asarray(x_grid, dtype=float)
    f_values = np.asarray(f_values, dtype=float)
    q_grid = np.asarray(q_grid, dtype=float)
    edge, out, x_star = _sup_refined(
        x_grid, lambda s: q_grid[s, None] * x_grid - f_values, q_grid.size)
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


def legendre(curve: HamiltonianCurve, q_grid: Sequence[float]) -> LegendreCurve:
    """Legendre transform Lbar0(q) = sup_p (p q - Hbar0(p)).

    Tiny sampling concavities are repaired by taking the convex hull first;
    the transform only ever sees the hull.  q beyond the curve's slope range
    are extrapolated and flagged (see ``conjugate``).
    """
    hull = _convex_hull_values(curve.p_grid, curve.values)
    values, p_star, flags = conjugate(curve.p_grid, hull, q_grid)
    return LegendreCurve(q_grid=np.asarray(q_grid, dtype=float), values=values,
                         p_star=p_star, flags=flags)
