"""Scale/speed densities, invariant laws, averaged volatility, Dirichlet form.

For the (possibly tilted) factor process with drift
mu_p(y) = (m - y) + rho p sigma(y) nu |y|^beta the classical 1-D pair is

    s_p(y) = exp{ - int_1^y 2 mu_p(z) / (nu^2 |z|^{2 beta}) dz },
    m_p(y) = 2 / (nu^2 |y|^{2 beta} s_p(y)),

and the unique invariant law is the normalized speed density.  p = 0 recovers
the base factor process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.integrate import quad, trapezoid

from .errors import DomainError, GridMismatchError, TruncationError
from .model import ModelParams, _write_csv, scale_log_integrand, sigma_eval

TAIL_REL_TOL = 1e-10      # target tail mass during window expansion
MAX_EXPANSIONS = 60
DEFAULT_GRID_N = 4096


@dataclass(frozen=True)
class GridSpec:
    n: int = DEFAULT_GRID_N
    y_lo: Optional[float] = None
    y_hi: Optional[float] = None


@dataclass(frozen=True)
class DensityTable:
    """Normalized density sampled on a truncated window of the state space."""

    grid: np.ndarray
    values: np.ndarray
    norm_constant: float

    def integral(self) -> float:
        return float(trapezoid(self.values, self.grid))

    def quad(self, integrand: np.ndarray) -> float:
        """Trapezoid quadrature of integrand * density over the window."""
        return float(trapezoid(integrand * self.values, self.grid))

    def mode(self) -> float:
        return float(self.grid[int(np.argmax(self.values))])

    def mean(self) -> float:
        return self.quad(self.grid)

    def to_csv(self, path) -> None:
        _write_csv(path, ("y", "density"), (self.grid, self.values))


def scale_density(params: ModelParams, p, y) -> float:
    """s_p(y), by adaptive quadrature anchored at y = 1 (so s_p(1) = 1)."""
    pv = float(p)
    y = float(y)
    if not bool(params.in_state_space(y)):
        raise DomainError(f"y = {y} outside the state space")
    integrand = lambda z: float(scale_log_integrand(params, z, pv))
    val, _ = quad(integrand, 1.0, y, limit=200)
    return math.exp(-val)


def _cumulative_simpson(f: Callable[[np.ndarray], np.ndarray], y: np.ndarray) -> np.ndarray:
    """Cumulative integral of f from y[0], one Simpson panel per interval."""
    mids = 0.5 * (y[1:] + y[:-1])
    fy = f(y)
    fm = f(mids)
    seg = (np.diff(y) / 6.0) * (fy[:-1] + 4.0 * fm + fy[1:])
    out = np.empty_like(y)
    out[0] = 0.0
    np.cumsum(seg, out=out[1:])
    return out


def _log_speed_density(params: ModelParams, pv: float, y: np.ndarray) -> np.ndarray:
    """log m_p on the grid, up to an additive constant (anchored at y[0])."""
    g = lambda z: scale_log_integrand(params, z, pv)
    cum = _cumulative_simpson(g, y)
    return cum - 2.0 * params.beta * np.log(np.abs(y)) if params.beta != 0.0 else cum


def _make_grid(params: ModelParams, y_lo: float, y_hi: float, n: int) -> np.ndarray:
    if params.beta == 0.0:
        return np.linspace(y_lo, y_hi, n)
    return np.geomspace(y_lo, y_hi, n)


def _edge_tail_bounds(y: np.ndarray, w: np.ndarray, left_open: bool):
    """Exponential-majorant bounds on the mass outside [y[0], y[-1]].

    Uses the local log-slope at each edge; the densities here are log-concave
    in the tails so w(y) <= w(edge) * exp(-|slope| * dist) beyond the edge.
    Returns (left_bound, right_bound); inf when the slope has the wrong sign.
    """
    logw = np.log(np.maximum(w, 1e-300))
    slope_r = (logw[-1] - logw[-2]) / (y[-1] - y[-2])
    right = w[-1] / (-slope_r) if slope_r < 0 else math.inf
    slope_l = (logw[1] - logw[0]) / (y[1] - y[0])
    if slope_l > 0:
        left = w[0] / slope_l
        if not left_open:
            # bounded left gap (0, y_lo]: the flat bound w0 * y_lo also applies
            left = min(left, w[0] * y[0])
    else:
        left = math.inf
    return left, right


def _choose_window(params: ModelParams, pv: float):
    if params.beta == 0.0:
        sd = params.nu / math.sqrt(2.0)
        center = params.m
        y_lo, y_hi = center - 6.0 * sd, center + 6.0 * sd
    else:
        scale = max(params.m, params.nu ** 2, 1e-2)
        y_lo, y_hi = 0.02 * scale, 10.0 * scale

    for _ in range(MAX_EXPANSIONS):
        y = _make_grid(params, y_lo, y_hi, 1025)
        logw = _log_speed_density(params, pv, y)
        w = np.exp(logw - np.max(logw))
        total = trapezoid(w, y)
        left, right = _edge_tail_bounds(y, w, left_open=(params.beta == 0.0))
        tol = TAIL_REL_TOL * total
        if left < tol and right < tol:
            return y_lo, y_hi
        if right >= tol:
            if params.beta == 0.0:
                y_hi = center + (y_hi - center) * 1.35
            else:
                y_hi *= 1.5
        if left >= tol:
            if params.beta == 0.0:
                y_lo = center - (center - y_lo) * 1.35
            else:
                y_lo /= 3.0
    raise TruncationError("window expansion failed to capture the invariant mass")


def _resolve_window(spec: GridSpec, auto: Callable[[], Tuple[float, float]]):
    """The window (y_lo, y_hi) of ``spec``: each bound it sets, and the
    ``auto()`` window's bound for each it leaves unset (auto is called
    only then)."""
    if spec.y_lo is not None and spec.y_hi is not None:
        return spec.y_lo, spec.y_hi
    y_lo, y_hi = auto()
    return (y_lo if spec.y_lo is None else spec.y_lo,
            y_hi if spec.y_hi is None else spec.y_hi)


def invariant_density(params: ModelParams, p: float = 0.0,
                      grid_spec: Optional[GridSpec] = None) -> DensityTable:
    """Invariant law of the (tilted) factor process on an auto-chosen window.

    The window expands geometrically until the analytic tail bound of the
    speed density drops below 1e-10 of the total, then the density is
    normalized by trapezoid quadrature on the final grid.
    """
    pv = float(p)
    spec = grid_spec or GridSpec()
    y_lo, y_hi = _resolve_window(spec, lambda: _choose_window(params, pv))
    y = _make_grid(params, y_lo, y_hi, spec.n)
    logw = _log_speed_density(params, pv, y)
    w = np.exp(logw - np.max(logw))
    z = float(trapezoid(w, y))
    if not math.isfinite(z) or z <= 0:
        raise TruncationError("speed density not integrable on the window")
    return DensityTable(grid=y, values=w / z, norm_constant=z)


def density_on_grid(params: ModelParams, p, y: np.ndarray) -> DensityTable:
    """Invariant density normalized on a caller-supplied grid."""
    pv = float(p)
    y = np.asarray(y, dtype=float)
    logw = _log_speed_density(params, pv, y)
    w = np.exp(logw - np.max(logw))
    z = float(trapezoid(w, y))
    return DensityTable(grid=y, values=w / z, norm_constant=z)


def sigma_bar_sq(params: ModelParams, *, rel_tol: float = 1e-6,
                 n0: int = DEFAULT_GRID_N + 1, with_error: bool = False):
    """Averaged variance int sigma^2 d(pi), refined until the Richardson
    error estimate of the trapezoid quadrature is below ``rel_tol``."""
    y_lo, y_hi = _choose_window(params, 0.0)
    spec = lambda n: GridSpec(n=n, y_lo=y_lo, y_hi=y_hi)

    def value(n: int) -> float:
        table = invariant_density(params, grid_spec=spec(n))
        return table.quad(sigma_eval(params.sigma, table.grid, beta=params.beta) ** 2)

    n = n0
    prev = value((n - 1) // 2 + 1)
    for _ in range(8):
        cur = value(n)
        err = abs(cur - prev) / 3.0
        if err < rel_tol * abs(cur):
            richardson = cur + (cur - prev) / 3.0
            return (richardson, err) if with_error else richardson
        prev = cur
        n = 2 * n - 1
    raise TruncationError("sigma_bar_sq quadrature did not converge to the requested tolerance")


def _check_table(table: DensityTable, h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    if h.shape != table.grid.shape:
        raise GridMismatchError(
            f"function table has shape {h.shape}, density grid {table.grid.shape}")
    return h


def dirichlet_form(params: ModelParams, p, table: DensityTable, h) -> float:
    """Quadratic form (nu^2/2) int |y|^{2 beta} |h'|^2 d(pi^p)."""
    h = _check_table(table, h)
    hp = np.gradient(h, table.grid)
    integrand = 0.5 * params.nu ** 2 * np.abs(table.grid) ** (2.0 * params.beta) * hp ** 2
    return table.quad(integrand)


def _second_derivative(h: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Compact 3-point second difference (one-sided copies at the ends)."""
    hpp = np.empty_like(h)
    h1 = y[1:-1] - y[:-2]
    h2 = y[2:] - y[1:-1]
    hpp[1:-1] = 2.0 * (h[:-2] / (h1 * (h1 + h2)) - h[1:-1] / (h1 * h2)
                       + h[2:] / (h2 * (h1 + h2)))
    hpp[0] = hpp[1]
    hpp[-1] = hpp[-2]
    return hpp


def apply_generator(params: ModelParams, p, table: DensityTable, h) -> np.ndarray:
    """Discrete tilted generator: mu_p h' + (nu^2/2) |y|^{2 beta} h''."""
    h = _check_table(table, h)
    y = table.grid
    pv = float(p)
    s = sigma_eval(params.sigma, y, beta=params.beta)
    mu = (params.m - y) + params.rho * pv * s * params.nu * np.abs(y) ** params.beta
    hp = np.gradient(h, y)
    hpp = _second_derivative(h, y)
    return mu * hp + 0.5 * params.nu ** 2 * np.abs(y) ** (2.0 * params.beta) * hpp


def reversibility_check(params: ModelParams, p, table: DensityTable, f, g) -> float:
    """Residual |int f B^p g d(pi^p) - int g B^p f d(pi^p)|.

    f and g must vanish near the window edges; the residual is limited by the
    O(dy^2) error of the central differences.
    """
    f = _check_table(table, f)
    g = _check_table(table, g)
    bg = apply_generator(params, p, table, g)
    bf = apply_generator(params, p, table, f)
    return abs(table.quad(f * bg) - table.quad(g * bf))


def stationarity_residual(params: ModelParams, p, table: DensityTable, xi) -> float:
    """|int B^p xi d(pi^p)| for a compactly supported test table xi."""
    xi = _check_table(table, xi)
    return abs(table.quad(apply_generator(params, p, table, xi)))
