"""Speed densities, invariant laws, averaged volatility, factor generator.

For the (possibly tilted) factor process with drift
mu_p(y) = (m - y) + rho p sigma(y) nu |y|^beta the classical 1-D pair is

    s_p(y) = exp{ - int_1^y 2 mu_p(z) / (nu^2 |z|^{2 beta}) dz },
    m_p(y) = 2 / (nu^2 |y|^{2 beta} s_p(y)),

and the unique invariant law is the normalized speed density.  p = 0 recovers
the base factor process.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.integrate import trapezoid

from .errors import TruncationError, ValidationError
from .model import (ModelParams, _check_momentum, _diffusion_sq, _write_csv,
                    scale_log_integrand, sigma_eval)

TAIL_REL_TOL = 1e-10      # target tail mass during window expansion
MAX_EXPANSIONS = 60
DEFAULT_GRID_N = 4096
SIGMA_BAR_REL_TOL = 1e-6  # Richardson error target of sigma_bar_sq


@dataclass(frozen=True)
class GridSpec:
    n: int = DEFAULT_GRID_N

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral) or self.n < 3:
            raise ValidationError(f"GridSpec.n must be an integer >= 3, got {self.n!r}")


@dataclass(frozen=True)
class DensityTable:
    """Normalized density sampled on a truncated window of the state space."""

    grid: np.ndarray
    values: np.ndarray
    norm_constant: float

    def quad(self, integrand: np.ndarray) -> float:
        """Trapezoid quadrature of integrand * density over the window."""
        return float(trapezoid(integrand * self.values, self.grid))

    def mode(self) -> float:
        return float(self.grid[int(np.argmax(self.values))])

    def mean(self) -> float:
        return self.quad(self.grid)

    def to_csv(self, path) -> None:
        _write_csv(path, ("y", "density"), (self.grid, self.values))


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
    """log m_p on the grid, shifted to a maximum of 0."""
    g = lambda z: scale_log_integrand(params, z, pv)
    cum = _cumulative_simpson(g, y)
    logw = cum - 2.0 * params.beta * np.log(np.abs(y)) if params.beta != 0.0 else cum
    return logw - np.max(logw)


def _make_grid(params: ModelParams, y_lo: float, y_hi: float, n: int) -> np.ndarray:
    if params.beta == 0.0:
        return np.linspace(y_lo, y_hi, n)
    return np.geomspace(y_lo, y_hi, n)


def _edge_tail_bounds(y: np.ndarray, w: np.ndarray, logw: np.ndarray,
                      left_open: bool):
    """Exponential-majorant bounds on the mass outside [y[0], y[-1]].

    Uses the local slope of logw = log w at each edge (exact where w
    underflows); the densities are log-concave in the tails so w(y) <=
    w(edge) * exp(-|slope| * dist) beyond the edge.
    Returns (left_bound, right_bound); inf when the slope has the wrong sign.
    """
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


def _start_window(params: ModelParams) -> Tuple[float, float]:
    """Start window of the invariant law: m -+ 6 sd of the Gaussian factor
    (beta = 0), else [0.02, 10] * max(m, nu^2, 0.01)."""
    if params.beta == 0.0:
        sd = params.nu / math.sqrt(2.0)
        return params.m - 6.0 * sd, params.m + 6.0 * sd
    scale = max(params.m, params.nu ** 2, 1e-2)
    return 0.02 * scale, 10.0 * scale


def _choose_window(params: ModelParams, pv: float):
    y_lo, y_hi = _start_window(params)
    for _ in range(MAX_EXPANSIONS):
        y = _make_grid(params, y_lo, y_hi, 1025)
        logw = _log_speed_density(params, pv, y)
        w = np.exp(logw)
        total = trapezoid(w, y)
        left, right = _edge_tail_bounds(y, w, logw, left_open=(params.beta == 0.0))
        tol = TAIL_REL_TOL * total
        if left < tol and right < tol:
            return y_lo, y_hi
        if right >= tol:
            if params.beta == 0.0:
                y_hi = params.m + (y_hi - params.m) * 1.35
            else:
                y_hi *= 1.5
        if left >= tol:
            if params.beta == 0.0:
                y_lo = params.m - (params.m - y_lo) * 1.35
            else:
                y_lo /= 3.0
    raise TruncationError("window expansion failed to capture the invariant mass")


def invariant_density(params: ModelParams, p: float = 0.0,
                      grid_spec: Optional[GridSpec] = None) -> DensityTable:
    """Invariant law of the (tilted) factor process on an auto-chosen window.

    The window expands geometrically until the analytic tail bound of the
    speed density drops below 1e-10 of the total, then the density is
    normalized by trapezoid quadrature on the final grid.  ValidationError
    if p is not finite.
    """
    p = _check_momentum(p)
    spec = grid_spec or GridSpec()
    y_lo, y_hi = _choose_window(params, p)
    table = density_on_grid(params, p, _make_grid(params, y_lo, y_hi, spec.n))
    z = table.norm_constant
    if not math.isfinite(z) or z <= 0:
        raise TruncationError("speed density not integrable on the window")
    return table


def density_on_grid(params: ModelParams, p, y: np.ndarray) -> DensityTable:
    """Invariant density normalized on a caller-supplied grid."""
    pv = float(p)
    y = np.asarray(y, dtype=float)
    w = np.exp(_log_speed_density(params, pv, y))
    z = float(trapezoid(w, y))
    return DensityTable(grid=y, values=w / z, norm_constant=z)


def _richardson(coarse: float, fine: float) -> Tuple[float, float]:
    """(value, error estimate) of one Richardson step from spacing 2h to h."""
    return fine + (fine - coarse) / 3.0, abs(fine - coarse) / 3.0


def sigma_bar_sq(params: ModelParams, *, with_error: bool = False):
    """Averaged variance int sigma^2 d(pi), refined until the Richardson
    error estimate of the trapezoid quadrature is below SIGMA_BAR_REL_TOL
    (1e-6) of the value.

    The grid starts at DEFAULT_GRID_N + 1 = 4097 points on the invariant
    law's window and is doubled (2n - 1 points) up to 8 times, else
    TruncationError.  ``with_error`` also returns the error estimate."""
    y_lo, y_hi = _choose_window(params, 0.0)

    def value(n: int) -> float:
        table = density_on_grid(params, 0.0, _make_grid(params, y_lo, y_hi, n))
        return table.quad(sigma_eval(params.sigma, table.grid, beta=params.beta) ** 2)

    n = DEFAULT_GRID_N + 1
    prev = value((n - 1) // 2 + 1)
    for _ in range(8):
        cur = value(n)
        richardson, err = _richardson(prev, cur)
        if err < SIGMA_BAR_REL_TOL * abs(cur):
            return (richardson, err) if with_error else richardson
        prev = cur
        n = 2 * n - 1
    raise TruncationError("sigma_bar_sq quadrature did not converge to the requested tolerance")


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


def _apply_generator(params: ModelParams, y: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Discrete generator of the (untilted) factor on y, applied to the
    values h on the same grid: (m - y) h' + (nu^2/2) |y|^{2 beta} h''."""
    hp = np.gradient(h, y)
    hpp = _second_derivative(h, y)
    return (params.m - y) * hp + 0.5 * _diffusion_sq(params, y) * hpp
