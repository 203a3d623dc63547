"""Corrector for the averaged-volatility approximation.

The corrector chi solves the centered Poisson equation

    B chi(y) = (p^2 / 2) (sigma_bar^2 - sigma^2(y)),

where B is the generator of the volatility factor.  Its derivative has the
closed integral form

    chi'(y) = (p^2 / (nu^2 y^{2 beta} m(y))) int_{left}^{y} m(z)
              (sigma_bar^2 - sigma^2(z)) dz,

and, because the right-hand side is centered against the invariant law, the
same quantity equals minus the integral from y to the right tail.  Both
representations are computed; each is numerically stable where its integral
is small, so the solver crosses over between them at the density mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .errors import CenteringError, NotApplicableError
from .measures import (GridSpec, _choose_window, _make_grid, _start_window,
                       _apply_generator, density_on_grid, sigma_bar_sq)
from .model import (ModelParams, _check_momentum, _diffusion_sq, _write_csv,
                    sigma_eval)

CENTERING_TOL = 1e-5


@dataclass(frozen=True)
class Corrector:
    """Sampled corrector chi with its derivative on every other node of the
    working grid (see ``_corrector_grid``)."""

    grid: np.ndarray
    chi: np.ndarray
    chi_prime: np.ndarray
    p: float
    sigma_bar_sq: float
    chi_prime_left: np.ndarray
    chi_prime_right: np.ndarray

    def to_csv(self, path) -> None:
        _write_csv(path, ("y", "chi", "chi_prime"),
                   (self.grid, self.chi, self.chi_prime))


@dataclass(frozen=True)
class GrowthBoundReport:
    c1: float
    passed: bool
    log_slope: float


def _corrector_grid(params: ModelParams, y_lo: float, y_hi: float, n: int) -> np.ndarray:
    """Working grid of 2n - 1 points; the emitted corrector keeps every
    other one, n points.  Quadratures run on the full working grid.

    At beta = 0 the grid is the n cell centers of [y_lo, y_hi] interleaved
    with the interior cell edges, so a kink of sigma at a cell edge -- e.g.
    the |y|^q cusp at 0 -- sits on an integration node, while the emitted
    corrector lives on the cell centers, where no node touches the kink and
    the finite-difference residual keeps its second-order headroom.  At
    beta != 0 it is the geometric grid with y_lo and y_hi as nodes, so the
    emitted corrector's first and last points are the window edges."""
    if params.beta == 0.0:
        h = (y_hi - y_lo) / n
        return y_lo + 0.5 * h * np.arange(1, 2 * n)
    return _make_grid(params, y_lo, y_hi, 2 * n - 1)


def solve_corrector(params: ModelParams, p: float,
                    grid_spec: Optional[GridSpec] = None) -> Corrector:
    """Solve the centered Poisson equation for chi on an auto-chosen window.

    The averaged variance used in the right-hand side is recomputed by
    quadrature on the corrector grid itself, so the centering condition holds
    to machine precision on the grid and the left- and right-anchored
    representations of chi' agree.  A CenteringError is raised when that
    value disagrees with the independently converged averaged variance
    (``sigma_bar_sq``) beyond 1e-5 — the signal of an inconsistent window or
    tolerance.

    The window is the invariant law's (``_choose_window``) for
    beta != 0.  For beta = 0 it is the start window unexpanded, six standard
    deviations of the Gaussian factor about m: its tail mass (~1e-9) is far
    below the corrector's discretization error, while the tighter spacing
    buys accuracy in the finite-difference residual.

    Gauge: chi(m) = 0 (chi is defined up to an additive constant).
    ValidationError if p is not finite.
    """
    p = _check_momentum(p)
    spec = grid_spec or GridSpec()
    y_lo, y_hi = (_start_window(params) if params.beta == 0.0
                  else _choose_window(params, 0.0))
    y_fine = _corrector_grid(params, y_lo, y_hi, spec.n)
    fine = density_on_grid(params, 0.0, y_fine)
    w = fine.values

    sig_sq = sigma_eval(params.sigma, y_fine, beta=params.beta) ** 2
    sbar_grid = fine.quad(sig_sq)
    sbar_ref = sigma_bar_sq(params)
    if abs(sbar_ref - sbar_grid) > CENTERING_TOL:
        raise CenteringError(
            f"grid average of sigma^2 ({sbar_grid!r}) disagrees with the "
            f"converged value ({sbar_ref!r}) beyond {CENTERING_TOL:g}")

    rhs0 = sbar_grid - sig_sq  # p-independent part of the RHS, centered on the grid
    cum = cumulative_trapezoid(w * rhs0, y_fine, initial=0.0)
    denom = _diffusion_sq(params, y_fine) * w
    base_left = cum / denom
    base_right = -(cum[-1] - cum) / denom
    base = np.where(y_fine <= fine.mode(), base_left, base_right)

    p_sq = p * p  # chi and chi' scale exactly by p^2
    chi_base = cumulative_trapezoid(base, y_fine, initial=0.0)
    y_ref = min(max(params.m, y_fine[0]), y_fine[-1])
    chi_base -= np.interp(y_ref, y_fine, chi_base)

    out = slice(None, None, 2)  # every other node
    return Corrector(grid=y_fine[out], chi=p_sq * chi_base[out],
                     chi_prime=p_sq * base[out], p=p, sigma_bar_sq=sbar_grid,
                     chi_prime_left=p_sq * base_left[out],
                     chi_prime_right=p_sq * base_right[out])


def generator_residual(params: ModelParams, corrector: Corrector) -> np.ndarray:
    """Pointwise residual B chi - (p^2/2)(sigma_bar^2 - sigma^2) on the grid."""
    rhs = 0.5 * corrector.p ** 2 * (
        corrector.sigma_bar_sq
        - sigma_eval(params.sigma, corrector.grid, beta=params.beta) ** 2)
    return _apply_generator(params, corrector.grid, corrector.chi) - rhs


def core_residual_norm(params: ModelParams, corrector: Corrector) -> float:
    """Max residual over the middle 50% of the window (edges are dominated
    by one-sided differences and density roundoff)."""
    res = np.abs(generator_residual(params, corrector))
    n = res.size
    return float(np.max(res[n // 4: n - n // 4]))


def growth_bound_check(corrector: Corrector, params: ModelParams) -> GrowthBoundReport:
    """Verify |chi'(y)| <= C1 y^{2 g - 1} in the right tail, g the declared
    growth exponent of sigma.

    The ratio |chi'| / y^{2g-1} is examined over the last decade of the
    window; pass iff its log-log slope stays below 0.25 (a plateau, no
    monotone blow-up).  Raises NotApplicableError for beta = 0 with bounded
    sigma, where the bound degenerates to a logarithm.
    """
    g = params.sigma.growth_exponent
    if np.all(corrector.chi_prime == 0.0):
        return GrowthBoundReport(c1=0.0, passed=True, log_slope=0.0)
    if params.beta == 0.0 and g == 0.0:
        raise NotApplicableError(
            "bounded sigma on the whole line: the derivative bound is logarithmic, "
            "not a power law")

    y = corrector.grid
    y_hi = y[-1]
    sel = (y >= y_hi / 10.0) & (y <= 0.98 * y_hi) & (y > 0)
    ys = y[sel]
    ratio = np.abs(corrector.chi_prime[sel]) / ys ** (2.0 * g - 1.0)
    ratio = np.maximum(ratio, 1e-300)
    c1 = float(np.max(ratio))
    # the ratio may still be rising toward its bound in mid-decade; the
    # blow-up test looks at the outermost stretch where it must level off
    outer = ys >= 0.6 * y_hi
    slope = float(np.polyfit(np.log(ys[outer]), np.log(ratio[outer]), 1)[0])
    return GrowthBoundReport(c1=c1, passed=slope < 0.25, log_slope=slope)
