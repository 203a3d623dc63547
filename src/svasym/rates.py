"""Rate functions, Lax-formula solutions, asymptotic prices and smiles.

Two regimes of time-scale coupling delta = eps^r:

    r = 4 (ultra-fast): pure averaging; the rate function is the
          Black-Scholes quadratic with the averaged variance,
          I4(x) = |x0 - x|^2 / (2 sigma_bar^2 t).
    r = 2 (fast): the Hamiltonian retains spectral structure;
          I2(x) = t * Lbar0((x0 - x) / t), Lbar0 the convex conjugate of
          the effective Hamiltonian.

Out-of-the-money option prices decay exponentially at rate I_r(log K), and
the implied variance follows from matching that decay against the
Black-Scholes rate: sigma^2 -> (log K - x0)^2 / (2 I_r t).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ATMWarning, RangeError, ValidationError
from .hamiltonian import LegendreCurve, _sup_refined
from .model import Regime, _check_time, _write_csv

ATM_BAND = 1e-9  # |log K - x0| below which a strike is at the money


@dataclass(frozen=True)
class RateCurve:
    """Sampled rate function x -> I_r(x; x0, t) for one regime."""

    regime: Regime
    x0: float
    t: float
    x_grid: np.ndarray
    values: np.ndarray
    sigma_bar_sq: Optional[float] = None      # ingredient for r = 4
    legendre: Optional[LegendreCurve] = None  # ingredient for r = 2

    def to_csv(self, path) -> None:
        _write_csv(path, ("x", "rate", "regime"),
                   (self.x_grid, self.values, [self.regime.r] * self.x_grid.size))


@dataclass(frozen=True)
class SmileCurve:
    """Implied-variance smile on a log-strike grid."""

    logK_grid: np.ndarray
    values: np.ndarray
    regime: Regime
    atm_value: float

    def to_csv(self, path) -> None:
        _write_csv(path, ("logK", "implied_var", "regime"),
                   (self.logK_grid, self.values,
                    [self.regime.r] * self.logK_grid.size))


def _check_sigma_bar_sq(sigma_bar_sq) -> None:
    if sigma_bar_sq is None or not sigma_bar_sq > 0:
        raise ValidationError("sigma_bar_sq must be given and > 0")


def rate_i4(x, x0: float, t: float, sigma_bar_sq: float):
    """Quadratic (Black-Scholes-with-averaged-variance) rate function.

    The square is np.float_power's, which rounds alike for scalar and array
    x (``**`` squares an array exactly but calls pow on a scalar)."""
    _check_time(t)
    _check_sigma_bar_sq(sigma_bar_sq)
    x = np.asarray(x, dtype=float)
    out = np.float_power(x0 - x, 2) / (2.0 * sigma_bar_sq * t)
    return out if out.ndim else float(out)


def _slope(x, x0, t):
    """q = (x0 - x)/t, where the fast-regime rate from x0 to x reads Lbar0."""
    return (x0 - np.asarray(x, dtype=float)) / t


def rate_i2(x, x0: float, t: float, legendre: LegendreCurve):
    """Fast-regime rate function t * Lbar0((x0 - x)/t)."""
    _check_time(t)
    if legendre is None:
        raise ValidationError("the fast-regime rate needs a Legendre curve")
    return t * legendre(_slope(x, x0, t))


def _rate(regime: Regime, x, x0: float, t: float,
          sigma_bar_sq: Optional[float], legendre: Optional[LegendreCurve]):
    """The regime's rate function at x: I4 for r = 4, I2 for r = 2."""
    if regime is Regime.ULTRA_FAST:
        return rate_i4(x, x0, t, sigma_bar_sq)
    return rate_i2(x, x0, t, legendre)


def rate_curve(regime: Regime, x0: float, t: float, x_grid: Sequence[float], *,
               sigma_bar_sq: Optional[float] = None,
               legendre: Optional[LegendreCurve] = None) -> RateCurve:
    """Sample the regime's rate function on an x-grid."""
    x_grid = np.asarray(x_grid, dtype=float)
    values = _rate(regime, x_grid, x0, t, sigma_bar_sq, legendre)
    return RateCurve(regime=regime, x0=x0, t=t, x_grid=x_grid, values=values,
                     sigma_bar_sq=sigma_bar_sq, legendre=legendre)


def lax_solution(h_grid: Sequence[float], h_values: Sequence[float], t: float,
                 x, regime: Regime, *, sigma_bar_sq: Optional[float] = None,
                 legendre: Optional[LegendreCurve] = None):
    """Hopf-Lax value  u0(t, x) = sup_{x'} [ h(x') - t L((x - x')/t) ]

    with L the regime's running cost: the quadratic q^2/(2 sigma_bar^2) for
    r = 4, Lbar0 for r = 2.  The sup over the sampled x' is one vectorized
    scan per block of x (see hamiltonian._sup_refined), refined by a
    parabolic fit at each argmax; RangeError naming the first x whose sup
    sits on the table edge (the table window is too small for that x).
    """
    _check_time(t)
    h_grid = np.asarray(h_grid, dtype=float)
    h_values = np.asarray(h_values, dtype=float)
    scalar = np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))

    if regime is Regime.ULTRA_FAST:
        _check_sigma_bar_sq(sigma_bar_sq)
        cost = lambda q: q * q / (2.0 * sigma_bar_sq)
    else:
        if legendre is None:
            raise ValidationError("the fast regime needs a Legendre curve")
        cost = lambda q: np.interp(q, legendre.q_grid, legendre.values)

    edge, out, _ = _sup_refined(
        h_grid, lambda s: h_values - t * cost(_slope(h_grid, xs[s, None], t)),
        xs.size)
    if edge.any():
        raise RangeError(
            f"Hopf-Lax sup for x = {xs[np.argmax(edge)]} attained at the "
            "table edge; widen the payoff table")
    return float(out[0]) if scalar else out


def _check_strike(K: float) -> None:
    """A strike has a log only above 0."""
    if K <= 0:
        raise ValidationError("strike must be > 0")


def option_price_log_asymptote(K: float, x0: float, t: float, regime: Regime, *,
                               sigma_bar_sq: Optional[float] = None,
                               legendre: Optional[LegendreCurve] = None) -> float:
    """Exponential decay rate of the option price:  -I_r(log K; x0, t).

    Calls are the out-of-the-money case log K > x0; strikes below spot use
    the put side, governed by the same rate function.  Strikes within
    ATM_BAND of the money trigger ATMWarning because the asymptote
    degenerates to 0.
    """
    _check_strike(K)
    log_k = math.log(K)
    if abs(log_k - x0) < ATM_BAND:
        # the rate at no point: checks t and the regime's ingredient as
        # for any other strike
        _rate(regime, (), x0, t, sigma_bar_sq, legendre)
        warnings.warn("strike is at the money within grid resolution; the "
                      "price asymptote degenerates to 0", ATMWarning)
        return 0.0
    return -_rate(regime, log_k, x0, t, sigma_bar_sq, legendre)


def implied_vol_curve(x0: float, regime: Regime, t: float,
                      logK_grid: Sequence[float], *,
                      sigma_bar_sq: float,
                      legendre: Optional[LegendreCurve] = None) -> SmileCurve:
    """Asymptotic implied-variance smile  (log K - x0)^2 / (2 I_r t).

    The formula is 0/0 at the money; strikes inside the exclusion band (the
    grid's smallest absolute spacing, at least ATM_BAND) are filled with
    the at-the-money limit, which equals the averaged variance.
    """
    _check_sigma_bar_sq(sigma_bar_sq)
    logK_grid = np.asarray(logK_grid, dtype=float)
    atm_band = ATM_BAND if logK_grid.size < 2 else max(
        ATM_BAND, float(np.min(np.abs(np.diff(logK_grid)))))
    values = np.full_like(logK_grid, sigma_bar_sq)
    far = ~(np.abs(logK_grid - x0) < atm_band)
    lk = logK_grid[far]
    rate = _rate(regime, lk, x0, t, sigma_bar_sq, legendre)
    values[far] = np.float_power(lk - x0, 2) / (2.0 * rate * t)
    return SmileCurve(logK_grid=logK_grid, values=values, regime=regime,
                      atm_value=sigma_bar_sq)
