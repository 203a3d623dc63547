"""Monte Carlo simulation of the two-scale system and its tilted relatives.

The rescaled pair follows

    dX = eps (r - sigma^2(Y)/2) ds + sqrt(eps) sigma(Y) dW1,
    dY = lam (m - Y) ds + nu sqrt(lam) Y^beta dW2,   lam = eps / delta,

with delta = eps^regime and correlated drivers <W1, W2> = rho s.  The step
size couples to the fast scale, dt = (delta/eps) / steps_per_unit_time, so
the factor's relaxation is resolved uniformly in eps.

Paths are split into ceil(paths / BLOCK_PATHS) blocks whose sizes differ by
at most one path, and block i draws from its own SFC64 stream, seeded by
``SeedSequence(seed, spawn_key=(i,))``.  The layout depends on the path
count and the seed only, so results are bit-identical regardless of how
blocks are scheduled across threads (worker count comes from
SVASYM_THREADS, 0 or unset meaning auto).  A computation that runs several
simulations from one seed gives simulation k the seed ``substream_seed(seed,
k)``, never seed arithmetic.

The calling thread allocates every path-sized buffer: the result arrays
once, and each block's stepper state, accumulators and scratch as its wave
of blocks (one per worker) comes up.  The block threads only step those
buffers, in place; the only arrays they make are the values of
``ergodic_average``'s phi and of the ``h`` drift, and for a tabulated sigma
the ``np.interp`` and ``copyto`` temporaries of ``model._sigma_into``.  So
the buffers come from the calling thread's heap, not from the arenas of
short-lived threads, whose freed blocks would stay resident between calls.

The tilted factor process (``simulate_tilted``) accumulates
I = int sigma^2 ds and J = int sigma dW2.  Every reader of J multiplies it
by rho, and at rho = 0 the tilt drift is 0 too, so there J reads 0 and is
never accumulated, and sigma^2 is evaluated directly (c^2 (|y| + a)^(2q)
for power_abs: |y| for sigma = |y|^(1/2)) instead of as sigma squared.
"""

from __future__ import annotations

import math
import os
import struct
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import StabilityError, ValidationError, VarianceWarning
from .model import (ModelParams, Regime, _check_time, _diffusion_sq, _sigma_into,
                    _sigma_sq_into, _write_csv)

BLOCK_PATHS = 65536
# work caps, far above the largest pinned run (C8: 1e6 paths, 8574 steps)
MAX_PATHS = 10 ** 8
MAX_STEPS = 10 ** 7


@dataclass(frozen=True)
class McConfig:
    paths: int = 10_000
    steps_per_unit_time: int = 100
    seed: int = 42


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo point estimate with its standard error."""
    value: float
    stderr: float


@dataclass(frozen=True)
class PathBatch:
    """Terminal values of the coupled system."""

    x: np.ndarray
    y: np.ndarray
    truncated_fraction: float
    seed: int
    n_steps: int
    dt: float

    def summary(self) -> dict:
        """The summary record; StabilityError, and no RuntimeWarning, if an
        entry overflows or is otherwise not finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            s = {
                "paths": int(self.x.size),
                "mean_x": float(np.mean(self.x)),
                "var_x": float(np.var(self.x)),
                "mean_y": float(np.mean(self.y)),
                "truncated_fraction": float(self.truncated_fraction),
                "seed": int(self.seed),
                "n_steps": int(self.n_steps),
                "dt": float(self.dt),
            }
        bad = [key for key, value in s.items() if not math.isfinite(value)]
        if bad:
            raise StabilityError(f"non-finite summary: {', '.join(bad)}")
        return s

    def to_csv(self, path) -> None:
        s = self.summary()
        _write_csv(path, s.keys(), [[v] for v in s.values()])

    def to_binary(self, path) -> None:
        """Raw terminal samples as a fixed-width little-endian record file.

        Layout: magic b"SVABIN1\\0", uint64 path count, then the x array and
        the y array back to back as float64.
        """
        with open(path, "wb") as fh:
            fh.write(b"SVABIN1\x00")
            fh.write(struct.pack("<Q", self.x.size))
            fh.write(self.x.astype("<f8").tobytes())
            fh.write(self.y.astype("<f8").tobytes())


@dataclass(frozen=True)
class TiltedBatch:
    """Terminal values and accumulators for the tilted factor process."""

    y: np.ndarray
    int_sigma_sq: np.ndarray   # accumulated after burn-in
    int_sigma_dw2: np.ndarray  # int sigma(Y) dW2, after burn-in; 0 at rho = 0
    duration: float            # accumulation window length (T - burn_in)


def _worker_count() -> int:
    raw = os.environ.get("SVASYM_THREADS", "").strip()
    if raw and not (raw.isascii() and raw.isdigit()):
        raise ValidationError(
            f"SVASYM_THREADS must be a nonnegative integer (0 or unset: auto), got {raw!r}")
    return int(raw or 0) or (os.cpu_count() or 1)


def substream_seed(seed: int, k: int) -> int:
    """Seed of sub-stream k of ``seed``: no two (seed, k) pairs share a
    stream (seed + k would give seed s sub-stream 1 the stream of seed s + 1
    sub-stream 0)."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1, np.uint64)[0])


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(seed, spawn_key=(block,))))


def _map_blocks(n_paths: int, seed: int,
                job: Callable[[np.random.Generator, int, int], Callable[[], object]]) -> list:
    """Run ceil(n_paths / BLOCK_PATHS) path blocks whose sizes differ by at
    most one path, and return their results in block order.

    A block job has two phases.  ``job(rng, lo, hi)`` runs on the calling
    thread and allocates the buffers of paths [lo, hi); the step function it
    returns runs on a block thread, steps those buffers and returns the
    block's result.  Blocks go in waves of one per worker, each wave
    allocated as it starts and freed when it ends."""
    n_blocks = -(-n_paths // BLOCK_PATHS)
    size, extra = divmod(n_paths, n_blocks)
    bounds = [i * size + min(i, extra) for i in range(n_blocks + 1)]
    workers = min(_worker_count(), n_blocks)
    results = []
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        run = pool.map if pool else map
        for first in range(0, n_blocks, workers):
            results += run(lambda step: step(),
                           [job(_block_rng(seed, i), bounds[i], bounds[i + 1])
                            for i in range(first, min(first + workers, n_blocks))])
    return results


def _check_mc(params: ModelParams, mc: McConfig) -> None:
    if not 1 <= mc.paths <= MAX_PATHS:
        raise ValidationError(f"paths must lie in [1, {MAX_PATHS}]")
    if mc.steps_per_unit_time < 1:
        raise ValidationError("steps_per_unit_time must be >= 1")
    if not 0 <= mc.seed < 2 ** 64:
        raise ValidationError(f"seed must lie in [0, 2^64), got {mc.seed}")
    if params.beta != 0.0 and mc.steps_per_unit_time < 100:
        raise ValidationError(
            "steps_per_unit_time must be >= 100 when beta is in [1/2, 1) "
            "(the factor is stiff near the boundary)")


def _time_grid(t: float, dt: float) -> Tuple[int, float]:
    """(n, t / n) for the fewest steps n of at most dt that cover t;
    ValidationError past MAX_STEPS."""
    if not t / dt <= MAX_STEPS:
        raise ValidationError(f"{t / dt:.3g} time steps exceed the cap of {MAX_STEPS}")
    n = max(1, int(math.ceil(t / dt)))
    return n, t / n


class _FactorStepper:
    """The factor process on one path block, stepped in preallocated buffers.

    The state ``y``, the caller's buffer, is filled with y0 and stepped in
    place; the scratch is allocated by the thread that builds the stepper.
    Each step of :meth:`steps` draws the normals into ``w`` (rows W1, W2 when
    ``correlated``, else W2 alone), clamps the state into ``yp``, yields to
    the caller's accumulators, then advances ``y``.  sigma is read at ``yp``:
    y itself at beta = 0, else valid from the clamp to the advance, whose
    drift overwrites it.  beta = 0 uses the exact linear propagator
    (exponential integrator), so the marginal law is exact for every step
    size; beta >= 1/2 uses full-truncation Euler, with the coefficients
    frozen at the positive part.  ``tilt`` = rho p adds the
    drift rho p sigma(y) nu |y|^beta and an ``h`` table (grid, h') the
    Girsanov shift nu^2 |y|^{2 beta} h'(y); a zero tilt is skipped.  Both
    drifts run on the factor's own clock, lam = 1.  Every operation keeps
    the operand order of the plain array expression, so the results are
    bit-identical to it; passes that keep every bit (y - m and + m at
    m = 0, times lam at lam = 1) are skipped.
    """

    def __init__(self, params: ModelParams, rng: np.random.Generator, y: np.ndarray,
                 y0: float, lam: float, dt: float, *,
                 correlated: bool = False, tilt: float = 0.0, h=None):
        self.params, self.rng, self.lam, self.dt = params, rng, lam, dt
        self.tilt, self.h = tilt, h
        n = y.size
        self.w = np.empty((2 if correlated else 1, n))
        self.y = y
        y.fill(y0)
        self._sig, self._sig_ok = np.empty(n), False
        # scratch only for the parts of the step this block runs
        self._mix = np.empty(n) if correlated and params.rho != 0.0 else None
        self._drift = np.empty(n) if tilt != 0.0 else None
        if params.beta == 0.0:
            self.yp = self.y
            self._a = math.exp(-lam * dt)
            self._noise = params.nu * math.sqrt(0.5 * (1.0 - self._a * self._a))
        else:
            self.yp, self._ypb = np.empty(n), np.empty(n)
            self._noise = params.nu * math.sqrt(lam * dt)

    def sigma(self) -> np.ndarray:
        """sigma at the clamped state of the current step, evaluated once."""
        if not self._sig_ok:
            _sigma_into(self.params.sigma, self.yp, self._sig)
            self._sig_ok = True
        return self._sig

    def sigma_sq(self) -> np.ndarray:
        """sigma^2 at the clamped state, written over the sigma buffer, which
        the caller may then scale in place; sigma() evaluates afresh."""
        self._sig_ok = False
        return _sigma_sq_into(self.params.sigma, self.yp, self._sig)

    def terminal(self, *also: np.ndarray) -> None:
        """Clamp the final state at 0 in place when beta != 0; raises
        StabilityError if it, or any array in ``also``, is not finite."""
        # min and max propagate NaN, so no bool mask is made
        if not all(math.isfinite(a.min()) and math.isfinite(a.max())
                   for a in (*also, self.y)):
            raise StabilityError("non-finite state encountered; step too coarse")
        if self.params.beta != 0.0:
            np.maximum(self.y, 0.0, out=self.y)

    def steps(self, n_steps: int):
        rho, w1, w2 = self.params.rho, self.w[0], self.w[-1]
        for k in range(n_steps):
            self.rng.standard_normal(out=self.w)
            if self._mix is not None:  # W2 = rho W1 + sqrt(1 - rho^2) Z
                w2 *= math.sqrt(1.0 - rho ** 2)
                w2 += np.multiply(w1, rho, out=self._mix)
            if self.params.beta != 0.0:
                np.maximum(self.y, 0.0, out=self.yp)
            self._sig_ok = False
            yield k
            self._advance(w2)

    def _extra_drift(self):
        """The tilt and h drifts at the clamped state, or None without either."""
        prm, out = self.params, None
        if self.tilt != 0.0:
            out = np.multiply(self.sigma(), self.tilt, out=self._drift)
            out *= prm.nu
            if prm.beta != 0.0:
                out *= self._ypb
        if self.h is not None:
            shift = _diffusion_sq(prm, self.yp) * np.interp(self.yp, *self.h)
            out = shift if out is None else np.add(out, shift, out=out)
        return out

    def _advance(self, w2: np.ndarray) -> None:
        prm, y = self.params, self.y
        if prm.beta == 0.0:  # m + (y - m) a + extra (1 - a) + noise W2
            extra = self._extra_drift()
            if prm.m == 0.0:  # y - 0 and y + 0 are y, but for the sign of a 0
                y *= self._a
            else:
                y -= prm.m
                y *= self._a
                y += prm.m
            if extra is not None:
                extra *= 1.0 - self._a
                y += extra
            if prm.nu > 0.0:
                w2 *= self._noise
                y += w2
            return
        # y + (lam (m - yp) + extra) dt + noise yp^beta W2
        ypb = self._ypb
        if prm.beta == 0.5:  # yp ** 0.5 is numpy's sqrt fast path
            np.sqrt(self.yp, out=ypb)
        else:
            np.power(self.yp, prm.beta, out=ypb)
        extra = self._extra_drift()
        d = np.subtract(prm.m, self.yp, out=self.yp)  # yp's last read was above
        if self.lam != 1.0:
            d *= self.lam
        if extra is not None:
            d += extra
        d *= self.dt
        y += d
        ypb *= self._noise
        ypb *= w2
        y += ypb


def simulate_xy(params: ModelParams, regime: Regime, eps: float, t: float,
                mc: McConfig) -> PathBatch:
    """Simulate the coupled (X, Y) system to slow time t."""
    _check_mc(params, mc)
    _check_time(t)
    if not 0.0 < eps <= 1.0:
        raise ValidationError("eps must lie in (0, 1]")
    delta = eps ** regime.r
    lam = eps / delta
    n_steps, dt = _time_grid(t, (delta / eps) / mc.steps_per_unit_time)
    sq_dt = math.sqrt(dt)

    x, y = np.full(mc.paths, params.x0), np.empty(mc.paths)
    clamped = params.beta != 0.0

    def run(st: _FactorStepper, x: np.ndarray, a: np.ndarray, b: np.ndarray,
            below: Optional[np.ndarray]) -> int:
        """Step one block; returns how many times an Euler step left a path
        below 0, counted only here, the one reader."""
        def truncated() -> int:
            return int(np.count_nonzero(np.less(st.y, 0.0, out=below))) if clamped else 0

        count, w1 = 0, st.w[0]
        for k in st.steps(n_steps):
            if k:
                count += truncated()
            # x += eps (r - sig^2 / 2) dt + sqrt(eps) sig dW1, dW1 = sqrt(dt) W1
            # in place in W1, which the step has already mixed into W2
            sig = st.sigma()
            w1 *= sq_dt
            np.multiply(sig, sig, out=a)
            a *= 0.5
            np.subtract(params.r, a, out=a)
            a *= eps
            a *= dt
            np.multiply(sig, math.sqrt(eps), out=b)
            b *= w1
            a += b
            x += a
        count += truncated()
        st.terminal(x)  # clamps y in place
        return count

    def job(rng: np.random.Generator, lo: int, hi: int):
        n = hi - lo
        return partial(run, _FactorStepper(params, rng, y[lo:hi], params.y0, lam, dt,
                                           correlated=True),
                       x[lo:hi], np.empty(n), np.empty(n),
                       np.empty(n, dtype=bool) if clamped else None)

    n_truncated = sum(_map_blocks(mc.paths, mc.seed, job))
    return PathBatch(x=x, y=y, truncated_fraction=n_truncated / (mc.paths * n_steps),
                     seed=mc.seed, n_steps=n_steps, dt=dt)


def _tilted_loop(params: ModelParams, T: float, mc: McConfig, p: float, h,
                 y_start: Optional[float], burn_in: float):
    """(n_steps, dt, burn_steps, stepper factory) of the tilted factor
    process on its own clock (lam = 1), started at y_start (default y0)."""
    _check_mc(params, mc)
    _check_time(T, "T")
    if not 0.0 <= burn_in < T:
        raise ValidationError("burn_in must lie in [0, T)")
    n_steps, dt = _time_grid(T, 1.0 / mc.steps_per_unit_time)
    y0 = params.y0 if y_start is None else float(y_start)
    if h is not None:
        grid = np.asarray(h[0], dtype=float)
        h = (grid, np.gradient(np.asarray(h[1], dtype=float), grid))
    return n_steps, dt, int(round(burn_in / dt)), lambda rng, y: _FactorStepper(
        params, rng, y, y0, 1.0, dt, tilt=params.rho * p, h=h)


def simulate_tilted(params: ModelParams, T: float, mc: McConfig, *,
                    p: float = 0.0, h: Optional[Tuple[np.ndarray, np.ndarray]] = None,
                    y_start: Optional[float] = None,
                    burn_in: float = 0.0) -> TiltedBatch:
    """Simulate the tilted factor process on its own clock.

    ``p`` adds the momentum tilt rho p sigma(y) nu |y|^beta to the drift; an
    ``h`` table (grid, values) adds the Girsanov shift nu^2 |y|^{2 beta}
    h'(y).  Accumulators (int sigma^2 ds, int sigma dW2) start after
    ``burn_in``; a non-finite state or accumulator raises StabilityError.
    At rho = 0, int sigma dW2 is all zeros and sigma^2 is evaluated directly.
    """
    n_steps, dt, burn_steps, stepper = _tilted_loop(params, T, mc, p, h, y_start, burn_in)
    sq_dt = math.sqrt(dt)

    y, iss, isw2 = np.empty(mc.paths), np.zeros(mc.paths), np.zeros(mc.paths)

    def run(st: _FactorStepper, iss: np.ndarray, isw2: np.ndarray,
            a: Optional[np.ndarray]) -> None:
        for k in st.steps(n_steps):
            if k < burn_steps:
                continue
            if a is None:  # J is read only times rho: it stays 0
                sig_sq = st.sigma_sq()
                sig_sq *= dt
                iss += sig_sq
            else:  # I += sig^2 dt, J += sig sqrt(dt) W2, in the scratch a
                sig = st.sigma()
                np.multiply(sig, sig, out=a)
                a *= dt
                iss += a
                np.multiply(sig, sq_dt, out=a)
                a *= st.w[0]
                isw2 += a
        st.terminal(iss, isw2)

    def job(rng: np.random.Generator, lo: int, hi: int):
        return partial(run, stepper(rng, y[lo:hi]), iss[lo:hi], isw2[lo:hi],
                       np.empty(hi - lo) if params.rho != 0.0 else None)

    _map_blocks(mc.paths, mc.seed, job)
    return TiltedBatch(y=y, int_sigma_sq=iss, int_sigma_dw2=isw2,
                       duration=T - burn_steps * dt)


def ergodic_average(params: ModelParams, phi: Callable[[np.ndarray], np.ndarray],
                    T: float, mc: McConfig) -> McEstimate:
    """Long-run time average of phi(Y_s) across paths of the untilted factor.

    Each path starts at ``params.y0``, discards a burn-in of T/10 and
    averages phi, a callable on arrays, over the rest of [0, T].  The
    standard error is taken across independent paths; a VarianceWarning is
    issued when consecutive ones of its 8 within-path time batches remain
    correlated (batch length shorter than the mixing time).  A non-finite
    state or batch sum raises StabilityError.
    """
    n_batches = 8
    n_steps, dt, burn_steps, stepper = _tilted_loop(params, T, mc, 0.0, None, None, T / 10.0)
    acc_steps = n_steps - burn_steps
    if acc_steps < n_batches:
        raise ValidationError(f"{acc_steps} steps follow the burn-in, fewer than the "
                              f"{n_batches} time batches; increase T or steps_per_unit_time")

    def run(st: _FactorStepper, batches: np.ndarray) -> None:
        for k in st.steps(n_steps):
            if k >= burn_steps:
                b = min((k - burn_steps) * n_batches // acc_steps, n_batches - 1)
                batches[b] += phi(st.yp)
        st.terminal(batches)

    # one contiguous row per batch; block [lo, hi) sums into its columns
    table = np.zeros((n_batches, mc.paths))
    _map_blocks(mc.paths, mc.seed, lambda rng, lo, hi: partial(
        run, stepper(rng, np.empty(hi - lo)), table[:, lo:hi]))
    per_batch_steps = np.bincount(
        np.minimum(np.arange(acc_steps) * n_batches // acc_steps, n_batches - 1),
        minlength=n_batches)
    # path sums in numpy's pairwise order for 8 terms, ((b0 + b1) + (b2 + b3))
    # + ((b4 + b5) + (b6 + b7)); then, in place, batch means minus path means
    path_means = table[0] + table[1]
    path_means += table[2] + table[3]
    pair = table[4] + table[5]
    pair += table[6] + table[7]
    path_means += pair
    path_means /= acc_steps
    value = float(np.mean(path_means))
    se = float(np.std(path_means, ddof=1) / math.sqrt(mc.paths)) if mc.paths > 1 else 0.0
    table /= per_batch_steps[:, None]
    table -= path_means
    num = float(np.vdot(table[:-1], table[1:]))  # lag-1: row b times row b + 1
    den = float(np.vdot(table, table))
    if den > 0 and num / den > 0.5:
        warnings.warn("within-path time batches are strongly autocorrelated; "
                      "increase T for a trustworthy error bar", VarianceWarning)
    return McEstimate(value=value, stderr=se)


def log_mean_exp(samples: np.ndarray) -> Tuple[float, float]:
    """(log of the sample mean of exp(samples), delta-method relative SE of
    that mean), or (-inf, inf) when every sample is -inf.  Consumes
    ``samples``: the reduction runs in place in it, shifted by the max."""
    n, top = samples.size, float(np.max(samples))
    if top == -math.inf:
        return -math.inf, math.inf
    samples -= top
    w = np.exp(samples, out=samples)
    mean = float(np.mean(w))
    w -= mean
    var = float(np.sum(np.multiply(w, w, out=w))) / max(n - 1, 1)
    return top + math.log(mean), math.sqrt(var / n) / mean
