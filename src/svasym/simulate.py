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
"""

from __future__ import annotations

import math
import os
import struct
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from scipy.special import logsumexp

from .errors import StabilityError, ValidationError, VarianceWarning
from .model import ModelParams, Regime, _sigma_into, _write_csv

BLOCK_PATHS = 65536
SCHEMES = ("full_truncation", "reflect")


@dataclass(frozen=True)
class McConfig:
    paths: int = 10_000
    steps_per_unit_time: int = 100
    seed: int = 42
    scheme: str = "full_truncation"


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo point estimate with its standard error."""
    value: float
    stderr: float
    n: int
    seed: int


@dataclass(frozen=True)
class PathBatch:
    """Terminal values and pathwise time-integral accumulators."""

    x: np.ndarray
    y: np.ndarray
    int_sigma_sq: np.ndarray   # int_0^t sigma^2(Y_s) ds
    int_sigma_dw: np.ndarray   # int_0^t sigma(Y_s) dW1_s
    truncated_fraction: float
    seed: int
    n_steps: int
    dt: float

    def summary(self) -> dict:
        return {
            "paths": int(self.x.size),
            "mean_x": float(np.mean(self.x)),
            "var_x": float(np.var(self.x)),
            "mean_y": float(np.mean(self.y)),
            "truncated_fraction": float(self.truncated_fraction),
            "seed": int(self.seed),
            "n_steps": int(self.n_steps),
            "dt": float(self.dt),
        }

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
    int_sigma_dw2: np.ndarray  # int sigma(Y) dW2, after burn-in
    duration: float            # accumulation window length (T - burn_in)
    seed: int


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


def _map_blocks(n_paths: int, seed: int, fn: Callable[[np.random.Generator, int], tuple]):
    """Run fn over ceil(n_paths / BLOCK_PATHS) path blocks whose sizes differ
    by at most one path, merging results in block order."""
    n_blocks = -(-n_paths // BLOCK_PATHS)
    size, extra = divmod(n_paths, n_blocks)
    jobs = [(i, size + (i < extra)) for i in range(n_blocks)]
    workers = min(_worker_count(), len(jobs))
    if workers <= 1:
        return [fn(_block_rng(seed, i), s) for i, s in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futs = [pool.submit(fn, _block_rng(seed, i), s) for i, s in jobs]
        return [f.result() for f in futs]


def _check_mc(params: ModelParams, mc: McConfig) -> None:
    if mc.paths < 1:
        raise ValidationError("paths must be >= 1")
    if not 0 <= mc.seed < 2 ** 64:
        raise ValidationError(f"seed must lie in [0, 2^64), got {mc.seed}")
    if mc.scheme not in SCHEMES:
        raise ValidationError(f"unknown scheme {mc.scheme!r}; choose from {SCHEMES}")
    if params.beta != 0.0 and mc.steps_per_unit_time < 100:
        raise ValidationError(
            "steps_per_unit_time must be >= 100 when beta is in [1/2, 1) "
            "(the factor is stiff near the boundary)")


class _FactorStepper:
    """The factor process on one path block, stepped in preallocated buffers.

    Each step of :meth:`steps` draws the normals into ``w`` (rows W1, W2 when
    ``correlated``, else W2 alone), clamps the state into ``yp``, yields to
    the caller's accumulators, then advances ``y``.  beta = 0 uses the exact
    linear propagator (exponential integrator), so the marginal law is exact
    for every step size; beta >= 1/2 uses the chosen positivity scheme with
    coefficients frozen at the positive part.  ``tilt`` = rho p adds the
    drift rho p sigma(y) nu |y|^beta and an ``h`` table (grid, h') the
    Girsanov shift nu^2 |y|^{2 beta} h'(y); a zero tilt is skipped.  Every
    operation keeps the operand order of the plain array expression, so the
    results are bit-identical to it.
    """

    def __init__(self, params: ModelParams, rng: np.random.Generator, n: int,
                 y0: float, lam: float, dt: float, scheme: str, *,
                 correlated: bool = False, tilt: float = 0.0, h=None):
        self.params, self.rng, self.lam, self.dt = params, rng, lam, dt
        self.reflect, self.tilt, self.h = scheme == "reflect", tilt, h
        self.truncated = 0
        self.w = np.empty((2 if correlated else 1, n))
        self.y = np.full(n, y0)
        self._sig, self._sig_ok = np.empty(n), False
        # scratch only for the parts of the step this block runs
        self._mix = np.empty(n) if correlated and params.rho != 0.0 else None
        self._drift = np.empty(n) if tilt != 0.0 else None
        if params.beta == 0.0:
            self.yp = self.y
            self._a = math.exp(-lam * dt)
            self._noise = params.nu * math.sqrt(0.5 * (1.0 - self._a * self._a))
        else:
            self.yp, self._ys, self._ypb, self._d = (np.empty(n) for _ in range(4))
            self._noise = params.nu * math.sqrt(lam * dt)

    def sigma(self) -> np.ndarray:
        """sigma at the clamped state of the current step, evaluated once.
        That state is never <= 0, so sigma_eval's domain scan is skipped."""
        if not self._sig_ok:
            ys = self.y if self.params.beta == 0.0 else np.maximum(self.y, 1e-300, out=self._ys)
            _sigma_into(self.params.sigma, ys, self._sig)
            self._sig_ok = True
        return self._sig

    def terminal(self, *also: np.ndarray) -> np.ndarray:
        """The final state, clamped at 0 when beta != 0; raises StabilityError
        if it, or any array in ``also``, is not finite."""
        if not all(np.all(np.isfinite(a)) for a in (*also, self.y)):
            raise StabilityError("non-finite state encountered; step too coarse")
        return np.maximum(self.y, 0.0) if self.params.beta != 0.0 else self.y

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
            shift = prm.nu ** 2 * np.abs(self.yp) ** (2.0 * prm.beta) * np.interp(self.yp, *self.h)
            out = shift if out is None else np.add(out, shift, out=out)
        return out

    def _advance(self, w2: np.ndarray) -> None:
        prm, y = self.params, self.y
        if prm.beta == 0.0:  # m + (y - m) a + extra (1 - a) / lam + noise W2
            extra = self._extra_drift()
            y -= prm.m
            y *= self._a
            y += prm.m
            if extra is not None:
                extra *= 1.0 - self._a
                extra /= self.lam
                y += extra
            if prm.nu > 0.0:
                w2 *= self._noise
                y += w2
            return
        # y + (lam (m - yp) + extra) dt + noise yp^beta W2
        ypb = self._ypb
        np.copyto(ypb, self.yp)
        ypb **= prm.beta  # the operator, like yp ** beta, takes sqrt at beta = 1/2
        extra = self._extra_drift()
        d = np.subtract(prm.m, self.yp, out=self._d)
        d *= self.lam
        if extra is not None:
            d += extra
        d *= self.dt
        y += d
        ypb *= self._noise
        ypb *= w2
        y += ypb
        self.truncated += int(np.count_nonzero(y < 0.0))
        if self.reflect:
            np.abs(y, out=y)


def simulate_xy(params: ModelParams, regime: Regime, eps: float, t: float,
                mc: McConfig) -> PathBatch:
    """Simulate the coupled (X, Y) system to slow time t."""
    _check_mc(params, mc)
    if not 0.0 < eps <= 1.0:
        raise ValidationError("eps must lie in (0, 1]")
    delta = eps ** regime.r
    lam = eps / delta
    dt = (delta / eps) / mc.steps_per_unit_time
    n_steps = max(1, int(math.ceil(t / dt)))
    dt = t / n_steps
    sq_dt = math.sqrt(dt)

    def run(rng: np.random.Generator, n: int):
        st = _FactorStepper(params, rng, n, params.y0, lam, dt, mc.scheme, correlated=True)
        x, iss, isw = np.full(n, params.x0), np.zeros(n), np.zeros(n)
        w1 = st.w[0]
        for _ in st.steps(n_steps):
            sig = st.sigma()
            sig_sq = sig * sig
            dw1 = sq_dt * w1
            x += eps * (params.r - 0.5 * sig_sq) * dt + math.sqrt(eps) * sig * dw1
            iss += sig_sq * dt
            isw += sig * dw1
        return x, st.terminal(x), iss, isw, st.truncated

    parts = _map_blocks(mc.paths, mc.seed, run)
    x, y, iss, isw = (np.concatenate(col) for col in list(zip(*parts))[:4])
    return PathBatch(x=x, y=y, int_sigma_sq=iss, int_sigma_dw=isw,
                     truncated_fraction=sum(p[4] for p in parts) / (mc.paths * n_steps),
                     seed=mc.seed, n_steps=n_steps, dt=dt)


def _tilted_loop(params: ModelParams, T: float, mc: McConfig, p: float, h,
                 y_start: Optional[float], burn_in: float):
    """(n_steps, dt, burn_steps, stepper factory) of the tilted factor
    process on its own clock (lam = 1), started at y_start (default y0)."""
    dt = 1.0 / mc.steps_per_unit_time
    n_steps = max(1, int(math.ceil(T / dt)))
    dt = T / n_steps
    y0 = params.y0 if y_start is None else float(y_start)
    if h is not None:
        grid = np.asarray(h[0], dtype=float)
        h = (grid, np.gradient(np.asarray(h[1], dtype=float), grid))
    return n_steps, dt, int(round(burn_in / dt)), lambda rng, n: _FactorStepper(
        params, rng, n, y0, 1.0, dt, mc.scheme, tilt=params.rho * p, h=h)


def simulate_tilted(params: ModelParams, T: float, mc: McConfig, *,
                    p: float = 0.0, h: Optional[Tuple[np.ndarray, np.ndarray]] = None,
                    y_start: Optional[float] = None,
                    burn_in: float = 0.0) -> TiltedBatch:
    """Simulate the tilted factor process on its own clock.

    ``p`` adds the momentum tilt rho p sigma(y) nu |y|^beta to the drift; an
    ``h`` table (grid, values) adds the Girsanov shift nu^2 |y|^{2 beta}
    h'(y).  Accumulators (int sigma^2 ds, int sigma dW2) start after
    ``burn_in``; a non-finite state or accumulator raises StabilityError.
    """
    _check_mc(params, mc)
    if not 0.0 <= burn_in < T:
        raise ValidationError("burn_in must lie in [0, T)")
    n_steps, dt, burn_steps, stepper = _tilted_loop(params, T, mc, p, h, y_start, burn_in)
    sq_dt = math.sqrt(dt)

    def run(rng: np.random.Generator, n: int):
        st = stepper(rng, n)
        iss, isw2 = np.zeros(n), np.zeros(n)
        for k in st.steps(n_steps):
            if k >= burn_steps:
                sig = st.sigma()
                iss += sig * sig * dt
                isw2 += sig * sq_dt * st.w[0]
        return st.terminal(iss, isw2), iss, isw2

    y, iss, isw2 = (np.concatenate(col) for col in zip(*_map_blocks(mc.paths, mc.seed, run)))
    return TiltedBatch(y=y, int_sigma_sq=iss, int_sigma_dw2=isw2,
                       duration=T - burn_steps * dt, seed=mc.seed)


def ergodic_average(params: ModelParams, phi, T: float, mc: McConfig, *,
                    p: float = 0.0, h=None, y_start: Optional[float] = None,
                    burn_in: Optional[float] = None, n_batches: int = 8) -> McEstimate:
    """Long-run time average (1/T) int phi(Y_s) ds across paths.

    ``phi`` is a callable on arrays or a (grid, values) table.  The standard
    error is taken across independent paths; a VarianceWarning is issued
    when consecutive within-path time batches remain correlated (batch
    length shorter than the mixing time).  A non-finite state or batch sum
    raises StabilityError.
    """
    _check_mc(params, mc)
    if burn_in is None:
        burn_in = T / 10.0
    if callable(phi):
        phi_fn = phi
    else:
        g, v = np.asarray(phi[0], dtype=float), np.asarray(phi[1], dtype=float)
        phi_fn = lambda yy: np.interp(yy, g, v)
    n_steps, dt, burn_steps, stepper = _tilted_loop(params, T, mc, p, h, y_start, burn_in)
    acc_steps = n_steps - burn_steps

    def run(rng: np.random.Generator, n: int):
        st = stepper(rng, n)
        batches = np.zeros((n_batches, n))  # one contiguous row per batch
        for k in st.steps(n_steps):
            if k >= burn_steps:
                b = min((k - burn_steps) * n_batches // acc_steps, n_batches - 1)
                batches[b] += phi_fn(st.yp)
        st.terminal(batches)
        return batches

    # C order (paths, n_batches), so each path's batch sum below runs along a row
    batches = np.concatenate([q.T for q in _map_blocks(mc.paths, mc.seed, run)],
                             out=np.empty((mc.paths, n_batches)))
    per_batch_steps = np.bincount(
        np.minimum(np.arange(acc_steps) * n_batches // acc_steps, n_batches - 1),
        minlength=n_batches)
    batch_means = batches / per_batch_steps  # (paths, n_batches)
    path_means = batches.sum(axis=1) / acc_steps
    value = float(np.mean(path_means))
    se = float(np.std(path_means, ddof=1) / math.sqrt(mc.paths)) if mc.paths > 1 else 0.0
    centered = batch_means - path_means[:, None]
    num = float(np.sum(centered[:, :-1] * centered[:, 1:]))
    den = float(np.sum(centered * centered))
    if den > 0 and num / den > 0.5:
        warnings.warn("within-path time batches are strongly autocorrelated; "
                      "increase T for a trustworthy error bar", VarianceWarning)
    return McEstimate(value=value, stderr=se, n=mc.paths, seed=mc.seed)


def log_mean_exp(samples: np.ndarray) -> Tuple[float, float]:
    """log of the sample mean of exp(samples), with a delta-method standard
    error of the log."""
    n = samples.size
    lme = float(logsumexp(samples) - math.log(n))
    z = np.exp(samples - np.max(samples))
    se = float(np.std(z, ddof=1) / (np.mean(z) * math.sqrt(n))) if n > 1 else 0.0
    return lme, se


@dataclass(frozen=True)
class MomentRow:
    eps: float
    value: float      # eps * log E[S^p]
    stderr: float


@dataclass(frozen=True)
class MomentTable:
    p: float
    t: float
    rows: Tuple[MomentRow, ...]
    passed: bool      # |value| decreases toward 0 along the eps sequence


def moment_check(params: ModelParams, regime: Regime, eps_sequence: Sequence[float],
                 p: float, t: float, mc: McConfig) -> MomentTable:
    """Estimate eps * log E[S^p] along a decreasing eps sequence.

    The limit is 0; pass iff the magnitude decreases monotonically
    (within one standard error) along the sequence.  Eps k runs on
    sub-stream k of ``mc.seed``.
    """
    if p <= 1.0:
        raise ValidationError("moment exponent p must exceed 1")
    _check_mc(params, mc)
    rows = []
    for k, eps in enumerate(eps_sequence):
        batch = simulate_xy(params, regime, eps, t,
                            replace(mc, seed=substream_seed(mc.seed, k)))
        lme, se = log_mean_exp(p * batch.x)
        if se > 0.25:
            warnings.warn(f"heavy-tailed moment estimate at eps={eps:g} "
                          f"(relative SE {se:.1%})", VarianceWarning)
        rows.append(MomentRow(eps=eps, value=eps * lme, stderr=eps * se))
    passed = all(abs(b.value) <= abs(a.value) + a.stderr + b.stderr
                 for a, b in zip(rows, rows[1:]))
    return MomentTable(p=p, t=t, rows=tuple(rows), passed=passed)
