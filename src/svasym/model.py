"""Model definition, admissibility checks and flat-document serialization.

The stock follows dS = r S dt + sigma(Y) S dW1 while the volatility factor Y
mean-reverts with rate 1/delta:

    dY = (1/delta) (m - Y) dt + (nu / sqrt(delta)) Y^beta dW2,
    <W1, W2>_t = rho t.

beta = 0 gives an Ornstein-Uhlenbeck factor on the whole line; beta in
[1/2, 1) gives a CIR-like factor on (0, inf).  The admissibility rules below
(exponent range, Feller-type condition, sub-(1-beta) growth of sigma) are
exactly what guarantees a unique strong solution and a positive Y.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DomainError, UnknownKeyError, ValidationError


@dataclass(frozen=True)
class VolFnSpec:
    """Descriptor for the volatility function sigma(y).

    Three kinds are supported:
      constant   sigma(y) = s0
      power_abs  sigma(y) = c * (a + |y|)^q
      tabulated  linear interpolation on (grid, values), power-law
                 extrapolation with the declared growth exponent outside.

    ``growth_exponent`` is the exponent in the admissibility bound
    sigma(y) <= C (1 + |y|^growth_exponent).
    """

    kind: str
    s0: float = 0.0
    c: float = 0.0
    q: float = 0.0
    a: float = 0.0
    grid: tuple = ()
    values: tuple = ()
    growth_exponent: float = 0.0

    @staticmethod
    def constant(s0: float) -> "VolFnSpec":
        if s0 <= 0:
            raise ValidationError("constant volatility level must be > 0")
        return VolFnSpec(kind="constant", s0=float(s0), growth_exponent=0.0)

    @staticmethod
    def power_abs(c: float, q: float, a: float = 0.0) -> "VolFnSpec":
        if c <= 0:
            raise ValidationError("power_abs coefficient c must be > 0")
        if not 0.0 <= q < 1.0:
            raise ValidationError("power_abs exponent q must lie in [0, 1)")
        if a < 0:
            raise ValidationError("power_abs offset a must be >= 0")
        return VolFnSpec(kind="power_abs", c=float(c), q=float(q), a=float(a),
                         growth_exponent=float(q))

    @staticmethod
    def tabulated(grid, values, growth_exponent: float) -> "VolFnSpec":
        grid = tuple(float(g) for g in grid)
        values = tuple(float(v) for v in values)
        if len(grid) != len(values) or len(grid) < 2:
            raise ValidationError("tabulated sigma needs matching grid/values of length >= 2")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValidationError("tabulated sigma grid must be strictly increasing")
        if any(v < 0 for v in values):
            raise ValidationError("tabulated sigma values must be nonnegative")
        if growth_exponent < 0:
            raise ValidationError("growth exponent must be >= 0")
        return VolFnSpec(kind="tabulated", grid=grid, values=values,
                         growth_exponent=float(growth_exponent))


class Regime(Enum):
    """Coupling delta = eps^r between maturity scale and mean-reversion time."""

    FAST = 2        # delta = eps^2
    ULTRA_FAST = 4  # delta = eps^4

    @property
    def r(self) -> int:
        return self.value

    @staticmethod
    def from_r(r: int) -> "Regime":
        if int(r) == 2:
            return Regime.FAST
        if int(r) == 4:
            return Regime.ULTRA_FAST
        raise ValidationError("regime exponent must be 2 or 4")


@dataclass(frozen=True)
class ModelParams:
    """SDE coefficients plus the volatility-function descriptor."""

    m: float
    nu: float
    beta: float
    rho: float
    r: float
    sigma: VolFnSpec
    y0: float
    x0: float = 0.0


@dataclass(frozen=True)
class ClauseResult:
    clause: str
    passed: bool
    message: str


@dataclass(frozen=True)
class ValidationReport:
    clauses: tuple = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def __iter__(self):
        return iter(self.clauses)


def sigma_eval(spec: VolFnSpec, y, *, beta: float = 0.0):
    """Evaluate sigma(y).  Accepts scalars or arrays; raises DomainError for
    points outside the state space implied by ``beta``."""
    y_arr = np.asarray(y, dtype=float)
    if beta != 0.0 and np.any(y_arr <= 0.0):
        raise DomainError("sigma requested at y <= 0 while the state space is (0, inf)")
    out = _sigma_into(spec, y_arr, np.empty_like(y_arr))
    return out if np.ndim(y) else float(out)


def _sigma_into(spec: VolFnSpec, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write sigma(y) into ``out`` (which must not alias ``y``) and return it.

    No domain check: the caller guarantees that y lies in the state space.
    """
    if spec.kind == "constant":
        out.fill(spec.s0)
    elif spec.kind == "power_abs":
        # adding 0 to |y| and scaling by 1 are exact, so those passes are skipped
        np.abs(y, out=out)
        if spec.a != 0.0:
            out += spec.a
        out **= spec.q  # the operator keeps numpy's scalar-power fast paths
        if spec.c != 1.0:
            out *= spec.c
    elif spec.kind == "tabulated":
        g = np.asarray(spec.grid)
        v = np.asarray(spec.values)
        out[...] = np.interp(y, g, v)
        # power-law tails anchored at the table edges
        lo, hi = g[0], g[-1]
        below = y < lo
        above = y > hi
        if np.any(below) and lo != 0:
            np.copyto(out, v[0] * (np.abs(y) / abs(lo)) ** spec.growth_exponent, where=below)
        if np.any(above):
            np.copyto(out, v[-1] * (np.abs(y) / abs(hi)) ** spec.growth_exponent, where=above)
    else:
        raise ValidationError(f"unknown sigma kind {spec.kind!r}")
    return out


def _sigma_sq_into(spec: VolFnSpec, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write sigma(y)^2 into ``out`` (which must not alias ``y``) and return it.

    power_abs takes c^2 (|y| + a)^(2q) in one power: |y| when 2q = 1, a
    square root when 2q = 1/2.  The other kinds square sigma in place.
    """
    if spec.kind != "power_abs":
        _sigma_into(spec, y, out)
        return np.multiply(out, out, out=out)
    np.abs(y, out=out)
    if spec.a != 0.0:
        out += spec.a
    if spec.q != 0.5:  # the power 1 is exact
        out **= 2.0 * spec.q
    if spec.c != 1.0:
        out *= spec.c * spec.c
    return out


def validate(params: ModelParams) -> ValidationReport:
    """Check the model against the admissibility rules, clause by clause.

    Failures are reported, never raised.
    """
    clauses = []

    nu_sq = params.nu * params.nu  # not nu ** 2, which raises on overflow
    field_ok = (params.nu > 0 and -1.0 < params.rho < 1.0 and params.r >= 0.0
                and math.isfinite(params.m) and math.isfinite(params.y0)
                and math.isfinite(params.x0) and math.isfinite(nu_sq))
    clauses.append(ClauseResult(
        "fields", field_ok,
        "nu > 0, rho in (-1, 1), r >= 0, finite m/y0/x0" if field_ok
        else "basic field constraints violated (need nu > 0 with finite nu^2, rho in (-1,1), r >= 0, finite m/y0/x0)"))

    beta = params.beta
    beta_ok = beta == 0.0 or 0.5 <= beta < 1.0
    clauses.append(ClauseResult(
        "beta-range", beta_ok,
        f"beta = {beta} lies in {{0}} U [1/2, 1)" if beta_ok
        else f"beta = {beta} outside {{0}} U [1/2, 1)"))

    if beta == 0.0:
        clauses.append(ClauseResult("positivity", True,
                                    "beta = 0: state space is the whole line, no condition"))
    elif beta == 0.5:
        ok = params.m > nu_sq / 2 and params.y0 > 0
        clauses.append(ClauseResult(
            "positivity", ok,
            f"m = {params.m} > nu^2/2 = {nu_sq / 2:g} and y0 > 0" if ok
            else f"need m > nu^2/2 = {nu_sq / 2:g} and y0 > 0 "
                 f"(got m = {params.m}, y0 = {params.y0})"))
    else:
        ok = params.m > 0 and params.y0 > 0
        clauses.append(ClauseResult(
            "positivity", ok,
            "m > 0 and y0 > 0" if ok
            else f"need m > 0 and y0 > 0 (got m = {params.m}, y0 = {params.y0})"))

    growth = params.sigma.growth_exponent
    growth_ok = 0.0 <= growth < 1.0 - (beta if beta_ok else 0.0)
    clauses.append(ClauseResult(
        "sigma-growth", growth_ok,
        f"sigma growth exponent {growth} < 1 - beta = {1.0 - beta:g}" if growth_ok
        else f"sigma growth exponent {growth} >= 1 - beta = {1.0 - beta:g}"))

    # finite sampling check of nonnegativity/finiteness and of the declared
    # growth bound; the tabulated kind is opaque so this is the only check
    # available for it
    try:
        probe = _probe_grid(params)
        vals = sigma_eval(params.sigma, probe, beta=beta)
        finite_ok = bool(np.all(np.isfinite(vals)) and np.all(vals >= 0))
        envelope = 1.0 + np.abs(probe) ** max(growth, 0.0)
        c_fit = float(np.max(vals / envelope)) if finite_ok else math.inf
        bound_ok = finite_ok and c_fit < 1e6
        clauses.append(ClauseResult(
            "sigma-sampled", bound_ok,
            f"sigma sampled finite, >= 0, bounded by {c_fit:.3g} (1 + |y|^{growth:g})"
            if bound_ok else "sigma sampling found negative, non-finite, or unbounded values"))
    except DomainError:
        clauses.append(ClauseResult("sigma-sampled", False, "sigma probe left the state space"))

    return ValidationReport(tuple(clauses))


def _probe_grid(params: ModelParams) -> np.ndarray:
    if params.beta == 0.0:
        half = 10.0 * max(1.0, abs(params.m), params.nu)
        return np.linspace(-half, half, 10_000)
    hi = 20.0 * max(1.0, params.m, params.nu)
    return np.geomspace(1e-8, hi, 10_000)


def _diffusion_sq(params: ModelParams, y):
    """The factor's squared diffusion coefficient nu^2 |y|^{2 beta}."""
    return params.nu ** 2 * np.abs(y) ** (2.0 * params.beta)


def scale_log_integrand(params: ModelParams, y, p: float = 0.0):
    """Integrand 2 mu_p(z) / (nu^2 |z|^{2 beta}) of the log scale function."""
    y = np.asarray(y, dtype=float)
    s = sigma_eval(params.sigma, y, beta=params.beta)
    mu = (params.m - y) + params.rho * p * s * params.nu * np.abs(y) ** params.beta
    return 2.0 * mu / _diffusion_sq(params, y)


def _check_time(value, name: str = "t") -> None:
    """ValidationError unless the time ``name`` is finite and > 0."""
    if not (math.isfinite(value) and value > 0):
        raise ValidationError(f"{name} must be finite and > 0, got {value!r}")


def _check_momentum(p) -> float:
    """The momentum p as a float; ValidationError unless p * p is finite."""
    p = float(p)
    if not math.isfinite(p * p):
        raise ValidationError(f"p must be finite with a finite square, got {p!r}")
    return p


# --- flat-document serialization -------------------------------------------

_SIGMA_KEYS = {"sigma.kind", "sigma.s0", "sigma.c", "sigma.q", "sigma.a"}
MODEL_KEYS = {"m", "nu", "beta", "rho", "rate", "y0", "x0"} | _SIGMA_KEYS


def _write_csv(path, header, columns) -> None:
    """CSV artifact: the header line, then one row per index of the
    columns, each line ending in CRLF.  Floats are written as the shortest
    decimal that round-trips (repr of a Python float).  Each column is
    formatted once and the file written in one call."""
    cells = [list(map(str, np.asarray(c).tolist())) for c in columns]
    lines = [",".join(header), *map(",".join, zip(*cells)), ""]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\r\n".join(lines))


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def to_doc(params: ModelParams) -> dict:
    """Serialize to a flat key/value document with canonical keys."""
    doc = {
        "m": params.m, "nu": params.nu, "beta": params.beta, "rho": params.rho,
        "rate": params.r, "y0": params.y0, "x0": params.x0,
        "sigma.kind": params.sigma.kind,
    }
    if params.sigma.kind == "constant":
        doc["sigma.s0"] = params.sigma.s0
    elif params.sigma.kind == "power_abs":
        doc["sigma.c"] = params.sigma.c
        doc["sigma.q"] = params.sigma.q
        doc["sigma.a"] = params.sigma.a
    else:
        raise ValidationError("tabulated sigma has no flat-document form")
    return doc


def from_doc(doc: dict) -> ModelParams:
    """Parse the flat key/value document produced by :func:`to_doc`;
    UnknownKeyError for the first key, in sorted order, outside MODEL_KEYS."""
    unknown = set(doc) - MODEL_KEYS
    if unknown:
        raise UnknownKeyError(min(unknown))
    missing = {"m", "nu", "beta", "rho", "sigma.kind"} - set(doc)
    if missing:
        raise ValidationError(f"model document missing keys: {sorted(missing)}")
    kind = str(doc["sigma.kind"])
    if kind == "constant":
        spec = VolFnSpec.constant(float(doc.get("sigma.s0", 0.0)))
    elif kind == "power_abs":
        spec = VolFnSpec.power_abs(float(doc.get("sigma.c", 0.0)),
                                   float(doc.get("sigma.q", 0.0)),
                                   float(doc.get("sigma.a", 0.0)))
    else:
        raise ValidationError(f"unknown sigma.kind {kind!r} in model document")
    beta = float(doc["beta"])
    if beta != 0.0 and "y0" not in doc:
        raise ValidationError(
            "y0 is required when beta is in [1/2, 1): Y must start strictly positive")
    y0 = float(doc.get("y0", 0.0))
    return ModelParams(m=float(doc["m"]), nu=float(doc["nu"]), beta=beta,
                       rho=float(doc["rho"]), r=float(doc.get("rate", 0.0)),
                       sigma=spec, y0=y0, x0=float(doc.get("x0", 0.0)))
