"""Command-line front end: flat-config ingestion, subcommand dispatch,
CSV/JSON artifact emission.

Configs are flat ``key = value`` documents with dotted keys (greppable,
trivially diffable).  Unknown keys are hard errors so typos never pass
silently.  Every Monte-Carlo-touching artifact records its seed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from functools import reduce
from typing import Optional

import numpy as np

from . import measures, poisson, rates, simulate, verify
from . import hamiltonian as ham
from .errors import ParseError, SvasymError, UnknownKeyError, ValidationError
from .model import (MODEL_KEYS, ModelParams, Regime, _check_time, _write_json,
                    from_doc, to_doc, validate)


@dataclass(frozen=True)
class RunConfig:
    model: ModelParams
    regime: Regime = Regime.ULTRA_FAST
    t: float = 1.0
    eps: float = 0.5
    tilt_p: float = 1.0
    horizon: float = 50.0
    x_target: float = 0.15
    strike: float = 1.1
    eps_sequence: tuple = (0.5, 0.35, 0.25, 0.18)
    mc: simulate.McConfig = simulate.McConfig()
    grid: measures.GridSpec = measures.GridSpec()
    p_grid_max: float = 2.0
    p_grid_count: int = 33
    x_grid_min: float = -0.5
    x_grid_max: float = 0.5
    x_grid_count: int = 101
    logk_min: float = -0.4
    logk_max: float = 0.4
    logk_count: int = 81

    def p_grid(self) -> np.ndarray:
        return np.linspace(-self.p_grid_max, self.p_grid_max, self.p_grid_count)

    def x_grid(self) -> np.ndarray:
        return np.linspace(self.x_grid_min, self.x_grid_max, self.x_grid_count)

    def logk_grid(self) -> np.ndarray:
        return np.linspace(self.logk_min, self.logk_max, self.logk_count)


def _int(raw: str) -> int:
    """An integer, also written as an integral float such as 1e5."""
    try:
        return int(raw)
    except ValueError:
        if float(raw).is_integer():
            return int(float(raw))
        raise


def _count(raw: str) -> int:
    """A grid size: an integer >= 3."""
    n = _int(raw)
    if n < 3:
        raise ValueError(f"a count must be >= 3, got {n}")
    return n


def _floats(raw: str) -> tuple:
    if not raw:
        raise ValueError("empty sequence")
    return tuple(float(tok) for tok in raw.split())


# Every run key: (config key, RunConfig attribute path, converter from the
# raw value text).  Defaults come from RunConfig and its nested dataclasses.
_RUN_KEYS = (
    ("regime", "regime", lambda raw: Regime.from_r(_int(raw))),
    ("t", "t", float),
    ("eps", "eps", float),
    ("tilt.p", "tilt_p", float),
    ("horizon", "horizon", float),
    ("x_target", "x_target", float),
    ("strike", "strike", float),
    ("eps_sequence", "eps_sequence", _floats),
    ("mc.paths", "mc.paths", _int),
    ("mc.steps_per_unit_time", "mc.steps_per_unit_time", _int),
    ("mc.seed", "mc.seed", _int),
    ("grid.n", "grid.n", _count),
    ("p_grid.max", "p_grid_max", float),
    ("p_grid.count", "p_grid_count", _count),
    ("x_grid.min", "x_grid_min", float),
    ("x_grid.max", "x_grid_max", float),
    ("x_grid.count", "x_grid_count", _count),
    ("logK_grid.min", "logk_min", float),
    ("logK_grid.max", "logk_max", float),
    ("logK_grid.count", "logk_count", _count),
)
KNOWN_KEYS = MODEL_KEYS | {key for key, _, _ in _RUN_KEYS}
# The override flag of each run key that has one: the flag's text converts,
# and fails, exactly as the key's value in a config document.
_FLAGS = {"regime": "--regime", "t": "--t", "eps": "--eps",
          "mc.seed": "--seed", "mc.paths": "--paths", "tilt.p": "--p"}


def _with(cfg, attr: str, value):
    """cfg with the (at most one level nested) attribute replaced."""
    head, _, field = attr.partition(".")
    if field:
        value = replace(getattr(cfg, head), **{field: value})
    return replace(cfg, **{head: value})


def _convert(name: str, conv, raw: str, line: Optional[int] = None):
    """conv(raw), a ValueError raised as a ParseError naming ``name`` (a
    config key with its line, or an override flag)."""
    try:
        return conv(raw)
    except ValueError as exc:
        raise ParseError(f"bad value for {name!r}: {exc}", line=line) from None


def load_config(path: str) -> RunConfig:
    """Parse, default, and validate a flat key = value config document.

    A value that does not convert to its key's type raises ParseError with
    its line number."""
    doc = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ParseError(f"expected 'key = value', got {stripped!r}",
                                 line=lineno)
            key, _, raw = stripped.partition("=")
            key = key.strip()
            if key not in KNOWN_KEYS:
                raise UnknownKeyError(key)
            if key in doc:
                raise ParseError(f"duplicate key {key!r}", line=lineno)
            doc[key] = (raw.strip(), lineno)

    model = from_doc({key: _convert(key, str if key == "sigma.kind" else float,
                                    *doc[key])
                      for key in doc if key in MODEL_KEYS})
    cfg = RunConfig(model=model)
    for key, attr, conv in _RUN_KEYS:
        if key in doc:
            cfg = _with(cfg, attr, _convert(key, conv, *doc[key]))
    return cfg


def write_config(cfg: RunConfig, path: str) -> None:
    """Serialize a RunConfig back to the flat document form."""
    doc = to_doc(cfg.model)
    for key, attr, _ in _RUN_KEYS:
        value = reduce(getattr, attr.split("."), cfg)
        if isinstance(value, tuple):
            value = " ".join(map(str, value))
        doc[key] = value.r if isinstance(value, Regime) else value
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(doc):
            fh.write(f"{key} = {doc[key]}\n")


def _emit(out_dir: str, name: str) -> str:
    path = os.path.join(out_dir, name)
    print(f"wrote {path}")
    return path


def _rate_ingredient(cfg: RunConfig, x) -> dict:
    """The regime's rate ingredient for ``x``, the points the command reads,
    as keyword arguments of the rates functions: sigma_bar_sq for r = 4;
    for r = 2 the Legendre transform of the eigen Hamiltonian at exactly
    the slopes of ``x``, and a ValidationError naming p_grid.max if Hbar0's
    slopes fall short of them.  A bad t, then a point that is not finite,
    fails first."""
    _check_time(cfg.t)
    q = rates._slope(x, cfg.model.x0, cfg.t)
    if not np.all(np.isfinite(q)):
        raise ValidationError("the command reads a point whose slope from x0 "
                              "over t is not finite")
    if cfg.regime is Regime.ULTRA_FAST:
        return {"sigma_bar_sq": measures.sigma_bar_sq(cfg.model)}
    curve = ham.build_curve(cfg.model, cfg.p_grid(), method="eigen",
                            grid_spec=cfg.grid)
    q_max = float(np.max(np.abs(np.gradient(curve.values, curve.p_grid))))
    need = float(np.max(np.abs(q)))
    if need > q_max:
        raise ValidationError(f"p_grid.max = {cfg.p_grid_max!r} reaches Hbar0 "
                              f"slopes up to {q_max!r}; the command needs {need!r}")
    return {"legendre": ham.legendre(curve, np.unique(q))}


def _check_model(model: ModelParams) -> None:
    """ValidationError naming each clause of ``validate`` that fails."""
    failed = [f"clause {c.clause!r}: {c.message}" for c in validate(model)
              if not c.passed]
    if failed:
        raise ValidationError("model fails " + "; ".join(failed))


def _cmd_validate(cfg: RunConfig, out: str) -> int:
    report = validate(cfg.model)
    payload = {"passed": report.passed,
               "clauses": [asdict(c) for c in report]}
    _write_json(_emit(out, "validation.json"), payload)
    for c in report:
        print(f"  [{'ok' if c.passed else 'FAIL'}] {c.clause}: {c.message}")
    return 0 if report.passed else 1


def _cmd_invariant(cfg: RunConfig, out: str) -> int:
    table = measures.invariant_density(cfg.model, cfg.tilt_p, cfg.grid)
    table.to_csv(_emit(out, "invariant.csv"))
    print(f"  grid [{table.grid[0]:g}, {table.grid[-1]:g}], "
          f"{table.grid.size} points, mean {table.mean():.6g}")
    return 0


def _cmd_sigma_bar(cfg: RunConfig, out: str) -> int:
    value, err = measures.sigma_bar_sq(cfg.model, with_error=True)
    _write_json(_emit(out, "sigma_bar.json"),
                {"sigma_bar_sq": value, "error_estimate": err})
    print(f"  sigma_bar_sq = {value!r} (err est {err:.3g})")
    return 0


def _cmd_poisson(cfg: RunConfig, out: str) -> int:
    cor = poisson.solve_corrector(cfg.model, cfg.tilt_p, cfg.grid)
    cor.to_csv(_emit(out, "poisson.csv"))
    res = poisson.core_residual_norm(cfg.model, cor)
    print(f"  p = {cor.p:g}, core residual {res:.3g}")
    return 0


def _cmd_hamiltonian(cfg: RunConfig, out: str) -> int:
    curve = ham.build_curve(cfg.model, cfg.p_grid(), method="eigen",
                            grid_spec=cfg.grid)
    curve.to_csv(_emit(out, "hamiltonian.csv"))
    print(f"  {curve.p_grid.size} points on [{curve.p_grid[0]:g}, "
          f"{curve.p_grid[-1]:g}]")
    return 0


def _cmd_rate(cfg: RunConfig, out: str) -> int:
    curve = rates.rate_curve(cfg.regime, cfg.model.x0, cfg.t, cfg.x_grid(),
                             **_rate_ingredient(cfg, cfg.x_grid()))
    curve.to_csv(_emit(out, "rate.csv"))
    return 0


def _cmd_price(cfg: RunConfig, out: str) -> int:
    # the strike, t and the money before the ingredient, which may cost
    # seconds and which the price at the money does not read
    rates._check_strike(cfg.strike)
    _check_time(cfg.t)
    value = rates._atm_price(math.log(cfg.strike), cfg.model.x0)
    if value is None:
        value = rates.option_price_log_asymptote(
            cfg.strike, cfg.model.x0, cfg.t, cfg.regime,
            **_rate_ingredient(cfg, math.log(cfg.strike)))
    _write_json(_emit(out, "price.json"),
                {"strike": cfg.strike, "regime": cfg.regime.r, "t": cfg.t,
                 "log_price_asymptote": value})
    print(f"  eps log price -> {value!r}")
    return 0


def _cmd_smile(cfg: RunConfig, out: str) -> int:
    kwargs = _rate_ingredient(cfg, cfg.logk_grid())
    if "sigma_bar_sq" not in kwargs:  # the ATM band is filled with it
        kwargs["sigma_bar_sq"] = measures.sigma_bar_sq(cfg.model)
    smile = rates.implied_vol_curve(cfg.model.x0, cfg.regime, cfg.t,
                                    cfg.logk_grid(), **kwargs)
    smile.to_csv(_emit(out, "smile.csv"))
    return 0


def _cmd_simulate(cfg: RunConfig, out: str, raw: bool = False) -> int:
    batch = simulate.simulate_xy(cfg.model, cfg.regime, cfg.eps, cfg.t, cfg.mc)
    s = batch.summary()  # StabilityError before any artifact if not finite
    batch.to_csv(_emit(out, "simulate_summary.csv"))
    if raw:
        batch.to_binary(_emit(out, "simulate_paths.bin"))
    print(f"  {s['paths']} paths, mean X {s['mean_x']:.6g}, "
          f"var X {s['var_x']:.6g}, seed {s['seed']}")
    return 0


def _cmd_verify_ldp(cfg: RunConfig, out: str) -> int:
    # ldp_tail's own checks before the ingredient, which may cost seconds
    verify._check_tail(cfg.model, cfg.x_target, cfg.eps_sequence, cfg.mc)
    report = verify.ldp_tail(cfg.model, cfg.regime, cfg.x_target, cfg.t,
                             cfg.eps_sequence, cfg.mc,
                             **_rate_ingredient(cfg, cfg.x_target))
    _write_json(_emit(out, "ldp.json"), report.to_json())
    print(f"  verdict {report.verdict}, predicted {report.predicted:.6g}")
    return 0


def _cmd_accept(cfg: RunConfig, out: str) -> int:
    path = os.path.join(out, "acceptance.json")
    report = verify.run_acceptance(cfg.mc.seed, model=cfg.model, out=path)
    print(f"wrote {path}")
    for entry in report["criteria"]:
        print(f"  [{'PASS' if entry['pass'] else 'FAIL'}] "
              f"{entry['criterion_id']}: {entry['description']}")
    return 0 if report["passed"] else 1


_COMMANDS = {
    "validate": _cmd_validate, "invariant": _cmd_invariant,
    "sigma-bar": _cmd_sigma_bar, "poisson": _cmd_poisson,
    "hamiltonian": _cmd_hamiltonian, "rate": _cmd_rate,
    "price": _cmd_price, "smile": _cmd_smile,
    "simulate": _cmd_simulate, "verify-ldp": _cmd_verify_ldp,
    "accept": _cmd_accept,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svasym",
        description="Small-time asymptotics for fast mean-reverting "
                    "stochastic volatility models")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help="path to a flat key = value config document")
        p.add_argument("--out", default=".", help="output directory")
        for key, flag in _FLAGS.items():
            p.add_argument(flag, dest=key, help=f"override the config's {key}")
        if name == "simulate":
            p.add_argument("--raw", action="store_true",
                           help="also stream raw terminal samples to a "
                                "binary record file")
    return parser


def dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = load_config(args.config)
        for key, attr, conv in _RUN_KEYS:
            raw = getattr(args, key, None)  # only a flag's key is an attribute
            if raw is not None:
                cfg = _with(cfg, attr, _convert(_FLAGS[key], conv, raw))
        if args.command != "validate":
            _check_model(cfg.model)
        os.makedirs(args.out, exist_ok=True)
        if args.command == "simulate":
            return _COMMANDS[args.command](cfg, args.out, raw=args.raw)
        return _COMMANDS[args.command](cfg, args.out)
    except (ParseError, UnknownKeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, SvasymError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # simulate.MAX_PATHS bounds the work, not the memory
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: out of memory; lower mc.paths{detail}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
