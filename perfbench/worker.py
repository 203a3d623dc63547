"""One workload process: set up, serve requests in a closed loop, check the
outputs, and print one JSON report line.

run.py starts this script from the repository root; it prints ``READY``
when set-up ends (import, input generation, config files, model
validation), so the parent can time set-up from process start.  With
``--setup-only`` it stops there.  With ``--trace 1`` the request phase runs
under the span tracer, and the report carries the per-layer numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time
import warnings
from collections import Counter

import numpy as np

import spans

ROOT = os.getcwd()
WORK_ROOT = os.path.join(ROOT, ".perfbench-tmp")


class Record:
    """One request: its inputs, output or exception, latency and the
    labels of the checks it failed."""

    def __init__(self, req, round_index: int):
        self.req = req
        self.round = round_index
        self.out = None
        self.error = None
        self.stage = None
        self.latency = 0.0
        self.failures = []
        self.info = {}

    def fail(self, label: str) -> None:
        self.failures.append(label)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.failures)


def serve_rounds(wl, state, seed, seconds, limit, budget, tracer):
    """Serve whole rounds until ``seconds`` have passed and the workload's
    minimum is met, or exactly ``limit`` requests.  Stop after the request
    that passes ``budget`` seconds even mid-round, so a slow program is
    reported rather than killed.  A program exception fails that request
    only.  Return (records, request-phase seconds, rounds begun, truncated)."""
    records = []
    k = 0
    t0 = time.perf_counter()
    while True:
        for req in wl.round(state, seed, k):
            rec = Record(req, k)
            stage = []
            r0 = time.perf_counter()
            try:
                with tracer.span("bench", "request"):
                    rec.out = wl.serve(state, req, tracer, stage)
            except Exception as exc:
                rec.error = exc
            rec.latency = time.perf_counter() - r0
            rec.stage = stage[-1] if stage else None
            records.append(rec)
            if len(records) == limit:
                return records, time.perf_counter() - t0, k + 1, False
            if time.perf_counter() - t0 > budget:
                return records, time.perf_counter() - t0, k + 1, True
        k += 1
        if not limit and time.perf_counter() - t0 >= seconds and k >= wl.min_rounds:
            return records, time.perf_counter() - t0, k, False


def end_to_end(wl, records, wall):
    done = [r for r in records if r.error is None]
    lat_ms = np.array([r.latency * 1e3 for r in done])
    p50 = float(np.percentile(lat_ms, 50)) if done else math.nan
    p90 = float(np.percentile(lat_ms, 90)) if done else math.nan
    est = [e for r in done for e in wl.estimates(r)]
    steps = sum(r.req.path_steps for r in done)
    n_failed = sum(r.failed for r in records)
    return {
        "setup_s": None,   # timed by the parent from process start
        # in a closed loop every request finishes, with a result or an
        # exception; failures are counted apart, in failed_ratio
        "requests_per_s": len(records) / wall,
        "request_p50_ms": p50,
        "request_p90_ms": p90,
        "path_steps_per_s": steps / wall if steps else None,
        "se2_x_s": (math.exp(sum(math.log(se * se * s) for se, s in est) / len(est))
                    if est else None),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_ratio": n_failed / len(records),
    }, {"latency_samples": len(done),
        "beyond_p90": int(np.sum(lat_ms > p90)) if done else 0}


def digest(wl, records) -> str:
    """sha256 of the first round's output values, in request order."""
    h = hashlib.sha256()
    for rec in records:
        if rec.round != 0:
            break
        if rec.error is not None:
            h.update(type(rec.error).__name__.encode())
        else:
            h.update(np.asarray(wl.digest(rec), dtype=float).tobytes())
    return h.hexdigest()[:16]


class LayerCounters:
    """Counts taken at the traced calls, for the per-layer ratios."""

    def __init__(self, tracer, tilted_steps):
        self.tilted_steps = tilted_steps
        self.c = Counter()
        self.ess = []
        self.pending = []
        self.last_xy = None
        tracer.observers.update({
            "simulate.simulate_xy": self.on_xy,
            "simulate.simulate_tilted": self.on_tilted,
            "simulate.ergodic_average": self.on_ergodic,
            "hamiltonian.hbar0_mc": self.on_hbar_mc,
            "hamiltonian.build_curve": self.on_build_curve,
            "hamiltonian.legendre": self.on_legendre,
            "rates.rate_curve": lambda a, r: self.points(a["x_grid"]),
            "rates.implied_vol_curve": lambda a, r: self.points(a["logK_grid"]),
            "rates.lax_solution": lambda a, r: self.points(a["x"]),
        })

    def points(self, x):
        self.c["rate_points"] += int(np.size(x))

    def on_xy(self, a, res):
        self.c["xy_steps"] += res.x.size * res.n_steps
        self.last_xy = (a, res)

    def on_tilted(self, a, res):
        mc = a["mc"]
        self.c["tilted_steps"] += mc.paths * self.tilted_steps(a["T"], mc.steps_per_unit_time)
        self.pending.append(res)

    def on_ergodic(self, a, res):
        mc = a["mc"]
        self.c["tilted_steps"] += mc.paths * self.tilted_steps(a["T"], mc.steps_per_unit_time)

    def on_hbar_mc(self, a, res):
        """ESS ratio (sum w)^2 / (n sum w^2) of the exponential weights of
        the direct and martingale forms, from the two tilted batches."""
        p, rho = float(a["p"]), a["params"].rho
        if len(self.pending) >= 2:
            direct, mart = self.pending[-2:]
            for s in (0.5 * p * p * direct.int_sigma_sq,
                      0.5 * p * p * (1.0 - rho * rho) * mart.int_sigma_sq
                      + rho * p * mart.int_sigma_dw2):
                w = np.exp(s - np.max(s))
                self.ess.append(float(np.sum(w) ** 2 / (w.size * np.sum(w * w))))
        self.pending.clear()

    def on_build_curve(self, a, res):
        if a["method"] == "eigen":
            self.c["eigen_p"] += int(np.count_nonzero(res.p_grid))

    def on_legendre(self, a, res):
        self.c["legendre_q"] += int(res.q_grid.size)


def layer_metrics(wl, records, tracer, counters, wall):
    sp = tracer.spans
    out = spans.summarize(sp, wall)
    c = counters.c

    def per(total, count, scale):
        return total / count * scale if count else 0.0

    def mean_ms(layer, name):
        s, n = spans.totals(sp, layer, name)
        return per(s, n, 1e3)

    xy_s, _ = spans.totals(sp, "simulate", "simulate_xy")
    tilted_s = sum(spans.totals(sp, "simulate", n)[0]
                   for n in ("simulate_tilted", "ergodic_average"))
    mc_s, mc_n = spans.totals(sp, "hamiltonian", "hbar0_mc")
    rate_s = sum(spans.totals(sp, "rates", n)[0]
                 for n in ("rate_curve", "implied_vol_curve", "lax_solution"))
    out.update({
        "simulate.xy_ns_per_path_step": per(xy_s, c["xy_steps"], 1e9),
        "simulate.tilted_ns_per_path_step": per(tilted_s, c["tilted_steps"], 1e9),
        "simulate.philox_ns_per_draw": philox_ns_per_draw(),
        "hamiltonian.eigen_ms_per_p": per(spans.totals(sp, "hamiltonian", "build_curve")[0],
                                          c["eigen_p"], 1e3),
        "hamiltonian.legendre_us_per_q": per(spans.totals(sp, "hamiltonian", "legendre")[0],
                                             c["legendre_q"], 1e6),
        "hamiltonian.mc_s_per_p": per(mc_s, mc_n, 1.0),
        "hamiltonian.ess_ratio": float(np.median(counters.ess)) if counters.ess else 0.0,
        "verify.hit_ratio": wl.hit_ratio(records),
        "measures.sigma_bar_sq_ms": mean_ms("measures", "sigma_bar_sq"),
        "measures.invariant_density_ms": mean_ms("measures", "invariant_density"),
        "poisson.solve_corrector_ms": mean_ms("poisson", "solve_corrector"),
        "rates.us_per_point": per(rate_s, c["rate_points"], 1e6),
        "cli.load_config_ms": mean_ms("cli", "load_config"),
        "cli.artifact_write_ms": mean_ms("cli", "artifacts"),
        "model.validate_ms": mean_ms("model", "validate"),
        "simulate.threads1_ns_per_path_step": 0.0,
        "simulate.thread_speedup": 0.0,
    })
    probe_ok = True
    if counters.last_xy is not None:
        probe_ok = thread_probe(out, counters, sp)
    return out, probe_ok


def philox_ns_per_draw() -> float:
    """Reference probe: one standard normal from a bare Philox generator."""
    rng = np.random.Generator(np.random.Philox(key=2 ** 64 + 1))
    n, times = 65536, []
    for _ in range(31):
        t0 = time.perf_counter()
        rng.standard_normal(n)
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) / n * 1e9


def thread_probe(out, counters, sp) -> bool:
    """Repeat the last simulate_xy call at SVASYM_THREADS=1: time it against
    the traced multi-thread call, and require a byte-identical summary
    artifact (the determinism contract)."""
    from svasym import simulate
    a, res2 = counters.last_xy
    t2 = [s for s in sp if s.layer == "simulate" and s.name == "simulate_xy"][-1].duration
    old = os.environ.get("SVASYM_THREADS")
    os.environ["SVASYM_THREADS"] = "1"
    try:
        t0 = time.perf_counter()
        res1 = simulate.simulate_xy(**a)
        t1 = time.perf_counter() - t0
    finally:
        os.environ["SVASYM_THREADS"] = old
    out["simulate.threads1_ns_per_path_step"] = t1 / (res1.x.size * res1.n_steps) * 1e9
    out["simulate.thread_speedup"] = t1 / t2
    blobs = []
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        for i, batch in enumerate((res2, res1)):
            path = os.path.join(tmp, f"summary{i}.csv")
            batch.to_csv(path)
            with open(path, "rb") as fh:
                blobs.append(fh.read())
    return blobs[0] == blobs[1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--requests", type=int, default=0,
                    help="serve exactly this many requests instead of --seconds")
    ap.add_argument("--budget", type=float, default=math.inf,
                    help="stop serving once the request phase passes this many seconds")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "svasym", "__init__.py")):
        print(f"error: no svasym package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import svasym
    if not os.path.abspath(svasym.__file__).startswith(src + os.sep):
        print(f"error: svasym imported from {svasym.__file__}", file=sys.stderr)
        return 2
    import workloads
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.environ["SVASYM_THREADS"] = str(wl.threads)

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK_ROOT)
    try:
        state = wl.setup(args.seed, workdir)
        print("READY", flush=True)
        if not args.setup_only:
            print(json.dumps(measure(wl, state, args, workloads)), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(wl, state, args, workloads) -> dict:
    """The request phase, then the checks, then the report."""
    tracer = spans.Tracer()
    if args.trace:
        counters = LayerCounters(tracer, workloads.tilted_steps)
        tracer.install()
        tracer.active = True
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        records, wall, rounds, truncated = serve_rounds(
            wl, state, args.seed, args.seconds, args.requests, args.budget, tracer)
    tracer.active = False
    wl.check(state, records)
    report = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "rounds": rounds, "truncated": truncated,
              "request_phase_s": wall, "threads": wl.threads,
              "why": wl.why, "requests": len(records), "attempted": len(records),
              "known_gaps": wl.KNOWN_GAPS, "digest": digest(wl, records),
              "warnings": dict(Counter(w.category.__name__ for w in caught)),
              "info": {}}
    report["e2e"], report["samples"] = end_to_end(wl, records, wall)
    failed = [rec for rec in records if rec.failed]
    failures, unknown, gap_keys = Counter(), 0, []
    for rec, gap in zip(failed, wl.known_gaps(failed)):
        label = (f"raised {type(rec.error).__name__} in {rec.stage}"
                 if rec.error is not None else "+".join(rec.failures))
        failures[f"{label} [known gap: {gap}]" if gap else label] += 1
        unknown += gap is None
        if gap:
            gap_keys.append([rec.round, rec.req.key, label])
    for rec in records:
        for key, val in rec.info.items():
            report["info"].setdefault(key, []).append(val)
    report["gap_keys"] = gap_keys
    if args.trace:
        report["layers"], probe_ok = layer_metrics(wl, records, tracer, counters, wall)
        tracer.uninstall()
        if counters.last_xy is not None:
            report["attempted"] += 1
            if not probe_ok:
                failures["determinism: 1-thread summary differs"] += 1
                unknown += 1
    report["failed"] = sum(failures.values())
    report["correct"] = unknown == 0
    report["failures"] = dict(failures)
    return report


if __name__ == "__main__":
    sys.exit(main())
