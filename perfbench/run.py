"""svasym benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload mc_tail --seed 1 --seconds 12 --trace 0

Run it from the repository root; it imports the package from ``src/``.
Workloads: mc_tail, hbar_mc, fast_smile (see perfbench/README.md).

With ``--trace 0`` it starts the workload process four times for set-up
alone and once for the run, and reports the end-to-end metrics, set-up as
the median of the five.  With ``--trace 1`` it runs the workload untraced,
then again traced on the same requests, and reports the per-layer metrics;
``trace_overhead_ratio`` is the traced time per request over the untraced.
A worker stops serving, mid-round if need be, when its share of the run's
time limit is spent, so a slow program is reported rather than killed.
A seed that ``baseline.json`` holds must fail no request outside the known
gaps its baseline run recorded.

It prints a readable report, then one JSON line:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE = os.path.join(HERE, "baseline.json")
SETUP_PROBES = 4
RUN_LIMIT_S = 170.0      # a run ends within 180 s; workers are killed past this
REPORT_MARGIN_S = 15.0   # kept for set-up, checks and the report of a worker

# reported with the bounded end-to-end metrics of BENCHMARK.json, but not
# bounded: they exist on some workloads only, or are 0 on a clean run
REPORTED = {"path_steps_per_s": "1/s", "se2_x_s": "value2.s", "failed_ratio": "1"}


class WorkerError(RuntimeError):
    pass


def spawn(argv, deadline: float):
    """Run worker.py; return (seconds from start to READY, report or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *argv]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            first = proc.stdout.readline()
            ready = time.perf_counter()
            rest = proc.stdout.read()
            proc.wait()
        finally:
            timer.cancel()
    if proc.returncode != 0 or first.strip() != "READY":
        raise WorkerError(f"worker {' '.join(argv)} exited with {proc.returncode}")
    lines = rest.strip().splitlines()
    return ready - t0, (json.loads(lines[-1]) if lines else None)


def load_spec() -> dict:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def budget(deadline: float, share: float = 1.0) -> str:
    """Request-phase seconds a worker may use: its share of the time left."""
    return repr(max((deadline - time.monotonic() - REPORT_MARGIN_S) * share, 1.0))


def pin(workload: str, seed: int, report) -> None:
    """Hold the run to the known-gap failures that its seed's baseline run
    recorded, in the rounds that run served: any other is incorrect."""
    try:
        with open(BASELINE, encoding="utf-8") as fh:
            runs = json.load(fh)["workloads"][workload]["runs"]
    except (OSError, KeyError):
        return
    for rec in runs:
        if rec["seed"] == seed:
            recorded = {tuple(k) for k in rec["gap_keys"]}
            report["unpinned"] = [k for k in report["gap_keys"]
                                  if k[0] < rec["rounds"] and tuple(k) not in recorded]
            report["correct"] = report["correct"] and not report["unpinned"]


def run(workload: str, seed: int, seconds: float, trace: int, pinned: bool = True):
    """Run one benchmark run; return (final result, worker report)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if not trace:
        setups = [spawn(base + ["--setup-only"], deadline)[0]
                  for _ in range(SETUP_PROBES)]
        setup_s, report = spawn(base + ["--trace", "0", "--budget", budget(deadline)],
                                deadline)
        setups.append(setup_s)
        report["e2e"]["setup_s"] = statistics.median(setups)
        report["setup_samples_s"] = setups
        values = report["e2e"]
    else:
        # the traced phase takes about 1.1x the untraced one: leave it room
        _, plain = spawn(base + ["--trace", "0", "--budget", budget(deadline, 0.45)],
                         deadline)
        _, report = spawn(base + ["--trace", "1", "--requests", str(plain["requests"]),
                                  "--budget", budget(deadline)], deadline)
        values = report["layers"]
        # per request, so that it holds when a budget cut the traced run short
        values["trace_overhead_ratio"] = (
            report["request_phase_s"] / report["requests"]
            / (plain["request_phase_s"] / plain["requests"]))
    if pinned:
        pin(workload, seed, report)
    spec = load_spec()["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec}
    result = {"correct": report["correct"], "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}
    return result, report


def describe(report) -> str:
    lines = [f"workload {report['workload']}  seed {report['seed']}  "
             f"trace {report['trace']}  rounds {report['rounds']}"
             f"{' (cut short by the time limit)' if report['truncated'] else ''}  "
             f"SVASYM_THREADS {report['threads']}  digest {report['digest']}"]
    spec = load_spec()
    if report["trace"]:
        values = report["layers"]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = report["e2e"]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]} | REPORTED
    for name, unit in units.items():
        val = values[name]
        shown = "n/a" if val is None else f"{val:.6g}"
        lines.append(f"  {name:40s} {shown:>14s} {unit}")
    if not report["trace"]:
        s = report["samples"]
        lines.append(f"  latency samples {s['latency_samples']}, "
                     f"{s['beyond_p90']} beyond p90")
    lines.append(f"  attempted {report['attempted']}  failed {report['failed']}  "
                 f"correct {report['correct']}")
    for label, n in report["failures"].items():
        lines.append(f"    {n} x {label}")
    for k in report.get("unpinned", []):
        lines.append(f"    not recorded for this seed in the baseline: {k}")
    for key, vals in report["info"].items():
        lines.append(f"  {key}: " + " ".join(f"{v:.4g}" for v in vals))
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="svasym benchmark: one run")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "svasym", "__init__.py")):
        print("error: run from the repository root (src/svasym not found)",
              file=sys.stderr)
        return 2
    try:
        result, report = run(args.workload, args.seed, args.seconds, args.trace)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(describe(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
