"""Run every workload over several seeds and record a baseline.

    python3 perfbench/baseline.py --seeds 10 --out perfbench/baseline.json

Run it from the repository root.  For each workload it makes one untraced
run per seed (seeds 1..N) and one traced run (seed 1), and records each
end-to-end metric's median and quartile spread (q3 - q1 over the median,
from ``statistics.quantiles(values, n=4)``), the output digests, the
failures, and the run context: CPU, core count, Python, numpy and scipy
versions, threads per workload and the load average at start and end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

import numpy
import scipy

import run

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    spec = run.load_spec()
    seconds = spec["run_seconds"]

    context = {"cpu": cpu_model(), "nproc": os.cpu_count(),
               "python": platform.python_version(), "numpy": numpy.__version__,
               "scipy": scipy.__version__, "loadavg_start": os.getloadavg(),
               "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
               "seconds": seconds}
    out = {"context": context, "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, args.seeds + 1):
            result, report = run.run(name, seed, seconds, 0, pinned=False)
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "e2e": report["e2e"], "samples": report["samples"],
                         "setup_samples_s": report["setup_samples_s"],
                         "digest": report["digest"], "failures": report["failures"],
                         "rounds": report["rounds"], "info": report["info"],
                         "gap_keys": report["gap_keys"]})
            print(name, seed, json.dumps(runs[-1]["e2e"]), flush=True)
        summary = {metric: spread([r["e2e"][metric] for r in runs])
                   for metric, val in runs[0]["e2e"].items() if val is not None}
        entry = {"why": report["why"], "threads": report["threads"],
                 "known_gaps": report["known_gaps"],
                 "summary": summary, "runs": runs}
        result, report = run.run(name, 1, seconds, 1, pinned=False)
        entry["traced"] = {"correct": result["correct"], "layers": report["layers"],
                           "failures": report["failures"]}
        out["workloads"][name] = entry
        for metric, s in summary.items():
            print(f"{name:10s} {metric:18s} median {s['median']:.6g}  "
                  f"spread {s['spread']}", flush=True)
    context["loadavg_end"] = os.getloadavg()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
