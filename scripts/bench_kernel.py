"""Time the tilted factor kernel, ``simulate.simulate_tilted``, in ns per
path-step, on two source trees.

Cases (131072 paths, two 65536-path blocks, 500 steps):

* ``ou_rho0``: the OU fixture at rho = 0, p = 0, 50 steps per unit time --
  the path of acceptance criterion C8 and of the ``mc_tail`` workload;
* ``cir_rho0``: the CIR fixture at rho = 0, p = 1, 100 steps per unit time
  -- the path of criterion C4 and of ``hbar_mc``'s CIR requests;
* ``ou_rho-0.5_p0.5``: the OU fixture at rho = -0.5, p = 0.5, 50 steps per
  unit time -- the correlated, tilted path.

Each case runs at SVASYM_THREADS = 1 and 2.  Every measurement is a fresh
Python process that imports the package from ``TREE/src``, makes one short
warm-up call and times one call; the two trees alternate, the first one
switching every run.  The median of RUNS measurements is kept.  The SFC64
normals alone (``simulate._block_rng``, one 65536-path block, one thread) are
timed on the current tree as the kernel's floor.  Writes BENCH_kernel.json.

Run from the repository root, with a checkout of the commit to compare
against in BEFORE_TREE (a ``git clone``, so that its commit is recorded):

    python scripts/bench_kernel.py BEFORE_TREE
"""

import json
import os
import platform
import subprocess
import sys

import numpy as np
import scipy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 7
PATHS = 131072
STEPS = 500
CASES = {  # name: (fixture, rho, p, steps per unit time)
    "ou_rho0": ("fixture_ou", 0.0, 0.0, 50),
    "cir_rho0": ("fixture_cir", 0.0, 1.0, 100),
    "ou_rho-0.5_p0.5": ("fixture_ou", -0.5, 0.5, 50),
}

CHILD = r"""
import json, sys, time
from dataclasses import replace
from svasym import simulate, verify
fixture, rho, p, steps, paths, n = json.loads(sys.argv[1])
params = replace(getattr(verify, fixture)(), rho=rho)
mc = simulate.McConfig(paths=paths, steps_per_unit_time=steps, seed=7)
simulate.simulate_tilted(params, 10.0 / steps, mc, p=p)
t0 = time.perf_counter()
simulate.simulate_tilted(params, n / steps, mc, p=p)
print(1e9 * (time.perf_counter() - t0) / (paths * n))
"""

RNG_CHILD = r"""
import sys, time
import numpy as np
from svasym import simulate
n = int(sys.argv[1])
rng, w = simulate._block_rng(7, 0), np.empty((1, simulate.BLOCK_PATHS))
rng.standard_normal(out=w)
t0 = time.perf_counter()
for _ in range(n):
    rng.standard_normal(out=w)
print(1e9 * (time.perf_counter() - t0) / (simulate.BLOCK_PATHS * n))
"""


def measure(tree, code, arg, threads):
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src"),
           "SVASYM_THREADS": str(threads)}
    done = subprocess.run([sys.executable, "-c", code, arg], env=env,
                          capture_output=True, text=True, check=True)
    return float(done.stdout)


def git_head(tree):
    done = subprocess.run(["git", "-C", tree, "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    trees = {"before": os.path.abspath(sys.argv[1]), "after": ROOT}
    rows = {}
    for name, case in CASES.items():
        arg = json.dumps([*case, PATHS, STEPS])
        for threads in (1, 2):
            runs = {side: [] for side in trees}
            for r in range(RUNS):
                for side in sorted(trees, reverse=r % 2 == 1):
                    runs[side].append(measure(trees[side], CHILD, arg, threads))
                    print(f"{name} threads={threads} {side}: "
                          f"{runs[side][-1]:.2f} ns", file=sys.stderr)
            med = {side: float(np.median(v)) for side, v in runs.items()}
            rows[f"{name}/threads{threads}"] = {
                "before_ns_per_path_step": med["before"],
                "after_ns_per_path_step": med["after"],
                "speedup": med["before"] / med["after"],
                "after_faster_in_pairs": sum(a < b for a, b in
                                             zip(runs["after"], runs["before"])),
                "runs_ns": runs,
            }
    rng_ns = float(np.median([measure(ROOT, RNG_CHILD, str(STEPS), 1)
                              for _ in range(RUNS)]))

    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    report = {
        "inputs": f"simulate_tilted, {PATHS} paths (two blocks), {STEPS} steps, "
                  "seed 7, after one short warm-up call in the same process",
        "cases": {name: dict(zip(("fixture", "rho", "p", "steps_per_unit_time"),
                                 case)) for name, case in CASES.items()},
        "runs_per_side": RUNS,
        "trees": {side: git_head(tree) for side, tree in trees.items()},
        "results": rows,
        "sfc64_normals_ns_per_draw_1_thread": rng_ns,
        "context": {"cpu": cpu, "cores": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": np.__version__, "scipy": scipy.__version__},
    }
    with open(os.path.join(ROOT, "BENCH_kernel.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps({k: {m: v[m] for m in ("before_ns_per_path_step",
                                            "after_ns_per_path_step", "speedup")}
                      for k, v in rows.items()}, indent=2))


if __name__ == "__main__":
    main()
