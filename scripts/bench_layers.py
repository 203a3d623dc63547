"""Time one layer of svasym on one or more source trees.

    python scripts/bench_layers.py LAYER --tree NAME=PATH [--tree NAME=PATH ...]

Run it from the repository root.  The sides are the ``--tree`` arguments,
in order: each names a source tree (a ``git clone`` or ``git archive`` of
a commit; ``--tree change=.`` for this checkout).  Every measurement is a
fresh Python process that imports svasym from ``TREE/src``; the sides run
ROUNDS[LAYER] rounds, the order of the sides reversed every other round,
and each time is kept as the median and quartiles over rounds, with the
rounds in which each later side was faster than the first.  Each tree's
commit and the machine (cpu, cores, Python, numpy, scipy) are recorded
with the results in BENCH_<LAYER>.json.

Layers:

* ``kernel``: ns per path-step of ``simulate.simulate_tilted``, one
  131072-path (two-block), 500-step call after one short warm-up call in
  the same process, on the cases of KERNEL_CASES at SVASYM_THREADS = 1 and
  2; plus the floor, the SFC64 normals alone (``simulate._block_rng``, one
  65536-path block, one thread), timed on this checkout.  The cases are
  ``ou_rho0``, the path of acceptance criterion C8 and of the ``mc_tail``
  workload; ``cir_rho0``, the path of C4 and of ``hbar_mc``'s CIR
  requests; and ``ou_rho-0.5_p0.5``, the correlated, tilted path.
* ``eigen``: the 27 models of the ``fast_smile`` workload for seed 1,
  round 0, at p in {0.5, 1.5, -1, 2}: 108 Hbar0 points.  For each point it
  counts the solves ``hbar0_eigen`` makes on the fine grid (4097 nodes)
  and on the coarse grid of its Richardson step, by the grids it builds;
  times it, the median of EIGEN_REPEATS calls with no spy in place; and in
  the first round only, compares every eigenvalue that
  ``hamiltonian._top_eigen`` returns with
  ``eigh_tridiagonal(select="i", tol=tiny)`` at the top index.  Points on
  which ``hbar0_eigen`` raises a ValueError or a package error are counted
  by the error's type and skipped.  ms per point is each round's mean over
  the points.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROUNDS = {"kernel": 7, "eigen": 5}

KERNEL_PATHS = 131072
KERNEL_STEPS = 500
KERNEL_CASES = {  # name: (fixture, rho, p, steps per unit time)
    "ou_rho0": ("fixture_ou", 0.0, 0.0, 50),
    "cir_rho0": ("fixture_cir", 0.0, 1.0, 100),
    "ou_rho-0.5_p0.5": ("fixture_ou", -0.5, 0.5, 50),
}

EIGEN_MOMENTA = (0.5, 1.5, -1.0, 2.0)
EIGEN_FINE_N = 4097
EIGEN_REPEATS = 3

# a measurement process: imports this file and prints what the named body
# returns for the JSON-encoded arguments
CHILD = ("import json, sys, bench_layers; print(json.dumps("
         "getattr(bench_layers, sys.argv[1])(*json.loads(sys.argv[2]))))")


def kernel_case(fixture: str, rho: float, p: float, steps: int, paths: int,
                n: int) -> float:
    """ns per path-step of one ``simulate_tilted`` call of ``n`` steps,
    after a 10-step warm-up call."""
    from svasym import simulate, verify

    params = replace(getattr(verify, fixture)(), rho=rho)
    mc = simulate.McConfig(paths=paths, steps_per_unit_time=steps, seed=7)
    simulate.simulate_tilted(params, 10.0 / steps, mc, p=p)
    t0 = time.perf_counter()
    simulate.simulate_tilted(params, n / steps, mc, p=p)
    return 1e9 * (time.perf_counter() - t0) / (paths * n)


def sfc64_floor(n: int) -> float:
    """ns per draw of ``n`` fills of one block of SFC64 normals."""
    from svasym import simulate

    rng, w = simulate._block_rng(7, 0), np.empty((1, simulate.BLOCK_PATHS))
    rng.standard_normal(out=w)
    t0 = time.perf_counter()
    for _ in range(n):
        rng.standard_normal(out=w)
    return 1e9 * (time.perf_counter() - t0) / (simulate.BLOCK_PATHS * n)


def _seed1_models():
    from perfbench.workloads import FastSmile
    from svasym import cli, model

    with tempfile.TemporaryDirectory() as workdir:
        models = {}
        for req in FastSmile()._generate(1, 0, workdir):
            cfg = cli.load_config(req.inputs["config"])
            prm = cfg.model
            if req.inputs["table"] is not None:
                prm = replace(prm, sigma=model.VolFnSpec.tabulated(*req.inputs["table"]))
            models[req.inputs["model"]] = prm
    return [models[k] for k in sorted(models)]


def eigen_points(check: bool) -> dict:
    """Solve counts, ms per point and (with ``check``) the worst relative
    error of every eigenvalue solved, over the 108 points."""
    from scipy.linalg import eigh_tridiagonal
    from svasym import hamiltonian
    from svasym.errors import SvasymError

    warnings.simplefilter("ignore", RuntimeWarning)
    points = [(prm, p) for prm in _seed1_models() for p in EIGEN_MOMENTA]

    sizes, solves = [], []
    real_grid, real_top = hamiltonian._make_grid, hamiltonian._top_eigen

    def grid(params, lo, hi, n):
        sizes.append(n)
        return real_grid(params, lo, hi, n)

    def top(d, e, *args):
        out = real_top(d, e, *args)
        if check:
            solves.append((d, e, out[0]))
        return out

    counts, raised = [], Counter()
    hamiltonian._make_grid, hamiltonian._top_eigen = grid, top
    try:
        for prm, p in points:
            sizes.clear()
            try:
                hamiltonian.hbar0_eigen(prm, p)
            except (ValueError, SvasymError) as exc:
                counts.append(None)
                raised[type(exc).__name__] += 1
                continue
            fine = sizes.count(EIGEN_FINE_N)
            counts.append((fine, len(sizes) - fine))
    finally:
        hamiltonian._make_grid, hamiltonian._top_eigen = real_grid, real_top

    ms = []
    for (prm, p), c in zip(points, counts):
        if c is None:
            continue
        times = []
        for _ in range(EIGEN_REPEATS):
            t0 = time.perf_counter()
            hamiltonian.hbar0_eigen(prm, p)
            times.append(1e3 * (time.perf_counter() - t0))
        ms.append(float(np.median(times)))

    errors = []
    for d, e, value in solves:
        top = (d.size - 1, d.size - 1)
        ref = eigh_tridiagonal(d, e, select="i", select_range=top,
                               eigvals_only=True, tol=np.finfo(float).tiny)[0]
        errors.append(abs(value - ref) / abs(ref))
    kept = [c for c in counts if c is not None]
    return {"points": len(kept), "points_raising": dict(sorted(raised.items())),
            "fine_solves": sum(c[0] for c in kept),
            "coarse_solves": sum(c[1] for c in kept),
            "ms_per_point": float(np.mean(ms)),
            "solves_checked": len(errors),
            "worst_rel_error": max(errors) if errors else None}


def measure(tree: str, body: str, args: list, threads: int = 1):
    """What ``body(*args)`` returns in a fresh process that imports svasym
    from ``tree``/src, at SVASYM_THREADS = ``threads``."""
    path = os.pathsep.join([os.path.join(tree, "src"), ROOT,
                            os.path.join(ROOT, "scripts")])
    env = {**os.environ, "PYTHONPATH": path, "SVASYM_THREADS": str(threads)}
    done = subprocess.run([sys.executable, "-c", CHILD, body, json.dumps(args)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])


def alternate(trees: dict, rounds: int, run) -> dict:
    """``run(tree, r)`` for every side in every round r, the order of the
    sides reversed in odd rounds; the results per side."""
    names = list(trees)
    runs = {name: [] for name in names}
    for r in range(rounds):
        for name in (names if r % 2 == 0 else names[::-1]):
            print(f"round {r} {name}", file=sys.stderr)
            runs[name].append(run(trees[name], r))
    return runs


def spread(values) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3),
            "rounds": [float(v) for v in values]}


def wins_over_first(times: dict) -> dict:
    """Rounds in which each later side took less time than the first."""
    first, *later = times
    return {f"rounds_{name}_faster_than_{first}":
            sum(t < f for t, f in zip(times[name], times[first])) for name in later}


def bench_kernel(trees: dict) -> dict:
    rows = {}
    for name, case in KERNEL_CASES.items():
        args = [*case, KERNEL_PATHS, KERNEL_STEPS]
        for threads in (1, 2):
            row = f"{name}/threads{threads}"
            print(row, file=sys.stderr)
            runs = alternate(trees, ROUNDS["kernel"],
                             lambda tree, r: measure(tree, "kernel_case", args, threads))
            rows[row] = {"ns_per_path_step": {side: spread(ns) for side, ns in runs.items()},
                         **wins_over_first(runs)}
    floor = [measure(ROOT, "sfc64_floor", [KERNEL_STEPS])
             for _ in range(ROUNDS["kernel"])]
    return {
        "inputs": f"simulate_tilted, {KERNEL_PATHS} paths (two blocks), "
                  f"{KERNEL_STEPS} steps, seed 7, after one short warm-up call "
                  "in the same process",
        "cases": {name: dict(zip(("fixture", "rho", "p", "steps_per_unit_time"),
                                 case)) for name, case in KERNEL_CASES.items()},
        "results": rows,
        "sfc64_normals_ns_per_draw_1_thread": spread(floor),
    }


def bench_eigen(trees: dict) -> dict:
    runs = alternate(trees, ROUNDS["eigen"],
                     lambda tree, r: measure(tree, "eigen_points", [r == 0]))
    report = {"inputs": "fast_smile seed 1 round 0, 27 models, p in "
                        "{0.5, 1.5, -1, 2}: one hbar0_eigen call per point",
              "repeats_per_point": EIGEN_REPEATS}
    times = {name: [run["ms_per_point"] for run in side] for name, side in runs.items()}
    for name, side in runs.items():
        report[name] = {**side[0], "ms_per_point": spread(times[name])}
    report.update(wins_over_first(times))
    return report


def git_head(tree: str):
    done = subprocess.run(["git", "-C", tree, "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def machine() -> dict:
    import scipy

    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    return {"cpu": cpu, "cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("layer", choices=sorted(ROUNDS))
    ap.add_argument("--tree", action="append", required=True, metavar="NAME=PATH",
                    help="a side, e.g. parent=../parent; repeat it for each side, in order")
    args = ap.parse_args()
    trees = {name: os.path.abspath(path)
             for name, path in (t.split("=", 1) for t in args.tree)}

    body = bench_kernel if args.layer == "kernel" else bench_eigen
    report = {"layer": args.layer, "rounds": ROUNDS[args.layer], **body(trees),
              "trees": {name: git_head(tree) for name, tree in trees.items()},
              "context": machine()}
    with open(os.path.join(ROOT, f"BENCH_{args.layer}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
