"""Time and check the eigen route per Hbar0 point, on this checkout and on
other source trees.

Inputs: the 27 models of the ``fast_smile`` benchmark workload for seed 1,
round 0, at p in {0.5, 1.5, -1, 2}: 108 Hbar0 points.  Each side runs in
fresh processes (this script with ``--worker TREE``, which imports svasym
from TREE/src), and for each point:

* counts the solves ``hbar0_eigen`` makes on the fine grid (4097 nodes)
  and on the coarse grid of its Richardson step (2049), by the grids it
  builds;
* times ``hbar0_eigen``, the median of REPEATS calls, with no spy in place;
* in the first round only, keeps every matrix it hands to
  ``hamiltonian._top_eigen`` and the eigenvalue returned, and compares it
  with ``eigh_tridiagonal(select="i", tol=tiny)`` at the top index.

Points on which ``hbar0_eigen`` raises (an inf or NaN reaches the solver)
are counted and skipped.  The sides run ROUNDS times, alternating which goes
first; ms per point is each round's mean over the points, reported as the
median and quartiles over rounds.  Writes BENCH_eigen.json.

Run from the repository root, with a checkout of the parent commit at PATH
(``git archive`` or ``git clone``):

    python scripts/bench_eigen.py --tree parent=PATH
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
from dataclasses import replace

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MOMENTA = (0.5, 1.5, -1.0, 2.0)
FINE_N = 4097
REPEATS = 3
ROUNDS = 5


def seed1_models():
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


def worker(tree: str, check: bool) -> dict:
    """Counts, times and (with ``check``) errors of every point, on the
    svasym of ``tree``."""
    sys.path[:0] = [os.path.join(tree, "src"), ROOT]
    from scipy.linalg import eigh_tridiagonal
    from svasym import hamiltonian

    warnings.simplefilter("ignore", RuntimeWarning)
    models = seed1_models()
    points = [(prm, p) for prm in models for p in MOMENTA]

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

    counts, raised = [], 0
    hamiltonian._make_grid, hamiltonian._top_eigen = grid, top
    try:
        for prm, p in points:
            sizes.clear()
            try:
                hamiltonian.hbar0_eigen(prm, p)
            except ValueError:
                counts.append(None)
                raised += 1
                continue
            counts.append((sizes.count(FINE_N), len(sizes) - sizes.count(FINE_N)))
    finally:
        hamiltonian._make_grid, hamiltonian._top_eigen = real_grid, real_top

    ms = []
    for (prm, p), c in zip(points, counts):
        if c is None:
            continue
        times = []
        for _ in range(REPEATS):
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
    return {"points": len(kept), "points_raising_valueerror": raised,
            "fine_solves": sum(c[0] for c in kept),
            "coarse_solves": sum(c[1] for c in kept),
            "ms_per_point": float(np.mean(ms)),
            "solves_checked": len(errors),
            "worst_rel_error": max(errors) if errors else None}


def run_side(tree: str, check: bool) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", tree]
    if check:
        cmd.append("--check")
    done = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", action="append", default=[], metavar="NAME=PATH",
                    help="another source tree to measure, e.g. parent=../parent")
    ap.add_argument("--worker", metavar="TREE", help=argparse.SUPPRESS)
    ap.add_argument("--check", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        print(json.dumps(worker(args.worker, args.check)))
        return

    import scipy

    sides = dict(t.split("=", 1) for t in args.tree)
    sides["change"] = ROOT
    names = list(sides)
    runs = {name: [] for name in names}
    for r in range(ROUNDS):
        for name in (names if r % 2 == 0 else names[::-1]):
            runs[name].append(run_side(os.path.abspath(sides[name]), r == 0))
            print(f"round {r} {name}: {runs[name][-1]['ms_per_point']:.3f} ms/point",
                  file=sys.stderr)

    report = {"inputs": "fast_smile seed 1 round 0, 27 models, p in "
                        "{0.5, 1.5, -1, 2}: one hbar0_eigen call per point",
              "rounds": ROUNDS, "repeats_per_point": REPEATS}
    for name in names:
        first = runs[name][0]
        per_round = [run["ms_per_point"] for run in runs[name]]
        q1, med, q3 = np.percentile(per_round, [25, 50, 75])
        report[name] = {
            "points": first["points"],
            "points_raising_valueerror": first["points_raising_valueerror"],
            "fine_solves": first["fine_solves"],
            "coarse_solves": first["coarse_solves"],
            "ms_per_point": {"median": float(med), "q1": float(q1),
                             "q3": float(q3), "rounds": per_round},
            "solves_checked": first["solves_checked"],
            "worst_rel_error": first["worst_rel_error"],
        }
    for name in names[:-1]:
        report[f"rounds_change_faster_than_{name}"] = sum(
            c["ms_per_point"] < o["ms_per_point"]
            for c, o in zip(runs["change"], runs[name]))

    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    report["context"] = {"cpu": cpu, "cores": os.cpu_count(),
                         "python": platform.python_version(),
                         "numpy": np.__version__, "scipy": scipy.__version__}
    with open(os.path.join(ROOT, "BENCH_eigen.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
