"""Time and check the eigen route's top-eigenvalue solve, one matrix at a time.

Inputs: the 27 models of the ``fast_smile`` benchmark workload for seed 1,
round 0, at p in {0.5, 1.5, -1, 2}.  ``hbar0_eigen`` runs on each, and every
matrix it hands to ``hamiltonian._top_eigen`` (fine and coarse grids, every
window-growth step) is kept.  Each kept matrix is then solved three ways:

* before: ``eigh_tridiagonal(select="i")`` at the top index with LAPACK's
  default tolerance, eigenvector included -- the solve the eigen route made
  before it bracketed the eigenvalue by the potential;
* after: ``hamiltonian._top_eigen`` with the same bracket and eigenvector
  request as in ``hbar0_eigen``;
* reference: ``eigh_tridiagonal(select="i", tol=tiny)``, eigenvalue only.

Models on which ``hbar0_eigen`` raises (an inf or NaN reaches the solver)
are counted and skipped.  Each solve is timed REPEATS times, alternating the
two sides, and its median kept.  Writes BENCH_eigen.json.

Run from the repository root:  python scripts/bench_eigen.py
"""

import json
import os
import platform
import sys
import tempfile
import time
import warnings
from dataclasses import replace

import numpy as np
import scipy
from scipy.linalg import eigh_tridiagonal

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.workloads import FastSmile  # noqa: E402
from svasym import cli, hamiltonian, model  # noqa: E402

MOMENTA = (0.5, 1.5, -1.0, 2.0)
REPEATS = 5
TINY = np.finfo(float).tiny


def seed1_models():
    with tempfile.TemporaryDirectory() as workdir:
        models = {}
        for req in FastSmile()._generate(1, 0, workdir):
            cfg = cli.load_config(req.inputs["config"])
            prm = cfg.model
            if req.inputs["table"] is not None:
                prm = replace(prm, sigma=model.VolFnSpec.tabulated(*req.inputs["table"]))
            models[req.inputs["model"]] = prm
    return [models[k] for k in sorted(models)]


def capture(models):
    """(d, e, lo, hi, vector) of every solve, and the count of raising runs."""
    solves, real = [], hamiltonian._top_eigen

    def spy(d, e, lo, hi, vector):
        out = real(d, e, lo, hi, vector)
        solves.append((d, e, lo, hi, vector))
        return out

    hamiltonian._top_eigen = spy
    raised = 0
    try:
        for prm in models:
            for p in MOMENTA:
                try:
                    hamiltonian.hbar0_eigen(prm, p)
                except ValueError:
                    raised += 1
    finally:
        hamiltonian._top_eigen = real
    return solves, raised


def main():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        models = seed1_models()
        solves, raised = capture(models)
    rows = []
    for d, e, lo, hi, vector in solves:
        top = (d.size - 1, d.size - 1)
        sides = {"before": lambda: eigh_tridiagonal(d, e, select="i",
                                                     select_range=top)[0][0],
                 "after": lambda: hamiltonian._top_eigen(d, e, lo, hi, vector)[0]}
        times = {name: [] for name in sides}
        value = {}
        for r in range(REPEATS):
            for name in sorted(sides, reverse=r % 2 == 1):
                t0 = time.perf_counter()
                value[name] = sides[name]()
                times[name].append(1e3 * (time.perf_counter() - t0))
        ref = eigh_tridiagonal(d, e, select="i", select_range=top,
                               eigvals_only=True, tol=TINY)[0]
        pad = hamiltonian._BRACKET_PAD * hi
        in_bracket = eigh_tridiagonal(d, e, select="v", eigvals_only=True,
                                      select_range=(lo - pad, hi + pad)).size
        rows.append((np.median(times["before"]), np.median(times["after"]),
                     abs(value["before"] - ref) / abs(ref),
                     abs(value["after"] - ref) / abs(ref),
                     in_bracket, d.size, vector))
    rows = np.array(rows, dtype=float)

    def side(col_t, col_e):
        return {"ms_per_solve_mean": float(rows[:, col_t].mean()),
                "ms_per_solve_median": float(np.median(rows[:, col_t])),
                "worst_rel_error": float(rows[:, col_e].max()),
                "solves_off_by_more_than_1e-6": int(np.sum(rows[:, col_e] > 1e-6))}

    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    report = {
        "inputs": "fast_smile seed 1 round 0, 27 models, p in {0.5, 1.5, -1, 2}: "
                  "every matrix hbar0_eigen solves",
        "solves": len(rows),
        "coarse_solves_without_eigenvector": int(np.sum(rows[:, 6] == 0)),
        "grid_sizes": sorted({int(n) for n in rows[:, 5]}),
        "runs_raising_valueerror": raised,
        "repeats_per_solve": REPEATS,
        "before": side(0, 2),
        "after": side(1, 3),
        "eigenvalues_in_bracket": {"median": float(np.median(rows[:, 4])),
                                   "max": int(rows[:, 4].max())},
        "context": {"cpu": cpu, "cores": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": np.__version__, "scipy": scipy.__version__},
    }
    with open(os.path.join(ROOT, "BENCH_eigen.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
