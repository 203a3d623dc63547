"""The measurement bodies of ``scripts/bench_layers.py`` run on this
checkout, at the smallest sizes they take, so that a rename in the package
that they read fails here rather than at the next benchmark run."""

import importlib.util
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "bench_layers.py")
_spec = importlib.util.spec_from_file_location("bench_layers", SCRIPT)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


@pytest.mark.parametrize("case", sorted(bench.KERNEL_CASES))
def test_kernel_case_runs(case):
    ns = bench.kernel_case(*bench.KERNEL_CASES[case], 64, 2)
    assert 0.0 < ns < float("inf")


def test_sfc64_floor_runs():
    assert 0.0 < bench.sfc64_floor(1) < float("inf")


def test_eigen_points_run_in_a_fresh_process():
    # the one body the harness can run only in full: 108 points, with the
    # spies on hamiltonian._make_grid and _top_eigen and the round-0 check
    out = bench.measure(bench.ROOT, "eigen_points", [True])
    assert out["points"] + sum(out["points_raising"].values()) == 108
    assert out["fine_solves"] >= out["points"] and out["coarse_solves"] >= out["points"]
    assert out["solves_checked"] >= out["fine_solves"] + out["coarse_solves"]
    assert out["worst_rel_error"] <= 1e-11
    assert out["ms_per_point"] > 0.0
