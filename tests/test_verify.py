import hashlib
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import norm

from svasym import hamiltonian as ham
from svasym import measures, rates, simulate, verify
from svasym.errors import ValidationError
from svasym.model import Regime, VolFnSpec, validate


class TestWilson:
    def test_contains_point_estimate(self):
        lo, hi = verify.wilson_interval(50, 100)
        assert lo < 0.5 < hi

    def test_degenerate_counts(self):
        lo, hi = verify.wilson_interval(0, 100)
        assert lo == pytest.approx(0.0, abs=1e-15) and hi < 0.1
        lo, hi = verify.wilson_interval(0, 0)
        assert (lo, hi) == (0.0, 1.0)

    def test_narrows_with_samples(self):
        lo1, hi1 = verify.wilson_interval(50, 100)
        lo2, hi2 = verify.wilson_interval(5000, 10000)
        assert hi2 - lo2 < hi1 - lo1


class TestFixtures:
    @pytest.mark.parametrize("name", sorted(verify.FIXTURES))
    def test_fixtures_are_admissible(self, name):
        assert validate(verify.FIXTURES[name]()).passed


class TestLdpTail:
    def test_rejects_target_at_start(self):
        params = verify.fixture_bs()
        mc = simulate.McConfig(paths=100)
        with pytest.raises(ValidationError):
            verify.ldp_tail(params, Regime.ULTRA_FAST, params.x0, 1.0,
                            (0.5, 0.25), mc, sigma_bar_sq=0.04)

    def test_rejects_non_decreasing_sequence(self):
        params = verify.fixture_bs()
        mc = simulate.McConfig(paths=100)
        with pytest.raises(ValidationError):
            verify.ldp_tail(params, Regime.ULTRA_FAST, 0.1, 1.0,
                            (0.25, 0.5), mc, sigma_bar_sq=0.04)

    def test_report_structure(self):
        params = verify.fixture_bs()
        mc = simulate.McConfig(paths=20_000, seed=3)
        report = verify.ldp_tail(params, Regime.ULTRA_FAST, 0.1, 1.0,
                                 (0.5, 0.35, 0.25), mc, sigma_bar_sq=0.04)
        assert len(report.points) == 3
        assert report.predicted == pytest.approx(-0.01 / 0.08, rel=1e-12)
        assert report.verdict in ("PASS", "FAIL")
        doc = report.to_json()
        assert doc["regime"] == 4 and len(doc["points"]) == 3
        # per-point bookkeeping is consistent
        for q in report.points:
            assert 0 <= q.hits <= q.paths
            if q.hits > 0:
                assert q.ci_lo <= q.estimate <= q.ci_hi

    def test_rejects_bad_eps_and_seed_before_simulating(self):
        params = verify.fixture_ou()
        for eps_seq, seed in (((1.5, 0.5), 1), ((0.5, 0.0), 1), ((0.5, 0.25), -1)):
            with pytest.raises(ValidationError):
                verify.ldp_tail(params, Regime.ULTRA_FAST, 0.1, 1.0, eps_seq,
                                simulate.McConfig(paths=10, seed=seed),
                                sigma_bar_sq=0.8)

    def test_constant_sigma_is_the_closed_form(self):
        # X_t is exactly N(x0 - eps s0^2 t / 2, eps s0^2 t) whatever the
        # factor does, so every path gives the same tail and the SE is 0
        params = verify.fixture_bs()
        x, t = 0.1, 1.0
        report = verify.ldp_tail(params, Regime.ULTRA_FAST, x, t,
                                 (0.5, 0.35, 0.25), simulate.McConfig(paths=2_000),
                                 sigma_bar_sq=0.04)
        for q in report.points:
            sd = math.sqrt(q.eps * 0.04 * t)
            closed = norm.sf((x - params.x0 + 0.5 * q.eps * 0.04 * t) / sd)
            assert q.p_hat == pytest.approx(closed, rel=1e-12)
            assert q.hits == q.paths and q.ci_lo == q.ci_hi == q.estimate

    def test_eps_points_use_independent_substreams(self):
        # with seed + k, point 1 of seed s and point 0 of seed s + 1 shared
        # one stream and so one estimate
        params = verify.fixture_ou()
        mc = simulate.McConfig(paths=2_000, seed=7)
        a = verify.ldp_tail(params, Regime.ULTRA_FAST, 0.3, 1.0, (0.6, 0.5),
                            mc, sigma_bar_sq=0.8)
        b = verify.ldp_tail(params, Regime.ULTRA_FAST, 0.3, 1.0, (0.5,),
                            replace(mc, seed=8), sigma_bar_sq=0.8)
        again = verify.ldp_tail(params, Regime.ULTRA_FAST, 0.3, 1.0, (0.6, 0.5),
                                mc, sigma_bar_sq=0.8)
        assert a.points[1].p_hat != b.points[0].p_hat
        assert a.to_json() == again.to_json()

    def test_thread_count_does_not_change_report(self, monkeypatch):
        docs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("SVASYM_THREADS", threads)
            docs.append(_golden_report().to_json())
        assert docs[0] == docs[1]

    def test_golden_digest(self):
        # pins the factor stream, the sub-stream seeds and the in-place
        # post-processing bit for bit
        doc = json.dumps(_golden_report().to_json(), sort_keys=True)
        assert hashlib.sha256(doc.encode()).hexdigest()[:16] == "e44287249f7b6e9f"


def _golden_report():
    # two path blocks, correlated factor, lower tail
    params = replace(verify.fixture_ou(), rho=-0.5, r=0.02)
    mc = simulate.McConfig(paths=simulate.BLOCK_PATHS + 512,
                           steps_per_unit_time=20, seed=104)
    return verify.ldp_tail(params, Regime.ULTRA_FAST, -0.2, 0.5, (0.7, 0.6, 0.5),
                           mc, sigma_bar_sq=measures.sigma_bar_sq(params))


ORACLE_CASES = {
    # name: (params, regime, x, eps values, steps per unit time)
    "ou": (verify.fixture_ou(), Regime.ULTRA_FAST, 0.5, (0.6, 0.5), 50),
    "ou_rho": (replace(verify.fixture_ou(), rho=-0.5), Regime.ULTRA_FAST, -0.5,
               (0.6, 0.5), 50),
    "cir": (verify.fixture_cir(), Regime.ULTRA_FAST, 0.5, (0.6, 0.5), 100),
    "fast_rho": (replace(verify.fixture_ou(), rho=-0.5), Regime.FAST, 0.4,
                 (0.25, 0.1), 50),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_conditional_tail_matches_raw_hit_count(name):
    # the raw X of simulate_xy is the oracle: at every eps where both
    # resolve, the two estimates agree within 3 combined standard errors
    params, regime, x, eps_seq, spu = ORACLE_CASES[name]
    mc = simulate.McConfig(paths=20_000, steps_per_unit_time=spu, seed=11)
    # the verdict is not under test: the prediction's ingredient is the
    # averaged variance, or the Legendre curve of its quadratic Hamiltonian
    sbar2 = measures.sigma_bar_sq(params)
    if regime is Regime.ULTRA_FAST:
        rate = {"sigma_bar_sq": sbar2}
    else:
        p = np.linspace(-4.0, 4.0, 81)
        curve = ham.HamiltonianCurve(p_grid=p, values=0.5 * sbar2 * p * p,
                                     method="closed-form", errors=np.zeros_like(p))
        rate = {"legendre": ham.legendre(curve, np.linspace(-1.0, 1.0, 201))}
    report = verify.ldp_tail(params, regime, x, 1.0, eps_seq, mc, **rate)
    resolved = 0
    for q in report.points:
        raw = simulate.simulate_xy(params, regime, q.eps, 1.0, replace(mc, seed=12))
        hits = int(np.count_nonzero(raw.x > x if x > params.x0 else raw.x < x))
        if hits < verify.MIN_HITS or q.undersampled:
            continue
        resolved += 1
        p_raw = hits / mc.paths
        se_raw = math.sqrt(p_raw * (1.0 - p_raw) / mc.paths)
        se = q.p_hat * (q.ci_hi - q.estimate) / (q.eps * verify.WILSON_Z)
        assert abs(q.p_hat - p_raw) <= 3.0 * math.hypot(se, se_raw), q
        assert se < se_raw  # the point of conditioning
    assert resolved == len(eps_seq)


class TestRegimeCompare:
    def test_constant_sigma_rates_coincide(self):
        params = verify.fixture_bs()
        sbar2 = measures.sigma_bar_sq(params)
        curve = ham.build_curve(params, np.linspace(-40, 40, 8001),
                                method="closed-form")
        leg = ham.legendre(curve, np.linspace(-1.5, 1.5, 3001))
        rows = verify.regime_compare(np.linspace(-0.5, 0.5, 21), 0.0, 1.0,
                                     sigma_bar_sq=sbar2, legendre=leg,
                                     rho=0.0, tol=1e-6)
        for row in rows:
            assert row.ok
            assert row.i2 == pytest.approx(row.i4, abs=1e-6)

    @pytest.mark.parametrize("rho", [0.0, -0.3])
    def test_rows_equal_the_per_x_evaluation(self, rho):
        p = np.linspace(-2.0, 2.0, 33)
        curve = ham.HamiltonianCurve(
            p_grid=p, values=0.02 * p ** 2 + 0.004 * p ** 3 + 0.003 * p ** 4,
            method="eigen", errors=np.zeros_like(p))
        leg = ham.legendre(curve, np.linspace(-0.2, 0.3, 201))
        x0, t, sbar2, tol = 0.05, 0.8, 0.037, 1e-3
        x_grid = x0 + t * np.linspace(-0.19, 0.15, 37)
        rows = verify.regime_compare(x_grid, x0, t, sigma_bar_sq=sbar2,
                                     legendre=leg, rho=rho, tol=tol)
        assert len(rows) == x_grid.size
        for x, row in zip(x_grid, rows):
            i2 = rates.rate_i2(x, x0, t, leg)
            i4 = rates.rate_i4(x, x0, t, sbar2)
            assert (row.x, row.i2, row.i4) == (x, i2, i4)
            assert row.ok == ((i2 <= i4 + tol) if rho == 0.0 else None)


class TestRunAcceptance:
    def test_report_shape_and_json(self, tmp_path, monkeypatch):
        monkeypatch.setattr(verify, "CRITERIA", {"C1": verify.CRITERIA["C1"]})
        out = tmp_path / "acceptance.json"
        report = verify.run_acceptance(42, out=str(out))
        ids = [e["criterion_id"] for e in report["criteria"]]
        assert ids == ["C0", "C1"]
        for entry in report["criteria"]:
            assert {"criterion_id", "description", "measured", "pass",
                    "runtime_s", "seed"} <= set(entry)
        assert out.exists()

    def test_crash_is_recorded_not_raised(self, monkeypatch):
        def boom(seed):
            time.sleep(0.05)
            raise RuntimeError("synthetic failure")
        monkeypatch.setattr(verify, "CRITERIA", {"C1": boom})
        report = verify.run_acceptance(42)
        entry = next(e for e in report["criteria"]
                     if e["criterion_id"] == "C1")
        assert not entry["pass"]
        # the crash keeps the time it took, and the run's seed
        assert entry["runtime_s"] >= 0.05 and entry["seed"] == 42

    def test_model_validate_cannot_probe_is_a_c0_failure(self, monkeypatch):
        monkeypatch.setattr(verify, "CRITERIA", {})
        model = replace(verify.fixture_ou(), sigma=VolFnSpec(kind="bogus"))
        report = verify.run_acceptance(7, model=model)
        (entry,) = report["criteria"]
        assert entry["criterion_id"] == "C0" and not entry["pass"]
        assert entry["description"].startswith("criterion crashed")
        assert entry["seed"] == 7 and not report["passed"]
