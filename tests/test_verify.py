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

    def test_unreachable_target_has_zero_hits(self):
        # sigma = 0 leaves X at x0, so no path reaches x: each point is
        # -inf with the upper end of the 95% Wilson interval for 0 of n
        params = replace(verify.fixture_ou(),
                         sigma=VolFnSpec.tabulated((-1, 1), (0, 0), 0))
        mc = simulate.McConfig(paths=1000, steps_per_unit_time=50, seed=3)
        report = verify.ldp_tail(params, Regime.ULTRA_FAST, 0.1, 1.0,
                                 (0.5, 0.4), mc, sigma_bar_sq=0.5)
        for q, hi in zip(report.points, (-2.7828685912818214, -2.226294873025457)):
            assert q.hits == 0 and q.undersampled
            assert q.estimate == q.ci_lo == -math.inf
            assert q.ci_hi == hi
        assert report.verdict == "FAIL"

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


@pytest.mark.parametrize("threads", ["1", "2"])
def test_uncorrelated_tail_matches_vanishing_rho(threads, monkeypatch):
    # at rho = 0 J is never accumulated; rho = 1e-300 reads J and the
    # general int sigma^2, and its estimates differ only by rounding
    monkeypatch.setenv("SVASYM_THREADS", threads)
    params = verify.fixture_ou()
    mc = simulate.McConfig(paths=simulate.BLOCK_PATHS + 512,
                           steps_per_unit_time=20, seed=9)
    a, b = (verify.ldp_tail(replace(params, rho=rho), Regime.ULTRA_FAST, 0.3,
                            1.0, (0.6, 0.5), mc, sigma_bar_sq=0.8)
            for rho in (0.0, 1e-300))
    for pa, pb in zip(a.points, b.points):
        assert -math.inf < pa.estimate < 0.0
        assert pa.estimate == pytest.approx(pb.estimate, rel=1e-12, abs=0.0)


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
                                     errors=np.zeros_like(p))
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


# (regime, eps, t, steps per unit time) of C8, the mc_tail benchmark and
# ORACLE_CASES, at each eps they run
STEP_CASES = sorted(
    {(Regime.ULTRA_FAST, eps, 1.0, 50) for eps in (0.5, 0.35, 0.25, 0.18)}
    | {(Regime.ULTRA_FAST, eps, 1.0, 50) for eps in (0.6, 0.5, 0.45, 0.4)}
    | {(regime, eps, 1.0, spu) for _, regime, _, eps_seq, spu
       in ORACLE_CASES.values() for eps in eps_seq},
    key=lambda c: (c[0].r, c[1:]))


@pytest.mark.parametrize("regime, eps, t, spu", STEP_CASES)
def test_log_tail_steps_as_simulate_xy(regime, eps, t, spu):
    # _log_tail runs the factor on its own clock to lam t with steps of
    # 1/spu; simulate_xy steps slow time t by (delta/eps)/spu: the same grid
    delta = eps ** regime.r
    lam = eps / delta
    n_xy, _ = simulate._time_grid(t, (delta / eps) / spu)
    n_tail, _ = simulate._time_grid(lam * t, 1.0 / spu)
    assert n_tail == n_xy


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
            errors=np.zeros_like(p))
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
