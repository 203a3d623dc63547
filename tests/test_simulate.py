import hashlib
import math
import os
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest

from svasym import simulate
from svasym.errors import StabilityError, ValidationError, VarianceWarning
from svasym.model import ModelParams, Regime, VolFnSpec

CONST = ModelParams(m=0.0, nu=math.sqrt(2.0), beta=0.0, rho=0.0, r=0.0,
                    sigma=VolFnSpec.constant(0.2), y0=0.0)
OU = ModelParams(m=0.0, nu=math.sqrt(2.0), beta=0.0, rho=0.0, r=0.0,
                 sigma=VolFnSpec.power_abs(1.0, 0.5), y0=0.0)
CIR = ModelParams(m=1.0, nu=1.0, beta=0.5, rho=0.0, r=0.0,
                  sigma=VolFnSpec.power_abs(1.0, 0.25), y0=1.0)


class TestSimulateXY:
    def test_constant_sigma_terminal_law(self):
        # X_t = x0 + eps (r - s0^2/2) t + sqrt(eps) s0 W_t exactly
        eps, t, s0 = 0.5, 1.0, 0.2
        mc = simulate.McConfig(paths=20_000, seed=7)
        batch = simulate.simulate_xy(CONST, Regime.ULTRA_FAST, eps, t, mc)
        mean = eps * (0.0 - 0.5 * s0 ** 2) * t
        sd = math.sqrt(eps) * s0 * math.sqrt(t)
        assert np.mean(batch.x) == pytest.approx(
            mean, abs=4 * sd / math.sqrt(mc.paths))
        assert np.var(batch.x) == pytest.approx(sd * sd, rel=0.05)

    def test_same_seed_identical(self):
        mc = simulate.McConfig(paths=5_000, seed=11)
        a = simulate.simulate_xy(OU, Regime.FAST, 0.5, 0.5, mc)
        b = simulate.simulate_xy(OU, Regime.FAST, 0.5, 0.5, mc)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_different_seed_differs(self):
        a = simulate.simulate_xy(OU, Regime.FAST, 0.5, 0.5,
                                 simulate.McConfig(paths=1_000, seed=1))
        b = simulate.simulate_xy(OU, Regime.FAST, 0.5, 0.5,
                                 simulate.McConfig(paths=1_000, seed=2))
        assert not np.array_equal(a.x, b.x)

    def test_thread_count_does_not_change_results(self):
        mc = simulate.McConfig(paths=150_000, seed=5)  # spans three blocks
        old = os.environ.get("SVASYM_THREADS")
        try:
            os.environ["SVASYM_THREADS"] = "1"
            a = simulate.simulate_xy(CONST, Regime.ULTRA_FAST, 0.5, 0.2, mc)
            os.environ["SVASYM_THREADS"] = "4"
            b = simulate.simulate_xy(CONST, Regime.ULTRA_FAST, 0.5, 0.2, mc)
        finally:
            if old is None:
                os.environ.pop("SVASYM_THREADS", None)
            else:
                os.environ["SVASYM_THREADS"] = old
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    @pytest.mark.parametrize("paths", [1, 65536, 65537, 100_000, 200_000])
    def test_blocks_are_balanced(self, paths):
        # 1e5 paths run as 2 x 50000, not 65536 + 34464
        sizes = simulate._map_blocks(paths, 0, lambda rng, n: n)
        assert len(sizes) == -(-paths // simulate.BLOCK_PATHS)
        assert sum(sizes) == paths and max(sizes) - min(sizes) <= 1

    def test_positivity_of_square_root_factor(self):
        mc = simulate.McConfig(paths=2_000, steps_per_unit_time=100, seed=3)
        batch = simulate.simulate_xy(CIR, Regime.FAST, 0.25, 0.5, mc)
        assert np.all(batch.y >= 0.0)
        assert batch.truncated_fraction < 0.01

    def test_whole_line_factor_never_truncates(self):
        mc = simulate.McConfig(paths=1_000, seed=3)
        batch = simulate.simulate_xy(OU, Regime.FAST, 0.5, 0.5, mc)
        assert batch.truncated_fraction == 0.0

    def test_validations(self):
        mc = simulate.McConfig(paths=10)
        with pytest.raises(ValidationError):
            simulate.simulate_xy(OU, Regime.FAST, 0.0, 1.0, mc)
        with pytest.raises(ValidationError):
            simulate.simulate_xy(OU, Regime.FAST, 1.5, 1.0, mc)
        with pytest.raises(ValidationError):
            simulate.simulate_xy(
                CIR, Regime.FAST, 0.5, 1.0,
                simulate.McConfig(paths=10, steps_per_unit_time=50))
        with pytest.raises(ValidationError):
            simulate.simulate_xy(
                OU, Regime.FAST, 0.5, 1.0,
                simulate.McConfig(paths=10, scheme="euler"))
        for seed in (-1, 2 ** 64):
            with pytest.raises(ValidationError):
                simulate.simulate_xy(OU, Regime.FAST, 0.5, 1.0,
                                     simulate.McConfig(paths=10, seed=seed))

    @pytest.mark.parametrize("value", ["two", "1.5", "-1"])
    def test_bad_thread_count_names_the_variable(self, value, monkeypatch):
        monkeypatch.setenv("SVASYM_THREADS", value)
        with pytest.raises(ValidationError, match="SVASYM_THREADS"):
            simulate.simulate_xy(OU, Regime.FAST, 0.5, 0.2,
                                 simulate.McConfig(paths=10))

    @pytest.mark.parametrize("value", ["", "0"])
    def test_unset_or_zero_thread_count_means_auto(self, value, monkeypatch):
        monkeypatch.setenv("SVASYM_THREADS", value)
        mc = simulate.McConfig(paths=10, seed=4)
        a = simulate.simulate_xy(OU, Regime.FAST, 0.5, 0.2, mc)
        monkeypatch.delenv("SVASYM_THREADS")
        b = simulate.simulate_xy(OU, Regime.FAST, 0.5, 0.2, mc)
        assert np.array_equal(a.x, b.x)

    def test_summary_csv_single_record(self, tmp_path):
        mc = simulate.McConfig(paths=500, seed=9)
        batch = simulate.simulate_xy(OU, Regime.FAST, 0.5, 0.2, mc)
        path = tmp_path / "summary.csv"
        batch.to_csv(path)
        lines = path.read_bytes().split(b"\r\n")
        header = lines[0].split(b",")
        assert b"paths" in header and b"seed" in header
        assert len(lines) == 3  # header, one record, trailing terminator

    def test_binary_round_trip(self, tmp_path):
        mc = simulate.McConfig(paths=257, seed=9)
        batch = simulate.simulate_xy(OU, Regime.FAST, 0.5, 0.2, mc)
        path = tmp_path / "paths.bin"
        batch.to_binary(path)
        raw = path.read_bytes()
        assert raw[:8] == b"SVABIN1\x00"
        (count,) = struct.unpack_from("<Q", raw, 8)
        assert count == 257
        x = np.frombuffer(raw, dtype="<f8", count=count, offset=16)
        y = np.frombuffer(raw, dtype="<f8", count=count, offset=16 + 8 * count)
        assert np.array_equal(x, batch.x) and np.array_equal(y, batch.y)


class TestTiltedAndErgodic:
    def test_tilt_shifts_stationary_mean(self):
        # constant sigma, rho != 0: the tilt adds the constant drift
        # rho p sigma0 nu, moving the stationary mean to m + rho p sigma0 nu
        params = ModelParams(m=0.0, nu=math.sqrt(2.0), beta=0.0, rho=0.5, r=0.0,
                             sigma=VolFnSpec.constant(0.2), y0=0.0)
        p = 1.0
        mc = simulate.McConfig(paths=10_000, seed=21)
        tb = simulate.simulate_tilted(params, 15.0, mc, p=p)
        expected = params.rho * p * 0.2 * params.nu
        se = 1.0 / math.sqrt(mc.paths)  # stationary variance nu^2/2 = 1
        assert np.mean(tb.y) == pytest.approx(expected, abs=5 * se)

    def test_ergodic_average_matches_invariant_moment(self):
        # E|Y| = sqrt(2/pi) under the standard normal invariant law
        mc = simulate.McConfig(paths=4_000, seed=13)
        est = simulate.ergodic_average(OU, lambda y: np.abs(y), 40.0, mc)
        closed = math.sqrt(2.0 / math.pi)
        assert est.value == pytest.approx(closed, abs=5 * max(est.stderr, 1e-4))

    def test_drift_shift_from_function_table(self):
        # adding nu^2 h' to the drift with h = c y reweights the invariant
        # law by e^{2 c y}, shifting the Gaussian mean to 2c
        c = 0.3
        grid = np.linspace(-10, 10, 2001)
        mc = simulate.McConfig(paths=3_000, seed=17)
        est = simulate.ergodic_average(OU, lambda y: y, 30.0, mc,
                                       h=(grid, c * grid))
        assert est.value == pytest.approx(2 * c, abs=5 * max(est.stderr, 1e-4))

    def test_non_finite_state_raises(self):
        # sigma grows like |y|^3 beyond the table, so the tilt drift
        # rho p sigma nu overflows the state within a few steps
        params = ModelParams(m=0.0, nu=math.sqrt(2.0), beta=0.0, rho=0.5, r=0.0,
                             sigma=VolFnSpec.tabulated((-1.0, 1.0), (1.0, 1.0), 3.0),
                             y0=2.0)
        mc = simulate.McConfig(paths=100, seed=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(StabilityError):
                simulate.ergodic_average(params, lambda y: y, 1.0, mc, p=50.0)
            with pytest.raises(StabilityError):
                simulate.simulate_tilted(params, 1.0, mc, p=50.0)

    def test_burn_in_bounds(self):
        mc = simulate.McConfig(paths=10)
        with pytest.raises(ValidationError):
            simulate.simulate_tilted(OU, 1.0, mc, burn_in=1.0)


class TestEstimators:
    def test_log_mean_exp_matches_direct(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(size=500)
        lme, se = simulate.log_mean_exp(samples)
        assert lme == pytest.approx(math.log(np.mean(np.exp(samples))),
                                    abs=1e-12)
        assert se > 0.0

    def test_log_mean_exp_overflow_safe(self):
        lme, _ = simulate.log_mean_exp(np.array([1000.0, 1000.0]))
        assert lme == pytest.approx(1000.0, abs=1e-9)

    def test_moment_check_requires_p_above_one(self):
        mc = simulate.McConfig(paths=10)
        with pytest.raises(ValidationError):
            simulate.moment_check(CONST, Regime.ULTRA_FAST, (0.5, 0.25), 1.0,
                                  1.0, mc)


# Outputs pinned bit for bit: any change to the kernels' arithmetic, operand
# order or stream layout changes these digests.  Each config spans two
# blocks (BLOCK_PATHS + 512 paths, run as 2 x 33024) so the thread count has
# work to split.
GOLDEN_PATHS = simulate.BLOCK_PATHS + 512
OU_RHO = ModelParams(m=0.1, nu=1.2, beta=0.0, rho=-0.5, r=0.03,
                     sigma=VolFnSpec.power_abs(1.0, 0.5), y0=0.3, x0=0.1)
CIR_TRUNC = ModelParams(m=0.2, nu=1.0, beta=0.5, rho=0.3, r=0.0,
                        sigma=VolFnSpec.power_abs(0.8, 0.25, 0.1), y0=0.05)
TAB_BETA = ModelParams(m=1.0, nu=0.8, beta=0.75, rho=0.5, r=0.01,
                       sigma=VolFnSpec.tabulated((0.1, 0.15, 0.2, 0.25),
                                                 (0.15, 0.2, 0.3, 0.35), 0.2),
                       y0=0.15)
H_GRID = np.linspace(-6.0, 6.0, 241)
H_TABLE = (H_GRID, 0.2 * H_GRID + 0.05 * np.sin(H_GRID))


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part, dtype="<f8").tobytes())
    return h.hexdigest()[:16]


def _xy(params, regime, eps, scheme):
    mc = simulate.McConfig(paths=GOLDEN_PATHS, seed=101, scheme=scheme)
    b = simulate.simulate_xy(params, regime, eps, 0.05, mc)
    return _digest(b.x, b.y, b.int_sigma_sq, b.int_sigma_dw,
                   [b.truncated_fraction, b.n_steps, b.dt])


def _tilted(params, p, scheme="full_truncation", h=H_TABLE):
    mc = simulate.McConfig(paths=GOLDEN_PATHS, steps_per_unit_time=100,
                           seed=102, scheme=scheme)
    tb = simulate.simulate_tilted(params, 0.12, mc, p=p, h=h,
                                  y_start=params.y0 + 0.1, burn_in=0.03)
    return _digest(tb.y, tb.int_sigma_sq, tb.int_sigma_dw2, [tb.duration])


def _ergodic(params, phi, p, h=H_TABLE):
    # default n_batches = 8: numpy sums 8 per-path batch values pairwise
    # along a contiguous row but in sequence along a strided one, so the
    # digest also pins the memory layout of the batch table
    mc = simulate.McConfig(paths=GOLDEN_PATHS, steps_per_unit_time=100,
                           seed=103)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        est = simulate.ergodic_average(params, phi, 0.2, mc, p=p, h=h)
    n_warn = sum(issubclass(w.category, VarianceWarning) for w in caught)
    return _digest([est.value, est.stderr, n_warn])


GOLDEN = {
    "xy_ou_rho": (lambda: _xy(OU_RHO, Regime.FAST, 0.5, "full_truncation"),
                  "1040c2bf400f449f"),
    "xy_cir_full_truncation": (
        lambda: _xy(CIR_TRUNC, Regime.FAST, 0.5, "full_truncation"),
        "0bb34c14d22fdc74"),
    "xy_cir_reflect": (lambda: _xy(CIR_TRUNC, Regime.FAST, 0.5, "reflect"),
                       "bdb7473710ee2837"),
    "xy_tabulated_beta": (
        lambda: _xy(TAB_BETA, Regime.ULTRA_FAST, 0.8, "full_truncation"),
        "a26cee8b824837e4"),
    "tilted_ou": (lambda: _tilted(OU_RHO, 0.7), "22ded73d134963ed"),
    "tilted_cir": (lambda: _tilted(CIR_TRUNC, -1.0), "1c9753b49a6e1255"),
    # rho = 0 with p < 0 gives a -0.0 tilt factor and no h table
    "tilted_cir_untilted": (
        lambda: _tilted(replace(CIR_TRUNC, rho=0.0), -1.0, h=None),
        "5242db6a1cd17bfa"),
    "tilted_tabulated_reflect": (lambda: _tilted(TAB_BETA, 0.5, "reflect"),
                                 "8e816aaf3467e75d"),
    "ergodic_ou": (lambda: _ergodic(OU_RHO, lambda y: np.abs(y), 0.6),
                   "41ca9ffa2cc6a4d9"),
    "ergodic_cir_untilted": (
        lambda: _ergodic(CIR_TRUNC, lambda y: y, 0.0, h=None),
        "f732b6e976c8b5d0"),
    "ergodic_cir": (lambda: _ergodic(CIR_TRUNC, (H_GRID, H_GRID ** 2), 1.0),
                    "f66c9ec8ab39a65a"),
}


class TestGoldenOutputs:
    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_digest(self, name, threads, monkeypatch):
        monkeypatch.setenv("SVASYM_THREADS", threads)
        run, expected = GOLDEN[name]
        assert run() == expected
