import math
import os
import struct
import threading
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from svasym import hamiltonian, simulate
from svasym.errors import StabilityError, ValidationError, VarianceWarning
from svasym.model import ModelParams, Regime, VolFnSpec

from golden import digest


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
        # 1e5 paths run as 2 x 50000, not 65536 + 34464; the blocks tile
        # [0, paths) in order
        spans = simulate._map_blocks(paths, 0, lambda rng, lo, hi: lambda: (lo, hi))
        assert len(spans) == -(-paths // simulate.BLOCK_PATHS)
        assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]]
        assert spans[-1][1] == paths
        sizes = [hi - lo for lo, hi in spans]
        assert max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_calling_thread_allocates_one_wave_at_a_time(self, threads, monkeypatch):
        # five blocks: the calling thread prepares each (the allocation
        # phase) and holds at most one block per worker that has not run
        monkeypatch.setenv("SVASYM_THREADS", threads)
        caller, prepared, ran = threading.get_ident(), [], []

        def job(rng, lo, hi):
            assert threading.get_ident() == caller
            assert len(prepared) - len(ran) < int(threads)
            prepared.append(lo)
            return lambda: ran.append(lo) or threading.get_ident()

        idents = simulate._map_blocks(5 * simulate.BLOCK_PATHS, 0, job)
        assert sorted(ran) == prepared and len(prepared) == 5
        assert (caller in idents) == (threads == "1")

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
                simulate.McConfig(paths=10, steps_per_unit_time=0))
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
        tb = simulate.simulate_tilted(OU, 30.0, mc, h=(grid, c * grid))
        se = 1.0 / math.sqrt(mc.paths)  # the shifted law keeps variance 1
        assert np.mean(tb.y) == pytest.approx(2 * c, abs=5 * se)

    def test_non_finite_state_raises(self):
        # sigma grows like |y|^3 beyond the table, so the tilt drift
        # rho p sigma nu overflows the state within a few steps
        params = ModelParams(m=0.0, nu=math.sqrt(2.0), beta=0.0, rho=0.5, r=0.0,
                             sigma=VolFnSpec.tabulated((-1.0, 1.0), (1.0, 1.0), 3.0),
                             y0=2.0)
        mc = simulate.McConfig(paths=100, seed=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(StabilityError):
                simulate.simulate_tilted(params, 1.0, mc, p=50.0)
        # a finite state, but phi overflows the batch sums
        with pytest.raises(StabilityError):
            simulate.ergodic_average(OU, lambda y: np.full_like(y, np.inf), 1.0, mc)

    def test_ergodic_path_sum_is_pairwise(self):
        # T = 0.09: one step per batch, so the batch sums are phi's values
        # in turn.  Path sums keep numpy's pairwise order for 8 terms, that
        # of a row sum: (1 + 0) + (2^-53 + 2^-53) is 1 + 2^-52, while
        # 1 + 0 + 2^-53 + 2^-53 in sequence rounds to 1.  Two paths, since
        # numpy sums a one-path (8, 1) column pairwise too.
        values = iter([1.0, 0.0, 2.0 ** -53, 2.0 ** -53, 0.0, 0.0, 0.0, 0.0])
        mc = simulate.McConfig(paths=2, steps_per_unit_time=100, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", VarianceWarning)
            est = simulate.ergodic_average(OU, lambda y: np.full_like(y, next(values)),
                                           0.09, mc)
        assert est.value == (1.0 + 2.0 ** -52) / 8

    def test_burn_in_bounds(self):
        mc = simulate.McConfig(paths=10)
        with pytest.raises(ValidationError):
            simulate.simulate_tilted(OU, 1.0, mc, burn_in=1.0)

    def test_ergodic_needs_a_step_per_batch(self, monkeypatch):
        # T = 0.05 at 100 steps a unit: 5 steps, none burnt in, for 8 batches
        mc = simulate.McConfig(paths=1000, steps_per_unit_time=100, seed=1)
        with monkeypatch.context() as patch:
            patch.setattr(simulate, "_map_blocks", None)  # nothing is simulated
            with pytest.raises(ValidationError, match="fewer than the 8 time batches"):
                simulate.ergodic_average(OU, np.abs, 0.05, mc)
        # T = 0.09: 9 steps, 1 burnt in, one step per batch
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", VarianceWarning)
            est = simulate.ergodic_average(OU, np.abs, 0.09, mc)
        assert math.isfinite(est.value) and est.stderr > 0.0


def _traced_peak(run) -> int:
    """The traced peak, in bytes, of run() with VarianceWarning silenced."""
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", VarianceWarning)
            run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Two blocks of CIR paths (beta = 1/2, rho = 0), at 1 and 2 threads: a wave
# is one block at 1 thread and both at 2.  Each bound is the buffers the
# run allocates, counted in block arrays of BLOCK_PATHS doubles.
MEMORY_PATHS = 2 * simulate.BLOCK_PATHS
BLOCK_ARRAY = simulate.BLOCK_PATHS * 8


def _tilted_bound(threads: str) -> int:
    """simulate_tilted's results, 3 path arrays, plus one wave of blocks of
    5 block arrays each (see TestTiltedMemory)."""
    return MEMORY_PATHS * 3 * 8 + int(threads) * 5 * BLOCK_ARRAY


class TestErgodicMemory:
    """ergodic_average sums into one (8, paths) table, block [lo, hi) into
    its columns, and reduces its statistics inside it.  So its peak is the
    table (64 bytes a path) plus one wave of blocks.  A block holds its
    stepper's state y, W2, sigma, y+ and y+^beta and phi's value (none
    here, where phi returns its argument): 6 block arrays, and its
    finiteness check makes no mask.  After the blocks, the path sums take
    3 path arrays, 6 block arrays.  The bound counts 7 block arrays a
    thread: 11.5 MiB at 1 thread and 15 MiB at 2.  The table and its
    per-block copies peaked at 16.13 MiB (2.02 tables) before they were one
    table; then 11.01 and 13.5-14.0 MiB while the check made a bool mask of
    the 8 rows, and 11.00 and 13.02 MiB without it."""

    def test_terminal_check_makes_no_mask(self):
        table = np.zeros((8, MEMORY_PATHS))
        rows = table[:, :simulate.BLOCK_PATHS]  # one block's batch rows
        st = simulate._FactorStepper(CIR, simulate._block_rng(3, 0),
                                     np.empty(simulate.BLOCK_PATHS), CIR.y0, 1.0, 0.01)
        assert _traced_peak(lambda: st.terminal(rows)) < BLOCK_ARRAY // 64
        for bad in (math.nan, -math.inf):
            rows[5, 7] = bad
            with pytest.raises(StabilityError):
                st.terminal(rows)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_traced_peak_is_bounded(self, threads, monkeypatch):
        monkeypatch.setenv("SVASYM_THREADS", threads)
        mc = simulate.McConfig(paths=MEMORY_PATHS, seed=3)
        peak = _traced_peak(lambda: simulate.ergodic_average(CIR, lambda y: y, 0.2, mc))
        assert peak < mc.paths * 8 * 8 + int(threads) * 7 * BLOCK_ARRAY


class TestTiltedMemory:
    """simulate_tilted's peak is its results y, I and J (24 bytes a path)
    plus one wave of blocks.  A block's stepper holds W2, sigma, y+ and
    y+^beta (its y is the result's slice), and rho != 0 adds the scratch
    of I and J; the bound counts those 5 block arrays, one more than run
    here at rho = 0, and the finiteness check makes no mask.  That is
    5.5 MiB at 1 thread and 8 MiB at 2; the peak was 6.07 and 9.08 MiB
    while the stepper also kept the state clamped at 1e-300 and its drift
    apart, and 5.07 and 7.08 MiB after."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_traced_peak_is_bounded(self, threads, monkeypatch):
        monkeypatch.setenv("SVASYM_THREADS", threads)
        mc = simulate.McConfig(paths=MEMORY_PATHS, seed=3)
        peak = _traced_peak(lambda: simulate.simulate_tilted(CIR, 0.2, mc, burn_in=0.02))
        assert peak < _tilted_bound(threads)


class TestHbarMemory:
    """hbar0_direct and hbar0_mc reduce each tilted batch with log_mean_exp,
    in place in the one array that holds the form's exponent, so their peak
    is simulate_tilted's, within TestTiltedMemory's bound; the forms' own
    arrays come after the blocks are freed.  The peak was 9.13 MiB at 1 and
    2 threads while log_mean_exp made path-sized temporaries (scipy's
    logsumexp, exp(s - max) and np.std), and 5.07 and 7.09 MiB after."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("form", ["hbar0_direct", "hbar0_mc"])
    def test_traced_peak_is_bounded(self, form, threads, monkeypatch):
        monkeypatch.setenv("SVASYM_THREADS", threads)
        mc = simulate.McConfig(paths=MEMORY_PATHS, seed=3)
        peak = _traced_peak(lambda: getattr(hamiltonian, form)(CIR, 1.0, 10.5, mc))
        assert peak < _tilted_bound(threads)


class TestUncorrelatedTilted:
    """At rho = 0 simulate_tilted evaluates sigma^2 directly and leaves
    int sigma dW2 at 0.  rho = 1e-300 with p = 0 runs the same factor with
    the general accumulators, so only the rounding of int sigma^2 differs."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("params", [OU, CIR], ids=["ou", "cir"])
    def test_matches_vanishing_rho(self, params, threads, monkeypatch):
        monkeypatch.setenv("SVASYM_THREADS", threads)
        mc = simulate.McConfig(paths=simulate.BLOCK_PATHS + 512,
                               steps_per_unit_time=100, seed=5)
        lean = simulate.simulate_tilted(params, 1.0, mc, p=0.7, burn_in=0.1)
        general = simulate.simulate_tilted(replace(params, rho=1e-300), 1.0, mc,
                                           burn_in=0.1)
        assert np.array_equal(lean.y, general.y)
        assert np.all(general.int_sigma_sq > 0.0)
        np.testing.assert_allclose(lean.int_sigma_sq, general.int_sigma_sq,
                                   rtol=1e-14, atol=0.0)
        assert not np.any(lean.int_sigma_dw2)
        assert np.any(general.int_sigma_dw2)


class TestEstimators:
    """log_mean_exp consumes its argument: a test that reads the samples
    again passes a copy."""

    def test_log_mean_exp_matches_direct(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(size=500)
        lme, se = simulate.log_mean_exp(samples.copy())
        assert lme == pytest.approx(math.log(np.mean(np.exp(samples))),
                                    abs=1e-12)
        assert se > 0.0

    def test_log_mean_exp_makes_no_sample_sized_array(self):
        samples = np.random.default_rng(1).normal(size=simulate.BLOCK_PATHS)
        assert _traced_peak(lambda: simulate.log_mean_exp(samples)) < BLOCK_ARRAY // 8

    def test_log_mean_exp_all_minus_inf(self):
        assert simulate.log_mean_exp(np.full(4, -np.inf)) == (-math.inf, math.inf)

    def test_log_mean_exp_one_sample_has_zero_se(self):
        assert simulate.log_mean_exp(np.array([-3.5])) == (-3.5, 0.0)

    def test_log_mean_exp_overflow_safe(self):
        lme, se = simulate.log_mean_exp(np.array([1000.0, 1000.0]))
        assert lme == pytest.approx(1000.0, abs=1e-9)
        assert se == 0.0

    def test_log_mean_exp_matches_exact_reference(self):
        # w = exp(s - max s) = (e^-2, e^-1, 1); mean and variance of w from
        # exact rational sums of the float weights
        samples = [-1.5, -0.5, 0.5]
        w = [Fraction(math.exp(s - 0.5)) for s in samples]
        mean = sum(w) / 3
        var = sum((x - mean) ** 2 for x in w) / 2
        lme, se = simulate.log_mean_exp(np.array(samples))
        assert lme == pytest.approx(0.5 + math.log(mean), rel=1e-15)
        assert se == pytest.approx(math.sqrt(var / 3) / mean, rel=1e-15)
        assert lme == pytest.approx(math.log(math.fsum(map(math.exp, samples)) / 3),
                                    rel=1e-15)


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


def _xy(params, regime, eps):
    mc = simulate.McConfig(paths=GOLDEN_PATHS, seed=101)
    b = simulate.simulate_xy(params, regime, eps, 0.05, mc)
    return digest(b.x, b.y, [b.truncated_fraction, b.n_steps, b.dt])


def _tilted(params, p, h=H_TABLE):
    mc = simulate.McConfig(paths=GOLDEN_PATHS, steps_per_unit_time=100, seed=102)
    tb = simulate.simulate_tilted(params, 0.12, mc, p=p, h=h,
                                  y_start=params.y0 + 0.1, burn_in=0.03)
    return digest(tb.y, tb.int_sigma_sq, tb.int_sigma_dw2, [tb.duration])


def _ergodic(params, phi):
    # value and stderr round away the order of each path's batch sum (a
    # sequential sum moves 40% of the path sums here, not the digest);
    # test_ergodic_path_sum_is_pairwise pins that order
    mc = simulate.McConfig(paths=GOLDEN_PATHS, steps_per_unit_time=100,
                           seed=103)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        est = simulate.ergodic_average(params, phi, 0.2, mc)
    n_warn = sum(issubclass(w.category, VarianceWarning) for w in caught)
    return digest([est.value, est.stderr, n_warn])


GOLDEN = {
    "xy_ou_rho": (lambda: _xy(OU_RHO, Regime.FAST, 0.5), "1d029c924a9ae6c2"),
    "xy_cir_full_truncation": (lambda: _xy(CIR_TRUNC, Regime.FAST, 0.5),
                               "695f92f00bbbebd7"),
    "xy_tabulated_beta": (lambda: _xy(TAB_BETA, Regime.ULTRA_FAST, 0.8),
                          "9557661dea3f0e81"),
    "tilted_ou": (lambda: _tilted(OU_RHO, 0.7), "22ded73d134963ed"),
    "tilted_cir": (lambda: _tilted(CIR_TRUNC, -1.0), "1c9753b49a6e1255"),
    # rho = 0 with p < 0 gives a -0.0 tilt factor and no h table
    "tilted_cir_untilted": (
        lambda: _tilted(replace(CIR_TRUNC, rho=0.0), -1.0, h=None),
        "2fa587f4d5be57e3"),
    "tilted_tabulated": (lambda: _tilted(TAB_BETA, 0.5), "8e816aaf3467e75d"),
    "ergodic_ou": (lambda: _ergodic(OU_RHO, lambda y: np.abs(y)),
                   "17daf008593a38da"),
    "ergodic_cir_untilted": (lambda: _ergodic(CIR_TRUNC, lambda y: y),
                             "f732b6e976c8b5d0"),
}


class TestGoldenOutputs:
    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_digest(self, name, threads, monkeypatch):
        monkeypatch.setenv("SVASYM_THREADS", threads)
        run, expected = GOLDEN[name]
        assert run() == expected


# A horizon that is not finite and > 0 is a ValidationError, not an
# OverflowError from the step count or a zero-length step.
TIME_CALLS = {
    "simulate_xy": lambda t: simulate.simulate_xy(
        OU, Regime.FAST, 0.5, t, simulate.McConfig(paths=10)),
    "simulate_tilted": lambda t: simulate.simulate_tilted(
        OU, t, simulate.McConfig(paths=10)),
    "ergodic_average": lambda t: simulate.ergodic_average(
        OU, np.abs, t, simulate.McConfig(paths=10)),
}


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(TIME_CALLS))
def test_time_must_be_finite_and_positive(name, t):
    with pytest.raises(ValidationError, match="^[tT] must be finite and > 0"):
        TIME_CALLS[name](t)


# A run past the step or path cap is a ValidationError before anything is
# allocated, not an endless loop or a job list of 1e295 blocks.
@pytest.mark.parametrize("name", sorted(TIME_CALLS))
def test_step_count_is_capped(name):
    with pytest.raises(ValidationError, match="time steps exceed the cap"):
        TIME_CALLS[name](1e300)


@pytest.mark.parametrize("paths", [simulate.MAX_PATHS + 1, 10 ** 300])
def test_path_count_is_capped(paths):
    with pytest.raises(ValidationError, match="paths must lie in "):
        simulate.simulate_tilted(OU, 1.0, simulate.McConfig(paths=paths))
