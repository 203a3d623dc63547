import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import svasym
from svasym import (cli, hamiltonian, measures, model, poisson, rates,
                    simulate, verify)
from svasym.errors import ATMWarning, ParseError, UnknownKeyError
from svasym.model import ModelParams, Regime, VolFnSpec

BS_CFG = """\
# constant-volatility fixture
m = 0
nu = 1.4142135623730951
beta = 0
rho = 0
rate = 0
y0 = 0
x0 = 0
sigma.kind = constant
sigma.s0 = 0.2
regime = 4
t = 1.0
eps = 0.5
mc.paths = 2000
mc.seed = 42
"""


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "model.cfg"
    path.write_text(BS_CFG, encoding="utf-8")
    return str(path)


class TestConfigParsing:
    def test_load(self, cfg_path):
        cfg = cli.load_config(cfg_path)
        assert cfg.model.sigma.kind == "constant"
        assert cfg.model.sigma.s0 == 0.2
        assert cfg.regime is Regime.ULTRA_FAST
        assert cfg.mc.paths == 2000

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(BS_CFG + "sigm.kind = constant\n", encoding="utf-8")
        with pytest.raises(UnknownKeyError):
            cli.load_config(str(path))

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("m = 0\nnot a pair\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            cli.load_config(str(path))
        assert exc.value.line == 2

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(BS_CFG + "t = 2.0\n", encoding="utf-8")
        with pytest.raises(ParseError):
            cli.load_config(str(path))

    def test_round_trip(self, tmp_path):
        model = ModelParams(m=1.0, nu=1.0, beta=0.5, rho=-0.3, r=0.01,
                            sigma=VolFnSpec.power_abs(1.0, 0.25), y0=1.0,
                            x0=0.1)
        cfg = cli.RunConfig(model=model, regime=Regime.FAST, t=0.75,
                            eps=0.3, tilt_p=1.5,
                            eps_sequence=(0.4, 0.2),
                            mc=simulate.McConfig(paths=777, seed=9),
                            grid=measures.GridSpec(n=2048))
        path = tmp_path / "round.cfg"
        cli.write_config(cfg, str(path))
        assert cli.load_config(str(path)) == cfg


def _with_line(line, base=BS_CFG):
    """base with one line replaced (same key) or appended; returns the
    text and the 1-based line number of that line."""
    key = line.split("=")[0].strip()
    lines = base.splitlines()
    for i, old in enumerate(lines):
        if old.split("=")[0].strip() == key:
            lines[i] = line
            return "\n".join(lines) + "\n", i + 1
    return base + line + "\n", len(lines) + 1


BAD_VALUES = ["t = abc", "eps_sequence = 0.5 x", "p_grid.count = 2.5",
              "x_grid.min = low", "mc.paths = inf", "regime = 4.5", "m = abc"]


class TestValueConversion:
    @pytest.mark.parametrize("line", BAD_VALUES)
    def test_bad_value_is_parse_error(self, line, tmp_path):
        text, lineno = _with_line(line)
        path = tmp_path / "bad.cfg"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            cli.load_config(str(path))
        assert exc.value.line == lineno
        assert cli.dispatch(["validate", "--config", str(path),
                             "--out", str(tmp_path)]) == 2

    def test_integral_float_count(self, tmp_path):
        text, _ = _with_line("mc.paths = 1e5")
        path = tmp_path / "ok.cfg"
        path.write_text(text, encoding="utf-8")
        paths = cli.load_config(str(path)).mc.paths
        assert paths == 100_000 and type(paths) is int


def _loadtxt(path, **kw):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, **kw)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


BS = ModelParams(m=0.0, nu=math.sqrt(2.0), beta=0.0, rho=0.0, r=0.0,
                 sigma=VolFnSpec.constant(0.2), y0=0.0)
OU = ModelParams(m=0.0, nu=math.sqrt(2.0), beta=0.0, rho=0.0, r=0.0,
                 sigma=VolFnSpec.power_abs(1.0, 0.5), y0=0.0)


class TestCsvArtifacts:
    """Every CSV artifact reads back with loadtxt to the source arrays."""

    def test_curves(self, tmp_path):
        curve = hamiltonian.build_curve(BS, np.linspace(-1.3, 1.3, 9),
                                        method="closed-form")
        leg = hamiltonian.legendre(curve, np.linspace(-0.7, 0.7, 23))
        x = np.linspace(-0.3, 0.3, 13)
        rate = rates.rate_curve(Regime.FAST, 0.0, 0.7, x, legendre=leg)
        smile = rates.implied_vol_curve(0.0, Regime.FAST, 0.7, x,
                                        sigma_bar_sq=0.04, legendre=leg)
        cases = [
            (curve, [curve.p_grid, curve.values, curve.errors], None),
            (leg, [leg.q_grid, leg.values], (0, 1)),
            (rate, [rate.x_grid, rate.values, np.full(x.size, 2.0)], None),
            (smile, [smile.logK_grid, smile.values, np.full(x.size, 2.0)],
             None),
        ]
        for obj, columns, usecols in cases:
            path = tmp_path / "a.csv"
            obj.to_csv(path)
            assert _same_bits(_loadtxt(path, usecols=usecols).T, columns)
        lines = (tmp_path / "a.csv").read_bytes().split(b"\r\n")
        assert lines[-1] == b"" and all(b"\n" not in ln for ln in lines)
        leg.to_csv(tmp_path / "a.csv")
        flags = np.loadtxt(tmp_path / "a.csv", delimiter=",", skiprows=1,
                           usecols=2, dtype=str)
        assert tuple(flags) == leg.flags

    @pytest.mark.parametrize("header, columns", [
        (("y", "chi", "chi_prime"),
         (np.linspace(-3.0, 3.0, 7), np.array([0.1, -0.0, 5e-324, 1e22, 1e-300,
                                               -2.5e-7, math.pi]),
          np.full(7, 1.0 / 3.0))),
        (("q", "value", "flag"),
         (np.array([-1.0, 0.0, 1.0]), np.array([0.5, 0.0, 0.25]),
          ("extrapolated", "interior", "extrapolated"))),
        (("x", "rate", "regime"), (np.array([0.1, 0.2]), np.array([1.5, 2.5]), [2, 2])),
        (("logK", "implied_var", "regime"), (np.empty(0), np.empty(0), [])),
    ], ids=["floats", "flag", "regime", "zero_rows"])
    def test_bytes_match_the_row_loop(self, tmp_path, header, columns):
        def row_loop(path):
            # one write per row: the writer _write_csv replaced, kept as its
            # reference
            cols = [np.asarray(c).tolist() for c in columns]
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(",".join(header) + "\r\n")
                for row in zip(*cols):
                    fh.write(",".join(map(str, row)) + "\r\n")

        row_loop(tmp_path / "ref.csv")
        model._write_csv(tmp_path / "a.csv", header, columns)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_density_and_corrector(self, tmp_path):
        table = measures.invariant_density(OU, 0.0, measures.GridSpec(n=65))
        cor = poisson.solve_corrector(OU, 1.0)
        for obj, columns in ((table, [table.grid, table.values]),
                             (cor, [cor.grid, cor.chi, cor.chi_prime])):
            path = tmp_path / "a.csv"
            obj.to_csv(path)
            assert _same_bits(_loadtxt(path).T, columns)

    def test_simulate_summary(self, tmp_path):
        batch = simulate.simulate_xy(BS, Regime.ULTRA_FAST, 0.5, 0.1,
                                     simulate.McConfig(paths=64, seed=3))
        path = tmp_path / "s.csv"
        batch.to_csv(path)
        assert _same_bits(_loadtxt(path)[0], list(batch.summary().values()))

    def test_cli_hamiltonian_artifact_is_numeric(self, cfg_path, tmp_path):
        assert cli.dispatch(["hamiltonian", "--config", cfg_path,
                             "--out", str(tmp_path)]) == 0
        table = _loadtxt(tmp_path / "hamiltonian.csv")
        assert table.shape == (33, 3) and table[16, 1] == 0.0

    def test_cli_hamiltonian_reads_grid_keys(self, tmp_path):
        # grid.n reaches the eigen solver, and the default n writes the same
        # bytes as a config without grid keys
        ou_cfg = BS_CFG.replace("sigma.kind = constant\nsigma.s0 = 0.2\n",
                                "sigma.kind = power_abs\nsigma.c = 1\n"
                                "sigma.q = 0.5\np_grid.count = 5\n")
        blobs = []
        for i, extra in enumerate(("", "grid.n = 4096\n", "grid.n = 401\n")):
            path = tmp_path / f"ou{i}.cfg"
            path.write_text(ou_cfg + extra, encoding="utf-8")
            out = tmp_path / f"out{i}"
            assert cli.dispatch(["hamiltonian", "--config", str(path),
                                 "--out", str(out)]) == 0
            blobs.append((out / "hamiltonian.csv").read_bytes())
        assert blobs[0] == blobs[1] != blobs[2]


class TestDispatch:
    def test_validate_writes_report(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        code = cli.dispatch(["validate", "--config", cfg_path,
                             "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "validation.json").read_text())
        assert doc["passed"] is True

    def test_smile_artifact(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        code = cli.dispatch(["smile", "--config", cfg_path, "--out", str(out)])
        assert code == 0
        lines = (out / "smile.csv").read_bytes().split(b"\r\n")
        assert lines[0] == b"logK,implied_var,regime"

    # the at-the-money band is the grid's absolute spacing, at least
    # rates.ATM_BAND, so the money is filled on any grid, not 0/0
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lo, hi", [("0.4", "-0.4"), ("0", "0")])
    def test_smile_on_a_descending_or_constant_grid_is_finite(self, lo, hi,
                                                               tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text(BS_CFG + f"logK_grid.min = {lo}\nlogK_grid.max = {hi}\n",
                        encoding="utf-8")
        out = tmp_path / "out"
        assert cli.dispatch(["smile", "--config", str(path),
                             "--out", str(out)]) == 0
        values = _loadtxt(out / "smile.csv", usecols=1)
        assert values.size == 81
        assert np.allclose(values, 0.04, rtol=1e-12, atol=0.0)

    def test_sigma_bar_artifact(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        code = cli.dispatch(["sigma-bar", "--config", cfg_path,
                             "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "sigma_bar.json").read_text())
        assert doc["sigma_bar_sq"] == pytest.approx(0.04, rel=1e-9)

    def test_simulate_repeatable_and_seed_override(self, cfg_path, tmp_path):
        out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
        for out in (out1, out2):
            assert cli.dispatch(["simulate", "--config", cfg_path,
                                 "--out", str(out)]) == 0
        assert cli.dispatch(["simulate", "--config", cfg_path,
                             "--out", str(out3), "--seed", "1"]) == 0
        blob1 = (out1 / "simulate_summary.csv").read_bytes()
        blob2 = (out2 / "simulate_summary.csv").read_bytes()
        blob3 = (out3 / "simulate_summary.csv").read_bytes()
        assert blob1 == blob2
        assert blob1 != blob3

    def test_verify_ldp_artifact(self, cfg_path, tmp_path):
        # constant sigma: every path carries the same Gaussian tail, so each
        # point is fully resolved
        out = tmp_path / "out"
        assert cli.dispatch(["verify-ldp", "--config", cfg_path,
                             "--out", str(out)]) == 0
        doc = json.loads((out / "ldp.json").read_text())
        assert [q["eps"] for q in doc["points"]] == [0.5, 0.35, 0.25, 0.18]
        assert all(q["hits"] == q["paths"] == 2000 for q in doc["points"])

    def test_simulate_raw_record_file(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        code = cli.dispatch(["simulate", "--config", cfg_path,
                             "--out", str(out), "--raw"])
        assert code == 0
        raw = (out / "simulate_paths.bin").read_bytes()
        assert raw[:8] == b"SVABIN1\x00"

    def test_unknown_key_exit_code(self, tmp_path):
        # a typo, and mc.scheme: full truncation is the only scheme
        path = tmp_path / "bad.cfg"
        for line in ("sigm.kind = constant", "mc.scheme = reflect"):
            path.write_text(BS_CFG + line + "\n", encoding="utf-8")
            assert cli.dispatch(["validate", "--config", str(path)]) == 2

    def test_usage_error_exit_code(self, cfg_path):
        assert cli.dispatch(["frobnicate", "--config", cfg_path]) == 2
        assert cli.dispatch(["validate", "--config", cfg_path,
                             "--no-such-flag"]) == 2

    def test_seed_out_of_range_exit_code(self, cfg_path, tmp_path):
        for seed in ("-1", str(2 ** 64)):
            assert cli.dispatch(["simulate", "--config", cfg_path,
                                 "--out", str(tmp_path), "--seed", seed]) == 1

    def test_missing_config_exit_code(self, tmp_path):
        assert cli.dispatch(["validate", "--config",
                             str(tmp_path / "absent.cfg")]) == 1

    def test_invalid_model_exit_code(self, tmp_path):
        # beta = 1/2 with m <= nu^2/2 fails validation
        path = tmp_path / "bad_model.cfg"
        path.write_text("m = 0.3\nnu = 1\nbeta = 0.5\nrho = 0\ny0 = 1\n"
                        "sigma.kind = power_abs\nsigma.c = 1\nsigma.q = 0.25\n",
                        encoding="utf-8")
        assert cli.dispatch(["validate", "--config", str(path),
                             "--out", str(tmp_path)]) == 1

    def test_regime_override(self, tmp_path):
        # the momentum window must be wide enough that the conjugate covers
        # the slopes (x - x0)/t requested by the x-grid
        path = tmp_path / "model.cfg"
        path.write_text(BS_CFG + "p_grid.max = 15\np_grid.count = 17\n",
                        encoding="utf-8")
        out = tmp_path / "out"
        code = cli.dispatch(["rate", "--config", str(path), "--out", str(out),
                             "--regime", "2"])
        assert code == 0
        lines = (out / "rate.csv").read_bytes().split(b"\r\n")
        assert lines[1].endswith(b",2")


class TestOverrideFlags:
    """An override flag converts, and exits, as its key in a config."""

    def test_integral_float_paths_like_the_config_key(self, cfg_path, tmp_path):
        text, _ = _with_line("mc.paths = 1e3")
        path = tmp_path / "paths.cfg"
        path.write_text(text, encoding="utf-8")
        by_key, by_flag = tmp_path / "key", tmp_path / "flag"
        assert cli.dispatch(["simulate", "--config", str(path),
                             "--out", str(by_key)]) == 0
        assert cli.dispatch(["simulate", "--config", cfg_path,
                             "--out", str(by_flag), "--paths", "1e3"]) == 0
        blob = (by_key / "simulate_summary.csv").read_bytes()
        assert blob == (by_flag / "simulate_summary.csv").read_bytes()
        assert b"\r\n1000," in blob

    def test_unknown_regime_exits_like_the_config_key(self, cfg_path, tmp_path):
        text, _ = _with_line("regime = 3")
        path = tmp_path / "regime.cfg"
        path.write_text(text, encoding="utf-8")
        assert cli.dispatch(["validate", "--config", str(path),
                             "--out", str(tmp_path)]) == 1
        assert cli.dispatch(["validate", "--config", cfg_path,
                             "--out", str(tmp_path), "--regime", "3"]) == 1

    @pytest.mark.parametrize("flag, raw", [("--paths", "2.5"), ("--t", "abc")])
    def test_bad_value_names_the_flag(self, flag, raw, cfg_path, tmp_path,
                                      capsys):
        assert cli.dispatch(["validate", "--config", cfg_path,
                             "--out", str(tmp_path), flag, raw]) == 2
        assert f"bad value for '{flag}'" in capsys.readouterr().err


class TestBadTime:
    """A t that is not finite and > 0 ends each command that uses it in
    exit code 1 and an error line: no traceback, no NaN columns."""

    @pytest.mark.parametrize("regime", ["4", "2"])
    @pytest.mark.parametrize("t", ["nan", "inf", "-1", "0"])
    @pytest.mark.parametrize("command", ["simulate", "rate", "smile", "price"])
    def test_exit_1_with_error_line(self, command, t, regime, tmp_path, capsys):
        text, _ = _with_line(f"t = {t}")
        path = tmp_path / "t.cfg"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert cli.dispatch([command, "--config", str(path), "--out", str(out),
                             "--regime", regime]) == 1
        assert capsys.readouterr().err.startswith("error: t must be finite and > 0")
        assert not any(out.iterdir())


class TestBadMomentum:
    """A tilt momentum that is not finite ends each command that reads it in
    exit code 1 and an error line: no NaN columns, no misleading window
    error."""

    @pytest.mark.parametrize("p", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["poisson", "invariant"])
    def test_exit_1_with_error_line(self, command, p, cfg_path, tmp_path, capsys):
        out = tmp_path / "out"
        # "--p=-inf": a separate "-inf" would parse as an option
        assert cli.dispatch([command, "--config", cfg_path, "--out", str(out),
                             f"--p={p}"]) == 1
        assert capsys.readouterr().err.startswith("error: p must be finite")
        assert not out.exists() or not any(out.iterdir())


# each layer chooses its own truncation window, and sigma.kind implies the
# growth exponent, so no config key sets either
@pytest.mark.parametrize("line", ["grid.y_lo = -4", "grid.y_hi = 6",
                                  "sigma.growth = 0"])
def test_removed_key_is_unknown(line, tmp_path, capsys):
    path = tmp_path / "removed.cfg"
    path.write_text(BS_CFG + line + "\n", encoding="utf-8")
    assert cli.dispatch(["validate", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 2
    key = line.split(" = ")[0]
    assert capsys.readouterr().err == f"error: unknown config key: {key!r}\n"
    assert not (tmp_path / "out").exists()


class TestModelGate:
    """Every command but validate checks the model first: a failing clause
    is a validation error naming it, exit code 1, before any work."""

    @pytest.mark.parametrize("line, clause", [
        ("nu = -1", "fields"), ("nu = nan", "fields"), ("rho = -1", "fields"),
        ("beta = -1", "beta-range")])
    @pytest.mark.parametrize("command", ["simulate", "sigma-bar", "rate"])
    def test_exit_1_naming_the_clause(self, command, line, clause, tmp_path,
                                      capsys):
        text, _ = _with_line(line)
        path = tmp_path / "model.cfg"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert cli.dispatch([command, "--config", str(path),
                             "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: model fails ")
        assert f"clause {clause!r}: " in err
        assert not out.exists()


class TestFastRegimeConstantSigma:
    """At r = 2 each command reads Lbar0 at the slopes (x - x0)/t of its own
    points, which Hbar0 = s0^2 p^2 / 2 reaches only on a wide enough p grid:
    |p| <= 2 gives slopes up to 0.0775 for s0 = 0.2."""

    COMMANDS = ["rate", "price", "smile", "verify-ldp"]

    def _dispatch(self, command, text, out, regime="2"):
        path = out.parent / f"{out.name}.cfg"
        path.write_text(text, encoding="utf-8")
        return cli.dispatch([command, "--config", str(path), "--out", str(out),
                             "--regime", regime])

    @pytest.mark.parametrize("command", COMMANDS)
    def test_wide_p_grid_exits_0(self, command, tmp_path):
        out = tmp_path / "out"
        assert self._dispatch(command, BS_CFG + "p_grid.max = 15\n", out) == 0
        assert len(os.listdir(out)) == 1

    def test_fast_rate_collapses_to_the_ultra_fast_one(self, tmp_path):
        rate = {}
        for regime in ("2", "4"):
            out = tmp_path / f"r{regime}"
            assert self._dispatch("rate", BS_CFG + "p_grid.max = 15\n", out,
                                  regime) == 0
            rate[regime] = _loadtxt(out / "rate.csv", usecols=(0, 1))
        x = rate["4"][:, 0]
        far = x != 0.0  # x0 = 0, where both rates vanish
        assert np.array_equal(rate["2"][:, 0], x)
        rel = np.abs(rate["2"][far, 1] / rate["4"][far, 1] - 1.0)
        assert np.max(rel) < 1e-9

    @pytest.mark.parametrize("command", COMMANDS)
    def test_default_p_grid_exits_1_naming_it(self, command, tmp_path, capsys):
        out = tmp_path / "out"
        assert self._dispatch(command, BS_CFG, out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: p_grid.max = 2.0 reaches Hbar0 slopes "
                              "up to 0.0775")
        assert not any(out.iterdir())


class TestOwnChecksFirst:
    """price and verify-ldp check their own inputs before the fast regime's
    ingredient, so a bad strike or tail input exits 1 without building the
    eigen Hamiltonian."""

    @pytest.mark.parametrize("command, line, error", [
        ("price", "strike = -1", "strike must be > 0"),
        ("price", "strike = 0", "strike must be > 0"),
        ("verify-ldp", "x_target = 0", "the tail target x must differ from x0"),
        ("verify-ldp", "eps_sequence = 0.2 0.3",
         "eps_sequence must be strictly decreasing"),
        ("verify-ldp", "eps_sequence = 1.5 0.5", "eps must lie in (0, 1]"),
        ("verify-ldp", "mc.steps_per_unit_time = 0",
         "steps_per_unit_time must be >= 1"),
    ])
    def test_exit_1_without_the_eigen_curve(self, command, line, error, tmp_path,
                                            capsys, monkeypatch):
        def build_curve(*args, **kwargs):
            raise AssertionError("build_curve called")

        monkeypatch.setattr(hamiltonian, "build_curve", build_curve)
        text, _ = _with_line(line, BS_CFG + "p_grid.max = 15\n")
        path = tmp_path / "own.cfg"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert cli.dispatch([command, "--config", str(path), "--out", str(out),
                             "--regime", "2"]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not any(out.iterdir())

    @pytest.mark.parametrize("regime", ["2", "4"])
    def test_price_at_the_money_reads_no_ingredient(self, regime, tmp_path,
                                                    monkeypatch):
        def ingredient(*args, **kwargs):
            raise AssertionError("ingredient built")

        monkeypatch.setattr(hamiltonian, "build_curve", ingredient)
        monkeypatch.setattr(measures, "sigma_bar_sq", ingredient)
        text, _ = _with_line("strike = 1.0")
        path = tmp_path / "atm.cfg"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        with pytest.warns(ATMWarning, match="degenerates to 0"):
            assert cli.dispatch(["price", "--config", str(path), "--out",
                                 str(out), "--regime", regime]) == 0
        payload = {"strike": 1.0, "regime": int(regime), "t": 1.0,
                   "log_price_asymptote": 0.0}
        assert ((out / "price.json").read_bytes()
                == json.dumps(payload, indent=2, sort_keys=True).encode())

    def test_price_at_the_money_checks_t(self, tmp_path, capsys):
        text, _ = _with_line("t = -1", _with_line("strike = 1.0")[0])
        path = tmp_path / "atm.cfg"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert cli.dispatch(["price", "--config", str(path), "--out", str(out),
                             "--regime", "2"]) == 1
        assert capsys.readouterr().err.startswith("error: t must be")
        assert not any(out.iterdir())


class TestBadCount:
    """A grid count that is not an integer >= 3 is a config-syntax error
    naming its key (exit code 2); a step count below 1 is a validation
    error (exit code 1).  Neither ends in a traceback."""

    @pytest.mark.parametrize("value", ["-1", "0", "1", "2"])
    @pytest.mark.parametrize("key", ["grid.n", "p_grid.count", "x_grid.count",
                                     "logK_grid.count"])
    def test_grid_count_exits_2(self, key, value, tmp_path, capsys):
        text, _ = _with_line(f"{key} = {value}")
        path = tmp_path / "count.cfg"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert cli.dispatch(["smile", "--config", str(path), "--out", str(out),
                             "--regime", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line ")
        assert f"bad value for '{key}': a count must be >= 3, got {value}" in err
        assert not out.exists()

    def test_zero_steps_per_unit_time_exits_1(self, tmp_path, capsys):
        text, _ = _with_line("mc.steps_per_unit_time = 0")
        path = tmp_path / "steps.cfg"
        path.write_text(text, encoding="utf-8")
        assert cli.dispatch(["simulate", "--config", str(path),
                             "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "error: steps_per_unit_time must be >= 1\n")


OU_CFG = """\
m = 0
nu = 1.4142135623730951
beta = 0
rho = -0.3
y0 = 0
sigma.kind = power_abs
sigma.c = 1
sigma.q = 0.5
regime = 2
mc.paths = 2000
mc.seed = 42
"""


class TestHugeValue:
    """A value whose square overflows, or a run past the step or path cap,
    ends the command in exit code 1 and an error line: no traceback, no
    non-finite artifact, no endless run."""

    @pytest.mark.parametrize("command, line, error", [
        ("sigma-bar", "nu = 1e300", "model fails clause 'fields'"),
        ("hamiltonian", "nu = 1e300", "model fails clause 'fields'"),
        ("simulate", "nu = 1e300", "model fails clause 'fields'"),
        ("poisson", "tilt.p = 1e300", "p must be finite with a finite square"),
        ("simulate", "m = 1e300", "non-finite summary: var_x"),
        ("simulate", "x0 = 1e300", "non-finite summary: var_x"),
        ("simulate", "t = 1e300", "time steps exceed the cap"),
        ("verify-ldp", "t = 1e300", "time steps exceed the cap"),
        ("simulate", "mc.paths = 1e300", "paths must lie in "),
        ("verify-ldp", "mc.paths = 1e300", "paths must lie in "),
    ])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_exit_1_with_error_line(self, command, line, error, tmp_path,
                                    capsys):
        path = tmp_path / "huge.cfg"
        path.write_text(_with_line(line, OU_CFG)[0], encoding="utf-8")
        out = tmp_path / "out"
        assert cli.dispatch([command, "--config", str(path),
                             "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and error in err
        assert err.count("\n") == 1
        assert not out.exists() or not any(out.iterdir())


def _module_env():
    src = str(Path(svasym.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_overflowing_summary_prints_only_the_error_line(tmp_path):
    # every warning shown: the variance's overflow is the error, not a
    # RuntimeWarning ahead of it
    path = tmp_path / "huge.cfg"
    path.write_text(_with_line("m = 1e300", OU_CFG)[0], encoding="utf-8")
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-W", "always", "-m", "svasym.cli", "simulate",
         "--config", str(path), "--out", str(out), "--regime", "2"],
        env=_module_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stderr == "error: non-finite summary: var_x\n"
    assert not any(out.iterdir())


def test_out_of_memory_exits_1_naming_paths(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 763. MiB")

    monkeypatch.setattr(simulate, "simulate_xy", exhausted)
    path = tmp_path / "model.cfg"
    path.write_text(OU_CFG, encoding="utf-8")
    out = tmp_path / "out"
    assert cli.dispatch(["simulate", "--config", str(path), "--out", str(out),
                         "--raw"]) == 1
    assert capsys.readouterr().err == (
        "error: out of memory; lower mc.paths (Unable to allocate 763. MiB)\n")
    assert not any(out.iterdir())


EXAMPLE_CFG = Path(__file__).resolve().parent.parent / "examples" / "model.cfg"


def test_example_config_is_readmes_and_validates(tmp_path):
    # README shows examples/model.cfg verbatim and runs its commands on it
    text = EXAMPLE_CFG.read_text(encoding="utf-8")
    readme = (EXAMPLE_CFG.parent.parent / "README.md").read_text(encoding="utf-8")
    assert f"```\n{text}```" in readme
    assert cli.dispatch(["validate", "--config", str(EXAMPLE_CFG),
                         "--out", str(tmp_path)]) == 0


def test_fast_price_at_rho_0_is_at_most_the_ultra_fast_one(tmp_path):
    # C5 gives Hbar0 >= sigma_bar^2 p^2 / 2, so I2 <= I4; the fast regime
    # reads Lbar0 at exactly the strike's slope, not between table nodes
    rate = {}
    for regime in ("2", "4"):
        out = tmp_path / f"r{regime}"
        assert cli.dispatch(["price", "--config", str(EXAMPLE_CFG),
                             "--out", str(out), "--regime", regime]) == 0
        doc = json.loads((out / "price.json").read_text(encoding="utf-8"))
        rate[regime] = -doc["log_price_asymptote"]
    assert cli.load_config(str(EXAMPLE_CFG)).model.rho == 0.0
    assert 0.0 < rate["2"] <= rate["4"] + 1e-9


@pytest.mark.parametrize("regime", ["2", "4"])
@pytest.mark.parametrize("command, key", [
    ("verify-ldp", "x_target"), ("price", "strike"), ("rate", "x_grid.min"),
    ("rate", "x_grid.max"), ("smile", "logK_grid.min"),
    ("smile", "logK_grid.max")])
def test_non_finite_point_exits_1_with_error_line(command, key, regime,
                                                  tmp_path, capsys):
    path = tmp_path / "nan.cfg"
    path.write_text(_with_line(f"{key} = nan", BS_CFG + "p_grid.max = 15\n")[0],
                    encoding="utf-8")
    out = tmp_path / "out"
    assert cli.dispatch([command, "--config", str(path), "--out", str(out),
                         "--regime", regime]) == 1
    assert capsys.readouterr().err == (
        "error: the command reads a point whose slope from x0 over t is not "
        "finite\n")
    assert not any(out.iterdir())


def test_module_entry_point_runs_the_command(tmp_path):
    # python -m svasym.cli dispatches like the svasym script
    done = subprocess.run(
        [sys.executable, "-m", "svasym.cli", "validate",
         "--config", str(tmp_path / "absent.cfg")],
        env=_module_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stderr.startswith("error: ")


# a small eigen problem keeps the r = 2 paths cheap
SMALL_OU_CFG = OU_CFG + "grid.n = 513\np_grid.count = 9\n"


class TestSuccessPaths:
    """Each command writes exactly its one artifact, with the bytes of the
    library result for the same config."""

    @pytest.fixture()
    def small_cfg(self, tmp_path):
        path = tmp_path / "ou.cfg"
        path.write_text(SMALL_OU_CFG, encoding="utf-8")
        return str(path)

    def _run(self, command, cfg_path, out, regime):
        assert cli.dispatch([command, "--config", cfg_path, "--out", str(out),
                             "--regime", regime]) == 0
        (artifact,) = os.listdir(out)
        return (out / artifact).read_bytes()

    def _expected(self, obj, tmp_path):
        path = tmp_path / "expected.csv"
        obj.to_csv(path)
        return path.read_bytes()

    @pytest.mark.parametrize("regime", ["2", "4"])
    def test_invariant(self, regime, small_cfg, tmp_path):
        cfg = cli.load_config(small_cfg)
        table = measures.invariant_density(cfg.model, cfg.tilt_p, cfg.grid)
        got = self._run("invariant", small_cfg, tmp_path / "out", regime)
        assert got == self._expected(table, tmp_path)

    @pytest.mark.parametrize("regime", ["2", "4"])
    def test_poisson(self, regime, small_cfg, tmp_path):
        cfg = cli.load_config(small_cfg)
        cor = poisson.solve_corrector(cfg.model, cfg.tilt_p, cfg.grid)
        got = self._run("poisson", small_cfg, tmp_path / "out", regime)
        assert got == self._expected(cor, tmp_path)

    @pytest.mark.parametrize("regime", ["2", "4"])
    def test_price(self, regime, small_cfg, tmp_path):
        cfg = cli.load_config(small_cfg)
        cfg = replace(cfg, regime=Regime.from_r(int(regime)))
        value = rates.option_price_log_asymptote(
            cfg.strike, cfg.model.x0, cfg.t, cfg.regime,
            **cli._rate_ingredient(cfg, [math.log(cfg.strike)]))
        payload = {"strike": cfg.strike, "regime": cfg.regime.r, "t": cfg.t,
                   "log_price_asymptote": value}
        got = self._run("price", small_cfg, tmp_path / "out", regime)
        assert got == json.dumps(payload, indent=2, sort_keys=True).encode()
        assert value < 0.0

    def test_fast_smile_fills_the_money_with_sigma_bar(self, small_cfg, tmp_path):
        cfg = cli.load_config(small_cfg)
        sbar2 = measures.sigma_bar_sq(cfg.model)
        smile = rates.implied_vol_curve(
            cfg.model.x0, Regime.FAST, cfg.t, cfg.logk_grid(), sigma_bar_sq=sbar2,
            legendre=cli._rate_ingredient(cfg, cfg.logk_grid())["legendre"])
        got = self._run("smile", small_cfg, tmp_path / "out", "2")
        assert got == self._expected(smile, tmp_path)
        assert smile.values[cfg.logk_count // 2] == sbar2

    @pytest.mark.parametrize("passes", [True, False])
    def test_accept(self, passes, small_cfg, tmp_path, monkeypatch, capsys):
        def c99(seed):
            return verify._entry("synthetic", seed, 42, None, passes)
        monkeypatch.setattr(verify, "CRITERIA",
                            {"C10": verify.CRITERIA["C10"], "C99": c99})
        out = tmp_path / "out"
        code = cli.dispatch(["accept", "--config", small_cfg, "--out", str(out)])
        assert code == (0 if passes else 1)
        assert os.listdir(out) == ["acceptance.json"]
        doc = json.loads((out / "acceptance.json").read_text())
        assert [e["criterion_id"] for e in doc["criteria"]] == ["C0", "C10", "C99"]
        assert doc["passed"] is passes and doc["seed"] == 42
        assert all(e["pass"] for e in doc["criteria"][:2])
        assert f"[{'PASS' if passes else 'FAIL'}] C99: synthetic" in capsys.readouterr().out
