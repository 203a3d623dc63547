import json
import math

import numpy as np
import pytest

from svasym import cli, hamiltonian, measures, poisson, rates, simulate
from svasym.errors import ParseError, UnknownKeyError
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


def _with_line(line):
    """BS_CFG with one line replaced (same key) or appended; returns the
    text and the 1-based line number of that line."""
    key = line.split("=")[0].strip()
    lines = BS_CFG.splitlines()
    for i, old in enumerate(lines):
        if old.split("=")[0].strip() == key:
            lines[i] = line
            return "\n".join(lines) + "\n", i + 1
    return BS_CFG + line + "\n", len(lines) + 1


BAD_VALUES = ["t = abc", "eps_sequence = 0.5 x", "p_grid.count = 2.5",
              "grid.y_lo = low", "mc.paths = inf", "regime = 4.5", "m = abc"]


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
        path = tmp_path / "bad.cfg"
        path.write_text(BS_CFG + "sigm.kind = constant\n", encoding="utf-8")
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

    @pytest.mark.parametrize("line", ["sigma.growth = 2", "sigma.growth = 0.5"])
    def test_growth_disagreeing_with_kind_exit_code(self, line, tmp_path):
        # a constant sigma implies growth 0; the key is read, not ignored
        path = tmp_path / "bad_growth.cfg"
        path.write_text(BS_CFG + line + "\n", encoding="utf-8")
        assert cli.dispatch(["validate", "--config", str(path),
                             "--out", str(tmp_path)]) == 1

    def test_regime_override(self, tmp_path):
        # the momentum window must be wide enough that the conjugate covers
        # the slopes (x0 - x)/t requested by the x-grid
        path = tmp_path / "model.cfg"
        path.write_text(BS_CFG + "p_grid.max = 15\np_grid.count = 17\n",
                        encoding="utf-8")
        out = tmp_path / "out"
        code = cli.dispatch(["rate", "--config", str(path), "--out", str(out),
                             "--regime", "2"])
        assert code == 0
        lines = (out / "rate.csv").read_bytes().split(b"\r\n")
        assert lines[1].endswith(b",2")
