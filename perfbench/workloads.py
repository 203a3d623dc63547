"""The three workloads: input generators, request bodies and output checks.

Each workload is a closed loop with one client: the next request starts
when the previous one returns.  Requests come in rounds whose inputs are
drawn from the workload seed and the round index alone; a run serves whole
rounds, so every run of a workload does the same mix of work.

Every call into the program goes through a module attribute
(``hamiltonian.build_curve``), so the tracer's wrappers see it.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict
from dataclasses import dataclass, replace

import numpy as np
from scipy.stats import spearmanr

from svasym import (cli, hamiltonian, measures, model, poisson, rates, simulate,
                    verify)

MC_THREADS = 2
MC_PATHS = 2 * simulate.BLOCK_PATHS   # two blocks, one per worker thread


def write_config(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(doc):
            val = doc[key]
            fh.write(f"{key} = {val!r}\n" if isinstance(val, float)
                     else f"{key} = {val}\n")


def xy_steps(eps: float, regime_r: int, t: float, spu: int) -> int:
    """Step count of simulate_xy: dt = (delta / eps) / spu, delta = eps^r."""
    dt = (eps ** regime_r / eps) / spu
    return max(1, int(math.ceil(t / dt)))


def tilted_steps(T: float, spu: int) -> int:
    """Step count of the tilted loop (simulate_tilted, ergodic_average)."""
    return max(1, int(math.ceil(T / (1.0 / spu))))


@dataclass
class Request:
    kind: str
    inputs: dict
    path_steps: int = 0
    key: str = ""          # names the request within its round


class Workload:
    name = ""
    why = ""
    threads = MC_THREADS
    min_rounds = 1
    KNOWN_GAPS = {}

    def known_gaps(self, records):
        """For each failed request, the known gap that covers it, or None."""
        return [None] * len(records)

    def estimates(self, rec):
        """(standard error, seconds spent) of each estimate a request made."""
        return []

    def hit_ratio(self, records) -> float:
        """Tail hits over paths at the final eps; 0 without a tail estimate."""
        return 0.0


class McTail(Workload):
    """verify.ldp_tail on the OU fixture in the ultra-fast regime, one eps
    point per request; a round is one sweep down the eps sequence."""

    name = "mc_tail"
    why = ("The C8 code path: simulate_xy with the beta = 0 exact propagator "
           "does nearly all the work, so it isolates the xy kernel, its RNG "
           "and its thread blocks, while the deterministic layers stay idle.")
    EPS = (0.6, 0.5, 0.45, 0.4)   # stops well above C8's 0.18: steps ~ eps^-3
    X, T, SPU = 0.15, 1.0, 50

    def setup(self, seed: int, workdir: str):
        doc = model.to_doc(verify.fixture_ou())
        doc.update({"regime": 4, "t": self.T, "x_target": self.X,
                    "eps_sequence": " ".join(repr(e) for e in self.EPS),
                    "mc.paths": MC_PATHS, "mc.steps_per_unit_time": self.SPU,
                    "mc.seed": seed})
        path = os.path.join(workdir, "mc_tail.cfg")
        write_config(path, doc)
        cfg = cli.load_config(path)
        if not model.validate(cfg.model).passed:
            raise SystemExit("mc_tail: fixture model failed validation")
        return {"cfg": cfg, "sbar2": measures.sigma_bar_sq(cfg.model)}

    def round(self, state, seed: int, k: int):
        cfg = state["cfg"]
        eps_seq = cfg.eps_sequence
        seeds = np.random.default_rng([seed, k]).integers(0, 2 ** 32, len(eps_seq))
        steps = lambda eps: xy_steps(eps, cfg.regime.r, cfg.t,
                                     cfg.mc.steps_per_unit_time)
        return [Request("eps", {"eps": eps, "seed": int(s),
                                "last": i == len(eps_seq) - 1},
                        cfg.mc.paths * steps(eps))
                for i, (eps, s) in enumerate(zip(eps_seq, seeds))]

    def serve(self, state, req: Request, tracer, stage: list):
        cfg = state["cfg"]
        stage.append("ldp_tail")
        return verify.ldp_tail(cfg.model, cfg.regime, cfg.x_target, cfg.t,
                               (req.inputs["eps"],),
                               replace(cfg.mc, seed=req.inputs["seed"]),
                               sigma_bar_sq=state["sbar2"])

    def check(self, state, records):
        """Per point: not undersampled.  Per sweep (on its last point): the
        estimates trend toward -I4 as eps falls, by ldp_tail's own rule."""
        sweep = []
        for rec in records:
            sweep.append(rec)
            if rec.out is not None and rec.out.points[0].undersampled:
                rec.fail("undersampled")
            if not rec.req.inputs["last"]:
                continue
            pts = [r.out.points[0] for r in sweep if r.out is not None]
            if len(pts) == len(sweep) and len(pts) >= 3:
                vv = np.array([q.estimate for q in pts])
                rho_s = float(spearmanr(vv, [q.eps for q in pts]).statistic)
                expected = -1.0 if vv[0] < rec.out.predicted else 1.0
                if not rho_s * expected > 0:
                    rec.fail("trend")
            sweep = []

    def estimates(self, rec):
        q = rec.out.points[0]
        se = q.eps * math.sqrt((1.0 - q.p_hat) / (q.paths * q.p_hat))
        return [(se, rec.latency)]

    def digest(self, rec):
        q = rec.out.points[0]
        return [q.eps, q.hits, q.estimate]

    def hit_ratio(self, records):
        """Median over sweeps of tail hits over paths at the final eps."""
        vals = [r.out.points[0].p_hat for r in records
                if r.out is not None and r.req.inputs["last"]]
        return float(np.median(vals)) if vals else 0.0


class HbarMc(Workload):
    """hamiltonian.hbar0_mc on the CIR fixture at p = +-1 and on a
    correlated OU model at p = 0.5, plus one ergodic average of sigma^2 on
    CIR; a round is those three requests."""

    name = "hbar_mc"
    why = ("The other simulate branch: the tilted single-factor loop with "
           "full-truncation Euler, tilt drift, burn-in and exponential "
           "weights, so a kernel change tuned for the xy step shows here if "
           "it costs this path (the C3/C4 code path).")
    # each request type twice a run, so p50 and p90 are not single samples
    min_rounds = 2
    HORIZON = 10.5               # hbar0_mc needs T > 10 relaxation times
    ERGODIC_ALLOWANCE = 0.001    # ~3x the Euler bias at dt = 0.01 (-0.0003)

    def setup(self, seed: int, workdir: str):
        cir = verify.fixture_cir()
        ou = replace(verify.fixture_ou(), rho=-0.5)
        cfgs = {}
        for key, prm, spu in (("cir", cir, 100), ("ou_rho", ou, 50)):
            doc = model.to_doc(prm)
            doc.update({"horizon": self.HORIZON, "tilt.p": 0.5,
                        "mc.paths": MC_PATHS, "mc.steps_per_unit_time": spu,
                        "mc.seed": seed})
            path = os.path.join(workdir, f"{key}.cfg")
            write_config(path, doc)
            cfgs[key] = cli.load_config(path)
            if not model.validate(cfgs[key].model).passed:
                raise SystemExit(f"hbar_mc: {key} model failed validation")
        spec = cfgs["cir"].model.sigma
        beta = cfgs["cir"].model.beta
        # sigma^2 at the positive part of the state, as the simulator does
        phi = lambda y: model.sigma_eval(spec, np.maximum(y, 1e-300), beta=beta) ** 2
        return {"cfg": cfgs, "phi": phi}

    def round(self, state, seed: int, k: int):
        cfgs = state["cfg"]
        rng = np.random.default_rng([seed, k])
        s = [int(v) for v in rng.integers(0, 2 ** 32, 3)]
        p = float(rng.choice([-1.0, 1.0]))   # |p| = 1: C4's largest passing momentum
        out = []
        for key, pk, sk in (("cir", p, s[0]), ("ou_rho", cfgs["ou_rho"].tilt_p, s[1])):
            c = cfgs[key]
            out.append(Request("hbar", {"model": key, "p": pk, "seed": sk},
                               2 * c.mc.paths * tilted_steps(c.horizon, c.mc.steps_per_unit_time)))
        c = cfgs["cir"]
        out.append(Request("ergodic", {"model": "cir", "seed": s[2]},
                           c.mc.paths * tilted_steps(c.horizon, c.mc.steps_per_unit_time)))
        return out

    def serve(self, state, req: Request, tracer, stage: list):
        c = state["cfg"][req.inputs["model"]]
        mc = replace(c.mc, seed=req.inputs["seed"])
        if req.kind == "hbar":
            stage.append("hbar0_mc")
            return hamiltonian.hbar0_mc(c.model, req.inputs["p"], c.horizon, mc)
        stage.append("ergodic_average")
        return simulate.ergodic_average(c.model, state["phi"], c.horizon, mc)

    def check(self, state, records):
        """C4: each form within 2 SE + 0.02 of the eigenvalue route.  The
        ergodic sigma^2 within 3 SE of sigma_bar_sq, plus the scheme's
        discretization allowance."""
        eigen = {}
        sbar2 = None
        for rec in records:
            if rec.out is None:
                continue
            c = state["cfg"][rec.req.inputs["model"]]
            if rec.req.kind == "hbar":
                key = (rec.req.inputs["model"], rec.req.inputs["p"])
                if key not in eigen:
                    eigen[key] = hamiltonian.hbar0_eigen(c.model, key[1])[0]
                for form in (rec.out.direct, rec.out.martingale):
                    if abs(form.value - eigen[key]) > 2.0 * form.stderr + 0.02:
                        rec.fail("c4_gap")
            else:
                if sbar2 is None:
                    sbar2 = measures.sigma_bar_sq(c.model)
                rec.info["ergodic_z"] = (rec.out.value - sbar2) / rec.out.stderr
                if abs(rec.out.value - sbar2) > 3.0 * rec.out.stderr + self.ERGODIC_ALLOWANCE:
                    rec.fail("ergodic")

    def estimates(self, rec):
        if rec.req.kind == "hbar":
            # the two forms are equal-size runs: each gets half the request
            return [(rec.out.direct.stderr, rec.latency / 2.0),
                    (rec.out.martingale.stderr, rec.latency / 2.0)]
        return [(rec.out.stderr, rec.latency)]

    def digest(self, rec):
        if rec.req.kind == "hbar":
            return [rec.out.direct.value, rec.out.direct.stderr,
                    rec.out.martingale.value, rec.out.martingale.stderr]
        return [rec.out.value, rec.out.stderr]


class FastSmile(Workload):
    """One fast-regime smile per request for a (model, maturity) pair, the
    way the CLI's sigma-bar, invariant, hamiltonian, rate, smile and poisson
    commands build it from a flat config, artifacts included."""

    name = "fast_smile"
    why = ("The deterministic layers do all the work (eigen solves, "
           "densities, Legendre, rates, corrector, config and CSV I/O) and "
           "simulate none; each model is asked at 4 maturities, so 3/4 of "
           "the Hbar0 work repeats across requests for a cache to find.")
    MATURITIES = (0.25, 0.5, 1.0, 2.0)
    BETA_CLASSES = ("0", "1/2", "(1/2,1)")
    SIGMA_KINDS = ("power_abs", "tabulated", "constant")
    PER_CELL = 3           # 3 x 3 cells x 3 models x 4 maturities = 108 requests
    RESIDUAL_TOL = 1e-4    # C7

    # Failures the parent commit is known to have, found by this workload's
    # draw.  They count in `failed`.  A run stays correct only while each
    # one lies inside what seeds 1..40 showed, with room: the error types
    # and beta classes of EIGEN_RAISES, the sizes below and at most
    # MODELS_MAX models per round; run.py also holds each baselined seed to
    # the failures its baseline run recorded.
    KNOWN_GAPS = {
        "eigen_raises": "build_curve raises on some models: inf/NaN reaches "
                        "eigh_tridiagonal (raw ValueError) once window growth "
                        "underflows the density mass, ConvexityError on some "
                        "beta = 1/2 models, TruncationError on some beta in "
                        "(1/2, 1) models",
        "eigen_below_c5": "on beta = 1/2 models hbar0_eigen can return Hbar0 "
                          "below the C5 bound sigma_bar^2 p^2 / 2, by up to ~1% "
                          "of the curve's largest bound, with a far smaller "
                          "error estimate, and I2 <= I4 then fails with it",
        "corrector_kink": "the corrector misses C7's 1e-4 residual when sigma "
                          "has a kink inside the window off the grid nodes: "
                          "power_abs with beta = 0, or a tabulated sigma",
    }
    EIGEN_RAISES = {"ValueError": BETA_CLASSES, "ConvexityError": ("1/2",),
                    "TruncationError": ("(1/2,1)",)}
    C5_SHORTFALL_MAX = 0.02    # of the curve's largest bound; seen <= 0.0089
    KINK_RESIDUAL_MAX = 2e-3   # seen <= 6.7e-4
    # models a round: eigen_raises seen <= 5 of 27, corrector_kink <= 3 of
    # the 12 kinked ones; C5 is checked on only 3 beta = 1/2 models a round
    MODELS_MAX = {"eigen_raises": 8, "eigen_below_c5": 3, "corrector_kink": 6}

    def _draw_model(self, u, beta_class: str, kind: str, rho: float):
        """One admissible model; ``u(name, lo, hi)`` draws each parameter."""
        if beta_class == "0":
            beta, nu, m = 0.0, u("nu", 0.5, 2.0), u("m", -0.5, 0.5)
        elif beta_class == "1/2":
            beta, nu = 0.5, u("nu", 0.5, 1.5)
            m = 0.5 * nu * nu * u("m", 1.2, 3.0)          # Feller: m > nu^2 / 2
        else:
            beta, nu = u("beta", 0.55, 0.95), u("nu", 0.3, 1.2)
            m = u("m", 0.5, 2.0)
        growth = u("growth", 0.05, 0.9) * (1.0 - beta)  # admissible: < 1 - beta
        table = None
        if kind == "constant":
            sigma = model.VolFnSpec.constant(u("level", 0.1, 0.5))
        elif kind == "power_abs":
            sigma = model.VolFnSpec.power_abs(u("level", 0.2, 1.0), growth,
                                              u("offset", 0.0, 0.5))
        else:
            grid = (np.linspace(m - 3.0 * nu, m + 3.0 * nu, 9) if beta == 0.0
                    else np.geomspace(0.05 * m, 5.0 * m, 9))
            values = (0.2 + 0.3 * np.abs(np.sin(grid))
                      + np.array([u(f"bump{i}", 0.0, 0.1) for i in range(9)]))
            table = (tuple(float(g) for g in grid),
                     tuple(float(v) for v in values), float(growth))
            # a tabulated sigma has no flat-document form: the config carries
            # a constant placeholder and the table travels with the request
            sigma = model.VolFnSpec.constant(float(np.mean(values)))
        prm = model.ModelParams(m=float(m), nu=float(nu), beta=float(beta),
                                rho=float(rho), r=0.0, sigma=sigma, y0=float(m))
        return prm, table

    def _generate(self, seed: int, k: int, workdir: str):
        rng = np.random.default_rng([seed, k])
        reqs = []
        idx = 0
        for beta_class in self.BETA_CLASSES:
            for kind in self.SIGMA_KINDS:
                # Latin hypercube within the cell: for each parameter the
                # cell's models draw from different thirds of its range, so
                # every round spans each range and runs cost alike
                perms = {}

                def u(name, lo, hi, j=0):
                    if name not in perms:
                        perms[name] = rng.permutation(self.PER_CELL)
                    return float(lo + (hi - lo) * (perms[name][j] + rng.random())
                                 / self.PER_CELL)

                for j in range(self.PER_CELL):
                    draw = lambda name, lo, hi: u(name, lo, hi, j)
                    rho = 0.0 if j == 0 else draw("rho", -0.5, 0.5)
                    prm, table = self._draw_model(draw, beta_class, kind, rho)
                    full = prm if table is None else replace(
                        prm, sigma=model.VolFnSpec.tabulated(*table))
                    if not model.validate(full).passed:
                        raise SystemExit(f"fast_smile: generated model {idx} "
                                         "failed validation")
                    for t in self.MATURITIES:
                        doc = model.to_doc(prm)
                        doc.update({"regime": 2, "t": t, "tilt.p": 1.0,
                                    "p_grid.max": 2.0, "p_grid.count": 33,
                                    "x_grid.count": 41, "logK_grid.count": 61})
                        path = os.path.join(workdir, f"r{k}_m{idx}_t{t}.cfg")
                        write_config(path, doc)
                        out_dir = os.path.join(workdir, f"r{k}_m{idx}_t{t}.out")
                        os.makedirs(out_dir)
                        reqs.append(Request("smile", {
                            "config": path, "table": table, "out": out_dir,
                            "model": idx, "beta_class": beta_class, "kind": kind},
                            key=f"m{idx}-t{t}"))
                    idx += 1
        order = rng.permutation(len(reqs))
        return [reqs[i] for i in order]

    def setup(self, seed: int, workdir: str):
        return {"workdir": workdir, "rounds": {0: self._generate(seed, 0, workdir)}}

    def round(self, state, seed: int, k: int):
        if k not in state["rounds"]:
            state["rounds"][k] = self._generate(seed, k, state["workdir"])
        return state["rounds"][k]

    def serve(self, state, req: Request, tracer, stage: list):
        stage.append("load_config")
        cfg = cli.load_config(req.inputs["config"])
        if req.inputs["table"] is not None:
            cfg = replace(cfg, model=replace(
                cfg.model, sigma=model.VolFnSpec.tabulated(*req.inputs["table"])))
        prm, t, x0 = cfg.model, cfg.t, cfg.model.x0
        stage.append("validate")
        report = model.validate(prm)
        stage.append("sigma_bar_sq")
        sbar2 = measures.sigma_bar_sq(prm)
        stage.append("invariant_density")
        density = measures.invariant_density(prm, 0.0, cfg.grid)
        stage.append("build_curve")
        curve = hamiltonian.build_curve(prm, cfg.p_grid(), method="eigen")
        # points strictly inside the resolved slope range, as the CLI's
        # q set requires
        q_max = float(np.max(np.abs(np.gradient(curve.values, curve.p_grid))))
        x_pts = x0 - t * q_max * np.linspace(-0.9, 0.9, cfg.x_grid_count)
        logk = x0 + t * q_max * np.linspace(-0.9, 0.9, cfg.logk_count)
        q_set = np.union1d(np.linspace(-q_max, q_max, 801), (x0 - x_pts) / t)
        q_set = np.union1d(q_set, (x0 - logk) / t)
        q_set = q_set[np.abs(q_set) <= q_max]
        stage.append("legendre")
        leg = hamiltonian.legendre(curve, q_set)
        stage.append("rate_curve")
        rate = rates.rate_curve(model.Regime.FAST, x0, t, x_pts, legendre=leg)
        stage.append("implied_vol_curve")
        smile = rates.implied_vol_curve(x0, model.Regime.FAST, t, logk,
                                        sigma_bar_sq=sbar2, legendre=leg)
        # concave payoff peaked at x0, on a table twice as wide as the
        # points, so every sup lies inside it
        h_grid = x0 + 2.0 * t * q_max * np.linspace(-1.0, 1.0, 401)
        stage.append("lax_solution")
        lax = rates.lax_solution(h_grid, -0.5 * (h_grid - x0) ** 2, t,
                                 x_pts[::4], model.Regime.FAST, legendre=leg)
        stage.append("solve_corrector")
        cor = poisson.solve_corrector(prm, cfg.tilt_p, cfg.grid)
        residual = poisson.core_residual_norm(prm, cor)
        stage.append("artifacts")
        with tracer.span("cli", "artifacts"):
            out = req.inputs["out"]
            density.to_csv(os.path.join(out, "invariant.csv"))
            curve.to_csv(os.path.join(out, "hamiltonian.csv"))
            leg.to_csv(os.path.join(out, "legendre.csv"))
            rate.to_csv(os.path.join(out, "rate.csv"))
            smile.to_csv(os.path.join(out, "smile.csv"))
            cor.to_csv(os.path.join(out, "poisson.csv"))
        return {"model": prm, "t": t, "valid": report.passed, "sbar2": sbar2,
                "curve": curve, "leg": leg, "x_pts": x_pts, "rate": rate,
                "smile": smile, "lax": lax, "residual": residual}

    def _gap(self, rec):
        """The known gap whose envelope holds this failed request, or None."""
        i = rec.req.inputs
        kinked = i["kind"] == "tabulated" or (
            i["kind"] == "power_abs" and i["beta_class"] == "0")
        err = rec.error
        if err is not None:
            name = type(err).__name__
            if (rec.stage == "build_curve"
                    and i["beta_class"] in self.EIGEN_RAISES.get(name, ())
                    and (name != "ValueError" or "infs or NaNs" in str(err))):
                return "eigen_raises"
            return None
        gaps = set()
        for label in rec.failures:
            if (label == "c5_bound" and i["beta_class"] == "1/2"
                    and rec.info["c5_shortfall"] <= self.C5_SHORTFALL_MAX):
                gaps.add("eigen_below_c5")
            elif label == "i2_above_i4" and "c5_bound" in rec.failures:
                gaps.add("eigen_below_c5")   # held to the C5 clause above
            elif (label == "c7_residual" and kinked
                    and rec.out["residual"] <= self.KINK_RESIDUAL_MAX):
                gaps.add("corrector_kink")
            else:
                return None
        return "+".join(sorted(gaps))

    def known_gaps(self, records):
        gaps = [self._gap(rec) for rec in records]
        models = defaultdict(set)
        for rec, gap in zip(records, gaps):
            for g in (gap or "").split("+"):
                models[rec.round, g].add(rec.req.inputs["model"])
        return [gap if gap and all(len(models[rec.round, g]) <= self.MODELS_MAX[g]
                                   for g in gap.split("+")) else None
                for rec, gap in zip(records, gaps)]

    def check(self, state, records):
        for rec in records:
            o = rec.out
            if o is None:
                continue
            if not o["valid"]:
                rec.fail("validate")
            c = o["curve"]
            if c.values[c.p_grid == 0.0][0] != 0.0:
                rec.fail("h0_nonzero")
            if np.min(o["leg"].values) < -1e-12:
                rec.fail("lbar0_negative")
            sm = o["smile"]
            if not (np.all(np.isfinite(sm.values)) and np.all(sm.values > 0.0)):
                rec.fail("smile_not_positive")
            if sm.values[sm.values.size // 2] != o["sbar2"] or sm.atm_value != o["sbar2"]:
                rec.fail("atm_not_sigma_bar")
            if not np.all(np.isfinite(o["lax"])):
                rec.fail("lax_not_finite")
            if o["model"].rho == 0.0:
                # C5's 1e-8, plus 3x the curve's own error estimate (the
                # margin build_curve allows its convexity check) and a 1e-6
                # relative floor for the eigensolver's roundoff
                bound = 0.5 * o["sbar2"] * c.p_grid ** 2
                tol = 3.0 * c.errors + 1e-6 * bound + 1e-8
                if np.any(c.values - bound < -tol):
                    rec.fail("c5_bound")
                    rec.info["c5_shortfall"] = float(np.max(bound - c.values)
                                                     / np.max(bound))
                # Lbar0 moves by at most the sup-norm error of Hbar0
                rows = verify.regime_compare(o["x_pts"], o["model"].x0, o["t"],
                                             sigma_bar_sq=o["sbar2"],
                                             legendre=o["leg"], rho=0.0,
                                             tol=o["t"] * float(np.max(tol)))
                if not all(r.ok for r in rows):
                    rec.fail("i2_above_i4")
            if not o["residual"] < self.RESIDUAL_TOL:
                rec.fail("c7_residual")
                rec.info["c7_residual"] = o["residual"]

    def digest(self, rec):
        o = rec.out
        return [o["sbar2"], o["residual"], *o["curve"].values, *o["leg"].values,
                *o["rate"].values, *o["smile"].values, *o["lax"]]


WORKLOADS = {w.name: w for w in (McTail(), HbarMc(), FastSmile())}
