"""The four benchmark workloads: seeded inputs, one operation, its checks.

A workload turns a seeded generator into an input, runs one operation
through the program's public entry points, and checks the output.  Input
generation and checks run outside the timed region; only `run` is timed.
`warm_up` runs one small operation during set-up to take first-call costs
out of the measurements; its output is not checked.  See README.md in this
directory for why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from cascadeshare import budget, cli, dp, robust, sim
from cascadeshare.models import AppConfig, ConditionalPmf, likelihood_ratios, posterior_update_array
from cascadeshare.robust import DegenerateUncertaintyError, StageModel, UncertaintyParams

import checks
from checks import require

ROOT = Path(__file__).resolve().parent.parent
GCW_CONFIG = ROOT / "configs" / "gcw_twin.json"

USE_SHARED, USE_OWN = 1, 2  # secondary action codes in policy.json


def _quiet_main(argv) -> int:
    """`cli.main` with its stdout status line kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


@contextlib.contextmanager
def _capturing(module, names):
    """Record what calls through `module.<name>` return during the block.

    A pass-through with no timing: it lets a check reuse what the program
    computed inside an operation instead of computing it again.
    """
    seen = {name: [] for name in names}
    saved = {name: getattr(module, name) for name in names}

    def recorder(name, fn):
        def call(*args, **kwargs):
            result = fn(*args, **kwargs)
            seen[name].append(result)
            return result
        return call

    for name in names:
        setattr(module, name, recorder(name, saved[name]))
    try:
        yield seen
    finally:
        for name in names:
            setattr(module, name, saved[name])


def _fresh(directory: Path) -> Path:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    return directory


def _dir_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file())


@dataclass
class Outcome:
    """What one operation returned: exit code, in-memory results, bytes written."""

    code: int
    value: object = None
    artifact_bytes: int = 0


def _stages(doc_stages):
    """(p0, p1, cost_mJ) of the robust models as emitted in models.json."""
    out = []
    for s in doc_stages:
        model = s.get("robust") or s["nominal"]
        out.append((np.array(model["p0"], float), np.array(model["p1"], float), float(s["cost_mJ"])))
    return out


def _check_optimize_artifacts(out: Path, m: int, k: int) -> dict:
    """Every JSON artifact parses; every CSV has M (or M^2) rows per stage."""
    docs = {name: checks.read_json(out / f"{name}.json") for name in ("policy", "models", "budget")}
    tables = {}
    for i in range(k + 1):
        tables[f"values_stage_{i}"] = t = checks.read_csv(out / f"values_stage_{i}.csv", ["pi", "value"])
        require(t.shape[0] == m, f"values_stage_{i}.csv has {t.shape[0]} rows, want {m}")
        tables[f"values2_without_stage_{i}"] = t = checks.read_csv(
            out / f"values2_without_stage_{i}.csv", ["pi2", "value"])
        require(t.shape[0] == m, f"values2_without_stage_{i}.csv has {t.shape[0]} rows, want {m}")
        tables[f"values2_with_stage_{i}"] = t = checks.read_csv(
            out / f"values2_with_stage_{i}.csv", ["pi2", "pi1", "value"])
        require(t.shape[0] == m * m, f"values2_with_stage_{i}.csv has {t.shape[0]} rows, want {m * m}")
    return {"docs": docs, "tables": tables}


class _GcwVariant:
    """Shared helpers of the workloads that start from the bundled gcw config."""

    def __init__(self, work: Path):
        self.work = work
        self.template = json.loads(GCW_CONFIG.read_text(encoding="utf-8"))
        self.k = len(self.template["primary"]["stages"])

    def write_config(self, name: str, prior=None, lam=None, budget=None) -> Path:
        doc = json.loads(json.dumps(self.template))
        if prior is not None:
            doc["primary"]["prior"] = prior
            doc["secondary"]["prior"] = prior
        if budget is not None:
            del doc["lambda"]
            doc["budget"] = budget
        elif lam is not None:
            doc["lambda"] = lam
        path = self.work / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path


# ---------------------------------------------------------------------------
# gcw-design
# ---------------------------------------------------------------------------

@dataclass
class DesignInput:
    config: Path
    out: Path
    prior: float
    lam: float
    grid: int


class GcwDesign(_GcwVariant):
    """`optimize` then `check` on a seeded gcw variant at M = 200."""

    name = "gcw-design"
    GRID = 200
    # lambda = 0.0043 at the config prior gives E1 30.1 mJ, E2 18.8 mJ; this
    # box keeps both applications past stage 1 (near 0.005 the primary stops)
    PRIOR = (0.095, 0.110)
    LAMBDA = (0.0040, 0.0046)

    def warm_up(self) -> Outcome:
        return self.run(self._input(self.template["primary"]["prior"], self.template["lambda"], 20, "warm"))

    def make_input(self, rng: np.random.Generator) -> DesignInput:
        return self._input(float(rng.uniform(*self.PRIOR)), float(rng.uniform(*self.LAMBDA)), self.GRID, "op")

    def _input(self, prior, lam, grid, tag) -> DesignInput:
        config = self.write_config(f"{tag}.json", prior=prior, lam=lam)
        return DesignInput(config, _fresh(self.work / f"{tag}-out"), prior, lam, grid)

    def run(self, inp: DesignInput) -> Outcome:
        args = ["--config", inp.config, "--grid", inp.grid, "--out-dir", inp.out]
        # the forward passes that budget.json is priced with
        with _capturing(budget, ("forward_primary", "forward_secondary")) as forward:
            code = _quiet_main(["optimize", *args])
        if code == 0:
            code = _quiet_main(["check", *args])
        return Outcome(code, value=forward, artifact_bytes=_dir_bytes(inp.out))

    def check(self, inp: DesignInput, outcome: Outcome) -> None:
        m = inp.grid
        art = _check_optimize_artifacts(inp.out, m, self.k)
        policy, models, budget = (art["docs"][n] for n in ("policy", "models", "budget"))
        tables = art["tables"]
        app = self.template["primary"]
        cm, ca = float(app["miss_cost"]), float(app["fa_cost"])
        k = self.k
        points = np.linspace(0.0, 1.0, m)

        require(policy["lambda"] == inp.lam, "policy.json lambda differs from the input")
        require(policy["primary"]["thresholds"][-1] == ca / (ca + cm), "tau_K != C_A/(C_A+C_M) bitwise")
        require(policy["secondary"]["final_threshold"] == ca / (ca + cm),
                "secondary tau_K != C_A/(C_A+C_M) bitwise")

        # independent value iteration on the emitted robust models
        stages = _stages(models["primary"])
        values, margins = checks.value_iteration(points, stages, cm, ca, inp.lam)
        for i in range(k + 1):
            t = tables[f"values_stage_{i}"]
            require(np.abs(t[:, 0] - points).max() <= 1e-15, f"values_stage_{i}.csv grid is not uniform")
            err = np.abs(t[:, 1] - values[i]).max()
            require(err <= 1e-9, f"values_stage_{i}.csv differs from value iteration by {err:.3e}")
            checks.concave_with_slope_bound(t[:, 1], points, cm)
            checks.concave_with_slope_bound(tables[f"values2_without_stage_{i}"][:, 1], points, cm)
            checks.concave_with_slope_bound(tables[f"values2_with_stage_{i}"][:, 2].reshape(m, m), points, cm)

        # twin property: no own feature wherever the shared one is on offer
        check_doc = checks.read_json(inp.out / "check.json")
        require(check_doc["sharing_all_pass"] is True, "check.json does not report sharing_all_pass")
        sec = policy["secondary"]
        require(np.all(np.array(sec["delta0"]) == USE_SHARED), "stage-0 decision is not the shared feature")
        for i in range(1, k):
            acts = np.array(sec["actions_with"][i - 1])
            offered = margins[i - 1] > 1e-9  # primary surely continues in this column
            require(not np.any(acts[:, offered] == USE_OWN),
                    f"USE_OWN chosen at stage {i} where the shared feature is on offer")

        # the forward passes are the adjoint of the backward pass
        forward = outcome.value
        require(len(forward["forward_primary"]) == 1 and len(forward["forward_secondary"]) == 1,
                "optimize did not price budget.json with one forward pass per application")
        (b1, e1, _), (b2, e2, _) = forward["forward_primary"][0], forward["forward_secondary"][0]
        v1 = float(np.interp(inp.prior, points, tables["values_stage_0"][:, 1]))
        v2 = checks.interp2(tables["values2_with_stage_0"][:, 2].reshape(m, m), points, points,
                            inp.prior, inp.prior)
        require(checks.close(b1.total, v1, 1e-9), f"forward_primary total {b1.total!r} != V0(prior) {v1!r}")
        require(checks.close(b2.total, v2, 1e-9), f"forward_secondary total {b2.total!r} != V0(prior) {v2!r}")
        require(e1 == budget["E1_mJ"] and e2 == budget["E2_mJ"], "budget.json energies are not the forward passes'")
        require(e1 > stages[0][2] and e2 > 0.0, "input left an application stopping after stage 1")


# ---------------------------------------------------------------------------
# gcw-budget
# ---------------------------------------------------------------------------

@dataclass
class BudgetInput:
    config: Path
    out: Path
    budget_mj: float
    baseline_mj: float
    tolerance: float
    grid: int


class GcwBudget(_GcwVariant):
    """`optimize` with a budget block in place of lambda, at the bundled M = 100."""

    name = "gcw-budget"
    LAMBDA0 = (0.0040, 0.0046)
    TOLERANCE = 1e-3

    def __init__(self, work: Path):
        super().__init__(work)
        self.baseline = float(self.template["baseline_mW"]) * float(self.template["frame_ms"]) / 1000.0

    def warm_up(self) -> Outcome:
        return self.run(self._input(self.template["lambda"], 10, "warm"))

    def make_input(self, rng: np.random.Generator) -> BudgetInput:
        return self._input(float(rng.uniform(*self.LAMBDA0)), int(self.template["grid_m"]), "op")

    def _input(self, lam0, grid, tag) -> BudgetInput:
        """A budget met exactly: the consumption of the design at lam0."""
        probe = _fresh(self.work / f"{tag}-probe")
        code = _quiet_main(["optimize", "--config", self.write_config(f"{tag}-probe.json", lam=lam0),
                            "--grid", grid, "--out-dir", probe])
        if code != 0:
            raise RuntimeError(f"input generation: optimize at lambda {lam0} exited {code}")
        at = checks.read_json(probe / "budget.json")
        target = at["E1_mJ"] + at["E2_mJ"]
        budget_mj = target + self.baseline
        while budget_mj - self.baseline < target:  # the solver compares budget - baseline
            budget_mj = float(np.nextafter(budget_mj, np.inf))
        spec = {"budget_mJ": budget_mj, "baseline_mJ": self.baseline, "tolerance": self.TOLERANCE}
        config = self.write_config(f"{tag}.json", budget=spec)
        return BudgetInput(config, _fresh(self.work / f"{tag}-out"), budget_mj, self.baseline,
                           self.TOLERANCE, grid)

    def run(self, inp: BudgetInput) -> Outcome:
        code = _quiet_main(["optimize", "--config", inp.config, "--grid", inp.grid, "--out-dir", inp.out])
        return Outcome(code, artifact_bytes=_dir_bytes(inp.out))

    def check(self, inp: BudgetInput, outcome: Outcome) -> None:
        art = _check_optimize_artifacts(inp.out, inp.grid, self.k)
        b = art["docs"]["budget"]
        target = inp.budget_mj - inp.baseline_mj
        used = b["E1_mJ"] + b["E2_mJ"]
        require(b["total_mJ"] <= inp.budget_mj, f"total {b['total_mJ']!r} exceeds budget {inp.budget_mj!r}")
        require(abs(used - target) <= inp.tolerance * target,
                f"consumption {used!r} not within {inp.tolerance} of target {target!r}")
        require(checks.close(used + b["baseline_mJ"], b["total_mJ"], 1e-12 * b["total_mJ"]),
                "E1 + E2 + baseline != total")
        require(b["baseline_mJ"] == inp.baseline_mj, "baseline differs from the budget block")
        require(b["slack"] is False and 0.0 < b["lambda"] < 1.0, "budget solve did not bisect")
        require(art["docs"]["policy"]["lambda"] == b["lambda"], "policy.json and budget.json disagree on lambda")


# ---------------------------------------------------------------------------
# oracle-stream
# ---------------------------------------------------------------------------

def _random_pmf(rng, bins, floor=0.05):
    a = rng.random(bins) + floor
    b = rng.random(bins) + floor
    return ConditionalPmf(p0=a / a.sum(), p1=b / b.sum())


def _random_app(rng, k, bins, u_scale=0.06):
    for _ in range(50):
        stages = tuple(
            StageModel(
                nominal=_random_pmf(rng, bins),
                uncertainty=UncertaintyParams(*(rng.random(4) * u_scale)) if i < k - 1 else UncertaintyParams(),
                cost_mj=float(rng.random() * 3.0),
            )
            for i in range(k)
        )
        app = AppConfig(prior=float(rng.uniform(0.05, 0.6)), miss_cost=float(rng.uniform(0.5, 3.0)),
                        fa_cost=float(rng.uniform(0.5, 3.0)), stages=stages)
        try:
            robust.robustify_app(app)
            return app
        except DegenerateUncertaintyError:
            continue
    raise RuntimeError("could not draw a solvable random instance")


class OracleStream:
    """Random tiny two-application instances: exact-grid DP against enumeration.

    The stream is drawn like the acceptance suite's criterion-1 stream: K in
    {1, 2, 3}, 2-4 bins (2 when K = 3), lambda in [0, 0.4), half twin and
    half independent.  Instances whose robustification is degenerate are
    redrawn at generation time, so every operation has an answer.
    """

    name = "oracle-stream"

    def __init__(self, work: Path):
        self.work = work

    def warm_up(self) -> Outcome:
        rng = np.random.default_rng([0x5eed, 0])
        return self.run(self.make_input(rng))

    def make_input(self, rng: np.random.Generator) -> sim.CascadeSystem:
        while True:
            k = int(rng.integers(1, 4))
            bins = 2 if k == 3 else int(rng.integers(2, 5))
            app1 = _random_app(rng, k, bins)
            lam = float(rng.uniform(0.0, 0.4))
            if rng.random() < 0.5:
                return sim.CascadeSystem(app1, lam, secondary=app1, shared=app1.stages, coupling="twin")
            app2 = _random_app(rng, k, bins)
            shared = tuple(StageModel(nominal=_random_pmf(rng, bins), uncertainty=s.uncertainty, cost_mj=0.0)
                           for s in app1.stages)
            try:
                robust.robustify_app(replace(app2, stages=shared))
            except DegenerateUncertaintyError:
                continue
            return sim.CascadeSystem(app1, lam, secondary=app2, shared=shared, coupling="independent")

    def run(self, system: sim.CascadeSystem) -> Outcome:
        rapp1 = robust.robustify_app(system.primary)
        pr = dp.optimize_primary(rapp1, system.lam, sim.exact_grid_primary(rapp1))
        rapp2 = robust.robustify_app(system.secondary)
        shared = tuple(robust.robustify_app(replace(system.secondary, stages=system.shared)).stages)
        sr = dp.optimize_secondary(rapp2, shared, pr, system.lam, grid2=sim.exact_grid_secondary(rapp2, shared))
        res = sim.brute_force_optimum(system, primary_result=pr, prepared=(rapp1, rapp2, shared))
        return Outcome(0, value=(pr, sr, res))

    def check(self, system: sim.CascadeSystem, outcome: Outcome) -> None:
        pr, sr, res = outcome.value
        d1 = abs(pr.value_at(system.primary.prior) - res["primary_risk"])
        i2 = int(np.searchsorted(sr.grid2.points, system.secondary.prior))
        j1 = int(np.searchsorted(sr.grid1.points, system.primary.prior))
        require(sr.grid2.points[i2] == system.secondary.prior and sr.grid1.points[j1] == system.primary.prior,
                "a prior is missing from its exact reachable grid")
        d2 = abs(float(sr.with_values[0][i2, j1]) - res["secondary_risk"])
        require(d1 <= 1e-9, f"primary |DP - enumeration| = {d1:.3e}")
        require(d2 <= 1e-9, f"secondary |DP - enumeration| = {d2:.3e}")


# ---------------------------------------------------------------------------
# gcw-montecarlo
# ---------------------------------------------------------------------------

@dataclass
class SimInput:
    seed: int
    trials: int
    out: Path


class GcwMonteCarlo:
    """`simulate --trials 1000000` on the bundled config with a fresh seed per operation."""

    name = "gcw-montecarlo"
    TRIALS = 1_000_000
    Z = 4.0

    def __init__(self, work: Path):
        self.work = work
        self.config = GCW_CONFIG
        solved = cli.solve_system(cli.load_config(str(self.config)))
        self.lam = solved.lam
        self.exact = self._exact_primary(solved)
        self.own_costs = sum(s.cost_mj for s in solved.app2.stages)

    @staticmethod
    def _exact_primary(solved):
        """Exact primary (risk, energy, miss, fa) of the published policy's rule."""
        app, pr = solved.app1, solved.primary
        points = pr.grid.points
        k = app.k
        rules = [
            (lambda pi, i=i: checks.grid_rule(points, pr.continue_mask[i - 1], pr.thresholds[i - 1], pi))
            for i in range(1, k)
        ]
        return checks.primary_path_expectation(
            app.prior,
            [(s.nominal.p0, s.nominal.p1) for s in app.stages],
            [likelihood_ratios(s.effective) for s in app.stages],
            [s.cost_mj for s in app.stages],
            app.miss_cost, app.fa_cost, solved.lam,
            rules,
            lambda pi: checks.grid_rule(points, pr.declare_mask, pr.thresholds[k - 1], pi),
            posterior_update_array,
        )

    def warm_up(self) -> Outcome:
        return self.run(SimInput(1, 1000, _fresh(self.work / "warm-out")))

    def make_input(self, rng: np.random.Generator) -> SimInput:
        return SimInput(int(rng.integers(2**31)), self.TRIALS, _fresh(self.work / "op-out"))

    def run(self, inp: SimInput) -> Outcome:
        code = _quiet_main(["simulate", "--config", self.config, "--trials", inp.trials,
                            "--seed", inp.seed, "--out-dir", inp.out])
        return Outcome(code, artifact_bytes=_dir_bytes(inp.out))

    def check(self, inp: SimInput, outcome: Outcome) -> None:
        rep = checks.read_json(inp.out / "report.json")
        require(rep["n_trials"] == inp.trials and rep["seed"] == inp.seed, "report.json trials/seed mismatch")
        p, s = rep["primary"], rep["secondary"]
        risk, energy, _, _ = self.exact
        require(abs(p["risk_mean"] - risk) <= self.Z * p["risk_stderr"],
                f"primary risk {p['risk_mean']!r} vs exact {risk!r} (SE {p['risk_stderr']!r})")
        require(abs(p["energy_mean"] - energy) <= self.Z * p["energy_stderr"],
                f"primary energy {p['energy_mean']!r} vs exact {energy!r} (SE {p['energy_stderr']!r})")
        require(checks.close(s["risk_mean"], s["miss"] + s["false_alarm"] + self.lam * s["energy_mean"], 1e-9),
                "secondary risk != miss + false alarm + lambda * energy")
        require(0.0 <= s["energy_mean"] <= self.own_costs, "secondary energy outside [0, sum of own costs]")
        require(checks.close(rep["energy_total_mean_mJ"], p["energy_mean"] + s["energy_mean"], 1e-9),
                "total energy != E1 + E2")


WORKLOADS = {w.name: w for w in (GcwDesign, GcwBudget, OracleStream, GcwMonteCarlo)}
