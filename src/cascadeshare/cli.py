"""Command-line entrypoint: config parsing, orchestration, artifact emission.

Subcommands: optimize, simulate, twin, estimate, check, sweep.  All inputs
come from a single JSON config with explicit units in field names; outputs
are JSON/CSV files whose floats use shortest round-trip decimal form, so a
parse/serialize cycle is byte-stable.

Exit codes: 0 success, 2 config/usage error, 3 solver failure (degenerate
uncertainty), 4 enumeration cap exceeded, 5 budget bracket failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .models import AppConfig, estimate_pmf, pmf_from_json, pmf_to_json
from .robust import (
    DegenerateUncertaintyError,
    StageModel,
    UncertaintyParams,
    robustify_app,
    stage_model_to_json,
)
from .dp import (
    Grid,
    cascade_optimality_primary,
    cascade_optimality_secondary,
    check_sharing_condition,
    forward_primary,
    forward_secondary,
    optimize_primary,
    optimize_secondary,
)
from .budget import BracketFailureError, BudgetSpec, cost_from_components, expected_resource, solve_lambda
from .sim import (
    CascadeSystem,
    EnumerationCapError,
    augmented_optimum,
    brute_force_optimum,
    simulate,
    twin_experiment,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_ENUMERATION = 4
EXIT_BRACKET = 5


class ConfigError(ValueError):
    pass


def _stage_from_doc(doc: dict) -> StageModel:
    if "cost_mJ" in doc and "cost_components" in doc:
        raise ConfigError("give either cost_mJ or cost_components, not both")
    if "cost_components" in doc:
        cost = cost_from_components(doc["cost_components"])
    else:
        cost = float(doc.get("cost_mJ", 0.0))
    nominal, _ = pmf_from_json(doc["nominal"])
    u = UncertaintyParams(**doc.get("uncertainty", {}))
    return StageModel(nominal=nominal, uncertainty=u, cost_mj=cost)


def _app_from_doc(doc: dict) -> AppConfig:
    return AppConfig(
        prior=float(doc["prior"]),
        miss_cost=float(doc["miss_cost"]),
        fa_cost=float(doc["fa_cost"]),
        stages=tuple(_stage_from_doc(s) for s in doc["stages"]),
    )


@dataclass
class SystemConfig:
    """Parsed and validated run configuration."""

    primary: AppConfig
    secondary: Optional[AppConfig]
    shared: Optional[tuple]
    grid_m: int
    lam: Optional[float]
    budget: Optional[BudgetSpec]
    coupling: str
    seed: int
    trials: int
    priors: list
    baseline_mj: float = 0.0

    @classmethod
    def from_json(cls, doc: dict) -> "SystemConfig":
        if ("lambda" in doc) == ("budget" in doc):
            raise ConfigError("exactly one of 'lambda' or 'budget' must be present")
        budget = None
        if "budget" in doc:
            b = doc["budget"]
            budget = BudgetSpec(
                budget_mj=float(b["budget_mJ"]),
                baseline_mj=float(b.get("baseline_mJ", 0.0)),
                lambda_bracket=tuple(b.get("lambda_bracket", (0.0, 1.0))),
                tolerance=float(b.get("tolerance", 1e-3)),
            )
        primary = _app_from_doc(doc["primary"])
        secondary = None
        shared = None
        if "secondary" in doc:
            sec = doc["secondary"]
            secondary = _app_from_doc(sec)
            if "shared" not in sec:
                raise ConfigError("secondary config must carry per-stage shared-feature models")
            shared = tuple(_stage_from_doc(s) for s in sec["shared"])
            if secondary.k != primary.k or len(shared) != primary.k:
                raise ConfigError("stage count K must match across applications")
        if budget is not None:
            baseline = budget.baseline_mj
        elif "baseline_mW" in doc:
            baseline = float(doc["baseline_mW"]) * float(doc.get("frame_ms", 32.0)) / 1000.0
        else:
            baseline = float(doc.get("baseline_mJ", 0.0))
        return cls(
            primary=primary,
            secondary=secondary,
            shared=shared,
            grid_m=int(doc.get("grid_m", 100)),
            lam=float(doc["lambda"]) if "lambda" in doc else None,
            budget=budget,
            coupling=doc.get("coupling", "twin"),
            seed=int(doc.get("seed", 0)),
            trials=int(doc.get("trials", 100_000)),
            priors=[float(p) for p in doc.get("priors", [])],
            baseline_mj=baseline,
        )


def load_config(path: str) -> SystemConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        return SystemConfig.from_json(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config {path}: {exc}") from exc


def _run_config(args) -> SystemConfig:
    """The command's config, with a `--budget-mJ` override installed as its budget.

    The override replaces the config's multiplier or budget amount and
    keeps its baseline, bracket and tolerance, so every command solves the
    budget itself: `budget.json` reports the solution and `twin` solves one
    multiplier per prior.
    """
    cfg = load_config(args.config)
    if args.budget_mj is None:
        return cfg
    if args.lam is not None:
        raise ConfigError("give either --lambda or --budget-mJ, not both")
    if cfg.budget is not None:
        spec = replace(cfg.budget, budget_mj=float(args.budget_mj))
    else:
        spec = BudgetSpec(budget_mj=float(args.budget_mj), baseline_mj=cfg.baseline_mj)
    return replace(cfg, lam=None, budget=spec)


@dataclass
class Solved:
    lam: float
    grid: Grid
    app1: AppConfig
    app2: Optional[AppConfig]
    shared: Optional[tuple]
    primary: "object"
    secondary: "object"
    budget_solution: Optional[object]
    baseline_mj: float = 0.0


def solve_system(cfg: SystemConfig, lam_override=None, grid_override=None) -> Solved:
    grid = Grid.uniform(int(grid_override) if grid_override else cfg.grid_m)
    budget_solution = None
    if lam_override is not None:
        lam = float(lam_override)
    elif cfg.lam is not None:
        lam = cfg.lam
    else:
        budget_solution = solve_lambda(
            cfg.budget, cfg.primary, grid,
            secondary_app=cfg.secondary,
            shared_stages=cfg.shared,
        )
        lam = budget_solution.lam

    app1 = robustify_app(cfg.primary)
    pr = optimize_primary(app1, lam, grid)
    app2 = None
    shared = None
    sr = None
    if cfg.secondary is not None:
        app2 = robustify_app(cfg.secondary)
        shared = tuple(robustify_app(replace(cfg.secondary, stages=cfg.shared)).stages)
        sr = optimize_secondary(app2, shared, pr, lam)
    return Solved(lam, grid, app1, app2, shared, pr, sr, budget_solution, cfg.baseline_mj)


def _fmt(x) -> str:
    return repr(float(x))


def _jsonable(obj):
    """Replace non-finite floats with None so emitted files are strict JSON."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return _jsonable(obj.item())
    return obj


def _write_json(path: Path, doc) -> None:
    text = json.dumps(_jsonable(doc), indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8", newline="\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])


def policy_to_json(solved: Solved) -> dict:
    pr = solved.primary
    doc = {
        "lambda": solved.lam,
        "grid_m": solved.grid.m,
        "primary": {
            "thresholds": [float(t) for t in pr.thresholds],
            "bounds": [[lo, hi] for lo, hi in pr.bounds],
        },
    }
    if solved.secondary is not None:
        sr = solved.secondary
        doc["secondary"] = {
            "final_threshold": sr.final_threshold,
            "eta": sr.eta.tolist(),
            "tau_without": sr.tau_without.tolist(),
            "delta0": sr.delta0.tolist(),
            "actions_with": sr.actions_with.tolist(),
            "actions_without": sr.actions_without.astype(int).tolist(),
            "bounds": [[lo, hi] for lo, hi in sr.bounds2],
        }
    return doc


def emit_optimize_artifacts(solved: Solved, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "policy.json", policy_to_json(solved))
    models_doc = {"primary": [stage_model_to_json(s) for s in solved.app1.stages]}
    if solved.app2 is not None:
        models_doc["secondary"] = [stage_model_to_json(s) for s in solved.app2.stages]
        models_doc["shared"] = [stage_model_to_json(s) for s in solved.shared]
    _write_json(out_dir / "models.json", models_doc)
    pr = solved.primary
    for i in range(pr.values.shape[0]):
        _write_csv(
            out_dir / f"values_stage_{i}.csv",
            ["pi", "value"],
            zip(pr.grid.points.tolist(), pr.values[i].tolist()),
        )
    if solved.secondary is not None:
        sr = solved.secondary
        for i in range(sr.without_values.shape[0]):
            _write_csv(
                out_dir / f"values2_without_stage_{i}.csv",
                ["pi2", "value"],
                zip(sr.grid2.points.tolist(), sr.without_values[i].tolist()),
            )
            rows = []
            for a, pi2 in enumerate(sr.grid2.points.tolist()):
                for b, pi1 in enumerate(sr.grid1.points.tolist()):
                    rows.append((pi2, pi1, float(sr.with_values[i][a, b])))
            _write_csv(out_dir / f"values2_with_stage_{i}.csv", ["pi2", "pi1", "value"], rows)

    e1, e2, total = expected_resource(
        solved.primary, solved.app1, solved.secondary, solved.app2, solved.shared,
        baseline_mj=solved.baseline_mj,
    )
    budget_doc = {
        "lambda": solved.lam,
        "E1_mJ": e1,
        "E2_mJ": e2,
        "baseline_mJ": solved.baseline_mj,
        "total_mJ": total,
        "slack": solved.budget_solution.slack if solved.budget_solution else False,
    }
    _write_json(out_dir / "budget.json", budget_doc)


def _cmd_optimize(args) -> int:
    cfg = _run_config(args)
    solved = solve_system(cfg, args.lam, args.grid)
    emit_optimize_artifacts(solved, Path(args.out_dir))
    print(json.dumps({"status": "ok", "lambda": solved.lam, "out_dir": args.out_dir}))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg = _run_config(args)
    solved = solve_system(cfg, args.lam, args.grid)
    trials = args.trials if args.trials else cfg.trials
    seed = args.seed if args.seed is not None else cfg.seed
    system = CascadeSystem(
        cfg.primary, solved.lam,
        secondary=cfg.secondary, shared=cfg.shared, coupling=cfg.coupling,
    )
    report = simulate(
        system, solved.primary, solved.secondary,
        n_trials=trials, seed=seed,
        no_sharing=args.no_sharing, collect_trials=args.dump_trials,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "n_trials": report.n_trials,
        "seed": report.seed,
        "lambda": report.lam,
        "primary": report.primary.__dict__,
        "secondary": report.secondary.__dict__ if report.secondary else None,
        "energy_total_mean_mJ": report.energy_total_mean,
        "energy_total_stderr_mJ": report.energy_total_stderr,
    }
    _write_json(out_dir / "report.json", doc)
    if args.dump_trials:
        _write_csv(
            out_dir / "trials.csv",
            ["trial", "x1", "x2", "actions1", "actions2", "xhat1", "xhat2",
             "stop_stage1", "stop_stage2", "energy_mJ"],
            [
                (t.trial, t.x1, t.x2, t.actions1, t.actions2, t.xhat1, t.xhat2,
                 t.stop_stage1, t.stop_stage2, t.energy_mj)
                for t in report.trials
            ],
        )
    print(json.dumps({"status": "ok", "risk1": report.primary.risk_mean}))
    return EXIT_OK


def _cmd_twin(args) -> int:
    cfg = _run_config(args)
    priors = [float(p) for p in args.priors.split(",")] if args.priors else (cfg.priors or [cfg.primary.prior])
    grid = Grid.uniform(int(args.grid) if args.grid else cfg.grid_m)
    lam = args.lam if args.lam is not None else cfg.lam
    rows = twin_experiment(
        cfg.primary, priors, grid,
        lam=lam, budget=None if lam is not None else cfg.budget,
        trials=args.trials or 0, seed=args.seed if args.seed is not None else cfg.seed,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "report.json", {"rows": rows})
    header = list(rows[0].keys())
    _write_csv(out_dir / "twin.csv", header, [[r[k] for k in header] for r in rows])
    print(json.dumps({"status": "ok", "rows": len(rows)}))
    return EXIT_OK


def _cmd_estimate(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for path in args.scores:
        scores, labels = [], []
        try:
            with open(path, "r", encoding="utf-8") as fh:
                reader = csv.DictReader(fh)
                if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != ["score", "label"]:
                    raise ConfigError(f"{path}: expected header 'score,label'")
                for row in reader:
                    scores.append(float(row["score"]))
                    labels.append(int(row["label"]))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read score stream {path}: {exc}") from exc
        model, edges = estimate_pmf(scores, labels, args.bins)
        doc = pmf_to_json(model, edges)
        _write_json(out_dir / (Path(path).stem + "_pmf.json"), doc)
    print(json.dumps({"status": "ok", "files": len(args.scores)}))
    return EXIT_OK


def _cmd_check(args) -> int:
    cfg = _run_config(args)
    solved = solve_system(cfg, args.lam, args.grid)
    doc = {"lambda": solved.lam}
    doc["cascade_optimality_primary"] = cascade_optimality_primary(solved.primary, solved.app1)
    if solved.secondary is not None:
        checks = check_sharing_condition(solved.secondary, solved.app2, solved.shared)
        doc["sharing"] = [
            {"stage": c.stage, "passes": c.passes, "worst_margin": c.worst_margin,
             "reference_margin": c.reference_margin}
            for c in checks
        ]
        doc["sharing_all_pass"] = all(c.passes for c in checks)
        doc["cascade_optimality_secondary"] = cascade_optimality_secondary(solved.secondary, solved.app2)
    if args.allow_early_positive:
        system = CascadeSystem(cfg.primary, solved.lam, secondary=cfg.secondary,
                               shared=cfg.shared, coupling=cfg.coupling)
        base = brute_force_optimum(system)
        aug = augmented_optimum(system)
        doc["early_positive_experiment"] = {
            "cascade_optimum": base["total_risk"],
            "augmented_optimum": aug["total_risk"],
            "improves": bool(aug["total_risk"] < base["total_risk"] - 1e-12),
        }
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "check.json", doc)
    print(json.dumps(doc))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _run_config(args)
    priors = [float(p) for p in args.priors.split(",")] if args.priors else (cfg.priors or [cfg.primary.prior])
    rows = []
    for p in priors:
        cfg_p = replace(
            cfg,
            primary=replace(cfg.primary, prior=p),
            secondary=replace(cfg.secondary, prior=p) if cfg.secondary else None,
        )
        solved = solve_system(cfg_p, args.lam, args.grid)
        b1, e1, _ = forward_primary(solved.primary, solved.app1)
        row = {
            "prior": p, "lambda": solved.lam,
            "miss1": b1.miss, "fa1": b1.false_alarm,
            "resource1_weighted": b1.weighted_resource, "risk1": b1.total,
            "E1_mJ": e1,
        }
        if solved.secondary is not None:
            b2, e2, _ = forward_secondary(solved.secondary, solved.app2, solved.shared, solved.app1.prior)
            row.update(
                detection2=b2.detection, resource2_weighted=b2.weighted_resource,
                risk2=b2.total, E2_mJ=e2,
            )
        rows.append(row)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = list(rows[0].keys())
    _write_csv(out_dir / "sweep.csv", header, [[r[k] for k in header] for r in rows])
    print(json.dumps({"status": "ok", "rows": len(rows)}))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascadeshare",
        description="Optimize and validate two-application cascade detectors with feature sharing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="system config JSON")
            p.add_argument("--lambda", dest="lam", type=float, default=None,
                           help="override the resource multiplier")
            p.add_argument("--budget-mJ", dest="budget_mj", type=float, default=None,
                           help="override the energy budget (mJ per frame)")
            p.add_argument("--grid", type=int, default=None, help="override belief grid size M")
        p.add_argument("--out-dir", default="out", help="artifact directory")

    p = sub.add_parser("optimize", help="solve thresholds; emit policy.json, values CSVs, budget.json")
    common(p)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("simulate", help="Monte Carlo run of the optimized system; emit report.json")
    common(p)
    p.add_argument("--trials", type=int, default=None, help="number of Monte Carlo trials")
    p.add_argument("--seed", type=int, default=None, help="simulation seed")
    p.add_argument("--no-sharing", action="store_true", help="ablate the shared feature")
    p.add_argument("--dump-trials", action="store_true", help="also write trials.csv")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("twin", help="clone the primary as secondary and sweep priors")
    common(p)
    p.add_argument("--priors", default=None, help="comma-separated prior sweep")
    p.add_argument("--trials", type=int, default=None, help="Monte Carlo cross-check trials")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_twin)

    p = sub.add_parser("estimate", help="estimate PMFs from score,label CSV streams")
    p.add_argument("scores", nargs="+", help="score stream CSVs (header 'score,label')")
    p.add_argument("--bins", type=int, default=100, help="quantization level")
    common(p, needs_config=False)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("check", help="sharing-condition and cascade-optimality checks")
    common(p)
    p.add_argument("--allow-early-positive", action="store_true",
                   help="also compare against enumeration with early positives (tiny instances)")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("sweep", help="per-prior risk-component CSV")
    common(p)
    p.add_argument("--priors", default=None, help="comma-separated prior sweep")
    p.set_defaults(func=_cmd_sweep)
    return parser


def _fail(code: int, name: str, exc: Exception) -> int:
    sys.stderr.write(json.dumps({"error": name, "message": str(exc)}) + "\n")
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, "config_error", exc)
    except DegenerateUncertaintyError as exc:
        return _fail(EXIT_SOLVER, "solver_failure", exc)
    except EnumerationCapError as exc:
        return _fail(EXIT_ENUMERATION, "enumeration_cap", exc)
    except BracketFailureError as exc:
        return _fail(EXIT_BRACKET, "bracket_failure", exc)
    except ValueError as exc:
        return _fail(EXIT_CONFIG, "config_error", exc)


if __name__ == "__main__":
    sys.exit(main())
