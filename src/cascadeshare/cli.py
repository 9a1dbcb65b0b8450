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
from itertools import chain, repeat
from dataclasses import replace
from pathlib import Path

import numpy as np

from .models import AppConfig, estimate_pmf, pmf_from_json, pmf_to_json
# robustify_app, optimize_*, forward_*, expected_resource and solve_lambda are imported only so
# that perfbench/spans.py can trace them under this module's name
from .robust import (
    DegenerateUncertaintyError,
    StageModel,
    UncertaintyParams,
    robustify_app,
    stage_model_to_json,
)
from .dp import (
    cascade_optimality_primary,
    cascade_optimality_secondary,
    check_sharing_condition,
    forward_primary,
    forward_secondary,
    optimize_primary,
    optimize_secondary,
)
from .budget import (BracketFailureError, BudgetSpec, Solved, cost_from_components, expected_resource,
                     solve_lambda, solve_system)
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


def _system_from_doc(doc: dict) -> CascadeSystem:
    """The system a parsed config document describes; raises on invalid input."""
    budget = None
    if "budget" in doc:
        b = doc["budget"]
        budget = BudgetSpec(
            budget_mj=float(b["budget_mJ"]),
            lambda_bracket=tuple(b.get("lambda_bracket", (0.0, 1.0))),
            tolerance=float(b.get("tolerance", 1e-3)),
        )
    secondary = shared = None
    if "secondary" in doc:
        secondary = _app_from_doc(doc["secondary"])
        if "shared" in doc["secondary"]:
            shared = tuple(_stage_from_doc(s) for s in doc["secondary"]["shared"])
    if budget is not None:
        baseline = float(doc["budget"].get("baseline_mJ", 0.0))  # a budget block sets the one baseline
    elif "baseline_mW" in doc:
        baseline = float(doc["baseline_mW"]) * float(doc.get("frame_ms", 32.0)) / 1000.0
    else:
        baseline = float(doc.get("baseline_mJ", 0.0))
    return CascadeSystem(
        _app_from_doc(doc["primary"]),
        float(doc["lambda"]) if "lambda" in doc else None,
        secondary=secondary,
        shared=shared,
        coupling=doc.get("coupling", "twin"),
        budget=budget,
        baseline_mj=baseline,
        grid_m=doc.get("grid_m", 100),
        seed=doc.get("seed", 0),
        trials=doc.get("trials", 100_000),
        priors=tuple(float(p) for p in doc.get("priors", [])),
    )


def load_config(path: str) -> CascadeSystem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        return _system_from_doc(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config {path}: {exc}") from exc


def _run_config(args) -> CascadeSystem:
    """The command's system, with its `--lambda`, `--budget-mJ`, `--grid`, `--seed` and `--trials` overrides installed.

    A `--budget-mJ` override replaces the config's multiplier or budget
    amount and keeps its baseline, bracket and tolerance, so every command
    solves the budget itself: `budget.json` reports the solution and `twin`
    solves one multiplier per prior.  A `--lambda` override replaces the
    budget.
    """
    system = load_config(args.config)
    overrides = {"grid_m": args.grid, "seed": getattr(args, "seed", None), "trials": getattr(args, "trials", None)}
    system = replace(system, **{name: value for name, value in overrides.items() if value is not None})
    if args.budget_mj is None:
        return system if args.lam is None else replace(system, lam=args.lam, budget=None)
    if args.lam is not None:
        raise ConfigError("give either --lambda or --budget-mJ, not both")
    if system.budget is not None:
        spec = replace(system.budget, budget_mj=float(args.budget_mj))
    else:
        spec = BudgetSpec(budget_mj=float(args.budget_mj))
    return replace(system, lam=None, budget=spec)


def _priors(args, system: CascadeSystem) -> list:
    """The prior sweep: `--priors`, else the config's list, else its primary prior."""
    if args.priors:
        return [float(p) for p in args.priors.split(",")]
    return list(system.priors) or [system.primary.prior]


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


def _numpy_item(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_json(path: Path, doc) -> None:
    """`doc` as strict JSON; only a document with a non-finite float is walked by `_jsonable` first."""
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False, default=_numpy_item)
    except ValueError:
        text = json.dumps(_jsonable(doc), indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8", newline="\n")


def _csv_field(v) -> str:
    """One CSV field as `csv.writer` writes it, with floats in shortest round-trip form."""
    if isinstance(v, float):
        return repr(float(v))
    if v is None:
        return ""
    text = str(v)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_fields(column) -> list[str]:
    """`_csv_field` of each of a column's items; an array formats each distinct value once."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "biufU":
        # floats are keyed by their bits, so -0.0 and 0.0 keep their own fields
        keys = column.view(f"u{column.itemsize}") if column.dtype.kind == "f" else column
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        return np.array([_csv_field(v) for v in column[first].tolist()], dtype=object)[inverse].tolist()
    return [_csv_field(v) for v in (column.tolist() if isinstance(column, np.ndarray) else column)]


def _write_csv(path: Path, header: list[str], columns) -> None:
    """`header` and the rows of `columns`, lists of fields, in one write."""
    # joined from the fields and separators themselves, so no per-row string is built
    ends = [repeat(",")] * (len(columns) - 1) + [repeat("\n")]
    cells = chain.from_iterable(zip(*chain.from_iterable(zip(columns, ends))))
    text = "".join(chain([",".join(map(_csv_field, header)), "\n"], cells))
    path.write_text(text, encoding="utf-8", newline="\n")


def policy_to_json(solved: Solved) -> dict:
    pr = solved.primary
    doc = {
        "lambda": solved.lam,
        "grid_m": pr.grid.m,
        "primary": {
            "thresholds": [float(t) for t in pr.thresholds],
            "bounds": [[lo, hi] for lo, hi in pr.bounds],
        },
    }
    if solved.secondary is not None:
        sr = solved.secondary
        doc["secondary"] = {
            "final_threshold": float(sr.solo.thresholds[-1]),
            "eta": sr.eta.tolist(),
            "tau_without": sr.solo.thresholds[:-1].tolist(),
            "delta0": sr.delta0.tolist(),
            "actions_with": sr.actions_with.tolist(),
            "actions_without": sr.solo.continue_mask.astype(int).tolist(),
            "bounds": [[lo, hi] for lo, hi in sr.solo.bounds],
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
    # the key columns are formatted once and shared by every stage's file
    pr = solved.primary
    pi = _csv_fields(pr.grid.points)
    for i in range(pr.values.shape[0]):
        _write_csv(out_dir / f"values_stage_{i}.csv", ["pi", "value"], [pi, _csv_fields(pr.values[i])])
    if solved.secondary is not None:
        sr = solved.secondary
        pi2, pi1 = _csv_fields(sr.grid2.points), _csv_fields(sr.grid1.points)
        # rows run over pi1 within pi2, as np.repeat(pi2) and np.tile(pi1) lay them out; both key
        # columns refer to the fields formatted once above
        pi2_col, pi1_col = [a for a in pi2 for _ in pi1], pi1 * len(pi2)
        for i in range(sr.solo.values.shape[0]):
            _write_csv(out_dir / f"values2_without_stage_{i}.csv", ["pi2", "value"],
                       [pi2, _csv_fields(sr.solo.values[i])])
            _write_csv(out_dir / f"values2_with_stage_{i}.csv", ["pi2", "pi1", "value"],
                       [pi2_col, pi1_col, _csv_fields(sr.with_values[i].ravel())])
    _write_json(out_dir / "budget.json", solved.to_json())


def _cmd_optimize(args) -> int:
    solved = solve_system(_run_config(args))
    emit_optimize_artifacts(solved, Path(args.out_dir))
    print(json.dumps({"status": "ok", "lambda": solved.lam, "out_dir": args.out_dir}))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    system = _run_config(args)
    if system.trials < 1:
        raise ConfigError("need at least one trial")
    solved = solve_system(system)
    report = simulate(
        solved.system, solved.primary, solved.secondary,
        n_trials=system.trials,
        seed=system.seed,
        no_sharing=args.no_sharing,
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
        n = report.n_trials
        columns = [[""] * n if c is None else _csv_fields(c) for c in report.trials.values()]
        _write_csv(out_dir / "trials.csv", ["trial", *report.trials], [list(map(str, range(n))), *columns])
    print(json.dumps({"status": "ok", "risk1": report.primary.risk_mean}))
    return EXIT_OK


def _cmd_twin(args) -> int:
    system = _run_config(args)
    rows = twin_experiment(system, _priors(args, system), trials=0 if args.trials is None else system.trials,
                           seed=system.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "report.json", {"rows": rows})
    header = list(rows[0].keys())
    _write_csv(out_dir / "twin.csv", header, [_csv_fields([r[k] for r in rows]) for k in header])
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
    solved = solve_system(_run_config(args))
    doc = {"lambda": solved.lam}
    doc["cascade_optimality_primary"] = cascade_optimality_primary(solved.primary, solved.app1)
    if solved.secondary is not None:
        checks = check_sharing_condition(solved.secondary, solved.app2)
        doc["sharing"] = [{"stage": c.stage, "passes": c.passes, "worst_margin": c.worst_margin} for c in checks]
        doc["sharing_all_pass"] = all(c.passes for c in checks)
        doc["cascade_optimality_secondary"] = cascade_optimality_secondary(solved.secondary, solved.app2)
    if args.allow_early_positive:
        base = brute_force_optimum(solved.system)
        aug = augmented_optimum(solved.system)
        doc["early_positive_experiment"] = {
            "cascade_optimum": base["total_risk"],
            "augmented_optimum": aug["total_risk"],
            "improves": bool(aug["total_risk"] < base["total_risk"] - 1e-12),
        }
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "check.json", doc)
    print(json.dumps(_jsonable(doc)))  # strict JSON, as in the file
    return EXIT_OK


def _cmd_sweep(args) -> int:
    system = _run_config(args)
    rows = []
    for p in _priors(args, system):
        solved = solve_system(system.at(prior=p))
        (b1, e1, _), second = solved.forward
        row = {
            "prior": p, "lambda": solved.lam,
            "miss1": b1.miss, "fa1": b1.false_alarm,
            "resource1_weighted": b1.weighted_resource, "risk1": b1.total,
            "E1_mJ": e1,
        }
        if second is not None:
            b2, e2, _ = second
            row.update(
                detection2=b2.detection, resource2_weighted=b2.weighted_resource,
                risk2=b2.total, E2_mJ=e2,
            )
        rows.append(row)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = list(rows[0].keys())
    _write_csv(out_dir / "sweep.csv", header, [_csv_fields([r[k] for r in rows]) for k in header])
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
