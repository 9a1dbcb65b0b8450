"""End-to-end command-line runs against the bundled configuration."""

import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
CONFIG = REPO / "configs" / "gcw_twin.json"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "cascadeshare.cli", *args],
        capture_output=True, text=True, cwd=cwd or REPO,
    )


@pytest.fixture(scope="module")
def optimize_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("opt")
    proc = run_cli("optimize", "--config", str(CONFIG), "--out-dir", str(out))
    assert proc.returncode == 0, proc.stderr
    return out


class TestOptimize:
    def test_final_thresholds_are_one_third(self, optimize_out):
        doc = json.loads((optimize_out / "policy.json").read_text())
        assert doc["primary"]["thresholds"][-1] == 1.0 / 3.0
        assert doc["secondary"]["final_threshold"] == 1.0 / 3.0

    def test_value_csvs_emitted(self, optimize_out):
        for i in range(4):
            assert (optimize_out / f"values_stage_{i}.csv").exists()
            assert (optimize_out / f"values2_with_stage_{i}.csv").exists()
            assert (optimize_out / f"values2_without_stage_{i}.csv").exists()

    def test_value_csv_round_trips_bit_exact(self, optimize_out):
        with open(optimize_out / "values_stage_0.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0].keys() == {"pi", "value"}
        for row in rows:
            v = float(row["value"])
            assert repr(v) == row["value"]

    def test_policy_json_serialize_parse_fixpoint(self, optimize_out):
        text = (optimize_out / "policy.json").read_text()
        doc = json.loads(text)
        again = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert again == text

    def test_budget_json_schema(self, optimize_out):
        doc = json.loads((optimize_out / "budget.json").read_text())
        assert set(doc) == {"lambda", "E1_mJ", "E2_mJ", "baseline_mJ", "total_mJ", "slack"}
        assert doc["baseline_mJ"] == pytest.approx(0.1152)

    def test_robustified_models_round_trip(self, optimize_out):
        from cascadeshare.robust import stage_model_from_json

        doc = json.loads((optimize_out / "models.json").read_text())
        assert set(doc) == {"primary", "secondary", "shared"}
        for stage_doc in doc["primary"]:
            assert {"nominal", "uncertainty", "cost_mJ", "robust", "breakpoints"} <= set(stage_doc)
            stage = stage_model_from_json(stage_doc)
            assert stage.robust is not None and stage.breakpoints is not None


class TestSimulate:
    def test_reports_are_byte_identical_for_fixed_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            proc = run_cli("simulate", "--config", str(CONFIG), "--trials", "5000",
                           "--seed", "7", "--out-dir", str(out))
            assert proc.returncode == 0, proc.stderr
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_trials_dump(self, tmp_path):
        proc = run_cli("simulate", "--config", str(CONFIG), "--trials", "50",
                       "--seed", "1", "--dump-trials", "--out-dir", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        with open(tmp_path / "trials.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 50
        assert {"trial", "x1", "x2", "actions1", "actions2", "xhat1", "xhat2",
                "stop_stage1", "stop_stage2", "energy_mJ"} == set(rows[0])

    # on gcw the shared run's secondary pays for no feature; --no-sharing makes it pay
    @pytest.mark.parametrize("primary_only, extra", [(False, ()), (False, ("--no-sharing",)), (True, ())])
    def test_trials_agree_with_report(self, tmp_path, primary_only, extra):
        """Per-trial columns reproduce the report's estimates, and each action
        string (K primary decisions, K+1 secondary ones) ends where its stop
        stage says."""
        import numpy as np

        from cascadeshare.cli import load_config

        config = CONFIG
        if primary_only:
            doc = json.loads(CONFIG.read_text())
            del doc["secondary"]
            config = tmp_path / "primary_only.json"
            config.write_text(json.dumps(doc))
        n = 20000
        proc = run_cli("simulate", "--config", str(config), "--trials", str(n), "--seed", "5", *extra,
                       "--dump-trials", "--out-dir", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        with open(tmp_path / "out" / "trials.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["trial"]) for r in rows] == list(range(n))
        assert np.array([float(r["energy_mJ"]) for r in rows]).mean() == report["energy_total_mean_mJ"]

        system = load_config(str(config))
        k = system.primary.k
        apps = [("1", system.primary, report["primary"], "F")]
        if primary_only:
            assert report["secondary"] is None
            assert all(r[c] == "" for r in rows for c in ("x2", "actions2", "xhat2", "stop_stage2"))
        else:
            apps.append(("2", system.secondary, report["secondary"], "12"))
        for tag, app, est, go in apps:
            x = np.array([r["x" + tag] == "1" for r in rows])
            xhat = np.array([r["xhat" + tag] == "1" for r in rows])
            assert (app.miss_cost * (x & ~xhat)).mean() == est["miss"]
            assert (app.fa_cost * (~x & xhat)).mean() == est["false_alarm"]
            for r in rows:
                acts, stop = r["actions" + tag], int(r["stop_stage" + tag])
                assert len(acts) == (k if tag == "1" else k + 1)
                if tag == "2":
                    assert acts[0] in "12"  # the first feature: shared or own
                decisions = acts[-k:]  # after stages 1..K-1, then the final declaration
                assert all(c in go for c in decisions[:stop - 1])
                if stop < k:
                    assert decisions[stop - 1] == "0" and set(decisions[stop:]) <= {"-"}
                    assert r["xhat" + tag] == "0"
                else:
                    assert decisions[-1] == r["xhat" + tag]


class TestCheck:
    def test_twin_config_passes_sharing_condition(self, tmp_path):
        proc = run_cli("check", "--config", str(CONFIG), "--out-dir", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["sharing_all_pass"] is True
        assert all(s["passes"] for s in doc["sharing"])
        assert len(doc["sharing"]) == 3


class TestTwinAndSweep:
    def test_twin_report(self, tmp_path):
        proc = run_cli("twin", "--config", str(CONFIG), "--out-dir", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        rows = json.loads((tmp_path / "report.json").read_text())["rows"]
        assert [r["prior"] for r in rows] == [0.05, 0.10, 0.15, 0.20]
        for r in rows:
            saving = r["saving"] if r["saving"] is not None else float("inf")
            assert saving > 1.0
            assert r["risk2_shared"] <= r["risk2_ablated"] + 1e-12
        assert (tmp_path / "twin.csv").exists()

    def test_sweep_csv(self, tmp_path):
        proc = run_cli("sweep", "--config", str(CONFIG), "--priors", "0.1,0.2",
                       "--out-dir", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        with open(tmp_path / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert "miss1" in rows[0] and "risk2" in rows[0]


class TestBudgetOverride:
    """`--budget-mJ X` behaves like a config whose budget block asks for X."""

    BUDGET_MJ = 45.0

    def _budget_config(self, tmp_path, budget_mj):
        doc = json.loads(CONFIG.read_text())
        baseline = doc["baseline_mW"] * doc["frame_ms"] / 1000.0
        del doc["lambda"]
        doc["budget"] = {"budget_mJ": budget_mj, "baseline_mJ": baseline}
        path = tmp_path / "budget.json"
        path.write_text(json.dumps(doc))
        return path, baseline

    @pytest.mark.parametrize("budget_mj, slack", [(BUDGET_MJ, False), (1000.0, True)])
    def test_override_matches_budget_block(self, tmp_path, budget_mj, slack):
        config, baseline = self._budget_config(tmp_path, budget_mj)
        via_flag, via_block = tmp_path / "flag", tmp_path / "block"
        proc = run_cli("optimize", "--config", str(CONFIG), "--budget-mJ", str(budget_mj),
                       "--out-dir", str(via_flag))
        assert proc.returncode == 0, proc.stderr
        proc = run_cli("optimize", "--config", str(config), "--out-dir", str(via_block))
        assert proc.returncode == 0, proc.stderr
        for name in ("budget.json", "policy.json"):
            assert (via_flag / name).read_bytes() == (via_block / name).read_bytes()
        doc = json.loads((via_flag / "budget.json").read_text())
        assert set(doc) == {"lambda", "E1_mJ", "E2_mJ", "baseline_mJ", "total_mJ", "slack"}
        assert doc["slack"] is slack
        assert doc["baseline_mJ"] == baseline
        assert doc["total_mJ"] <= budget_mj

    def test_twin_solves_the_multiplier_per_prior(self, tmp_path):
        from dataclasses import replace

        from cascadeshare.budget import BudgetSpec, solve_lambda
        from cascadeshare.cli import load_config
        from cascadeshare.sim import CascadeSystem

        priors = (0.05, 0.2)
        proc = run_cli("twin", "--config", str(CONFIG), "--budget-mJ", str(self.BUDGET_MJ),
                       "--priors", ",".join(map(str, priors)), "--out-dir", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        rows = json.loads((tmp_path / "report.json").read_text())["rows"]

        cfg = load_config(str(CONFIG))
        spec = BudgetSpec(budget_mj=self.BUDGET_MJ, baseline_mj=cfg.baseline_mj)
        expected = []
        for p in priors:
            app = replace(cfg.primary, prior=p)
            sol = solve_lambda(CascadeSystem(app, None, secondary=app, shared=cfg.primary.stages,
                                             budget=spec, grid_m=cfg.grid_m))
            expected.append(sol.lam)
        assert [r["lam"] for r in rows] == expected
        assert expected[0] != expected[1]

    def test_solve_system_searches_the_budget_once(self, monkeypatch, tmp_path):
        from cascadeshare import budget, cli

        config, _ = self._budget_config(tmp_path, self.BUDGET_MJ)
        calls = []
        original = budget.solve_lambda
        monkeypatch.setattr(budget, "solve_lambda", lambda system: calls.append(system) or original(system))
        solved = cli.solve_system(cli.load_config(str(config)))
        assert len(calls) == 1
        assert solved.budget_solution.lam == solved.lam

    def test_budget_json_is_the_search_record(self, capsys, tmp_path):
        from dataclasses import replace

        from cascadeshare import cli
        from cascadeshare.budget import BudgetSpec, solve_lambda

        assert cli.main(["optimize", "--config", str(CONFIG), "--budget-mJ", str(self.BUDGET_MJ),
                         "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        cfg = cli.load_config(str(CONFIG))
        system = replace(cfg, lam=None, budget=BudgetSpec(budget_mj=self.BUDGET_MJ, baseline_mj=cfg.baseline_mj))
        assert json.loads((tmp_path / "budget.json").read_text()) == solve_lambda(system).to_json()

    def test_lambda_and_budget_override_together_rejected(self, tmp_path):
        proc = run_cli("optimize", "--config", str(CONFIG), "--lambda", "0.004",
                       "--budget-mJ", str(self.BUDGET_MJ), "--out-dir", str(tmp_path))
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"] == "config_error"


class TestRobustifyOnce:
    """Each config-reading command robustifies each of the system's stage sets once."""

    K = len(json.loads(CONFIG.read_text())["primary"]["stages"])

    def _count_robustified_stages(self, monkeypatch, capsys, tmp_path, config, command="optimize", *extra):
        from cascadeshare import cli, robust

        seen = []
        original = robust.robustify_stage

        def counting(stage):
            seen.append(stage)
            return original(stage)

        monkeypatch.setattr(robust, "robustify_stage", counting)
        assert cli.main([command, "--config", str(config), *extra, "--out-dir", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        return len(seen)

    def test_with_lambda(self, monkeypatch, capsys, tmp_path):
        assert self._count_robustified_stages(monkeypatch, capsys, tmp_path, CONFIG) == 3 * self.K

    def test_with_budget_block(self, monkeypatch, capsys, tmp_path):
        doc = json.loads(CONFIG.read_text())
        del doc["lambda"]
        doc["budget"] = {"budget_mJ": 45.0, "baseline_mJ": 0.1152}
        config = tmp_path / "budget.json"
        config.write_text(json.dumps(doc))
        assert self._count_robustified_stages(monkeypatch, capsys, tmp_path, config) == 3 * self.K

    @pytest.mark.parametrize("command, extra, stage_sets", [
        ("check", (), 3),
        ("simulate", ("--trials", "1000"), 3),
        ("sweep", (), 3),
        # the twin clones the primary, so its one stage set serves all three roles
        ("twin", (), 1),
        ("twin", ("--trials", "1000"), 1),
    ])
    def test_per_command(self, monkeypatch, capsys, tmp_path, command, extra, stage_sets):
        count = self._count_robustified_stages(monkeypatch, capsys, tmp_path, CONFIG, command, *extra)
        assert count == stage_sets * self.K


class TestCsvWriter:
    """`cli._write_csv` writes the bytes that `csv.writer` with repr-formatted floats wrote."""

    @staticmethod
    def _reference(path, header, rows):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])

    def test_matches_csv_writer(self, tmp_path):
        import numpy as np

        from cascadeshare.cli import _write_csv

        floats = [0.0, -0.0, 1.0 / 3.0, 1e-310, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                  float("inf"), float("-inf"), float("nan"), np.float64(0.1), np.float64(-2.5e-12)]
        # no bare carriage return: this writer quotes it, and csv.writer quotes it only
        # when it is part of the line terminator
        others = [0, -7, 2**70, np.int64(42), True, np.bool_(False), None, "", "F0-", "a,b",
                  'say "hi"', "two\nlines", np.float32(0.1)]
        header = ["a", "b", "c"]
        cells = floats + others
        rows = [tuple(cells[(i + j) % len(cells)] for j in range(3)) for i in range(len(cells))]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        _write_csv(got, header, rows)
        self._reference(want, header, rows)
        assert got.read_bytes() == want.read_bytes()


class TestJsonWriter:
    """`cli._write_json` writes the bytes of the writer that walked every document with `_jsonable`."""

    def test_matches_the_walking_writer(self, tmp_path):
        import numpy as np

        from cascadeshare import cli

        solved = cli.solve_system(cli.load_config(str(CONFIG)))
        docs = [
            cli.policy_to_json(solved),
            {"ints": np.arange(3, dtype=np.int8).tolist(), "n": np.int64(7), "ok": np.bool_(True),
             "x": np.float64(0.1), "y": np.float32(0.5), "nested": [[1, 2], [True, False]]},
            {"saving": float("inf"), "nan": [1.0, float("nan")], "n": np.int64(2), "z": np.float64("-inf")},
        ]
        for i, doc in enumerate(docs):
            cli._write_json(tmp_path / f"{i}.json", doc)
            walked = json.dumps(cli._jsonable(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"
            assert (tmp_path / f"{i}.json").read_text() == walked
        assert json.loads((tmp_path / "2.json").read_text()) == {"saving": None, "nan": [1.0, None], "n": 2, "z": None}


class TestEstimate:
    def test_pmf_from_stream(self, tmp_path):
        stream = tmp_path / "scores.csv"
        with open(stream, "w", newline="\n") as fh:
            w = csv.writer(fh)
            w.writerow(["score", "label"])
            for i in range(50):
                w.writerow([i / 50.0, int(i >= 25)])
        proc = run_cli("estimate", str(stream), "--bins", "5", "--out-dir", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        doc = json.loads((tmp_path / "scores_pmf.json").read_text())
        assert doc["bins"] == 5
        assert len(doc["edges"]) == 6
        assert abs(sum(doc["p0"]) - 1.0) < 1e-10

    def test_bad_header_is_config_error(self, tmp_path):
        stream = tmp_path / "bad.csv"
        stream.write_text("x,y\n1,0\n")
        proc = run_cli("estimate", str(stream), "--out-dir", str(tmp_path))
        assert proc.returncode == 2
        err = json.loads(proc.stderr)
        assert err["error"] == "config_error"


class TestErrorPaths:
    def test_missing_config_exits_2(self, tmp_path):
        proc = run_cli("optimize", "--config", str(tmp_path / "nope.json"),
                       "--out-dir", str(tmp_path))
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"] == "config_error"

    def test_both_lambda_and_budget_rejected(self, tmp_path):
        doc = json.loads(CONFIG.read_text())
        doc["budget"] = {"budget_mJ": 50.0, "baseline_mJ": 0.1152}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        proc = run_cli("optimize", "--config", str(bad), "--out-dir", str(tmp_path))
        assert proc.returncode == 2

    def test_unknown_coupling_rejected_at_load(self, tmp_path):
        doc = json.loads(CONFIG.read_text())
        doc["coupling"] = "foo"
        bad = tmp_path / "coupling.json"
        bad.write_text(json.dumps(doc))
        proc = run_cli("optimize", "--config", str(bad), "--out-dir", str(tmp_path))
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"] == "config_error"

    def test_degenerate_uncertainty_exits_3(self, tmp_path):
        doc = json.loads(CONFIG.read_text())
        doc["primary"]["stages"][0]["uncertainty"] = {
            "eps0": 0.45, "eps1": 0.45, "nu0": 0.45, "nu1": 0.45}
        del doc["secondary"]
        bad = tmp_path / "degen.json"
        bad.write_text(json.dumps(doc))
        proc = run_cli("optimize", "--config", str(bad), "--out-dir", str(tmp_path))
        assert proc.returncode == 3
        assert json.loads(proc.stderr)["error"] == "solver_failure"

    def test_enumeration_cap_exits_4(self, tmp_path):
        proc = run_cli("check", "--config", str(CONFIG), "--allow-early-positive",
                       "--out-dir", str(tmp_path))
        assert proc.returncode == 4
        assert json.loads(proc.stderr)["error"] == "enumeration_cap"

    def test_bracket_failure_exits_5(self, tmp_path):
        doc = json.loads(CONFIG.read_text())
        del doc["lambda"]
        doc["budget"] = {"budget_mJ": 1.0, "baseline_mJ": 0.9,
                         "lambda_bracket": [0.0, 1e-9]}
        del doc["secondary"]
        bad = tmp_path / "tight.json"
        bad.write_text(json.dumps(doc))
        proc = run_cli("optimize", "--config", str(bad), "--out-dir", str(tmp_path))
        assert proc.returncode == 5
        assert json.loads(proc.stderr)["error"] == "bracket_failure"

    def test_unknown_flag_is_an_error(self, tmp_path):
        proc = run_cli("optimize", "--config", str(CONFIG), "--frobnicate")
        assert proc.returncode == 2

    def test_help_lists_documented_flags(self):
        proc = run_cli("simulate", "--help")
        assert proc.returncode == 0
        for flag in ("--config", "--lambda", "--budget-mJ", "--grid", "--trials",
                     "--seed", "--out-dir", "--no-sharing", "--dump-trials"):
            assert flag in proc.stdout
        proc2 = run_cli("check", "--help")
        assert "--allow-early-positive" in proc2.stdout
