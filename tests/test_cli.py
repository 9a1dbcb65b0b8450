"""End-to-end command-line runs against the bundled configuration."""

import csv
import json
import math
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

    def test_one_trial_warns_nothing(self, tmp_path):
        """One trial has no standard error: the report says null and stderr stays empty."""
        proc = run_cli("simulate", "--config", str(CONFIG), "--trials", "1", "--out-dir", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["energy_total_stderr_mJ"] is None
        for app in ("primary", "secondary"):
            assert report[app]["energy_stderr"] is None and report[app]["risk_stderr"] is None

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

    def test_stdout_is_check_json_as_strict_json(self, tmp_path):
        """At lambda 1 the primary never continues, so later stages offer no shared feature and
        their worst margins are -inf: the status line writes them as null, as check.json does."""
        def refuse(token):
            raise ValueError(f"non-finite token {token}")

        proc = run_cli("check", "--config", str(CONFIG), "--lambda", "1", "--out-dir", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout, parse_constant=refuse)
        assert doc == json.loads((tmp_path / "check.json").read_text(), parse_constant=refuse)
        assert None in [s["worst_margin"] for s in doc["sharing"]]


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


class TestNeverContinue:
    """At lambda = 1 no stage of gcw is worth another feature: the policy stops after the first."""

    def test_policy_json_writes_null_thresholds(self, tmp_path):
        proc = run_cli("optimize", "--config", str(CONFIG), "--lambda", "1", "--out-dir", str(tmp_path))
        assert proc.returncode == 0, proc.stderr

        def refuse(name):
            raise ValueError(f"non-strict JSON constant {name}")

        doc = json.loads((tmp_path / "policy.json").read_text(), parse_constant=refuse)
        assert doc["primary"]["thresholds"][:-1] == [None, None]
        assert doc["secondary"]["tau_without"] == [None, None]
        assert {t for row in doc["secondary"]["eta"] for t in row} == {None}

    def test_simulate_extracts_the_first_feature_only(self, tmp_path):
        from cascadeshare.cli import load_config

        proc = run_cli("simulate", "--config", str(CONFIG), "--lambda", "1", "--trials", "200000", "--seed", "3",
                       "--dump-trials", "--out-dir", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        first = load_config(str(CONFIG)).primary.stages[0].cost_mj
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["primary"]["energy_mean"] == pytest.approx(first, rel=1e-12)
        with open(tmp_path / "trials.csv") as fh:
            assert {r["stop_stage1"] for r in csv.DictReader(fh)} == {"1"}

    def test_twin_simulates_the_designed_energy(self, tmp_path):
        proc = run_cli("twin", "--config", str(CONFIG), "--priors", "0.05", "--trials", "20000",
                       "--out-dir", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        (row,) = json.loads((tmp_path / "report.json").read_text())["rows"]
        assert row["e1_mj"] == pytest.approx(1.3824, rel=1e-12)
        assert row["sim_e1"] == pytest.approx(row["e1_mj"], rel=1e-12)


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
        spec = BudgetSpec(budget_mj=self.BUDGET_MJ)
        expected = []
        for p in priors:
            app = replace(cfg.primary, prior=p)
            sol = solve_lambda(CascadeSystem(app, None, secondary=app, shared=cfg.primary.stages,
                                             budget=spec, baseline_mj=cfg.baseline_mj, grid_m=cfg.grid_m))
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
        assert solved.to_json()["lambda"] == solved.lam == solved.system.lam

    def test_budget_json_is_the_search_record(self, capsys, tmp_path):
        from dataclasses import replace

        from cascadeshare import cli
        from cascadeshare.budget import BudgetSpec, solve_lambda

        assert cli.main(["optimize", "--config", str(CONFIG), "--budget-mJ", str(self.BUDGET_MJ),
                         "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        cfg = cli.load_config(str(CONFIG))
        system = replace(cfg, lam=None, budget=BudgetSpec(budget_mj=self.BUDGET_MJ))
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


class TestOperatorsOnce:
    """Each command builds one transition operator per distinct PMF pair, on the system's grid,
    however many stage model objects ask for it."""

    # the bundled config's 9 stage models (primary, secondary and shared) hold 3 distinct PMF pairs
    DISTINCT_PMF_PAIRS = 3

    @pytest.mark.parametrize("command, extra, models", [
        ("optimize", (), 9),
        ("optimize", ("--budget-mJ", "45"), 9),
        ("check", (), 9),
        ("simulate", ("--trials", "1000"), 9),
        ("sweep", (), 9),
        # the twin clones the primary, so its three stage models serve all three chains
        ("twin", (), 3),
    ])
    def test_per_command(self, monkeypatch, capsys, tmp_path, command, extra, models):
        from cascadeshare import cli, dp

        built, asked = [], set()
        original, transition = dp._Transition, dp.Grid.transition

        def counting(grid, model):
            built.append(model)
            return original(grid, model)

        def asking(grid, model):
            asked.add(id(model))  # every model lives in the command's system until it exits
            return transition(grid, model)

        monkeypatch.setattr(dp, "_Transition", counting)
        monkeypatch.setattr(dp.Grid, "transition", asking)
        assert cli.main([command, "--config", str(CONFIG), *extra, "--out-dir", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert len(asked) == models
        assert len(built) == self.DISTINCT_PMF_PAIRS


class TestForwardPassOncePerPricedPolicy:
    """Each application's forward pass runs once per policy that a command prices, and never where
    nothing is priced: `budget.json`, every step of a budget search, and each `twin` or `sweep` row."""

    COUNTED = ("optimize_primary", "optimize_secondary", "forward_primary", "forward_secondary")

    @pytest.mark.parametrize("command, extra", [
        ("optimize", ()),
        ("optimize", ("--budget-mJ", "45")),
        ("check", ()),
        ("simulate", ("--trials", "100")),
        ("twin", ("--budget-mJ", "50")),
        ("sweep", ("--budget-mJ", "50")),
    ])
    def test_per_command(self, monkeypatch, capsys, tmp_path, command, extra):
        from cascadeshare import budget, cli, sim

        calls = dict.fromkeys(self.COUNTED, 0)

        def counting(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        # every name a command can reach these functions through
        for module in (budget, cli, sim):
            for name in self.COUNTED:
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        assert cli.main([command, "--config", str(CONFIG), *extra, "--out-dir", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        solves = calls["optimize_primary"]
        assert calls["optimize_secondary"] == solves
        priced = 0 if command in ("check", "simulate") else solves
        assert (calls["forward_primary"], calls["forward_secondary"]) == (priced, priced)
        assert solves > 1 if "--budget-mJ" in extra else solves == 1


def _reference_csv(path, header, rows):
    """The CSV that `csv.writer` writes for `rows`, with floats in `repr` form."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def _rows(columns):
    """The rows that writing `columns` row-wise took: each array as its `tolist()` items."""
    return zip(*[c.tolist() if hasattr(c, "tolist") else c for c in columns])


def _float_bits(bits):
    import numpy as np

    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


# edges of float64 and of its formatting: both zeros, NaNs with another sign and payload, the
# infinities, the smallest subnormal, a subnormal, the smallest normal and the largest finite value
SPECIAL_FLOATS = [0.0, -0.0, float("nan"), _float_bits(0xFFF8000000000000), _float_bits(0x7FF0000000000001),
                  float("inf"), float("-inf"), 5e-324, 1e-310, 2.2250738585072014e-308,
                  1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0]


class TestCsvWriter:
    """`cli._write_csv` over `cli._csv_fields` columns writes the bytes that `csv.writer`
    with repr-formatted floats wrote for the same rows."""

    def test_matches_csv_writer(self, tmp_path):
        import numpy as np

        from cascadeshare.cli import _csv_fields, _write_csv

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
        _write_csv(got, header, [_csv_fields(list(column)) for column in zip(*rows)])
        _reference_csv(want, header, rows)
        assert got.read_bytes() == want.read_bytes()

    def test_float_arrays_keep_signed_zeros_apart(self, tmp_path):
        import numpy as np

        from cascadeshare.cli import _csv_fields

        column = np.array([0.0, -0.0, -0.0, 0.0, float("nan"), _float_bits(0xFFF8000000000000)])
        assert _csv_fields(column) == ["0.0", "-0.0", "-0.0", "0.0", "nan", "nan"]

    @staticmethod
    def _columns(draw, n):
        """One float64 column of repeats of a few values, and one column of each other kind."""
        import numpy as np
        from hypothesis import strategies as st

        def column(elements):
            return draw(st.lists(elements, min_size=n, max_size=n))

        pool = draw(st.lists(st.sampled_from(SPECIAL_FLOATS) | st.floats(), min_size=1, max_size=6))
        texts = st.sampled_from(["", "F0-", "a,b", 'say "hi"', "two\nlines"]) | st.text(
            st.characters(codec="utf-8", exclude_characters="\r\x00"), max_size=4)
        return {
            "f64": np.array(column(st.sampled_from(pool)), dtype=np.float64),
            "f64_free": np.array(column(st.floats()), dtype=np.float64),
            "int64": np.array(column(st.integers(-2**63, 2**63 - 1)), dtype=np.int64),
            "int8": np.array(column(st.integers(-128, 127)), dtype=np.int8),
            "bool": np.array(column(st.booleans()), dtype=bool),
            "str": np.array(column(texts), dtype=str),
            "f32": np.array(column(st.floats(width=32)), dtype=np.float32),
            "pyint": column(st.integers(-2**70, 2**70)),
            "pyfloat": column(st.sampled_from(SPECIAL_FLOATS) | st.floats()),
            "none": [None] * n,
        }

    def test_columns_match_the_row_writer(self, tmp_path):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from cascadeshare.cli import _csv_fields, _write_csv

        @settings(max_examples=100, deadline=None)
        @given(st.data())
        def check(data):
            n = data.draw(st.integers(0, 40))
            columns = self._columns(data.draw, n)
            header = data.draw(st.permutations(sorted(columns)))
            got, want = tmp_path / "got.csv", tmp_path / "want.csv"
            _write_csv(got, header, [_csv_fields(columns[h]) for h in header])
            _reference_csv(want, header, _rows([columns[h] for h in header]))
            assert got.read_bytes() == want.read_bytes()

        check()


def _parent_value_tables(solved, out, pi2_by=None):
    """Each value table as the row-wise writer built it: `np.repeat`/`np.tile` key columns and
    `tolist()` rows, through `csv.writer`.  `pi2_by` lays out the `pi2` key column instead."""
    import numpy as np

    pr = solved.primary
    for i in range(pr.values.shape[0]):
        _reference_csv(out / f"values_stage_{i}.csv", ["pi", "value"],
                       zip(pr.grid.points.tolist(), pr.values[i].tolist()))
    if solved.secondary is not None:
        sr = solved.secondary
        g2, g1 = sr.grid2.points, sr.grid1.points
        pi2 = (pi2_by or np.repeat)(g2, g1.size).tolist()
        pi1 = np.tile(g1, g2.size).tolist()
        for i in range(sr.solo.values.shape[0]):
            _reference_csv(out / f"values2_without_stage_{i}.csv", ["pi2", "value"],
                           zip(g2.tolist(), sr.solo.values[i].tolist()))
            _reference_csv(out / f"values2_with_stage_{i}.csv", ["pi2", "pi1", "value"],
                           zip(pi2, pi1, sr.with_values[i].ravel().tolist()))


def _primary_only_config(tmp_path):
    doc = json.loads(CONFIG.read_text())
    del doc["secondary"]
    path = tmp_path / "primary_only.json"
    path.write_text(json.dumps(doc))
    return path


class TestArtifactsMatchRowWriter:
    """The column writer's artifacts are the bytes the row-wise construction wrote."""

    @pytest.mark.parametrize("primary_only", [False, True])
    def test_value_tables(self, tmp_path, primary_only):
        import numpy as np

        from cascadeshare import cli

        config = _primary_only_config(tmp_path) if primary_only else CONFIG
        solved = cli.solve_system(cli.load_config(str(config)))
        assert solved.primary.grid.m == 100
        got, want = tmp_path / "got", tmp_path / "want"
        want.mkdir()
        cli.emit_optimize_artifacts(solved, got)
        _parent_value_tables(solved, want)
        names = sorted(p.name for p in want.iterdir())
        assert names == sorted(p.name for p in got.glob("values*_stage_*.csv"))
        assert len(names) == (4 if primary_only else 12)
        for name in names:
            assert (got / name).read_bytes() == (want / name).read_bytes(), name
        if not primary_only:
            # the comparison sees a key column laid out in the wrong order
            tiled = tmp_path / "tiled"
            tiled.mkdir()
            _parent_value_tables(solved, tiled, pi2_by=np.tile)
            assert (got / "values2_with_stage_0.csv").read_bytes() != (tiled / "values2_with_stage_0.csv").read_bytes()

    @pytest.mark.parametrize("primary_only", [False, True])
    def test_trials(self, tmp_path, capsys, primary_only):
        from itertools import repeat

        from cascadeshare import cli
        from cascadeshare.sim import simulate

        config = _primary_only_config(tmp_path) if primary_only else CONFIG
        n, seed = 3000, 4
        assert cli.main(["simulate", "--config", str(config), "--trials", str(n), "--seed", str(seed),
                         "--dump-trials", "--out-dir", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        solved = cli.solve_system(cli.load_config(str(config)))
        report = simulate(solved.system, solved.primary, solved.secondary, n_trials=n, seed=seed)
        assert (report.trials["x2"] is None) == primary_only
        columns = [repeat(None) if c is None else c.tolist() for c in report.trials.values()]
        _reference_csv(tmp_path / "want.csv", ["trial", *report.trials], zip(range(n), *columns))
        assert (tmp_path / "out" / "trials.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


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


def _nan_stage_cost(doc):
    stage = doc["secondary"]["stages"][0]
    del stage["cost_components"]
    stage["cost_mJ"] = math.nan


def _budget(**fields):
    def edit(doc):
        del doc["lambda"]
        doc["budget"] = {"budget_mJ": 45.0, **fields}
    return edit


# config edits (and overrides) that put a non-finite or negative number where the system needs a
# finite, nonnegative one
BAD_NUMBERS = {
    "lambda_override_nan": (("--lambda", "nan"), lambda doc: None),
    "lambda_infinity": ((), lambda doc: doc.update({"lambda": math.inf})),
    "baseline_mW_negative": ((), lambda doc: doc.update(baseline_mW=-3.6)),
    "frame_ms_negative": ((), lambda doc: doc.update(frame_ms=-32.0)),
    "baseline_mJ_nan": ((), lambda doc: (doc.pop("baseline_mW"), doc.update(baseline_mJ=math.nan))),
    "stage_cost_nan": ((), _nan_stage_cost),
    "miss_cost_nan": ((), lambda doc: doc["primary"].update(miss_cost=math.nan)),
    "fa_cost_infinity": ((), lambda doc: doc["secondary"].update(fa_cost=math.inf)),
    "budget_tolerance_nan": ((), _budget(tolerance=math.nan)),
    "lambda_bracket_infinity": ((), _budget(lambda_bracket=[0.0, math.inf])),
}


# config edits (and overrides) that put something other than an integer, or a negative seed, where the
# system needs an integer; each ran `simulate` to the end or failed only after solving
BAD_INTEGERS = {
    "grid_m_fraction": ((), {"grid_m": 50.5}),
    "grid_m_string": ((), {"grid_m": "60"}),
    "trials_bool": ((), {"trials": True}),
    "seed_fraction": ((), {"seed": 1.5}),
    "seed_override_negative": (("--seed", "-1"), {}),
}


class TestErrorPaths:
    @pytest.mark.parametrize("case", BAD_INTEGERS)
    def test_non_integer_setting_exits_2_before_solving(self, monkeypatch, capsys, tmp_path, case):
        from cascadeshare import cli, robust

        extra, fields = BAD_INTEGERS[case]
        doc = {**json.loads(CONFIG.read_text()), **fields}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        robustified = []
        monkeypatch.setattr(robust, "robustify_stage", robustified.append)
        assert cli.main(["simulate", "--config", str(bad), *extra, "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and json.loads(err)["error"] == "config_error"
        assert robustified == []

    @pytest.mark.parametrize("case", BAD_NUMBERS)
    def test_non_finite_or_negative_number_exits_2_before_solving(self, monkeypatch, capsys, tmp_path, case):
        from cascadeshare import cli, robust

        extra, edit = BAD_NUMBERS[case]
        doc = json.loads(CONFIG.read_text())
        edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))  # NaN and Infinity as Python's json writes them
        robustified = []
        monkeypatch.setattr(robust, "robustify_stage", robustified.append)
        assert cli.main(["optimize", "--config", str(bad), *extra, "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and json.loads(err)["error"] == "config_error"
        assert robustified == []

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

    @pytest.mark.parametrize("argv", [
        ("optimize", "--grid", "0"),
        ("simulate", "--trials", "0"),
        ("twin", "--trials", "-5"),
    ])
    def test_out_of_range_override_exits_2_before_solving(self, monkeypatch, capsys, tmp_path, argv):
        from cascadeshare import cli, robust

        robustified = []
        monkeypatch.setattr(robust, "robustify_stage", robustified.append)
        assert cli.main([*argv, "--config", str(CONFIG), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and json.loads(err)["error"] == "config_error"
        assert robustified == []  # every solve robustifies the system first

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
