"""Monte Carlo harness, enumeration oracles, twin experiment."""

import math
import tracemalloc
from dataclasses import replace
from pathlib import Path
from typing import Optional

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cascadeshare.models import AppConfig, ConditionalPmf, evidence_pmf, likelihood_ratios, posterior_update_array
from cascadeshare.robust import StageModel, UncertaintyParams, robustify_app, robustify_system
from cascadeshare.dp import (
    STOP,
    USE_OWN,
    Grid,
    PrimaryResult,
    SecondaryResult,
    forward_primary,
    optimize_primary,
    optimize_secondary,
)
from cascadeshare.sim import (
    _CHUNK,
    CascadeSystem,
    EnumerationCapError,
    augmented_optimum,
    brute_force_optimum,
    exact_grid_primary,
    exact_grid_secondary,
    simulate,
    twin_experiment,
)
from cascadeshare import sim
from cascadeshare.sim import SimulationReport, _estimate, _Guide, _trials_column

from conftest import assert_stages_bitwise_equal, random_app, random_pmf

GCW_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "gcw_twin.json"


def uninformative(bins=2):
    p = np.full(bins, 1.0 / bins)
    return ConditionalPmf(p0=p, p1=p)


class TestDeterminism:
    def test_identical_runs_are_bit_identical(self, rng):
        app = random_app(rng, k=2, bins=3)
        lam = 0.1
        rapp = robustify_app(app)
        pr = optimize_primary(rapp, lam, Grid.uniform(51))
        sr = optimize_secondary(rapp, rapp.stages, pr, lam)
        system = CascadeSystem(app, lam, secondary=app, shared=app.stages, coupling="twin")
        r1 = simulate(system, pr, sr, n_trials=5000, seed=123)
        r2 = simulate(system, pr, sr, n_trials=5000, seed=123)
        assert r1.primary == r2.primary
        assert r1.secondary == r2.secondary
        assert r1.energy_total_mean == r2.energy_total_mean
        assert r1.trials.keys() == r2.trials.keys()
        for name, column in r1.trials.items():
            assert column.dtype == r2.trials[name].dtype
            assert column.tobytes() == r2.trials[name].tobytes(), name

    def test_seed_changes_output(self, rng):
        app = random_app(rng, k=2, bins=3)
        rapp = robustify_app(app)
        pr = optimize_primary(rapp, 0.1, Grid.uniform(51))
        sys_ = CascadeSystem(app, 0.1)
        a = simulate(sys_, pr, n_trials=5000, seed=1)
        b = simulate(sys_, pr, n_trials=5000, seed=2)
        assert a.primary.risk_mean != b.primary.risk_mean
        assert all(a.trials[name] is None for name in ("x2", "actions2", "xhat2", "stop_stage2"))

    def test_one_trial_raises_no_warning(self, rng):
        """A standard error needs two trials: with one, each is nan and no numpy warning is issued."""
        import warnings

        app = random_app(rng, k=2, bins=3)
        rapp = robustify_app(app)
        pr = optimize_primary(rapp, 0.1, Grid.uniform(51))
        sr = optimize_secondary(rapp, rapp.stages, pr, 0.1)
        system = CascadeSystem(app, 0.1, secondary=app, shared=app.stages, coupling="twin")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = simulate(system, pr, sr, n_trials=1, seed=3)
        for est in (report.primary, report.secondary):
            assert math.isnan(est.energy_stderr) and math.isnan(est.risk_stderr)
        assert math.isnan(report.energy_total_stderr)


class TestSimulateClosedForms:
    def test_certain_target_has_no_false_alarms(self, rng):
        stages = tuple(StageModel(nominal=random_pmf(rng, 3), cost_mj=0.5) for _ in range(2))
        app = AppConfig(prior=1 - 1e-12, miss_cost=2.0, fa_cost=1.0, stages=stages)
        rapp = robustify_app(app)
        pr = optimize_primary(rapp, 0.01, Grid.uniform(51))
        rep = simulate(CascadeSystem(app, 0.01), pr, n_trials=20000, seed=5)
        assert rep.primary.false_alarm == 0.0

    def test_always_positive_policy_matches_closed_form(self, rng):
        """Uninformative single stage: every trial reaches the final stage,
        where a prior above the final threshold declares positive."""
        app = AppConfig(prior=0.6, miss_cost=2.0, fa_cost=1.0,
                        stages=(StageModel(nominal=uninformative(), cost_mj=0.4),))
        rapp = robustify_app(app)
        pr = optimize_primary(rapp, 0.0, Grid.uniform(41))
        rep = simulate(CascadeSystem(app, 0.0), pr, n_trials=200_000, seed=9)
        assert rep.primary.miss == 0.0
        expected_fa = app.fa_cost * (1 - app.prior)
        stderr = math.sqrt(expected_fa * app.fa_cost / 200_000)
        assert abs(rep.primary.false_alarm - expected_fa) < 4 * stderr + 1e-12


class TestMonteCarloAgreesWithOptimizer:
    def test_risk_and_energy_within_three_sigma(self, rng):
        for _ in range(3):
            app = random_app(rng, k=2, bins=3, u_scale=0.0)
            lam = float(rng.uniform(0.02, 0.2))
            rapp = robustify_app(app)
            pr = optimize_primary(rapp, lam, exact_grid_primary(rapp))
            _, e_dp, _ = forward_primary(pr, rapp)
            rep = simulate(CascadeSystem(app, lam), pr, n_trials=200_000, seed=17)
            assert abs(rep.primary.risk_mean - pr.value_at(app.prior)) \
                <= 3 * rep.primary.risk_stderr + 1e-9
            assert abs(rep.primary.energy_mean - e_dp) \
                <= 3 * rep.primary.energy_stderr + 1e-9


class TestBruteForce:
    def test_single_stage_is_bayes_test(self, rng):
        m = random_pmf(rng, 3)
        app = AppConfig(prior=0.3, miss_cost=2.0, fa_cost=1.0,
                        stages=(StageModel(nominal=m, cost_mj=0.7),))
        lam = 0.2
        res = brute_force_optimum(CascadeSystem(app, lam))
        e = evidence_pmf(m, 0.3)
        upd = posterior_update_array(0.3, likelihood_ratios(m))
        bayes = float(np.sum(e * np.minimum(2.0 * upd, 1.0 - upd))) + lam * 0.7
        assert res["primary_risk"] == pytest.approx(bayes, abs=1e-12)

    def test_uninformative_features_reduce_to_hand_formula(self):
        """Beliefs never move, so the best plan is a stopping stage chosen up
        front; enumerate those by hand."""
        prior, cm, ca, lam = 0.25, 2.0, 1.0, 0.1
        costs = (1.0, 3.0, 7.0)
        stages = tuple(StageModel(nominal=uninformative(), cost_mj=c) for c in costs)
        app = AppConfig(prior=prior, miss_cost=cm, fa_cost=ca, stages=stages)
        res = brute_force_optimum(CascadeSystem(app, lam))
        options = []
        for stop_after in (1, 2):  # early negative at intermediate stage
            options.append(lam * sum(costs[:stop_after]) + cm * prior)
        options.append(lam * sum(costs) + min(cm * prior, ca * (1 - prior)))
        assert res["primary_risk"] == pytest.approx(min(options), abs=1e-12)

    def test_matches_dp_on_exact_grid(self, rng):
        for _ in range(10):
            app = random_app(rng)
            lam = float(rng.uniform(0, 0.3))
            rapp = robustify_app(app)
            pr = optimize_primary(rapp, lam, exact_grid_primary(rapp))
            res = brute_force_optimum(CascadeSystem(app, lam))
            assert pr.value_at(app.prior) == pytest.approx(res["primary_risk"], abs=1e-9)

    def test_two_app_matches_dp(self, rng):
        for _ in range(4):
            app = random_app(rng, k=2, bins=2)
            lam = float(rng.uniform(0, 0.3))
            system = CascadeSystem(app, lam, secondary=app, shared=app.stages, coupling="twin")
            rapp = robustify_app(app)
            g1 = exact_grid_primary(rapp)
            pr = optimize_primary(rapp, lam, g1)
            g2 = exact_grid_secondary(rapp, rapp.stages)
            sr = optimize_secondary(rapp, rapp.stages, pr, lam, grid2=g2)
            i2 = int(np.searchsorted(g2.points, app.prior))
            j1 = int(np.searchsorted(g1.points, app.prior))
            res = brute_force_optimum(system, primary_result=pr)
            assert sr.with_values[0][i2, j1] == pytest.approx(res["secondary_risk"], abs=1e-9)

    def test_k2_direct_outcome_summation_cross_check(self):
        """Independent cross-check of the oracle itself: exact risk of the
        optimal policy by direct summation over all four feature outcomes."""
        m1 = ConditionalPmf(p0=[0.7, 0.3], p1=[0.2, 0.8])
        m2 = ConditionalPmf(p0=[0.6, 0.4], p1=[0.1, 0.9])
        prior, cm, ca, lam = 0.3, 2.0, 1.0, 0.12
        costs = (0.5, 2.0)
        stages = (StageModel(nominal=m1, cost_mj=costs[0]), StageModel(nominal=m2, cost_mj=costs[1]))
        app = AppConfig(prior=prior, miss_cost=cm, fa_cost=ca, stages=stages)
        res = brute_force_optimum(CascadeSystem(app, lam))

        best = math.inf
        pis1 = sorted(set(
            float(posterior_update_array(prior, m1.p1[y] / m1.p0[y])) for y in range(2)
        ))
        for tau1 in pis1 + [math.inf]:
            pis2 = set()
            for y1 in range(2):
                pi1 = float(posterior_update_array(prior, m1.p1[y1] / m1.p0[y1]))
                for y2 in range(2):
                    pis2.add(float(posterior_update_array(pi1, m2.p1[y2] / m2.p0[y2])))
            for tau2 in sorted(pis2) + [math.inf]:
                risk = lam * costs[0]
                for y1 in range(2):
                    e1 = prior * m1.p1[y1] + (1 - prior) * m1.p0[y1]
                    pi1 = float(posterior_update_array(prior, m1.p1[y1] / m1.p0[y1]))
                    if pi1 < tau1:
                        risk += e1 * cm * pi1
                        continue
                    risk += e1 * lam * costs[1]
                    for y2 in range(2):
                        e2 = pi1 * m2.p1[y2] + (1 - pi1) * m2.p0[y2]
                        pi2 = float(posterior_update_array(pi1, m2.p1[y2] / m2.p0[y2]))
                        risk += e1 * e2 * (cm * pi2 if pi2 < tau2 else ca * (1 - pi2))
                best = min(best, risk)
        assert res["primary_risk"] == pytest.approx(best, abs=1e-12)

    def test_enumeration_cap_refusal(self, rng):
        app = random_app(rng, k=3, bins=4, u_scale=0.0)
        big = CascadeSystem(app, 0.1, secondary=app, shared=app.stages, coupling="twin")
        with pytest.raises(EnumerationCapError):
            brute_force_optimum(big)


class TestAugmented:
    def test_k1_equals_plain_optimum(self, rng):
        app = random_app(rng, k=1, bins=3)
        lam = 0.1
        a = augmented_optimum(CascadeSystem(app, lam))
        b = brute_force_optimum(CascadeSystem(app, lam))
        assert a["primary_risk"] == b["primary_risk"]

    def test_augmented_never_worse(self, rng):
        for _ in range(6):
            app = random_app(rng, k=2, bins=3)
            lam = float(rng.uniform(0, 0.3))
            a = augmented_optimum(CascadeSystem(app, lam))
            b = brute_force_optimum(CascadeSystem(app, lam))
            assert a["primary_risk"] <= b["primary_risk"] + 1e-12

    def test_equality_when_condition_holds(self, rng):
        """Early positives change nothing when the belief bound keeps the
        positive region unreachable at every intermediate stage."""
        from cascadeshare.dp import cascade_optimality_primary

        checked = 0
        while checked < 5:
            app = random_app(rng, k=2, bins=3, u_scale=0.05)
            lam = float(rng.uniform(0.0, 0.3))
            rapp = robustify_app(app)
            pr = optimize_primary(rapp, lam, exact_grid_primary(rapp))
            if not all(cascade_optimality_primary(pr, rapp)):
                continue
            a = augmented_optimum(CascadeSystem(app, lam))
            b = brute_force_optimum(CascadeSystem(app, lam))
            assert a["primary_risk"] == pytest.approx(b["primary_risk"], abs=1e-12)
            checked += 1

    def test_counterexample_with_unbounded_belief(self):
        """No uncertainty plus a cheap positive declaration: the early
        positive strictly improves and the condition reports false."""
        from cascadeshare.dp import cascade_optimality_primary

        sharp = ConditionalPmf(p0=[0.9, 0.1, 0.0], p1=[0.1, 0.2, 0.7])
        stages = (StageModel(nominal=sharp, cost_mj=1.0), StageModel(nominal=sharp, cost_mj=50.0))
        app = AppConfig(prior=0.3, miss_cost=2.0, fa_cost=0.2, stages=stages)
        lam = 0.05
        rapp = robustify_app(app)
        pr = optimize_primary(rapp, lam, exact_grid_primary(rapp))
        assert not all(cascade_optimality_primary(pr, rapp))
        a = augmented_optimum(CascadeSystem(app, lam))
        b = brute_force_optimum(CascadeSystem(app, lam))
        assert a["primary_risk"] < b["primary_risk"] - 1e-9


class TestTwinExperiment:
    def test_directional_claims(self, rng):
        app = random_app(rng, k=2, bins=4, u_scale=0.03, prior_range=(0.2, 0.4))
        rows = twin_experiment(CascadeSystem(app, 0.05, grid_m=81), [0.1, 0.2, 0.3])
        for r in rows:
            assert r["saving"] > 1.0 or r["e2_mj"] == 0.0
            assert r["risk2_shared"] <= r["risk2_ablated"] + 1e-12

    def test_fully_shared_path_saves_all_extractions(self):
        """When both applications ride the same decisions end to end, the
        twin's detection risks coincide and the ablation pays for every
        feature the shared run got for free."""
        stages = (
            StageModel(nominal=uninformative(3), cost_mj=1.0),
            StageModel(nominal=ConditionalPmf(p0=[0.8, 0.1, 0.1], p1=[0.1, 0.1, 0.8]), cost_mj=2.0),
        )
        app = AppConfig(prior=0.3, miss_cost=2.0, fa_cost=1.0, stages=stages)
        lam = 0.05
        rows = twin_experiment(CascadeSystem(app, lam, grid_m=81), [0.3])
        r = rows[0]
        assert r["detection2_shared"] == pytest.approx(r["detection2_ablated"], abs=1e-9)
        assert r["e2_mj"] == 0.0  # every feature arrived through sharing
        assert r["risk2_ablated"] - r["risk2_shared"] == pytest.approx(lam * (1.0 + 2.0), abs=1e-9)

    def test_budget_mode_solves_per_prior(self, rng):
        from cascadeshare.budget import BudgetSpec

        app = random_app(rng, k=2, bins=3, u_scale=0.0)
        spec = BudgetSpec(budget_mj=1e6, baseline_mj=0.1, lambda_bracket=(0.0, 1.0))
        rows = twin_experiment(CascadeSystem(app, None, budget=spec, grid_m=41), [0.2])
        assert rows[0]["lam"] == 0.0  # generous budget: unconstrained optimum

    def test_configured_secondary_is_replaced_by_the_clone(self, rng):
        """The twin of an independent-coupling system is the twin of its
        primary alone; the Monte Carlo rows read the clone's models too."""
        app1 = random_app(rng, k=2, bins=3, u_scale=0.03)
        app2 = random_app(rng, k=2, bins=3, u_scale=0.03)
        shared = tuple(replace(s, cost_mj=0.0) for s in random_app(rng, k=2, bins=3, u_scale=0.03).stages)
        paired = CascadeSystem(app1, 0.05, secondary=app2, shared=shared, coupling="independent", grid_m=61)
        alone = CascadeSystem(app1, 0.05, grid_m=61)
        paired.robustified  # a clone must not reuse these
        got = twin_experiment(paired, [0.1, 0.3], trials=2000, seed=4)
        assert got == twin_experiment(alone, [0.1, 0.3], trials=2000, seed=4)
        assert "sim_risk2" in got[0]


class TestExecutedRuleIsTheDesign:
    """Between two grid nodes that store the same action, `simulate`'s rule takes that action.

    The extreme reachable beliefs sit on the stage's belief envelope, so a
    threshold placed at an envelope bound would decide them by rounding.
    """

    @pytest.mark.parametrize("prior", [None, 0.05, 0.1, 0.15, 0.2])
    def test_reachable_beliefs_follow_their_bracketing_nodes(self, prior):
        from cascadeshare.cli import load_config, solve_system

        system = load_config(str(GCW_CONFIG))
        assert system.grid_m == 100
        solved = solve_system(system if prior is None else system.at(prior=prior))
        for app, result in ((solved.app1, solved.primary), (solved.app2, solved.secondary.solo)):
            points = result.grid.points
            guide = sim._Guide(points)
            reachable = sim.reachable_beliefs_primary(app)
            for i in range(1, result.k + 1):
                stored = result.continue_mask[i - 1] if i < result.k else result.declare_mask
                hi = np.clip(np.searchsorted(points, reachable[i]), 1, points.size - 1)
                agreed = stored[hi - 1] == stored[hi]
                pi = reachable[i][agreed]
                np.testing.assert_array_equal(sim._lookup_rule(guide, result, i, pi), stored[hi][agreed])


class TestCoupling:
    def test_twin_requires_identical_shared_models(self, rng):
        app = random_app(rng, k=2, bins=3)
        other = random_app(rng, k=2, bins=3)
        with pytest.raises(ValueError, match="identical"):
            CascadeSystem(app, 0.1, secondary=app, shared=other.stages, coupling="twin")

    def test_independent_coupling_draws_targets_separately(self, rng):
        app = random_app(rng, k=1, bins=3, u_scale=0.0)
        rapp = robustify_app(app)
        pr = optimize_primary(rapp, 0.05, Grid.uniform(41))
        sr = optimize_secondary(rapp, rapp.stages, pr, 0.05)
        system = CascadeSystem(app, 0.05, secondary=app, shared=app.stages, coupling="independent")
        rep = simulate(system, pr, sr, n_trials=2000, seed=3)
        assert (rep.trials["x1"] != rep.trials["x2"]).any()


class TestSystemCopies:
    """`CascadeSystem.at` carries the robustified models to other priors and multipliers."""

    @staticmethod
    def _assert_models_match(system, p):
        want = robustify_system(replace(system.primary, prior=p),
                                replace(system.secondary, prior=p), system.shared)
        got = system.at(prior=p).robustified
        for g, w in zip(got[:2], want[:2]):
            assert g.prior == w.prior == p and (g.miss_cost, g.fa_cost) == (w.miss_cost, w.fa_cost)
            assert_stages_bitwise_equal(g.stages, w.stages)
        assert_stages_bitwise_equal(got[2], want[2])

    def test_prior_copy_equals_robustifying_at_that_prior(self, rng):
        for _ in range(4):
            app1 = random_app(rng, k=3, u_scale=0.03)
            app2 = random_app(rng, k=3, u_scale=0.03)
            shared = tuple(replace(s, cost_mj=0.0) for s in random_app(rng, k=3, u_scale=0.03).stages)
            systems = (
                CascadeSystem(app1, 0.05, secondary=app1, shared=app1.stages, coupling="twin"),
                CascadeSystem(app1, 0.05, secondary=app2, shared=shared, coupling="independent"),
            )
            for system in systems:
                for p in rng.uniform(0.02, 0.9, size=3):
                    self._assert_models_match(system, float(p))

    def test_multiplier_copy_replaces_the_budget_and_keeps_the_models(self, rng):
        from cascadeshare.budget import BudgetSpec

        app = random_app(rng, k=2)
        system = CascadeSystem(app, None, budget=BudgetSpec(budget_mj=5.0))
        solved = system.at(lam=0.25)
        assert (solved.lam, solved.budget) == (0.25, None)
        assert all(a is b for a, b in zip(solved.robustified, system.robustified))
        assert solved.at(prior=0.3).at(lam=0.5).robustified[0].prior == 0.3

    def test_exactly_one_of_multiplier_and_budget(self, rng):
        from cascadeshare.budget import BudgetSpec

        app = random_app(rng, k=2)
        with pytest.raises(ValueError, match="exactly one"):
            CascadeSystem(app, None)
        with pytest.raises(ValueError, match="exactly one"):
            CascadeSystem(app, 0.1, budget=BudgetSpec(budget_mj=5.0))


# ---------------------------------------------------------------------------
# the grid lookups `simulate` made with `np.searchsorted` before its guide tables,
# kept as they were: `reference_simulate` and the lookup tests read them
# ---------------------------------------------------------------------------

def _nearest_index(grid: np.ndarray, x: np.ndarray) -> np.ndarray:
    pos = np.clip(np.searchsorted(grid, x), 1, grid.size - 1)
    lo = pos - 1
    return np.where(x - grid[lo] <= grid[pos] - x, lo, pos)


def _lookup_rule(grid: np.ndarray, mask: np.ndarray, threshold: float, pi: np.ndarray) -> np.ndarray:
    """A threshold rule on a grid: the stored action at an exact grid node, `pi >= threshold` elsewhere."""
    pos = np.clip(np.searchsorted(grid, pi), 0, grid.size - 1)
    exact = grid[pos] == pi
    return np.where(exact, mask[pos], pi >= threshold)


def _lookup_table(result: SecondaryResult, table: np.ndarray, pi2, pi1):
    """`table`'s entry at the grid nodes nearest (pi2, pi1); a grid belief reads its own node."""
    return table[_nearest_index(result.grid2.points, pi2), _nearest_index(result.grid1.points, pi1)]


def _exact_then_nearest(result, table, pi2, pi1):
    """The lookup `simulate` used before `_lookup_table`: a belief pair on the
    grid reads its own node, any other pair the nearest node."""
    g2, g1 = result.grid2.points, result.grid1.points
    p2 = np.clip(np.searchsorted(g2, pi2), 0, g2.size - 1)
    p1 = np.clip(np.searchsorted(g1, pi1), 0, g1.size - 1)
    exact = (g2[p2] == pi2) & (g1[p1] == pi1)
    i2 = np.where(exact, p2, _nearest_index(g2, pi2))
    i1 = np.where(exact, p1, _nearest_index(g1, pi1))
    return table[i2, i1]


class TestLookupTable:
    """`sim._lookup_table` reads the same entries as the exact-then-nearest lookup it replaced."""

    @staticmethod
    def _beliefs(rng, points, n=200):
        mids = (points[:-1] + points[1:]) / 2
        return np.concatenate([rng.choice(points, n), rng.choice(mids, n), rng.uniform(0.0, 1.0, n),
                               [0.0, 0.0, 1.0, 1.0]])

    def _assert_same_entries(self, rng, sr):
        pi2 = self._beliefs(rng, sr.grid2.points)
        pi1 = np.concatenate([rng.permutation(self._beliefs(rng, sr.grid1.points)[:-4]), [0.0, 1.0, 0.0, 1.0]])
        g2, g1 = _Guide(sr.grid2.points), _Guide(sr.grid1.points)
        for table in (sr.delta0, *sr.actions_with):
            np.testing.assert_array_equal(sim._lookup_table(table, g2, g1, pi2, pi1),
                                          _exact_then_nearest(sr, table, pi2, pi1))
        for b2, b1 in zip(pi2[::50], pi1[::50]):
            assert (sim._lookup_table(sr.delta0, g2, g1, np.array([b2]), np.array([b1]))[0]
                    == _exact_then_nearest(sr, sr.delta0, b2, b1))

    def test_uniform_grids(self, rng):
        for m in (2, 3, 41, 100):
            app = random_app(rng, k=3, bins=3)
            rapp = robustify_app(app)
            pr = optimize_primary(rapp, 0.05, Grid.uniform(m))
            self._assert_same_entries(rng, optimize_secondary(rapp, rapp.stages, pr, 0.05))

    def test_exact_grids(self, rng):
        for _ in range(4):
            app = random_app(rng, k=2, bins=3)
            rapp = robustify_app(app)
            pr = optimize_primary(rapp, 0.05, exact_grid_primary(rapp))
            sr = optimize_secondary(rapp, rapp.stages, pr, 0.05, grid2=exact_grid_secondary(rapp, rapp.stages))
            self._assert_same_entries(rng, sr)


_B = sim._GUIDE_BUCKETS
_NEEDLES = np.array([0.0, -0.0, 1.0, 5e-324, -5e-324, np.nextafter(1.0, 0.0), np.nan, np.inf, -np.inf,
                     np.nextafter(1.0, 2.0), 1.0 + 1.0 / _B, 1.5, 1e300])


def _on_and_beside(j):
    """The bucket edge j / B and the doubles one ulp either side of it."""
    v = j / _B
    return [np.nextafter(v, -1.0), v, np.nextafter(v, 2.0)]


@st.composite
def _sorted_points(draw):
    """A CDF with zero-mass bins, or an exact grid with repeats and entries on and beside bucket edges."""
    if draw(st.booleans()):
        w = np.array(draw(st.lists(st.sampled_from([0.0, 0.1, 1.0, 3.0]) | st.floats(0.0, 1.0),
                                   min_size=1, max_size=40)))
        return np.cumsum(w / w.sum()) if w.sum() > 0 else np.zeros(w.size)
    edges = st.integers(0, _B).flatmap(lambda j: st.sampled_from(_on_and_beside(j)))
    values = draw(st.lists(edges | st.floats(0.0, 1.0), min_size=1, max_size=30))
    return np.sort(np.repeat(values, draw(st.lists(st.integers(1, 3), min_size=len(values),
                                                       max_size=len(values)))))


def _split_buckets(points, side):
    """The buckets in which `np.searchsorted(points, x, side)` takes more than one value.

    The answer steps at each point inside [0, 1).  Side "left" counts the
    points below x, so a point steps it inside its own bucket unless it is
    that bucket's highest double; side "right" counts the points up to x, so
    unless it is the bucket's lowest double.  The bucket {1.0} holds one double.
    """
    inside = points[(points >= 0.0) & (points < 1.0)]
    j = (inside * _B).astype(np.intp)
    edge = np.nextafter((j + 1) / _B, 0.0) if side == "left" else j / _B
    return set(j[inside != edge].tolist())


class TestGuide:
    """`_Guide` returns exactly `np.searchsorted`, and sends needles to it only from split buckets."""

    @settings(max_examples=150, deadline=None)
    @given(points=_sorted_points(), side=st.sampled_from(["left", "right"]),
           free=st.lists(st.floats(0.0, 1.0), max_size=20))
    @example(points=np.cumsum(np.full(10, 0.1)), side="right", free=[])
    def test_equals_searchsorted(self, points, side, free):
        guide = _Guide(points, side)
        near = np.concatenate([np.nextafter(points, -np.inf), points, np.nextafter(points, np.inf)])
        edges = (np.clip(np.floor(near * _B), 0, _B) + np.array([[0.0], [1.0]])).ravel() / _B
        x = np.concatenate([_NEEDLES, near, edges, np.nextafter(edges, 0.0), free])
        got, want = guide(x), np.searchsorted(points, x, side)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        assert set(np.flatnonzero(guide.table < 0).tolist()) == _split_buckets(points, side)


# ---------------------------------------------------------------------------
# the chunked simulator against the whole-array one it replaced
# ---------------------------------------------------------------------------

def reference_simulate(
    system: CascadeSystem,
    primary_result: PrimaryResult,
    secondary_result: Optional[SecondaryResult] = None,
    n_trials: int = 100_000,
    seed: int = 0,
    no_sharing: bool = False,
) -> SimulationReport:
    """`simulate` as it was before chunking: every trial and stage in whole arrays at once."""
    if n_trials < 1:
        raise ValueError("need at least one trial")
    has2 = system.secondary is not None and secondary_result is not None
    app1, app2, shared = system.robustified
    k = app1.k

    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.random((n_trials, 2 + 2 * k))

    x1 = u[:, 0] < app1.prior
    if has2:
        x2 = x1.copy() if system.coupling == "twin" else (u[:, 1] < app2.prior)

    def draw(model: ConditionalPmf, x: np.ndarray, uu: np.ndarray) -> np.ndarray:
        c0 = np.cumsum(model.p0)
        c1 = np.cumsum(model.p1)
        y0 = np.searchsorted(c0, uu, side="right")
        y1 = np.searchsorted(c1, uu, side="right")
        return np.clip(np.where(x, y1, y0), 0, model.bins - 1)

    y1 = np.stack([draw(app1.stages[i].nominal, x1, u[:, 2 + i]) for i in range(k)], axis=1)
    if has2:
        y2 = np.stack([draw(app2.stages[i].nominal, x2, u[:, 2 + k + i]) for i in range(k)], axis=1)

    r1tab = [likelihood_ratios(app1.stages[i].effective) for i in range(k)]
    if has2:
        r2own = [likelihood_ratios(app2.stages[i].effective) for i in range(k)]
        r2sh = [likelihood_ratios(shared[i].effective) for i in range(k)]

    lam = system.lam
    pi1 = np.full(n_trials, app1.prior)
    alive1 = np.ones(n_trials, dtype=bool)
    stop_stage1 = np.full(n_trials, k)
    e1 = np.full(n_trials, app1.stages[0].cost_mj)
    acts1 = np.full((n_trials, k), "-", dtype="U1")

    if has2:
        pi2 = np.full(n_trials, app2.prior)
        alive2 = np.ones(n_trials, dtype=bool)
        stop_stage2 = np.full(n_trials, k)
        e2 = np.zeros(n_trials)
        acts2 = np.full((n_trials, k + 1), "-", dtype="U1")
        # source of the next update: shared draw or own draw
        if no_sharing:
            delta0_own = np.ones(n_trials, dtype=bool)
        else:
            d0 = _lookup_table(secondary_result, secondary_result.delta0, app2.prior, app1.prior)
            delta0_own = np.full(n_trials, d0 == USE_OWN)
        e2 += np.where(delta0_own, app2.stages[0].cost_mj, 0.0)
        acts2[:, 0] = np.where(delta0_own, "2", "1")
        src_own = delta0_own.copy()
        forced_solo = np.full(n_trials, no_sharing)

    for i in range(1, k + 1):
        pi1 = np.where(alive1, posterior_update_array(pi1, r1tab[i - 1][y1[:, i - 1]]), pi1)
        if has2:
            upd = np.where(src_own, r2own[i - 1][y2[:, i - 1]], r2sh[i - 1][y1[:, i - 1]])
            pi2 = np.where(alive2, posterior_update_array(pi2, upd), pi2)
        if i == k:
            break

        go1 = _lookup_rule(primary_result.grid.points, primary_result.continue_mask[i - 1],
                           primary_result.thresholds[i - 1], pi1) & alive1
        newly_stopped = alive1 & ~go1
        stop_stage1[newly_stopped] = i
        acts1[alive1, i - 1] = np.where(go1[alive1], "F", "0")
        e1 += np.where(go1, app1.stages[i].cost_mj, 0.0)
        alive1 = go1

        if has2:
            avail = go1 & ~forced_solo
            act = np.where(
                avail,
                _lookup_table(secondary_result, secondary_result.actions_with[i - 1], pi2, pi1),
                np.where(_lookup_rule(secondary_result.grid2.points, secondary_result.solo.continue_mask[i - 1],
                                      secondary_result.solo.thresholds[i - 1], pi2), USE_OWN, STOP),
            )
            act = np.where(alive2, act, -1)
            stopping2 = alive2 & (act == STOP)
            stop_stage2[stopping2] = i
            acts2[alive2, i] = np.array(["0", "1", "2"])[act[alive2]]
            going2 = alive2 & (act != STOP)
            src_own = act == USE_OWN
            e2 += np.where(going2 & src_own, app2.stages[i].cost_mj, 0.0)
            forced_solo = forced_solo | ~go1
            alive2 = going2

    declared1 = _lookup_rule(primary_result.grid.points, primary_result.declare_mask,
                             primary_result.thresholds[k - 1], pi1)
    xhat1 = alive1 & declared1
    acts1[alive1, k - 1] = np.where(declared1[alive1], "1", "0")

    miss1 = app1.miss_cost * (x1 & ~xhat1)
    fa1 = app1.fa_cost * (~x1 & xhat1)
    est1 = _estimate(miss1 + fa1, e1, lam, miss1, fa1)

    est2 = None
    if has2:
        declared2 = _lookup_rule(secondary_result.grid2.points, secondary_result.solo.declare_mask,
                                 secondary_result.solo.thresholds[k - 1], pi2)
        xhat2 = alive2 & declared2
        acts2[alive2, k] = np.where(declared2[alive2], "1", "0")
        miss2 = app2.miss_cost * (x2 & ~xhat2)
        fa2 = app2.fa_cost * (~x2 & xhat2)
        est2 = _estimate(miss2 + fa2, e2, lam, miss2, fa2)
    else:
        x2 = acts2 = xhat2 = stop_stage2 = None

    total_energy = e1 + (e2 if has2 else 0.0)
    columns = dict(x1=x1, x2=x2, actions1=acts1, actions2=acts2, xhat1=xhat1, xhat2=xhat2,
                   stop_stage1=stop_stage1, stop_stage2=stop_stage2, energy_mJ=total_energy)
    return SimulationReport(
        n_trials=n_trials,
        seed=seed,
        lam=lam,
        primary=est1,
        secondary=est2,
        energy_total_mean=float(total_energy.mean()),
        energy_total_stderr=float(total_energy.std(ddof=1) / math.sqrt(n_trials)),
        trials={name: _trials_column(c) for name, c in columns.items()},
    )


def _assert_same_report(got, want):
    fields = ("n_trials", "seed", "lam", "primary", "secondary", "energy_total_mean", "energy_total_stderr")
    # repr, so that a NaN standard error at one trial compares equal
    assert repr([getattr(got, f) for f in fields]) == repr([getattr(want, f) for f in fields])
    assert got.trials.keys() == want.trials.keys()
    for name, column in got.trials.items():
        ref = want.trials[name]
        if ref is None:
            assert column is None, name
        else:
            assert column.dtype == ref.dtype and column.tobytes() == ref.tobytes(), name


def _instance(rng, k, coupling, exact):
    """A random two-application system of `k` stages and its policies, on uniform or exact grids."""
    app1 = random_app(rng, k=k, bins=3)
    lam = float(rng.uniform(0.002, 0.03))
    if coupling == "twin":
        system = CascadeSystem(app1, lam, secondary=app1, shared=app1.stages, coupling="twin")
    else:
        app2 = random_app(rng, k=k, bins=3)
        shared = tuple(replace(s, cost_mj=0.0) for s in random_app(rng, k=k, bins=3).stages)
        system = CascadeSystem(app1, lam, secondary=app2, shared=shared, coupling="independent")
    r1, r2, rsh = system.robustified
    pr = optimize_primary(r1, lam, exact_grid_primary(r1) if exact else Grid.uniform(int(rng.integers(3, 60))))
    sr = optimize_secondary(r2, rsh, pr, lam, grid2=exact_grid_secondary(r2, rsh) if exact else None)
    return system, pr, sr


# a single trial has no standard error: both simulators report NaN and numpy warns
@pytest.mark.filterwarnings("ignore:Degrees of freedom:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
class TestChunkedSimulate:
    """`simulate` reproduces the whole-array reference bit for bit, across chunk boundaries."""

    SIZES = (1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5)

    def test_matches_the_whole_array_reference(self, rng):
        cases = [(k, coupling, exact) for k in (1, 2, 3) for coupling in ("twin", "independent")
                 for exact in (False, True)]
        for j, (k, coupling, exact) in enumerate(cases):
            system, pr, sr = _instance(rng, k, coupling, exact)
            seed = int(rng.integers(2**31))
            # every case crosses the boundaries with sharing; the ablation and
            # the primary-only run take one size each, in turn
            for n in self.SIZES:
                _assert_same_report(simulate(system, pr, sr, n, seed), reference_simulate(system, pr, sr, n, seed))
            n = self.SIZES[j % len(self.SIZES)]
            _assert_same_report(simulate(system, pr, sr, n, seed, no_sharing=True),
                                reference_simulate(system, pr, sr, n, seed, no_sharing=True))
            n = self.SIZES[(j + 2) % len(self.SIZES)]
            _assert_same_report(simulate(system, pr, None, n, seed), reference_simulate(system, pr, None, n, seed))

    def test_zero_mass_bins(self):
        """Stage models with empty bins, the top one included: flat CDF steps, a CDF whose last entry
        rounds below 1.0, zero, infinite and NaN likelihood ratios, and beliefs of exactly 0 and 1
        on exact grids."""
        pmfs = [ConditionalPmf(p0=np.array([0.5, 0.5, 0.0, 0.0]), p1=np.array([0.0, 0.3, 0.7, 0.0])),
                ConditionalPmf(p0=np.array([0.2, 0.3, 0.5, 0.0]), p1=np.array([0.1, 0.0, 0.4, 0.5])),
                ConditionalPmf(p0=np.full(10, 0.1), p1=np.array([0.0] * 5 + [0.1, 0.2, 0.3, 0.4, 0.0]))]
        app1 = AppConfig(0.3, 1.0, 1.5, [StageModel(p, UncertaintyParams(), c) for p, c in zip(pmfs, (0.5, 1.0, 2.0))])
        app2 = AppConfig(0.2, 2.0, 1.0, [StageModel(p, UncertaintyParams(), 0.7) for p in pmfs[::-1]])
        n = _CHUNK + 1
        for system in (CascadeSystem(app1, 0.01, secondary=app1, shared=app1.stages, coupling="twin"),
                       CascadeSystem(app1, 0.01, secondary=app2, shared=app1.stages, coupling="independent")):
            r1, r2, rsh = system.robustified
            pr = optimize_primary(r1, system.lam, exact_grid_primary(r1))
            sr = optimize_secondary(r2, rsh, pr, system.lam, grid2=exact_grid_secondary(r2, rsh))
            got = simulate(system, pr, sr, n, 11)
            _assert_same_report(got, reference_simulate(system, pr, sr, n, 11))
            assert set(got.trials["actions1"].tolist()) == {"0--", "F0-", "FF1"}

    def test_matches_the_reference_on_gcw(self):
        from cascadeshare import cli

        solved = cli.solve_system(cli.load_config(str(GCW_CONFIG)))
        for n in (1, _CHUNK + 1, 3 * _CHUNK + 5):
            for no_sharing in (False, True):
                _assert_same_report(
                    simulate(solved.system, solved.primary, solved.secondary, n, 7, no_sharing),
                    reference_simulate(solved.system, solved.primary, solved.secondary, n, 7, no_sharing))

    def test_working_set_is_one_chunk(self):
        """Peak traced memory at 500 000 trials on gcw: the result columns and one chunk.

        The whole-array simulator peaked at about 275 bytes per trial here.
        """
        from cascadeshare import cli

        solved = cli.solve_system(cli.load_config(str(GCW_CONFIG)))
        n = 500_000
        tracemalloc.start()
        try:
            simulate(solved.system, solved.primary, solved.secondary, n, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / n < 180, f"{peak / n:.0f} bytes per trial"
