"""Energy accounting and multiplier search."""

import numpy as np
import pytest

from cascadeshare.models import AppConfig
from cascadeshare.robust import StageModel, robustify_app
from cascadeshare.dp import Grid, forward_primary, optimize_primary, optimize_secondary
from cascadeshare.budget import (
    BracketFailureError,
    BudgetSpec,
    cost_from_components,
    energy_mj,
    expected_resource,
    solve_lambda,
    solve_system,
)
from cascadeshare.sim import CascadeSystem

from conftest import assert_bitwise_equal, random_app, random_pmf


def _budgeted(app, spec, grid):
    """The primary-only system that solves `spec` on `grid`, a uniform grid."""
    return CascadeSystem(app, None, budget=spec, grid_m=grid.m)


class TestHardwareArithmetic:
    def test_reference_stage_costs(self):
        """Stage energies from component power draws and profiled times."""
        d1 = cost_from_components([{"power_mW": 86.4, "time_ms": 16.0}])
        d2 = cost_from_components(
            [{"power_mW": 900.0, "time_ms": 11.0}, {"power_mW": 4744.0, "time_ms": 0.00037}]
        )
        d3 = cost_from_components([{"power_mW": 4744.0, "time_ms": 15.0}])
        assert d1 == pytest.approx(1.3824, abs=1e-12)
        assert d2 == pytest.approx(9.9017554, abs=1e-6)
        assert d2 == pytest.approx(9.90175528, abs=1e-12)
        assert d3 == pytest.approx(71.16, abs=1e-12)

    def test_always_on_baseline(self):
        assert energy_mj(3.6, 0.032) == pytest.approx(0.1152, abs=1e-15)


class TestExpectedResource:
    def test_immediate_stop_charges_first_feature_only(self, rng):
        app = random_app(rng, k=3, bins=3)
        rapp = robustify_app(app)
        lam = (app.miss_cost + 1.0) / min(s.cost_mj for s in app.stages[1:])
        res = optimize_primary(rapp, lam, Grid.uniform(61))
        e1, e2, total = expected_resource(res, rapp, baseline_mj=0.25)
        assert e1 == rapp.stages[0].cost_mj
        assert e2 == 0.0
        assert total == e1 + 0.25

    def test_twin_sharing_consumes_less(self, rng):
        """Own-feature charges accrue only after the fallback, so the
        secondary's bill is below the primary's whenever sharing occurs."""
        for _ in range(5):
            app = random_app(rng, k=2, bins=3)
            lam = float(rng.uniform(0.0, 0.3))
            rapp = robustify_app(app)
            pr = optimize_primary(rapp, lam, Grid.uniform(81))
            sr = optimize_secondary(rapp, rapp.stages, pr, lam)
            e1, e2, _ = expected_resource(pr, rapp, sr, rapp, rapp.stages)
            if (sr.delta0 == 1).all():  # first feature shared for free
                assert e2 < e1 + 1e-12

    def test_continuation_probabilities_match_enumeration(self, rng):
        """P(continue) per stage by direct summation over feature paths."""
        from cascadeshare.models import likelihood_ratios, posterior_update
        from cascadeshare.sim import exact_grid_primary

        app = random_app(rng, k=2, bins=2, u_scale=0.0)
        lam = 0.1
        rapp = robustify_app(app)
        res = optimize_primary(rapp, lam, exact_grid_primary(rapp))
        _, energy, cont = forward_primary(res, rapp)

        m1 = rapp.stages[0].effective
        g = res.grid.points
        p_cont = 0.0
        for y in range(m1.bins):
            e = app.prior * m1.p1[y] + (1 - app.prior) * m1.p0[y]
            nxt = posterior_update(app.prior, m1.p1[y] / m1.p0[y])
            idx = int(np.searchsorted(g, nxt))
            if res.continue_mask[0][idx]:
                p_cont += e
        assert cont[0] == pytest.approx(p_cont, abs=1e-12)
        assert energy == pytest.approx(
            rapp.stages[0].cost_mj + rapp.stages[1].cost_mj * p_cont, abs=1e-12
        )


class TestSolveLambda:
    def _app(self, rng):
        stages = tuple(
            StageModel(nominal=random_pmf(rng, 6), cost_mj=c) for c in (1.0, 5.0, 20.0)
        )
        return AppConfig(prior=0.2, miss_cost=2.0, fa_cost=1.0, stages=stages)

    def test_slack_when_budget_generous(self, rng):
        app = self._app(rng)
        spec = BudgetSpec(budget_mj=1e6, baseline_mj=0.5, lambda_bracket=(0.0, 2.0))
        sol = solve_lambda(_budgeted(app, spec, Grid.uniform(101)))
        assert sol.slack
        assert sol.lam == 0.0

    def test_bracket_failure_when_budget_unreachable(self, rng):
        app = self._app(rng)
        spec = BudgetSpec(budget_mj=0.6, baseline_mj=0.5, lambda_bracket=(0.0, 1e-9))
        with pytest.raises(BracketFailureError):
            solve_lambda(_budgeted(app, spec, Grid.uniform(101)))

    def test_achievable_target_met_within_tolerance(self, rng):
        """Budgets placed on the achievable consumption curve are matched."""
        from cascadeshare.budget import _consumption

        app = self._app(rng)
        rapp = robustify_app(app)
        grid = Grid.uniform(101)
        for lam0 in (0.02, 0.05):
            e_ref, _ = _consumption(lam0, rapp, grid, None, None)
            spec = BudgetSpec(budget_mj=e_ref + 0.5, baseline_mj=0.5, lambda_bracket=(0.0, 5.0))
            sol = solve_lambda(_budgeted(app, spec, grid))
            assert not sol.slack
            target = spec.budget_mj - spec.baseline_mj
            assert sol.e1_mj <= target + 1e-12
            assert abs(sol.e1_mj - target) / target <= spec.tolerance
            # smallest multiplier on the step: nothing cheaper fits the budget
            cheaper, _ = _consumption(sol.lam * 0.98, rapp, grid, None, None)
            assert cheaper >= sol.e1_mj - 1e-12

    def test_search_stops_at_the_first_midpoint_within_tolerance(self, rng, monkeypatch):
        """With tolerance 1 every feasible midpoint qualifies, so the first one is returned."""
        from cascadeshare import budget

        app = self._app(rng)
        rapp = robustify_app(app)
        grid = Grid.uniform(101)
        e_ref, _ = budget._consumption(0.05, rapp, grid, None, None)
        spec = BudgetSpec(budget_mj=e_ref + 0.5, baseline_mj=0.5, lambda_bracket=(0.0, 5.0), tolerance=1.0)
        target = spec.budget_mj - spec.baseline_mj

        lo, hi = spec.lambda_bracket
        midpoints = 0
        while True:
            mid = 0.5 * (lo + hi)
            midpoints += 1
            if budget._consumption(mid, rapp, grid, None, None)[0] <= target:
                break
            lo = mid

        calls = []
        original = budget._consumption
        monkeypatch.setattr(budget, "_consumption", lambda *a, **kw: calls.append(a[0]) or original(*a, **kw))
        sol = solve_lambda(_budgeted(app, spec, grid))
        assert sol.lam == mid and not sol.slack
        assert sol.e1_mj <= target
        assert len(calls) == 2 + midpoints < 10

    def test_reused_operators_give_the_same_consumption(self, rng):
        """A grid that already holds its operators prices exactly like a fresh one."""
        from cascadeshare.budget import _consumption

        app = robustify_app(self._app(rng))
        grid = Grid.uniform(61)
        _consumption(0.1, app, grid, app, app.stages)
        for lam in (0.0, 0.03, 0.2):
            assert _consumption(lam, app, grid, app, app.stages) == _consumption(
                lam, app, Grid.uniform(61), app, app.stages)

    def test_consumption_nonincreasing_in_multiplier(self, rng):
        app = self._app(rng)
        rapp = robustify_app(app)
        grid = Grid.uniform(101)
        from cascadeshare.budget import _consumption

        values = [sum(_consumption(l, rapp, grid, None, None)) for l in np.linspace(0.0, 0.3, 20)]
        assert all(values[i + 1] <= values[i] + 1e-12 for i in range(len(values) - 1))

    def test_json_shape(self, rng):
        app = self._app(rng)
        spec = BudgetSpec(budget_mj=1e6, baseline_mj=0.5)
        doc = solve_lambda(_budgeted(app, spec, Grid.uniform(51))).to_json()
        assert set(doc) == {"lambda", "E1_mJ", "E2_mJ", "baseline_mJ", "total_mJ", "slack"}


class TestSolveSystem:
    """A budget solve keeps the policies its search solved at the returned multiplier."""

    def test_search_policies_equal_a_fresh_solve_at_the_multiplier(self, rng):
        from cascadeshare.budget import _consumption

        for twin in (False, True):
            for _ in range(3):
                app = random_app(rng, k=3, bins=4)
                rapp = robustify_app(app)
                grid = Grid.uniform(int(rng.integers(20, 80)))
                app2, shared = (rapp, rapp.stages) if twin else (None, None)
                e1, e2 = _consumption(float(rng.uniform(0.01, 0.2)), rapp, grid, app2, shared)
                for budget_mj in (e1 + e2 + 0.5, 1e6):  # a bisection, and the bracket's slack end
                    spec = BudgetSpec(budget_mj=budget_mj, baseline_mj=0.5, lambda_bracket=(0.0, 5.0))
                    system = (CascadeSystem(app, None, secondary=app, shared=app.stages, coupling="twin",
                                            budget=spec, grid_m=grid.m) if twin
                              else _budgeted(app, spec, grid))
                    solved = solve_system(system)
                    fresh = solve_system(system.at(lam=solved.lam))
                    assert solved.budget_solution.primary is solved.primary
                    assert_bitwise_equal(solved.primary, fresh.primary)
                    assert_bitwise_equal(solved.secondary, fresh.secondary)
                    assert (solved.secondary is None) is not twin


class TestBudgetSpecValidation:
    def test_rejects_budget_below_baseline(self):
        with pytest.raises(ValueError):
            BudgetSpec(budget_mj=0.1, baseline_mj=0.2)

    def test_rejects_bad_bracket(self):
        with pytest.raises(ValueError):
            BudgetSpec(budget_mj=1.0, lambda_bracket=(1.0, 0.5))
