"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
summary lines.  Tolerances are fixed here and nowhere else.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cascadeshare.models import (
    AppConfig,
    ConditionalPmf,
    evidence_pmf,
    likelihood_ratios,
    posterior_update,
    posterior_update_array,
)
from cascadeshare.robust import (
    DegenerateUncertaintyError,
    StageModel,
    UncertaintyParams,
    robustify,
    robustify_app,
    solve_breakpoints,
)
from cascadeshare.dp import (
    Grid,
    cascade_optimality_primary,
    check_sharing_condition,
    forward_primary,
    optimize_primary,
    optimize_secondary,
)
from cascadeshare.budget import BudgetSpec, cost_from_components, solve_lambda, solve_system
from cascadeshare.sim import (
    CascadeSystem,
    EnumerationCapError,
    augmented_optimum,
    brute_force_optimum,
    exact_grid_primary,
    exact_grid_secondary,
    simulate,
    twin_experiment,
)

from conftest import random_app, random_pmf
from test_robust import grid_search_breakpoints

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "gcw_twin.json"


def _report(name, detail):
    print(f"\n[PASS] {name}: {detail}")


def draw_two_app_instance(rng):
    """Random tiny system: K in {1,2,3}, 2-4 bins, random costs/priors/lambda."""
    while True:
        k = int(rng.integers(1, 4))
        bins = 2 if k == 3 else int(rng.integers(2, 5))
        app1 = random_app(rng, k=k, bins=bins)
        lam = float(rng.uniform(0.0, 0.4))
        if rng.random() < 0.5:
            system = CascadeSystem(app1, lam, secondary=app1, shared=app1.stages, coupling="twin")
        else:
            app2 = random_app(rng, k=k, bins=bins)
            try:
                shared = tuple(
                    StageModel(nominal=random_pmf(rng, bins),
                               uncertainty=s.uncertainty, cost_mj=0.0)
                    for s in app1.stages
                )
                robustify_app(replace(app2, stages=shared))
            except DegenerateUncertaintyError:
                continue
            system = CascadeSystem(app1, lam, secondary=app2, shared=shared, coupling="independent")
        return system


def solve_two_app(system):
    rapp1 = robustify_app(system.primary)
    g1 = exact_grid_primary(rapp1)
    pr = optimize_primary(rapp1, system.lam, g1)
    rapp2 = robustify_app(system.secondary)
    shared = tuple(robustify_app(replace(system.secondary, stages=system.shared)).stages)
    g2 = exact_grid_secondary(rapp2, shared)
    sr = optimize_secondary(rapp2, shared, pr, system.lam, grid2=g2)
    return rapp1, rapp2, shared, pr, sr


class TestCriterion1OracleEquivalence:
    def test_dp_equals_brute_force_on_200_tiny_instances(self):
        """DP on the exact reachable-belief grid == exhaustive enumeration,
        both applications, within 1e-9, in under 60 seconds."""
        rng = np.random.default_rng(1001)
        t0 = time.perf_counter()
        worst = 0.0
        verified = 0
        while verified < 200:
            system = draw_two_app_instance(rng)
            try:
                rapp1, rapp2, shared, pr, sr = solve_two_app(system)
                res = brute_force_optimum(system, primary_result=pr,
                                          prepared=(rapp1, rapp2, shared))
            except EnumerationCapError:
                continue
            d1 = abs(pr.value_at(system.primary.prior) - res["primary_risk"])
            i2 = int(np.searchsorted(sr.grid2.points, system.secondary.prior))
            j1 = int(np.searchsorted(sr.grid1.points, system.primary.prior))
            d2 = abs(float(sr.with_values[0][i2, j1]) - res["secondary_risk"])
            worst = max(worst, d1, d2)
            assert d1 <= 1e-9
            assert d2 <= 1e-9
            verified += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        _report("criterion 1 (oracle equivalence)",
                f"{verified} instances, worst |DP - enumeration| = {worst:.2e}, {elapsed:.1f}s")


class TestCriterion2FinalThreshold:
    def test_closed_form_bitwise(self):
        rng = np.random.default_rng(1002)
        for _ in range(25):
            cm = float(rng.uniform(1e-3, 50.0))
            ca = float(rng.uniform(1e-3, 50.0))
            app = AppConfig(prior=0.2, miss_cost=cm, fa_cost=ca,
                            stages=(StageModel(nominal=random_pmf(rng, 3)),))
            res = optimize_primary(robustify_app(app), 0.0, Grid.uniform(21))
            assert res.thresholds[-1] == ca / (ca + cm)  # bitwise
        app = AppConfig(prior=0.2, miss_cost=2.0, fa_cost=1.0,
                        stages=(StageModel(nominal=random_pmf(rng, 3)),))
        res = optimize_primary(robustify_app(app), 0.0, Grid.uniform(21))
        assert res.thresholds[-1] == 1.0 / 3.0
        _report("criterion 2 (final threshold)",
                "tau_K == C_A/(C_A+C_M) bitwise on 25 random cost pairs; 1/3 at reference costs")


class TestCriterion3ValueFunctionStructure:
    def test_value_structure_on_every_optimized_instance(self):
        rng = np.random.default_rng(1003)
        n = 0
        for _ in range(12):
            app = random_app(rng)
            lam = float(rng.uniform(0.0, 0.4))
            rapp = robustify_app(app)
            grid = Grid.uniform(101)
            pr = optimize_primary(rapp, lam, grid)
            sr = optimize_secondary(rapp, rapp.stages, pr, lam)
            dx = np.diff(grid.points)
            for i in range(pr.values.shape[0]):
                v = pr.values[i]
                assert np.diff(v, 2).max() <= 1e-9                      # concavity
                assert (np.diff(v) / dx).max() <= app.miss_cost + 1e-9  # slope bound
                if i >= 1:
                    assert v[0] == 0.0                                  # zero fixed point
            for i in range(1, sr.k + 1):
                assert sr.solo.values[i][0] == 0.0
                assert np.diff(sr.solo.values[i], 2).max() <= 1e-9
                assert np.diff(sr.with_values[i], 2, axis=0).max() <= 1e-9
                assert (np.diff(sr.with_values[i], axis=0) / dx[:, None]).max() \
                    <= app.miss_cost + 1e-9
            # belief-update martingale under the evidence mixture
            for stage in rapp.stages:
                m = stage.effective
                pi = float(rng.random())
                e = evidence_pmf(m, pi)
                upd = posterior_update_array(pi, likelihood_ratios(m))
                assert abs(float(np.nansum(e * upd)) - pi) <= 1e-9
            n += 1
        _report("criterion 3 (value-function structure)",
                f"concavity/zero-point/slope/martingale on {n} optimized instances")


class TestCriterion4Robustification:
    def test_identity_normalization_clipping_bounds_and_oracle(self):
        rng = np.random.default_rng(1004)
        # zero-uncertainty identity at 1e-12
        for _ in range(5):
            m = random_pmf(rng, int(rng.integers(2, 8)))
            out = robustify(m, UncertaintyParams(), solve_breakpoints(m, UncertaintyParams()))
            assert np.abs(out.p0 - m.p0).max() <= 1e-12
            assert np.abs(out.p1 - m.p1).max() <= 1e-12

        solved = 0
        oracle_checked = 0
        while solved < 25:
            m = random_pmf(rng, int(rng.integers(2, 6)))
            e = float(rng.random() * 0.08)
            u = UncertaintyParams(e, e, float(rng.random() * 0.08), float(rng.random() * 0.08))
            try:
                b = solve_breakpoints(m, u)
            except DegenerateUncertaintyError:
                continue
            out = robustify(m, u, b)
            assert abs(out.p0.sum() - 1.0) <= 1e-9       # normalization
            assert abs(out.p1.sum() - 1.0) <= 1e-9
            r = likelihood_ratios(out)
            r = r[~np.isnan(r)]
            assert np.all(r >= b.l_lo - 1e-9)            # clipped ratios
            assert np.all(r <= b.l_hi + 1e-9)
            pi = float(rng.uniform(0.05, 0.95))
            lo = posterior_update(pi, b.l_lo)
            hi = posterior_update(pi, b.l_hi)
            for ratio in r:                               # posterior bounds
                assert lo - 1e-9 <= posterior_update(pi, ratio) <= hi + 1e-9
            if oracle_checked < 20:
                glo, ghi = grid_search_breakpoints(m, u)
                assert abs(b.l_lo - glo) <= 1e-6
                assert abs(b.l_hi - ghi) <= 1e-6
                oracle_checked += 1
            solved += 1
        _report("criterion 4 (robustification)",
                f"25 random models; {oracle_checked} grid-search oracle agreements at 1e-6")


class TestCriterion5MonteCarloConsistency:
    def test_million_trial_agreement(self):
        """Simulated risk and energy vs the optimizer at 3 binomial standard
        errors, 1e6 trials, >= 10 random instances, under 5 minutes."""
        rng = np.random.default_rng(1005)
        t0 = time.perf_counter()
        zs = []
        for _ in range(10):
            app = random_app(rng, u_scale=0.0, prior_range=(0.1, 0.5))
            lam = float(rng.uniform(0.01, 0.25))
            rapp = robustify_app(app)
            pr = optimize_primary(rapp, lam, exact_grid_primary(rapp))
            _, e_dp, _ = forward_primary(pr, rapp)
            rep = simulate(CascadeSystem(app, lam), pr, n_trials=1_000_000, seed=77)
            dr = abs(rep.primary.risk_mean - pr.value_at(app.prior))
            de = abs(rep.primary.energy_mean - e_dp)
            assert dr <= 3 * rep.primary.risk_stderr + 1e-9
            assert de <= 3 * rep.primary.energy_stderr + 1e-9
            if rep.primary.risk_stderr > 0:
                zs.append(dr / rep.primary.risk_stderr)
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0
        _report("criterion 5 (Monte Carlo consistency)",
                f"10 instances x 1e6 trials, max risk z = {max(zs):.2f}, {elapsed:.1f}s")


class TestCriterion6SharingStructure:
    def test_sharing_condition_implies_no_own_feature(self):
        """Twin config plus 50 random condition-passing instances: the
        with-branch never selects the own feature and the first decision is
        the shared one."""
        from cascadeshare.cli import load_config, solve_system

        cfg = load_config(str(CONFIG))
        solved = solve_system(cfg)
        checks = check_sharing_condition(solved.secondary, solved.app2)
        assert all(c.passes for c in checks)
        _assert_structure(solved.secondary, solved.primary)

        rng = np.random.default_rng(1006)
        passing = 0
        while passing < 50:
            system = draw_two_app_instance(rng)
            rapp1 = robustify_app(system.primary)
            pr = optimize_primary(rapp1, system.lam, Grid.uniform(61))
            rapp2 = robustify_app(system.secondary)
            shared = tuple(robustify_app(replace(system.secondary, stages=system.shared)).stages)
            sr = optimize_secondary(rapp2, shared, pr, system.lam)
            if not all(c.passes for c in check_sharing_condition(sr, rapp2)):
                continue
            _assert_structure(sr, pr)
            passing += 1
        _report("criterion 6 (sharing structure)",
                "twin config + 50 random passing instances: shared feature always chosen")


def _assert_structure(sr, pr):
    assert np.all(sr.delta0 == 1)  # first decision: use the shared feature
    for i in range(1, sr.k):
        avail = pr.continue_mask[i - 1]
        if avail.any():
            assert not (sr.actions_with[i - 1][:, avail] == 2).any()


class TestCriterion7CascadeOptimality:
    def test_condition_true_means_early_positives_useless(self):
        rng = np.random.default_rng(1007)
        all_true_checked = 0
        seen_false = 0
        while all_true_checked < 15:
            app = random_app(rng, k=int(rng.integers(2, 4)), bins=int(rng.integers(2, 4)))
            lam = float(rng.uniform(0.0, 0.4))
            rapp = robustify_app(app)
            pr = optimize_primary(rapp, lam, exact_grid_primary(rapp))
            flags = cascade_optimality_primary(pr, rapp)
            try:
                aug = augmented_optimum(CascadeSystem(app, lam))
                base = brute_force_optimum(CascadeSystem(app, lam))
            except EnumerationCapError:
                continue
            if all(flags):
                assert aug["primary_risk"] == pytest.approx(base["primary_risk"], abs=1e-12)
                all_true_checked += 1
            else:
                assert aug["primary_risk"] <= base["primary_risk"] + 1e-12
                seen_false += 1

        # constructed counterexample: unbounded belief, cheap positive
        sharp = ConditionalPmf(p0=[0.9, 0.1, 0.0], p1=[0.1, 0.2, 0.7])
        stages = (StageModel(nominal=sharp, cost_mj=1.0), StageModel(nominal=sharp, cost_mj=50.0))
        app = AppConfig(prior=0.3, miss_cost=2.0, fa_cost=0.2, stages=stages)
        lam = 0.05
        rapp = robustify_app(app)
        pr = optimize_primary(rapp, lam, exact_grid_primary(rapp))
        assert pr.bounds[1][1] == 1.0
        assert not all(cascade_optimality_primary(pr, rapp))
        aug = augmented_optimum(CascadeSystem(app, lam))
        base = brute_force_optimum(CascadeSystem(app, lam))
        assert aug["primary_risk"] < base["primary_risk"] - 1e-9
        _report("criterion 7 (cascade-form optimality)",
                f"{all_true_checked} all-true instances exactly equal; "
                f"counterexample improves by {base['primary_risk'] - aug['primary_risk']:.4f}")


class TestCriterion8BudgetSolving:
    def test_multiplier_search(self):
        rng = np.random.default_rng(1008)
        stages = tuple(StageModel(nominal=random_pmf(rng, 6), cost_mj=c) for c in (1.0, 5.0, 20.0))
        app = AppConfig(prior=0.2, miss_cost=2.0, fa_cost=1.0, stages=stages)
        grid = Grid.uniform(101)
        priced = CascadeSystem(app, 0.0, grid_m=grid.m)

        def consumption(lam):
            solved = solve_system(priced.at(lam=lam))
            return solved.e1_mj + solved.e2_mj

        # slack flag when the unconstrained optimum fits
        sol = solve_lambda(CascadeSystem(app, None, budget=BudgetSpec(budget_mj=1e6), baseline_mj=0.5,
                                          grid_m=grid.m))
        assert sol.slack and sol.lam == 0.0

        # achievable targets matched within relative tolerance
        for lam0 in (0.01, 0.03, 0.08):
            spec = BudgetSpec(budget_mj=consumption(lam0) + 0.5, lambda_bracket=(0.0, 5.0))
            sol = solve_lambda(CascadeSystem(app, None, budget=spec, baseline_mj=0.5, grid_m=grid.m))
            target = spec.budget_mj - sol.baseline_mj
            assert sol.e1_mj <= target + 1e-12
            assert abs(sol.e1_mj - target) / target <= 1e-3

        values = [consumption(l) for l in np.linspace(0.0, 0.3, 20)]
        assert all(values[i + 1] <= values[i] + 1e-12 for i in range(19))
        _report("criterion 8 (budget solving)",
                "slack flag, 3 achievable targets at 1e-3, 20-point sweep non-increasing")


class TestCriterion9TwinExperiment:
    def test_reference_constants_and_direction(self):
        d1 = cost_from_components([{"power_mW": 86.4, "time_ms": 16.0}])
        d2 = cost_from_components([{"power_mW": 900.0, "time_ms": 11.0},
                                   {"power_mW": 4744.0, "time_ms": 0.00037}])
        d3 = cost_from_components([{"power_mW": 4744.0, "time_ms": 15.0}])
        assert d1 == pytest.approx(1.3824, abs=1e-12)
        assert d2 == pytest.approx(9.90176, abs=1e-5)
        assert d3 == pytest.approx(71.16, abs=1e-12)

        from cascadeshare.cli import load_config

        cfg = load_config(str(CONFIG))
        assert [s.cost_mj for s in cfg.primary.stages] == pytest.approx([d1, d2, d3], abs=1e-12)
        rows = twin_experiment(cfg, [0.05, 0.10, 0.15, 0.20])
        savings = []
        for r in rows:
            assert r["saving"] > 1.0
            assert r["risk2_shared"] <= r["risk2_ablated"] + 1e-12
            savings.append(r["saving"])
        shown = ", ".join("inf" if math.isinf(s) else f"{s:.2f}" for s in savings)
        _report("criterion 9 (twin experiment)",
                f"saving factors per prior: [{shown}] (headline magnitudes are "
                "dataset-dependent and logged, not asserted)")


class TestCriterion10Scaling:
    def test_doubling_grid_size_scales_quadratically(self):
        rng = np.random.default_rng(1010)
        app = random_app(rng, k=3, bins=2, u_scale=0.03)
        stages = tuple(replace(s, nominal=random_pmf(rng, 40)) for s in app.stages)
        app = replace(app, stages=stages)
        rapp = robustify_app(app)

        def run(m):
            grid = Grid.uniform(m)
            pr = optimize_primary(rapp, 0.02, grid)
            optimize_secondary(rapp, rapp.stages, pr, 0.02)

        run(100)  # warmup
        medians = {}
        for m in (100, 200, 400):
            ts = []
            for _ in range(3):
                t0 = time.perf_counter()
                run(m)
                ts.append(time.perf_counter() - t0)
            medians[m] = sorted(ts)[1]
        r1 = medians[200] / medians[100]
        r2 = medians[400] / medians[200]
        assert r1 <= 5.0
        assert r2 <= 5.0
        _report("criterion 10 (quadratic grid scaling)",
                f"doubling ratios {r1:.2f}x and {r2:.2f}x (target 4x, cap 5x)")
