"""Secondary-application structure: sharing, fallback, condition checks."""

import numpy as np
import pytest

from cascadeshare.models import AppConfig
from cascadeshare.robust import StageModel, robustify_app, robustify_system
from cascadeshare.dp import (
    Grid,
    STOP,
    USE_OWN,
    USE_SHARED,
    belief_bounds,
    cascade_optimality_secondary,
    check_sharing_condition,
    optimize_primary,
    optimize_secondary,
)

from conftest import random_app, random_pmf


def twin_solution(app, lam, m=81):
    rapp = robustify_app(app)
    pr = optimize_primary(rapp, lam, Grid.uniform(m))
    sr = optimize_secondary(rapp, rapp.stages, pr, lam)
    return rapp, pr, sr


class TestTwinStructure:
    def test_first_decision_prefers_shared_feature(self, rng):
        for _ in range(5):
            app = random_app(rng, k=2, bins=3)
            _, _, sr = twin_solution(app, float(rng.uniform(0, 0.3)))
            assert np.all(sr.delta0 == USE_SHARED)

    def test_own_feature_never_selected_while_shared_available(self, rng):
        for _ in range(5):
            app = random_app(rng)
            rapp, pr, sr = twin_solution(app, float(rng.uniform(0, 0.3)))
            for i in range(1, sr.k):
                avail = pr.continue_mask[i - 1]
                if avail.any():
                    assert not (sr.actions_with[i - 1][:, avail] == USE_OWN).any()

    def test_sharing_condition_passes_with_exact_coincidence(self, rng):
        """In the twin the shared and own continuations are the same
        expectation, so the per-stage margin is exactly the priced cost."""
        app = random_app(rng, k=3, bins=3)
        lam = 0.1
        rapp, pr, sr = twin_solution(app, lam)
        checks = check_sharing_condition(sr, rapp)
        for c in checks:
            assert c.passes
            assert c.worst_margin == pytest.approx(-lam * rapp.stages[c.stage - 1].cost_mj, abs=1e-12)


class TestZeroPriceRemovesIncentive:
    def test_strictly_better_own_feature_fails_at_lambda_zero(self, rng):
        """With a free own feature strictly more informative than the shared
        one, the sharing condition must fail somewhere."""
        sharp = random_pmf(rng, 3)
        flat_p = np.full(3, 1 / 3)
        from cascadeshare.models import ConditionalPmf

        flat = ConditionalPmf(p0=flat_p, p1=flat_p)
        own_stages = tuple(StageModel(nominal=sharp, cost_mj=1.0) for _ in range(2))
        shared_stages = tuple(StageModel(nominal=flat, cost_mj=0.0) for _ in range(2))
        app1 = AppConfig(prior=0.3, miss_cost=2.0, fa_cost=1.0, stages=shared_stages)
        app2 = AppConfig(prior=0.3, miss_cost=2.0, fa_cost=1.0, stages=own_stages)
        r1, r2 = robustify_app(app1), robustify_app(app2)
        pr = optimize_primary(r1, 0.0, Grid.uniform(81))
        sr = optimize_secondary(r2, r1.stages, pr, 0.0)
        checks = check_sharing_condition(sr, r2)
        assert not all(c.passes for c in checks)


class TestFallbackBranch:
    def test_without_branch_equals_solo_optimization(self, rng):
        """Once the primary is gone the secondary problem is a plain
        single-application cascade on its own models."""
        for _ in range(4):
            app = random_app(rng, k=3, bins=3)
            lam = float(rng.uniform(0, 0.3))
            rapp, pr, sr = twin_solution(app, lam)
            solo = optimize_primary(rapp, lam, Grid.uniform(81))
            # stages 1..K of the fallback chain match the solo value tables
            for i in range(1, sr.k + 1):
                np.testing.assert_allclose(sr.solo.values[i], solo.values[i], atol=1e-12)
            np.testing.assert_allclose(sr.solo.thresholds[:-1], solo.thresholds[:-1], atol=1e-12)
            assert sr.solo.thresholds[-1] == solo.thresholds[-1]

        # independent coupling, shared windows unlike the own ones: the solo chain is still the own
        # chain's optimization bit for bit, thresholds included, and it keeps the union-window
        # envelope that either feature can reach as its bounds
        wider = 0
        for _ in range(8):
            app1, app2, shared = (random_app(rng, k=3, bins=3) for _ in range(3))
            r1, r2, rshared = robustify_system(app1, app2, shared.stages)
            lam = float(rng.uniform(0, 0.3))
            grid = Grid.uniform(81)
            sr = optimize_secondary(r2, rshared, optimize_primary(r1, lam, grid), lam)
            alone = optimize_primary(r2, lam, grid)
            for name in ("values", "thresholds", "continue_mask", "declare_mask"):
                np.testing.assert_array_equal(getattr(sr.solo, name), getattr(alone, name))
            union = belief_bounds(
                [(min(own.breakpoints.l_lo, sh.breakpoints.l_lo), max(own.breakpoints.l_hi, sh.breakpoints.l_hi))
                 for own, sh in zip(r2.stages, rshared)],
                r2.prior,
            )
            assert sr.solo.bounds == union
            wider += union[1:sr.k] != alone.bounds[1:sr.k]
        assert wider >= 6  # most instances have an envelope wider than the own one

    def test_unavailable_columns_copy_fallback_values(self, rng):
        app = random_app(rng, k=2, bins=3)
        rapp, pr, sr = twin_solution(app, 0.1)
        stopped = ~pr.continue_mask[0]
        if stopped.any():
            for j in np.flatnonzero(stopped):
                np.testing.assert_array_equal(sr.with_values[1][:, j], sr.solo.values[1])
                expect = np.where(sr.solo.continue_mask[0], USE_OWN, STOP)
                np.testing.assert_array_equal(sr.actions_with[0][:, j], expect)


class TestSharingDominance:
    def test_sharing_only_adds_options(self, rng):
        for _ in range(8):
            app = random_app(rng)
            lam = float(rng.uniform(0, 0.4))
            rapp, pr, sr = twin_solution(app, lam)
            shared_val = sr.value_at(app.prior, app.prior)
            assert shared_val <= sr.solo.value_at(app.prior) + 1e-12


class TestSharingMarginOracle:
    def test_margins_match_direct_enumeration(self, rng):
        """Recompute the continuation expectation by explicit summation over
        bins and interpolation nodes at every grid cell; in the twin both
        features take it, so the sharing gap is 0 wherever it is finite."""
        app = random_app(rng, k=2, bins=3, u_scale=0.0)
        lam = 0.15
        rapp, pr, sr = twin_solution(app, lam, m=41)
        g2 = sr.grid2.points
        g1 = sr.grid1.points
        i = 1  # decision at stage 1, feature 2
        own = rapp.stages[1].effective
        from cascadeshare.models import likelihood_ratios, posterior_update

        table = sr.with_values[2]
        f1 = np.zeros((g2.size, g1.size))
        for a, pi2 in enumerate(g2):
            for y in range(own.bins):
                e = pi2 * own.p1[y] + (1 - pi2) * own.p0[y]
                if e == 0:
                    continue
                nxt = posterior_update(pi2, own.p1[y] / own.p0[y])
                k = min(np.searchsorted(g2, nxt, side="right") - 1, g2.size - 2)
                w = (nxt - g2[k]) / (g2[k + 1] - g2[k])
                f1[a, :] += e * ((1 - w) * table[k, :] + w * table[k + 1, :])
        np.testing.assert_allclose(sr.grid2.transition(own).expect(table), f1, atol=1e-12)
        assert sr.sharing_gap[0] == 0.0  # every cell offers the first shared feature
        assert np.all((sr.sharing_gap == 0.0) | (sr.sharing_gap == -np.inf))


class TestSharingGap:
    def test_independent_margins_match_operator_reference(self, rng):
        """On independent-coupling instances each stage's worst margin is the largest
        difference of the two continuations, recomputed from the grid's operators, over
        the cells where the shared feature is on offer, less the priced own feature."""
        finite = offered_nowhere = 0
        for j in range(16):
            k = int(rng.integers(1, 4))
            app1, app2, shared = (random_app(rng, k=k, bins=int(rng.integers(2, 6))) for _ in range(3))
            r1, r2, rshared = robustify_system(app1, app2, shared.stages)
            # a large multiplier makes the primary stop early, so some stages offer no shared feature
            lam = float(rng.uniform(0, 0.3) if j % 2 else rng.uniform(1.0, 3.0))
            grid = Grid.uniform(int(rng.integers(3, 90)))
            pr = optimize_primary(r1, lam, grid)
            sr = optimize_secondary(r2, rshared, pr, lam)
            checks = check_sharing_condition(sr, r2)
            assert [c.stage for c in checks] == list(range(1, k + 1))
            for i, (c, own, sh) in enumerate(zip(checks, r2.stages, rshared)):
                nxt = sr.with_values[i + 1]
                diff = grid.transition(sh.effective).expect(nxt) - grid.transition(own.effective).expect(nxt)
                avail = pr.continue_mask[i - 1] if i else np.ones(grid.m, dtype=bool)
                gap = diff[:, avail].max() if avail.any() else -np.inf
                assert c.worst_margin == pytest.approx(gap - lam * own.cost_mj, rel=0, abs=1e-12)
                assert c.passes == (c.worst_margin <= 0.0)
                finite += bool(np.isfinite(gap) and gap != 0.0)
                offered_nowhere += not avail.any()
        assert finite >= 16 and offered_nowhere >= 1  # both kinds of stage are covered

    def test_bundled_config_takes_one_product_for_both_features(self, monkeypatch):
        """The bundled config's own and shared models hold equal PMFs, so one solve takes
        K products for the solo chain and K that serve both features: 2K in all."""
        from pathlib import Path

        from cascadeshare import dp
        from cascadeshare.cli import load_config

        system = load_config(str(Path(__file__).resolve().parent.parent / "configs" / "gcw_twin.json"))
        app1, app2, shared = system.robustified
        pr = optimize_primary(app1, system.lam, system.grid)
        calls = []
        expect = dp._Transition.expect

        def counting(op, *args, **kwargs):
            calls.append(op)
            return expect(op, *args, **kwargs)

        monkeypatch.setattr(dp._Transition, "expect", counting)
        sr = optimize_secondary(app2, shared, pr, system.lam)
        assert len(calls) == 2 * app2.k == 6
        assert np.all((sr.sharing_gap == 0.0) | (sr.sharing_gap == -np.inf))


class TestSecondaryCascadeOptimality:
    def test_twin_checker_runs_both_families(self, rng):
        app = random_app(rng, k=3, bins=3)
        rapp, pr, sr = twin_solution(app, 0.1)
        flags = cascade_optimality_secondary(sr, rapp)
        assert len(flags) == app.k - 1
        assert all(isinstance(bool(f), bool) for f in flags)
