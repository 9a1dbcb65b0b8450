"""Backward value iteration: closed forms, value-function structure, consistency."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cascadeshare import dp
from cascadeshare.models import AppConfig, ConditionalPmf, evidence_pmf, likelihood_ratios, posterior_update_array
from cascadeshare.robust import StageModel, UncertaintyParams, robustify_app
from cascadeshare.dp import (
    Grid,
    RiskBreakdown,
    STOP,
    USE_OWN,
    USE_SHARED,
    cascade_optimality_primary,
    forward_primary,
    forward_secondary,
    optimize_primary,
    optimize_secondary,
)

from conftest import assert_bitwise_equal, random_app, random_pmf

GCW_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "gcw_twin.json"


# ---------------------------------------------------------------------------
# reference kernels: the per-support-bin loops that the M x M operator
# replaced, and the full (M2 x M1) secondary recursion and forward pass
# ---------------------------------------------------------------------------

class LoopTransition:
    """Per-bin transition tables with hand-written loop kernels (the oracle).

    `expect` and `push` dispatch on the rank of their input, so the class can
    stand in for `dp._Transition` inside the optimizers and forward passes.
    """

    def __init__(self, grid, model):
        support = model.support()
        ratios = likelihood_ratios(model)[support]
        g = grid.points
        self.grid = grid
        self.support = support
        self.evidence = g[:, None] * model.p1[support][None, :] + (1.0 - g)[:, None] * model.p0[support][None, :]
        pi_next = posterior_update_array(g[:, None], ratios[None, :])
        idx = np.clip(np.searchsorted(g, pi_next, side="right") - 1, 0, grid.m - 2)
        self.pi_next = pi_next
        self.idx = idx
        self.w_hi = (pi_next - g[idx]) / (g[idx + 1] - g[idx])

    def expect_vector(self, values):
        interp = values[self.idx] * (1.0 - self.w_hi) + values[self.idx + 1] * self.w_hi
        return np.einsum("my,my->m", self.evidence, interp)

    def expect_columns(self, table):
        out = np.zeros_like(table)
        for y in range(self.support.size):
            lo = table[self.idx[:, y], :]
            hi = table[self.idx[:, y] + 1, :]
            mix = lo * (1.0 - self.w_hi[:, y])[:, None] + hi * self.w_hi[:, y][:, None]
            out += self.evidence[:, y][:, None] * mix
        return out

    def push_vector(self, mass):
        m = self.grid.m
        contrib = mass[:, None] * self.evidence
        lo = np.bincount(self.idx.ravel(), weights=(contrib * (1.0 - self.w_hi)).ravel(), minlength=m)
        hi = np.bincount((self.idx + 1).ravel(), weights=(contrib * self.w_hi).ravel(), minlength=m)
        return lo + hi

    def push_columns(self, mass2d):
        out = np.zeros_like(mass2d)
        for y in range(self.support.size):
            contrib = mass2d * self.evidence[:, y][:, None]
            np.add.at(out, self.idx[:, y], contrib * (1.0 - self.w_hi[:, y])[:, None])
            np.add.at(out, self.idx[:, y] + 1, contrib * self.w_hi[:, y][:, None])
        return out

    def expect(self, x):
        return self.expect_columns(x) if x.ndim == 2 else self.expect_vector(x)

    def push(self, x):
        return self.push_columns(x) if x.ndim == 2 else self.push_vector(x)


def reference_optimize_secondary(app2, shared_stages, primary, lam, grid2=None):
    """The secondary recursion on full (M2 x M1) tables: every primary-grid column is solved on its own."""
    grid2 = primary.grid if grid2 is None else grid2
    k, b2, cm = app2.k, grid2.points, app2.miss_cost
    m2, m1 = grid2.m, primary.grid.m
    bounds2 = dp.belief_bounds(
        [(min(own.breakpoints.l_lo, sh.breakpoints.l_lo), max(own.breakpoints.l_hi, sh.breakpoints.l_hi))
         for own, sh in zip(app2.stages, shared_stages)],
        app2.prior,
    )
    solo = dp._optimal_stopping(app2, lam, grid2, bounds2)
    with_values = np.zeros((k + 1, m2, m1))
    with_values[k] = solo.values[k][:, None]
    actions_with = np.zeros((max(k - 1, 0), m2, m1), dtype=np.int8)
    sharing_gap = np.empty(k)
    tie = dp._TIE_SLACK * cm
    stop = cm * b2
    for i in range(k - 1, -1, -1):
        f1 = grid2.transition(shared_stages[i].effective).expect(with_values[i + 1])
        f2 = grid2.transition(app2.stages[i].effective).expect(with_values[i + 1])
        priced = lam * app2.stages[i].cost_mj + f2
        avail = primary.continue_mask[i - 1] if i else np.ones(m1, dtype=bool)
        sharing_gap[i] = (f1 - f2)[:, avail].max() if avail.any() else -np.inf
        share = np.where(f1 <= priced + tie, np.int8(USE_SHARED), np.int8(USE_OWN))
        if i == 0:
            with_values[0] = np.minimum(f1, priced)
            delta0 = share
            continue
        best_cont = np.minimum(f1, priced)
        with_values[i] = np.minimum(stop[:, None], best_cont)
        with_values[i][:, ~avail] = solo.values[i][:, None]
        share[best_cont > stop[:, None] + tie] = STOP
        share[:, ~avail] = np.where(solo.continue_mask[i - 1], USE_OWN, STOP)[:, None]
        actions_with[i - 1] = share
    return dp.SecondaryResult(primary.grid, with_values, sharing_gap, actions_with, delta0, solo,
                              primary.continue_mask.copy())


def reference_forward_secondary(result, app2, shared_stages, prior1):
    """Secondary forward pass on the full (M2 x M1) joint mass, loop kernels."""
    g2, g1 = result.grid2, result.grid1
    b2, b1 = g2.points, g1.points
    k = result.k
    cm, ca = app2.miss_cost, app2.fa_cost

    mass = np.zeros((g2.m, g1.m))
    i2 = min(np.searchsorted(b2, app2.prior, side="right") - 1, g2.m - 2)
    w2 = (app2.prior - b2[i2]) / (b2[i2 + 1] - b2[i2])
    j1 = min(np.searchsorted(b1, prior1, side="right") - 1, g1.m - 2)
    w1 = (prior1 - b1[j1]) / (b1[j1 + 1] - b1[j1])
    for di, wi in ((0, 1.0 - w2), (1, w2)):
        for dj, wj in ((0, 1.0 - w1), (1, w1)):
            mass[i2 + di, j1 + dj] += wi * wj

    energy = 0.0
    own_probs = []
    miss = 0.0
    t_own0 = LoopTransition(g2, app2.stages[0].effective)
    t_sh0 = LoopTransition(g2, shared_stages[0].effective)
    f2_mass = mass * (result.delta0 == USE_OWN)
    f1_mass = mass * (result.delta0 == USE_SHARED)
    p_own = float(f2_mass.sum())
    own_probs.append(p_own)
    energy += app2.stages[0].cost_mj * p_own
    mass = t_sh0.push_columns(f1_mass) + t_own0.push_columns(f2_mass)
    mass_without = np.zeros(g2.m)

    for i in range(1, k):
        avail = result.primary_continue[i - 1]
        mass_without = mass_without + mass[:, ~avail].sum(axis=1)
        mass[:, ~avail] = 0.0
        go_wo = result.solo.continue_mask[i - 1]
        miss += cm * float((mass_without * ~go_wo) @ b2)
        moving_wo = mass_without * go_wo
        act = result.actions_with[i - 1]
        stop_mass = mass * (act == STOP)
        miss += cm * float(stop_mass.sum(axis=1) @ b2)
        f1_mass = mass * (act == USE_SHARED)
        f2_mass = mass * (act == USE_OWN)
        p_own = float(f2_mass.sum() + moving_wo.sum())
        own_probs.append(p_own)
        energy += app2.stages[i].cost_mj * p_own
        t_own = LoopTransition(g2, app2.stages[i].effective)
        t_sh = LoopTransition(g2, shared_stages[i].effective)
        mass = t_sh.push_columns(f1_mass) + t_own.push_columns(f2_mass)
        mass_without = t_own.push_vector(moving_wo)

    pos = result.solo.declare_mask
    total2 = mass.sum(axis=1) + mass_without
    miss += cm * float((total2 * ~pos) @ b2)
    fa = ca * float((total2 * pos) @ (1.0 - b2))
    return RiskBreakdown(miss, fa, result.lam * energy), energy, np.asarray(own_probs)


def solved(app, lam, m=101):
    rapp = robustify_app(app)
    return rapp, optimize_primary(rapp, lam, Grid.uniform(m))


class TestFinalStage:
    def test_threshold_closed_form_bitwise(self, rng):
        for _ in range(10):
            cm = float(rng.uniform(0.1, 10))
            ca = float(rng.uniform(0.1, 10))
            app = AppConfig(prior=0.2, miss_cost=cm, fa_cost=ca,
                            stages=(StageModel(nominal=random_pmf(rng, 3)),))
            _, res = solved(app, 0.0)
            assert res.thresholds[-1] == ca / (ca + cm)

    def test_reference_costs_give_one_third_with_peak(self):
        app = AppConfig(prior=0.2, miss_cost=2.0, fa_cost=1.0,
                        stages=(StageModel(nominal=ConditionalPmf(p0=[0.5, 0.5], p1=[0.5, 0.5])),))
        rapp = robustify_app(app)
        grid = Grid.from_points([1.0 / 3.0])
        res = optimize_primary(rapp, 0.0, grid)
        assert res.thresholds[-1] == 1.0 / 3.0
        k = res.values.shape[0] - 1
        idx = int(np.searchsorted(grid.points, 1.0 / 3.0))
        assert res.values[k][idx] == pytest.approx(2.0 / 3.0, abs=1e-15)


class TestLargeLambda:
    def test_cascade_degenerates_to_immediate_stop(self, rng):
        app = random_app(rng, k=3, bins=3)
        rapp = robustify_app(app)
        lam = (app.miss_cost + 1.0) / min(s.cost_mj for s in app.stages[1:])
        res = optimize_primary(rapp, lam, Grid.uniform(101))
        for i in range(1, app.k):
            assert res.thresholds[i - 1] == np.inf  # no stored action continues
            assert not res.continue_mask[i - 1].any()
        # all mass stops at stage 1: energy is the first extraction only
        _, energy, cont = forward_primary(res, rapp)
        assert energy == rapp.stages[0].cost_mj
        assert np.all(cont == 0.0)


class TestValueFunctionStructure:
    def test_value_tables_structure(self, rng):
        """Concavity, zero fixed point, slope bound on random instances."""
        for _ in range(8):
            app = random_app(rng)
            lam = float(rng.uniform(0, 0.3))
            rapp, res = solved(app, lam)
            dx = np.diff(res.grid.points)
            for i in range(res.values.shape[0]):
                v = res.values[i]
                assert np.all(np.isfinite(v)) and np.all(v >= 0)
                second = np.diff(v, 2)
                assert second.max() <= 1e-9
                slopes = np.diff(v) / dx
                assert slopes.max() <= app.miss_cost + 1e-9
                if i >= 1:
                    assert v[0] == 0.0  # exact zero fixed point
            # stage-0 value at zero belief is the unconditional first cost
            assert res.values[0][0] == pytest.approx(lam * rapp.stages[0].cost_mj, abs=1e-15)

    def test_secondary_tables_structure(self, rng):
        for _ in range(4):
            app = random_app(rng, k=2, bins=3)
            lam = float(rng.uniform(0, 0.3))
            rapp = robustify_app(app)
            pr = optimize_primary(rapp, lam, Grid.uniform(81))
            sr = optimize_secondary(rapp, rapp.stages, pr, lam)
            for i in range(1, sr.k + 1):
                assert sr.solo.values[i][0] == 0.0
                assert np.diff(sr.solo.values[i], 2).max() <= 1e-9
                table = sr.with_values[i]
                assert np.all(table[0, :] == 0.0)
                assert np.diff(table, 2, axis=0).max() <= 1e-9
            # the stage-0 with-table still has an action choice, so it keeps
            # the zero fixed point as well
            assert np.all(sr.with_values[0][0, :] == 0.0)

    def test_expected_update_of_zero_belief_is_zero(self, rng):
        m = random_pmf(rng, 5)
        e = evidence_pmf(m, 0.0)
        upd = posterior_update_array(0.0, likelihood_ratios(m))
        assert float(np.nansum(e * upd)) == 0.0


class TestThresholdPolicyEquivalence:
    def test_threshold_rule_matches_branch_comparison(self, rng):
        """On the feasible belief range, the extracted threshold reproduces
        the branch-argmin decision; exact ties are co-optimal either way."""
        for _ in range(6):
            app = random_app(rng)
            lam = float(rng.uniform(0, 0.3))
            rapp, res = solved(app, lam)
            b = res.grid.points
            for i in range(1, app.k):
                lo, hi = res.bounds[i]
                feasible = (b >= lo) & (b <= hi)
                branch = res.continue_mask[i - 1]
                threshold_rule = b >= res.thresholds[i - 1]
                disagree = feasible & (branch != threshold_rule)
                if disagree.any():
                    stage = rapp.stages[i]
                    cont = lam * stage.cost_mj + res.grid.transition(stage.effective).expect(res.values[i + 1])
                    gap = np.abs(cont[disagree] - app.miss_cost * b[disagree])
                    assert gap.max() < 1e-12  # both actions optimal at ties


class TestBackwardForwardConsistency:
    def test_forward_total_reproduces_stage0_value(self, rng):
        for _ in range(6):
            app = random_app(rng)
            lam = float(rng.uniform(0, 0.5))
            rapp, res = solved(app, lam)
            breakdown, _, _ = forward_primary(res, rapp)
            assert breakdown.total == pytest.approx(res.value_at(app.prior), abs=1e-9)
            assert breakdown.total == pytest.approx(
                breakdown.miss + breakdown.false_alarm + breakdown.weighted_resource, abs=1e-12
            )

    def test_secondary_forward_total(self, rng):
        for _ in range(4):
            app = random_app(rng, k=2, bins=3)
            lam = float(rng.uniform(0, 0.3))
            rapp = robustify_app(app)
            pr = optimize_primary(rapp, lam, Grid.uniform(81))
            sr = optimize_secondary(rapp, rapp.stages, pr, lam)
            breakdown, _, _ = forward_secondary(sr, rapp, rapp.stages, rapp.prior)
            assert breakdown.total == pytest.approx(
                sr.value_at(app.prior, app.prior), abs=1e-9
            )


class TestGridRefinement:
    def test_value_gap_shrinks_with_grid_size(self, rng):
        app = random_app(rng, k=2, bins=4, u_scale=0.04)
        lam = 0.05
        rapp = robustify_app(app)
        sizes = [51, 101, 201, 401]
        v = [optimize_primary(rapp, lam, Grid.uniform(m)).value_at(app.prior) for m in sizes]
        gaps = [abs(v[i] - v[i + 1]) for i in range(len(v) - 1)]
        assert gaps[0] >= gaps[1] - 1e-12
        assert gaps[1] >= gaps[2] - 1e-12


class TestEvalPolicyRisk:
    def test_vanishing_prior_leaves_only_first_cost(self, rng):
        """As the prior tends to zero only the unconditional first-feature
        cost survives (priors must be interior, so a tiny one stands in)."""
        stages = tuple(StageModel(nominal=random_pmf(rng, 3), cost_mj=1.0) for _ in range(2))
        app = AppConfig(prior=1e-12, miss_cost=2.0, fa_cost=1.0, stages=stages)
        rapp, res = solved(app, 0.1)
        breakdown, _, _ = forward_primary(res, rapp)
        assert breakdown.false_alarm <= 1e-9
        assert breakdown.miss <= 1e-9
        assert breakdown.total == pytest.approx(0.1 * 1.0, abs=1e-9)

    def test_components_match_outcome_enumeration(self, rng):
        """Miss/false-alarm/energy components of a two-stage instance by
        exhaustive summation over every feature outcome path."""
        from cascadeshare.models import posterior_update
        from cascadeshare.sim import exact_grid_primary

        app = random_app(rng, k=2, bins=3, u_scale=0.0)
        lam = 0.15
        rapp = robustify_app(app)
        res = optimize_primary(rapp, lam, exact_grid_primary(rapp))
        got, _, _ = forward_primary(res, rapp)

        m1, m2 = rapp.stages[0].effective, rapp.stages[1].effective
        g = res.grid.points
        cm, ca = app.miss_cost, app.fa_cost
        miss = fa = 0.0
        energy = rapp.stages[0].cost_mj
        for y1 in range(m1.bins):
            e1 = app.prior * m1.p1[y1] + (1 - app.prior) * m1.p0[y1]
            pi1 = posterior_update(app.prior, m1.p1[y1] / m1.p0[y1])
            if not res.continue_mask[0][int(np.searchsorted(g, pi1))]:
                miss += e1 * cm * pi1
                continue
            energy += e1 * rapp.stages[1].cost_mj
            for y2 in range(m2.bins):
                e2 = pi1 * m2.p1[y2] + (1 - pi1) * m2.p0[y2]
                pi2 = posterior_update(pi1, m2.p1[y2] / m2.p0[y2])
                if res.declare_mask[int(np.searchsorted(g, pi2))]:
                    fa += e1 * e2 * ca * (1 - pi2)
                else:
                    miss += e1 * e2 * cm * pi2
        assert got.miss == pytest.approx(miss, abs=1e-9)
        assert got.false_alarm == pytest.approx(fa, abs=1e-9)
        assert got.weighted_resource == pytest.approx(lam * energy, abs=1e-9)

    def test_single_stage_is_bayes_risk(self, rng):
        m = random_pmf(rng, 4)
        app = AppConfig(prior=0.3, miss_cost=2.0, fa_cost=1.0,
                        stages=(StageModel(nominal=m, cost_mj=0.7),))
        lam = 0.2
        rapp, res = solved(app, lam, m=201)
        breakdown, _, _ = forward_primary(res, rapp)
        # direct Bayes formula: E_y[min(C_M pi_1(y), C_A (1 - pi_1(y)))] + lam D_1
        e = evidence_pmf(m, 0.3)
        upd = posterior_update_array(0.3, likelihood_ratios(m))
        direct = float(np.sum(e * np.minimum(2.0 * upd, 1.0 - upd))) + lam * 0.7
        assert breakdown.total == pytest.approx(direct, abs=1e-9)


class TestCascadeOptimalityCheck:
    def test_tight_uncertainty_means_no_early_positive(self, rng):
        """Heavily clipped beliefs cannot reach the positive region."""
        m = ConditionalPmf(p0=[0.6, 0.4], p1=[0.4, 0.6])
        stages = (
            StageModel(nominal=m, uncertainty=UncertaintyParams(0.05, 0.05, 0.0, 0.0), cost_mj=0.5),
            StageModel(nominal=m, cost_mj=0.5),
        )
        app = AppConfig(prior=0.1, miss_cost=2.0, fa_cost=1.5, stages=stages)
        rapp, res = solved(app, 0.01)
        assert all(cascade_optimality_primary(res, rapp))

    def test_unbounded_belief_with_cheap_positive_fails(self):
        """A zero-mass bin under absence lets the belief reach 1, and an
        expensive continuation makes declaring early optimal there."""
        sharp = ConditionalPmf(p0=[0.9, 0.1, 0.0], p1=[0.1, 0.2, 0.7])
        stages = (
            StageModel(nominal=sharp, cost_mj=1.0),
            StageModel(nominal=sharp, cost_mj=50.0),
        )
        app = AppConfig(prior=0.3, miss_cost=2.0, fa_cost=0.2, stages=stages)
        rapp, res = solved(app, 0.05, m=201)
        assert res.bounds[1][1] == 1.0
        assert cascade_optimality_primary(res, rapp) == [False]


class TestValidation:
    def test_rejects_unrobustified_stages(self, rng):
        app = random_app(rng, k=2, bins=3)
        with pytest.raises(ValueError, match="robustified"):
            optimize_primary(app, 0.1, Grid.uniform(11))

    def test_rejects_negative_lambda(self, rng):
        app = robustify_app(random_app(rng, k=1, bins=3))
        with pytest.raises(ValueError):
            optimize_primary(app, -0.1, Grid.uniform(11))

    def test_rejects_mismatched_shared_models(self, rng):
        app = robustify_app(random_app(rng, k=2, bins=3))
        pr = optimize_primary(app, 0.1, Grid.uniform(11))
        with pytest.raises(ValueError, match="shared"):
            optimize_secondary(app, app.stages[:1], pr, 0.1)


def _random_model(rng, bins):
    """Random PMF pair; some draws zero a bin under one state or under both."""
    model = random_pmf(rng, bins)
    p0, p1 = model.p0.copy(), model.p1.copy()
    kind = rng.integers(0, 4)
    if kind == 1:
        p0[rng.integers(bins)] = 0.0  # infinite ratio: the belief jumps to 1
    elif kind == 2:
        p1[rng.integers(bins)] = 0.0  # zero ratio: the belief drops to 0
    elif kind == 3 and bins > 2:
        y = rng.integers(bins)
        p0[y] = p1[y] = 0.0  # bin outside the support
    return ConditionalPmf(p0=p0 / p0.sum(), p1=p1 / p1.sum())


def _random_grids(rng):
    """A uniform grid and an exact (non-uniform) reachable-belief grid."""
    from cascadeshare.sim import exact_grid_secondary

    app = robustify_app(random_app(rng, k=2, bins=3))
    yield Grid.uniform(int(rng.integers(2, 60)))
    yield exact_grid_secondary(app, app.stages)


class TestGridBracket:
    """`Grid.bracket`: the cell that holds a belief, and the belief's weight on its upper point."""

    def test_cell_and_weight(self, rng):
        for _ in range(10):
            for grid in _random_grids(rng):
                g = grid.points
                pi = np.concatenate([g, rng.random(40)])
                j, w = grid.bracket(pi)
                assert j.min() >= 0 and j.max() <= grid.m - 2
                assert np.all(g[j] <= pi) and np.all(pi <= g[j + 1])
                assert np.all((0.0 <= w) & (w <= 1.0))
                np.testing.assert_allclose((1.0 - w) * g[j] + w * g[j + 1], pi, rtol=0, atol=1e-15)
                # on a grid point the weight is all on it, except at 1, the last cell's upper end
                assert np.all(w[: grid.m - 1] == 0.0) and w[grid.m - 1] == 1.0
                # a number is bracketed as the same entry of an array
                for x in pi[::7]:
                    jx, wx = grid.bracket(float(x))
                    k = int(np.flatnonzero(pi == x)[0])
                    assert (jx, wx) == (j[k], w[k])


class TestTransitionOperator:
    """The M x M operator against the loop kernels it replaced."""

    def test_kernels_agree_with_loop_reference(self, rng):
        for _ in range(40):
            model = _random_model(rng, int(rng.integers(2, 12)))
            for grid in _random_grids(rng):
                op, ref = dp._Transition(grid, model), LoopTransition(grid, model)
                v = rng.random(grid.m) * 3.0
                table = rng.random((grid.m, 7)) * 3.0
                mass = rng.dirichlet(np.ones(grid.m))
                mass2d = rng.dirichlet(np.ones(grid.m * 3)).reshape(grid.m, 3)
                np.testing.assert_allclose(op.expect(v), ref.expect_vector(v), rtol=0, atol=1e-12)
                np.testing.assert_allclose(op.expect(table), ref.expect_columns(table), rtol=0, atol=1e-12)
                np.testing.assert_allclose(op.push(mass), ref.push_vector(mass), rtol=0, atol=1e-12)
                np.testing.assert_allclose(op.push(mass2d), ref.push_columns(mass2d), rtol=0, atol=1e-12)
                # the reference margin's expected next belief
                np.testing.assert_allclose(
                    op.expect(grid.points), np.einsum("my,my->m", ref.evidence, ref.pi_next),
                    rtol=0, atol=1e-12,
                )

    def test_push_is_the_adjoint_of_expect(self, rng):
        for _ in range(40):
            model = _random_model(rng, int(rng.integers(2, 12)))
            for grid in _random_grids(rng):
                op = dp._Transition(grid, model)
                v = rng.random(grid.m) * 3.0
                mass = rng.dirichlet(np.ones(grid.m))
                assert float(op.expect(v) @ mass) == pytest.approx(float(v @ op.push(mass)), abs=1e-12)

    def test_operator_keeps_only_its_matrix(self, rng):
        grid = Grid.uniform(11)
        op = dp._Transition(grid, random_pmf(rng, 4))
        assert not hasattr(op, "__dict__")
        assert op.matrix.shape == (11, 11)
        # rows are evidence distributions: each sums to one
        np.testing.assert_allclose(op.matrix.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_grid_keeps_one_operator_per_pmf_pair(self, rng):
        """The same model, or an equal but distinct one, gives the same operator; other PMFs get their own.
        The grid keeps operators under the PMFs' bytes and holds no model."""
        from dataclasses import fields

        grid = Grid.uniform(17)
        model = random_pmf(rng, 5)
        op = grid.transition(model)
        assert grid.transition(model) is op
        assert grid.transition(replace(model)) is op
        swapped = ConditionalPmf(p0=model.p1, p1=model.p0)
        other = grid.transition(swapped)
        assert other is not op and grid.transition(swapped) is other
        assert other.matrix.tobytes() == dp._Transition(grid, swapped).matrix.tobytes()
        assert Grid.uniform(17).transition(model) is not op
        assert all(type(v) is dp._Transition for v in grid._transitions.values())
        assert all(type(b) is bytes for key in grid._transitions for b in key)
        assert tuple(f.name for f in fields(Grid)) == ("points",)
        assert repr(grid) == repr(Grid.uniform(17))

    def test_twin_clone_reuses_its_own_operators(self, rng):
        """A twin clone's shared chain, and equal but distinct copies of it, get the own chain's
        operators and skip the second product; the two solves are bitwise equal."""
        from cascadeshare.sim import exact_grid_primary

        for j in range(12):
            app = robustify_app(random_app(rng, bins=int(rng.integers(2, 30))))
            grid = exact_grid_primary(app) if j % 3 == 0 else Grid.uniform(int(rng.integers(3, 200)))
            lam = float(rng.uniform(0.001, 0.2))
            copies = tuple(replace(s, robust=replace(s.robust)) for s in app.stages)
            pr = optimize_primary(app, lam, grid)
            got = optimize_secondary(app, app.stages, pr, lam)
            want = optimize_secondary(app, copies, pr, lam)
            for s, c in zip(app.stages, copies):
                assert grid.transition(c.effective) is grid.transition(s.effective)
            assert_bitwise_equal(got, want)


def _assert_same_forward(got, want):
    (b_got, e_got, p_got), (b_want, e_want, p_want) = got, want
    assert b_got.miss == pytest.approx(b_want.miss, abs=1e-12)
    assert b_got.false_alarm == pytest.approx(b_want.false_alarm, abs=1e-12)
    assert b_got.weighted_resource == pytest.approx(b_want.weighted_resource, abs=1e-12)
    assert e_got == pytest.approx(e_want, abs=1e-12)
    np.testing.assert_allclose(p_got, p_want, rtol=0, atol=1e-12)


class TestTwoColumnForwardSecondary:
    """The (M2 x 2) forward pass against the full (M2 x M1) reference."""

    def test_matches_full_joint_mass(self, rng):
        for _ in range(8):
            app = random_app(rng, k=int(rng.integers(2, 4)), bins=3)
            lam = float(rng.uniform(0, 0.3))
            rapp = robustify_app(app)
            grid = Grid.uniform(int(rng.integers(11, 50)))
            pr = optimize_primary(rapp, lam, grid)
            sr = optimize_secondary(rapp, rapp.stages, pr, lam)
            # the prior itself, a grid point, both ends of the belief range, and
            # beliefs between two columns whose availability differs
            b = grid.points
            edges = [float(0.5 * (b[j] + b[j + 1]))
                     for mask in pr.continue_mask for j in np.flatnonzero(mask[1:] != mask[:-1])]
            for prior1 in (app.prior, float(b[grid.m // 3]), 0.0, 1.0, *edges):
                _assert_same_forward(
                    forward_secondary(sr, rapp, rapp.stages, prior1),
                    reference_forward_secondary(sr, rapp, rapp.stages, prior1),
                )

    def test_matches_on_an_exact_secondary_grid(self, rng):
        from cascadeshare.sim import exact_grid_secondary

        for _ in range(4):
            app1 = robustify_app(random_app(rng, k=2, bins=3))
            app2 = robustify_app(random_app(rng, k=2, bins=3))
            shared = tuple(robustify_app(replace(app2, stages=app1.stages)).stages)
            lam = float(rng.uniform(0, 0.3))
            pr = optimize_primary(app1, lam, Grid.uniform(31))
            grid2 = exact_grid_secondary(app2, shared)
            sr = optimize_secondary(app2, shared, pr, lam, grid2=grid2)
            _assert_same_forward(
                forward_secondary(sr, app2, shared, app1.prior),
                reference_forward_secondary(sr, app2, shared, app1.prior),
            )

    def test_secondary_prior_on_a_grid_point(self, rng):
        app = random_app(rng, k=3, bins=3)
        grid = Grid.uniform(41)
        app = replace(app, prior=float(grid.points[9]))
        rapp = robustify_app(app)
        pr = optimize_primary(rapp, 0.05, grid)
        sr = optimize_secondary(rapp, rapp.stages, pr, 0.05)
        got = forward_secondary(sr, rapp, rapp.stages, app.prior)
        _assert_same_forward(got, reference_forward_secondary(sr, rapp, rapp.stages, app.prior))
        assert got[0].total == pytest.approx(sr.value_at(app.prior, app.prior), abs=1e-12)


def _spy_on_expect(monkeypatch):
    """The shapes of the 2-D tables handed to `_Transition.expect` from now on (vectors are left out)."""
    tables = []
    expect = dp._Transition.expect

    def spy(op, values):
        if values.ndim == 2:
            tables.append(values.shape)
        return expect(op, values)

    monkeypatch.setattr(dp._Transition, "expect", spy)
    return tables


class TestPerPatternRecursion:
    """The secondary is solved once per availability pattern and agrees with the full-column reference."""

    @staticmethod
    def _instance(rng, trial):
        """Twin or independent coupling, K = 1-4, uniform or exact grids, and lam = 1 with every stage
        dearer than a miss, where the primary stops everywhere and there is one pattern."""
        from cascadeshare.robust import robustify_system
        from cascadeshare.sim import exact_grid_primary, exact_grid_secondary

        k = 1 + trial % 4
        dear = trial % 5 == 4
        lam = 1.0 if dear else float(rng.uniform(0.0, 0.3))
        app1 = random_app(rng, k=k, bins=3)
        if trial % 2:
            app2, shared = app1, app1.stages
        else:
            app2 = replace(random_app(rng, k=k, bins=3), prior=app1.prior)
            shared = random_app(rng, k=k, bins=3).stages
        if dear:
            app1, app2 = (replace(a, stages=tuple(replace(s, cost_mj=3.5) for s in a.stages)) for a in (app1, app2))
        r1, r2, rshared = robustify_system(app1, app2, shared)
        if trial % 3 == 0 and k <= 3:
            return r1, r2, rshared, lam, exact_grid_primary(r1), exact_grid_secondary(r2, rshared)
        grid2 = None if trial % 3 == 1 else Grid.uniform(int(rng.integers(3, 60)))
        return r1, r2, rshared, lam, Grid.uniform(int(rng.integers(3, 60))), grid2

    def test_matches_full_column_reference(self, rng, monkeypatch):
        seen = set()
        for trial in range(60):
            r1, r2, rshared, lam, grid1, grid2 = self._instance(rng, trial)
            pr = optimize_primary(r1, lam, grid1)
            patterns = len({column.tobytes() for column in pr.continue_mask.T})
            tables = _spy_on_expect(monkeypatch)
            got = optimize_secondary(r2, rshared, pr, lam, grid2)
            monkeypatch.undo()
            want = reference_optimize_secondary(r2, rshared, pr, lam, grid2)
            assert tables and all(shape == (got.grid2.m, patterns) for shape in tables)
            for name in ("actions_with", "delta0", "primary_continue"):
                assert_bitwise_equal(getattr(got, name), getattr(want, name), name)
            assert_bitwise_equal(got.solo, want.solo)
            assert got.grid1 is pr.grid and got.with_values.shape == want.with_values.shape
            np.testing.assert_allclose(got.with_values, want.with_values, rtol=0, atol=1e-15)
            np.testing.assert_allclose(got.sharing_gap, want.sharing_gap, rtol=0, atol=1e-15)
            if lam == 1.0:
                assert patterns == 1 and not pr.continue_mask.any()
            seen.update({("k", r1.k), ("patterns", min(patterns, 2)), ("m1 != m2", got.grid1.m != got.grid2.m),
                         ("twin", r2 is r1)})
        assert seen >= {("k", 1), ("k", 2), ("k", 3), ("k", 4), ("patterns", 1), ("patterns", 2),
                        ("m1 != m2", True), ("m1 != m2", False), ("twin", True), ("twin", False)}

    def test_bundled_config_solves_three_columns_at_m200(self, monkeypatch):
        """gcw's primary has 3 availability patterns at M = 200: the secondary's products take 3 columns, not 200."""
        from cascadeshare.cli import load_config

        system = replace(load_config(str(GCW_CONFIG)), grid_m=200)
        app1, app2, shared = system.robustified
        pr = optimize_primary(app1, system.lam, system.grid)
        tables = _spy_on_expect(monkeypatch)
        sr = optimize_secondary(app2, shared, pr, system.lam)
        assert tables == [(200, 3)] * app2.k
        assert sr.with_values.shape == (app2.k + 1, 200, 200) and sr.actions_with.shape == (app2.k - 1, 200, 200)


def test_exact_ties_go_to_sharing(rng):
    """Identical free features tie exactly everywhere: the secondary shares."""
    app = random_app(rng, k=3, bins=3)
    free = replace(app, stages=tuple(replace(s, cost_mj=0.0) for s in app.stages))
    rapp = robustify_app(free)
    pr = optimize_primary(rapp, 0.1, Grid.uniform(31))
    sr = optimize_secondary(rapp, rapp.stages, pr, 0.1)
    assert np.all(sr.delta0 == USE_SHARED)
    for act, avail in zip(sr.actions_with, sr.primary_continue):
        assert not np.any(act[:, avail] == USE_OWN)  # other columns hold the solo fallback


def _solve_gcw(m):
    from cascadeshare.cli import load_config, solve_system

    return solve_system(replace(load_config(str(GCW_CONFIG)), grid_m=m))


class TestTieRule:
    """Exact ties in the secondary go to continue and to share, whichever kernel ran."""

    @pytest.mark.parametrize("m", [100, 200])
    def test_policy_is_the_same_under_either_kernel(self, m, monkeypatch):
        from cascadeshare.cli import policy_to_json

        operator = _solve_gcw(m)
        monkeypatch.setattr(dp, "_Transition", LoopTransition)
        loops = _solve_gcw(m)
        np.testing.assert_array_equal(operator.secondary.actions_with, loops.secondary.actions_with)
        np.testing.assert_array_equal(operator.secondary.delta0, loops.secondary.delta0)
        assert json.dumps(policy_to_json(operator), sort_keys=True) == json.dumps(policy_to_json(loops), sort_keys=True)
        np.testing.assert_allclose(operator.secondary.with_values, loops.secondary.with_values, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("m", [100, 200])
    def test_forward_totals_equal_stage0_values(self, m):
        solved = _solve_gcw(m)
        prior = solved.app1.prior
        b1, _, _ = forward_primary(solved.primary, solved.app1)
        b2, _, _ = forward_secondary(solved.secondary, solved.app2, solved.shared, prior)
        assert b1.total == pytest.approx(solved.primary.value_at(prior), abs=1e-12)
        assert b2.total == pytest.approx(solved.secondary.value_at(solved.app2.prior, prior), abs=1e-12)


# ---------------------------------------------------------------------------
# reference loops of the cascade-form checks and the with-branch thresholds
# ---------------------------------------------------------------------------

def reference_check_cascade_optimality(values, grid, fa_cost, bounds):
    """Per stage: the largest belief whose value beats declaring positive, against the envelope."""
    k = values.shape[0] - 1
    b = grid.points
    out = []
    for i in range(1, k):
        no_positive = values[i] - fa_cost * (1.0 - b) < 0
        if not no_positive.any():
            out.append(False)
            continue
        largest = float(b[np.flatnonzero(no_positive).max()])
        out.append(bool(largest > bounds[i][1]))
    return out


def reference_cascade_optimality_secondary(result, app2):
    """The solo chain's check and, per stage, the same test column by column."""
    k = result.k
    solo = reference_check_cascade_optimality(result.solo.values, result.grid2, app2.fa_cost, result.solo.bounds)
    out = list(solo)
    b = result.grid2.points
    for i in range(1, k):
        no_positive = result.with_values[i] - app2.fa_cost * (1.0 - b)[:, None] < 0
        ok = True
        for j in range(result.grid1.m):
            col = no_positive[:, j]
            if not col.any():
                ok = False
                break
            if float(b[np.flatnonzero(col).max()]) <= result.solo.bounds[i][1]:
                ok = False
                break
        out[i - 1] = bool(out[i - 1] and ok)
    return out


def reference_eta(result):
    """With-branch stop thresholds, one column at a time: the smallest own belief whose stored action continues."""
    b2 = result.grid2.points
    eta = np.full((result.k - 1, result.grid1.m), np.inf)
    for i in range(1, result.k):
        for j in range(result.grid1.m):
            go = np.flatnonzero(result.actions_with[i - 1][:, j] != STOP)
            if go.size:
                eta[i - 1, j] = b2[go[0]]
    return eta


class TestCascadeFormChecks:
    """The one-expression checks decide as the per-belief and per-column loops did."""

    @staticmethod
    def _random_case(rng):
        """Tables around the positive-declaration cost, with envelopes on grid points or between them."""
        from types import SimpleNamespace

        k = int(rng.integers(2, 5))
        m2, m1 = int(rng.integers(2, 12)), int(rng.integers(2, 7))
        grid2 = Grid.uniform(m2) if rng.random() < 0.5 else Grid.from_points(rng.random(m2 - 2))
        m2 = grid2.m
        fa = float(rng.uniform(0.5, 3.0))
        base = fa * (1.0 - grid2.points)

        def table(shape):
            # per column, a share of entries below the cost: none, some, or all
            density = rng.choice([0.0, 0.2, 0.5, 0.9, 1.0], size=shape[1:])
            below = rng.random(shape) < density
            margin = rng.random(shape) * rng.choice([0.0, 1.0], size=shape)  # exact ties are not below
            return base.reshape((-1,) + (1,) * (len(shape) - 1)) + np.where(below, -1.0 - margin, margin)

        def bound():
            if rng.random() < 0.6:
                return float(grid2.points[rng.integers(m2)])  # on a grid point
            return float(rng.uniform(-0.1, 1.1))

        bounds2 = [(0.0, bound()) for _ in range(k + 1)]
        with_values = np.stack([table((m2, m1)) for _ in range(k + 1)])
        if rng.random() < 0.5:
            with_values[:, :, rng.integers(m1)] = base + 1.0  # a column with no entry below
        solo = SimpleNamespace(k=k, grid=grid2, bounds=bounds2,
                               values=np.stack([table((m2, 1))[:, 0] for _ in range(k + 1)]))
        result = SimpleNamespace(k=k, grid2=grid2, grid1=SimpleNamespace(m=m1), with_values=with_values, solo=solo)
        return result, SimpleNamespace(fa_cost=fa)

    def test_match_the_loops_on_random_tables(self, rng):
        outcomes = set()
        for _ in range(3000):
            result, app2 = self._random_case(rng)
            solo = result.solo
            got = dp.cascade_optimality_primary(solo, app2)
            assert got == reference_check_cascade_optimality(solo.values, solo.grid, app2.fa_cost, solo.bounds)
            got2 = dp.cascade_optimality_secondary(result, app2)
            assert got2 == reference_cascade_optimality_secondary(result, app2)
            outcomes.update(got + got2)
        assert outcomes == {True, False}

    def test_match_the_loops_on_optimized_tables(self, rng):
        from cascadeshare.dp import cascade_optimality_secondary

        for _ in range(20):
            app = random_app(rng, k=3, bins=3)
            rapp = robustify_app(app)
            lam = float(rng.uniform(0.0, 0.2))
            pr = optimize_primary(rapp, lam, Grid.uniform(31))
            sr = optimize_secondary(rapp, rapp.stages, pr, lam)
            assert cascade_optimality_primary(pr, rapp) == reference_check_cascade_optimality(
                pr.values, pr.grid, rapp.fa_cost, pr.bounds)
            assert cascade_optimality_secondary(sr, rapp) == reference_cascade_optimality_secondary(sr, rapp)


class TestWithBranchThresholds:
    """`SecondaryResult.eta` gives the per-column loop's thresholds bit for bit; where the primary
    stops, a column holds the fallback actions and its thresholds are the solo chain's."""

    @pytest.mark.parametrize("m", [100, 200])
    def test_gcw(self, m):
        solved = _solve_gcw(m)
        np.testing.assert_array_equal(solved.secondary.eta, reference_eta(solved.secondary))

    def test_random_instances(self, rng):
        from cascadeshare.robust import robustify_system

        for trial in range(30):
            app1 = random_app(rng, k=int(rng.integers(2, 5)), bins=3)
            if trial % 2:
                app2, shared = app1, app1.stages
            else:
                app2 = replace(random_app(rng, k=app1.k, bins=3), prior=app1.prior)
                shared = random_app(rng, k=app1.k, bins=3).stages
            r1, r2, rshared = robustify_system(app1, app2, shared)
            lam = float(rng.uniform(0.0, 0.3))
            pr = optimize_primary(r1, lam, Grid.uniform(int(rng.integers(5, 60))))
            grid2 = None if trial % 3 else Grid.from_points(rng.random(int(rng.integers(3, 40))))
            sr = optimize_secondary(r2, rshared, pr, lam, grid2)
            np.testing.assert_array_equal(sr.eta, reference_eta(sr))
            stopped = ~sr.primary_continue
            solo = np.broadcast_to(sr.solo.thresholds[:-1, None], sr.eta.shape)
            np.testing.assert_array_equal(sr.eta[stopped], solo[stopped])
