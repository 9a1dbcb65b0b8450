"""Tests of the benchmark's own checkers.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cascadeshare.dp import Grid, optimize_primary
from cascadeshare.models import AppConfig, ConditionalPmf, posterior_update_array
from cascadeshare.robust import StageModel, UncertaintyParams, robustify_app

import checks


def test_path_expectation_matches_hand_computed_one_stage_two_bins():
    # prior 0.3; p0 = [0.8, 0.2], p1 = [0.3, 0.7]; C_M = 2, C_A = 1; cost 1.5, lambda 0.1.
    # Posteriors: bin 0 -> 0.09/0.65 = 0.138 (< 1/3, negative), bin 1 -> 0.21/0.35 = 0.6 (positive).
    # miss = 2 * 0.3 * 0.3 = 0.18, false alarm = 1 * 0.7 * 0.2 = 0.14, risk = 0.32 + 0.1 * 1.5.
    p0, p1 = np.array([0.8, 0.2]), np.array([0.3, 0.7])
    points = np.array([0.0, 1.0])
    risk, energy, miss, fa = checks.primary_path_expectation(
        0.3, [(p0, p1)], [p1 / p0], [1.5], 2.0, 1.0, 0.1, [],
        lambda pi: checks.grid_rule(points, np.array([False, True]), 1.0 / 3.0, pi),
        posterior_update_array,
    )
    assert miss == pytest.approx(0.18, abs=1e-15)
    assert fa == pytest.approx(0.14, abs=1e-15)
    assert energy == 1.5
    assert risk == pytest.approx(0.47, abs=1e-15)


def test_path_expectation_charges_later_features_only_on_continuing_paths():
    # two identical stages; continue only after the high bin, whose posterior is 0.6
    p0, p1 = np.array([0.8, 0.2]), np.array([0.3, 0.7])
    points = np.array([0.0, 1.0])
    stay = lambda pi: checks.grid_rule(points, np.array([False, False]), 0.5, pi)
    _, energy, miss, _ = checks.primary_path_expectation(
        0.3, [(p0, p1), (p0, p1)], [p1 / p0, p1 / p0], [1.0, 4.0], 2.0, 1.0, 0.0, [stay],
        lambda pi: pi >= 2.0, posterior_update_array,
    )
    p_high = 0.3 * 0.7 + 0.7 * 0.2
    assert energy == pytest.approx(1.0 + 4.0 * p_high, abs=1e-15)
    assert miss == pytest.approx(2.0 * 0.3, abs=1e-15)  # nothing is ever declared


def test_value_iteration_matches_optimize_primary_on_a_tiny_instance():
    rng = np.random.default_rng(7)

    def pmf(bins):
        a, b = rng.random(bins) + 0.05, rng.random(bins) + 0.05
        return ConditionalPmf(p0=a / a.sum(), p1=b / b.sum())

    stages = tuple(
        StageModel(nominal=pmf(3), uncertainty=UncertaintyParams(0.03, 0.02, 0.01, 0.02) if i < 2
                   else UncertaintyParams(), cost_mj=float(c))
        for i, c in enumerate((0.4, 1.1, 2.5))
    )
    app = robustify_app(AppConfig(prior=0.3, miss_cost=2.0, fa_cost=1.2, stages=stages))
    grid = Grid.uniform(11)
    lam = 0.07
    ours, margins = checks.value_iteration(
        grid.points, [(s.effective.p0, s.effective.p1, s.cost_mj) for s in app.stages], 2.0, 1.2, lam)
    theirs = optimize_primary(app, lam, grid)
    assert np.abs(ours - theirs.values).max() <= 1e-12
    sure = np.abs(margins) > 1e-12
    assert np.array_equal((margins >= 0)[sure], theirs.continue_mask[sure])


def test_grid_rule_uses_grid_actions_on_grid_and_threshold_off_grid():
    points = np.linspace(0.0, 1.0, 5)
    action = np.array([False, True, False, True, True])
    got = checks.grid_rule(points, action, 0.6, np.array([0.25, 0.5, 0.55, 0.65]))
    assert got.tolist() == [True, False, False, True]


def test_concavity_and_slope_checks_reject_violations():
    points = np.linspace(0.0, 1.0, 5)
    checks.concave_with_slope_bound(np.minimum(2.0 * points, 1.0 - points), points, 2.0)
    with pytest.raises(checks.CheckError):
        checks.concave_with_slope_bound(points ** 2, points, 2.0)
    with pytest.raises(checks.CheckError):
        checks.concave_with_slope_bound(3.0 * points, points, 2.0)
