"""Backward threshold optimization over quantized belief grids.

Both applications are solved by finite-horizon value iteration on a belief
grid.  Stage values are piecewise-linear and concave in the belief, so
off-grid belief updates are handled by linear interpolation, which
preserves concavity.  Each stage's interpolated transition is one M x M
matrix: the backward pass applies it, the forward passes its transpose.
The primary application is a plain optimal-stopping cascade; the
secondary application is solved on a product grid
(own belief x primary belief) with an availability flag: once the primary
is modeled as stopped, the free shared feature is gone for good and the
secondary falls back to its own feature chain.  That chain is itself a
single-application cascade: one stopping recursion solves it and the
primary alike, and both results are a `PrimaryResult`.  Every stop
threshold is read off the stored actions, as the smallest grid point
that continues.

Within a single stage transition the primary-belief coordinate of the
secondary tables is carried as a fixed parameter (per-column recursion);
the executed policy re-reads the live primary belief at every stage.  This
keeps the shared-feature and own-feature continuations exactly comparable
column by column, which is what makes the feature-sharing optimality
condition checkable per grid point.  A column then depends on the primary
belief only through its availability pattern (the stages at which the
primary's stored actions keep the shared feature on offer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .models import AppConfig, Belief, ConditionalPmf, likelihood_ratios, posterior_update_array
from .robust import StageModel


@dataclass(frozen=True)
class Grid:
    """Sorted belief grid covering [0, 1], which keeps the transition operators built on it."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("grid needs at least two points")
        if np.any(np.diff(pts) <= 0):
            raise ValueError("grid points must be strictly increasing")
        if pts[0] != 0.0 or pts[-1] != 1.0:
            raise ValueError("grid must span [0, 1] exactly")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        # not a field, so fields and repr stay the points'
        object.__setattr__(self, "_transitions", {})

    @property
    def m(self) -> int:
        return self.points.size

    @classmethod
    def uniform(cls, m: int) -> "Grid":
        if m < 2:
            raise ValueError("need M >= 2")
        return cls(np.linspace(0.0, 1.0, m))

    @classmethod
    def from_points(cls, points) -> "Grid":
        """Grid from arbitrary belief values (0 and 1 are added if missing)."""
        pts = np.unique(np.concatenate([[0.0, 1.0], np.asarray(points, float).ravel()]))
        return cls(pts)

    def transition(self, model: ConditionalPmf) -> "_Transition":
        """`model`'s belief transition on this grid: built on first use, the same object from then on.

        An operator depends only on the points and the PMFs, so it is kept under the PMFs' bytes.
        """
        key = (model.p0.tobytes(), model.p1.tobytes())
        op = self._transitions.get(key)
        if op is None:
            op = self._transitions[key] = _Transition(self, model)
        return op


@dataclass(frozen=True)
class RiskBreakdown:
    """Additive decomposition of one application's system risk."""

    miss: float
    false_alarm: float
    weighted_resource: float

    @property
    def total(self) -> float:
        return self.miss + self.false_alarm + self.weighted_resource

    @property
    def detection(self) -> float:
        return self.miss + self.false_alarm


class _Transition:
    """Belief transition of one feature on one grid, as one M x M operator.

    Row m spreads the evidence weight e(m, y) of every support bin y over
    the two grid points that bracket the updated belief pi_next(m, y), with
    linear-interpolation weights:

        T[m, n] = sum_y e(m, y) * hat_n(pi_next(m, y)).

    The backward pass takes expectations with `T @ v`, for a value vector or
    a table with one column per availability pattern; the forward pass moves
    belief mass with the adjoint `T.T @ mass`.  Forward is therefore the
    exact adjoint of backward by construction.  Interpolation on a grid
    keeps the value functions concave (Lovejoy 1991).  The matrix is built
    by one scatter and is all the operator keeps.
    """

    __slots__ = ("matrix",)

    def __init__(self, grid: Grid, model: ConditionalPmf):
        support = model.support()
        ratios = likelihood_ratios(model)[support]
        g = grid.points
        m = grid.m
        evidence = g[:, None] * model.p1[support][None, :] + (1.0 - g)[:, None] * model.p0[support][None, :]
        pi_next = posterior_update_array(g[:, None], ratios[None, :])
        idx = np.clip(np.searchsorted(g, pi_next, side="right") - 1, 0, m - 2)
        w_hi = (pi_next - g[idx]) / (g[idx + 1] - g[idx])
        flat = (idx + m * np.arange(m)[:, None]).ravel()
        cells = np.concatenate([flat, flat + 1])
        weights = np.concatenate([(evidence * (1.0 - w_hi)).ravel(), (evidence * w_hi).ravel()])
        self.matrix = np.bincount(cells, weights=weights, minlength=m * m).reshape(m, m)

    def expect(self, values: np.ndarray) -> np.ndarray:
        """E[V(pi_next)] per grid point; a 2-D table is taken column by column."""
        return self.matrix @ values

    def push(self, mass: np.ndarray) -> np.ndarray:
        """Adjoint of `expect`: propagate belief mass (a vector or per-column table) one stage."""
        return self.matrix.T @ mass


def _stage_operators(grid: Grid, stages: Sequence[StageModel]) -> list:
    """The grid's transition operator of each stage's planning model."""
    return [grid.transition(stage.effective) for stage in stages]


def _require_robustified(stages: Sequence[StageModel]):
    for i, stage in enumerate(stages):
        if stage.breakpoints is None or stage.robust is None:
            raise ValueError(f"stage {i + 1} has not been robustified")


def belief_bounds(windows, prior: Belief) -> list[tuple[float, float]]:
    """Reachable-belief envelope per stage, from per-stage ratio windows (l_lo, l_hi).

    Entry i (i = 0..K) bounds the belief after i features; entry 0 is the
    prior itself.  The final stage is not robustified, so its window is the
    nominal ratio range and the last envelope may reach 0 or 1.
    """
    lo = hi = float(prior)
    bounds = [(lo, hi)]
    for l_lo, l_hi in windows:
        lo = float(posterior_update_array(lo, l_lo))
        hi = float(posterior_update_array(hi, l_hi))
        bounds.append((lo, hi))
    return bounds


def _first_continue(grid: Grid, go: np.ndarray) -> np.ndarray:
    """The smallest grid point whose stored action continues, along `go`'s axis 1 (+inf where none does)."""
    return np.where(go.any(axis=1), grid.points[go.argmax(axis=1)], np.inf)


@dataclass
class PrimaryResult:
    """Value tables and policy of one optimal-stopping cascade: the primary, or the secondary's solo chain."""

    grid: Grid
    lam: float
    values: np.ndarray        # (K+1, M): stage i value on the grid
    thresholds: np.ndarray    # (K,): stop thresholds tau_1..tau_K, read off the stored actions
    continue_mask: np.ndarray  # (K-1, M) bool: optimal action is to keep going
    declare_mask: np.ndarray  # (M,) bool: final-stage positive declaration
    bounds: list              # (K+1) reachable-belief envelope

    @property
    def k(self) -> int:
        return self.values.shape[0] - 1

    def value_at(self, pi: Belief) -> float:
        return float(np.interp(pi, self.grid.points, self.values[0]))


def optimize_primary(app: AppConfig, lam: float, grid: Grid) -> PrimaryResult:
    """Backward value iteration for the primary cascade.

    The final stage value is the Bayes envelope min(C_M*pi, C_A*(1-pi));
    intermediate stages compare stopping against the resource-priced
    expected next-stage value.  Exact ties prefer the continue/positive
    branch.  Each intermediate threshold is the smallest grid point whose
    stored action continues (+inf if none does), so off the grid the rule
    `pi >= threshold` decides as the stored actions do wherever they
    continue from that point up.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    _require_robustified(app.stages)
    bounds = belief_bounds([(s.breakpoints.l_lo, s.breakpoints.l_hi) for s in app.stages], app.prior)
    return _optimal_stopping(app, lam, grid, bounds)


def _optimal_stopping(app: AppConfig, lam: float, grid: Grid, bounds) -> PrimaryResult:
    """`optimize_primary`'s recursion on `app`'s own features; `bounds` is kept as the result's envelope."""
    k = app.k
    b = grid.points
    cm, ca = app.miss_cost, app.fa_cost

    values = np.zeros((k + 1, grid.m))
    values[k] = np.minimum(cm * b, ca * (1.0 - b))
    declare_mask = ca * (1.0 - b) <= cm * b
    continue_mask = np.zeros((max(k - 1, 0), grid.m), dtype=bool)
    ops = _stage_operators(grid, app.stages)

    for i in range(k - 1, 0, -1):
        stage = app.stages[i]  # feature consumed when continuing from stage i
        cont = lam * stage.cost_mj + ops[i].expect(values[i + 1])
        stop = cm * b
        values[i] = np.minimum(stop, cont)
        continue_mask[i - 1] = cont <= stop

    thresholds = np.append(_first_continue(grid, continue_mask), ca / (ca + cm))
    values[0] = lam * app.stages[0].cost_mj + ops[0].expect(values[1])
    return PrimaryResult(grid, lam, values, thresholds, continue_mask, declare_mask, bounds)


# secondary action codes in the with-branch tables
STOP, USE_SHARED, USE_OWN = 0, 1, 2

# tie slack of the secondary's action comparisons, in units of C_M
_TIE_SLACK = 64 * np.finfo(float).eps


@dataclass
class SecondaryResult:
    """Value tables and policy of the secondary application.

    `with_values[i]` is the (own-belief x primary-belief) table while the
    primary is still running; columns where the primary stops at stage i
    hold the fallback values.  `solo` is that fallback: once the primary is
    gone the secondary is a single-application cascade on its own features,
    solved by the primary's recursion, with the union-window envelope as its
    `bounds`.  Its stage-0 value is the no-sharing value (first
    own feature forced); `k`, `grid2` and `lam` are read from it.
    `sharing_gap` is all the sharing-condition check reads of the two
    continuations; it is -inf where the shared feature is never on offer.
    """

    grid1: Grid
    with_values: np.ndarray      # (K+1, M2, M1)
    sharing_gap: np.ndarray      # (K,): max E[V(next) | shared] - E[V(next) | own] where shared is on offer
    actions_with: np.ndarray     # (K-1, M2, M1) int8 in {STOP, USE_SHARED, USE_OWN}
    delta0: np.ndarray           # (M2, M1) int8 in {USE_SHARED, USE_OWN}
    solo: PrimaryResult          # the own-feature chain on grid2, after the primary stops
    primary_continue: np.ndarray  # (K-1, M1) bool, copied from the primary policy

    @property
    def k(self) -> int:
        return self.solo.k

    @property
    def grid2(self) -> Grid:
        return self.solo.grid

    @property
    def lam(self) -> float:
        return self.solo.lam

    @property
    def eta(self) -> np.ndarray:
        """(K-1, M1): with-branch stop thresholds per primary-belief column, read off `actions_with`.

        Columns where the primary stops hold the fallback actions, so there `eta` is `solo.thresholds`.
        """
        return _first_continue(self.grid2, self.actions_with != STOP)

    def value_at(self, pi2: Belief, pi1: Belief) -> float:
        b1 = self.grid1.points
        j = min(int(np.searchsorted(b1, pi1, side="right")) - 1, self.grid1.m - 2)
        j = max(j, 0)
        t = (pi1 - b1[j]) / (b1[j + 1] - b1[j])
        v0 = np.interp(pi2, self.grid2.points, self.with_values[0][:, j])
        v1 = np.interp(pi2, self.grid2.points, self.with_values[0][:, j + 1])
        return float((1.0 - t) * v0 + t * v1)


def optimize_secondary(
    app2: AppConfig,
    shared_stages: Sequence[StageModel],
    primary: PrimaryResult,
    lam: float,
    grid2: Optional[Grid] = None,
) -> SecondaryResult:
    """Backward value iteration for the secondary application.

    `shared_stages` holds, per stage, the secondary's likelihood model for
    the primary feature (robustified like any other intermediate-stage
    model).  While the primary keeps running, the secondary may consume the
    already-extracted primary feature at zero marginal cost or pay for its
    own feature; once the primary stops, only the own-feature chain is left.

    Exact ties go to continuing and to sharing.  Each of those comparisons
    allows a slack of `_TIE_SLACK * C_M`, a few ulps of the largest value,
    so that a tie is settled by the rule and not by rounding in the last
    digits.  A shared model with the own stage's PMFs (as in a twin) has the
    same operator, and its one expectation serves both features.  The
    recursion runs once per distinct availability pattern, on (M2 x P)
    tables (P <= min(M1, 2^(K-1))), and the result gathers their columns.
    """
    if len(shared_stages) != app2.k:
        raise ValueError("need one shared-feature model per stage")
    if primary.k != app2.k:
        raise ValueError("both applications must have the same number of stages")
    _require_robustified(app2.stages)
    _require_robustified(shared_stages)

    grid2 = primary.grid if grid2 is None else grid2
    grid1 = primary.grid
    k = app2.k
    cm = app2.miss_cost
    stop = cm * grid2.points

    # pi2 envelope: each stage may use either feature, so take the union window
    bounds2 = belief_bounds(
        [(min(own.breakpoints.l_lo, sh.breakpoints.l_lo), max(own.breakpoints.l_hi, sh.breakpoints.l_hi))
         for own, sh in zip(app2.stages, shared_stages)],
        app2.prior,
    )

    # each column's availability pattern, numbered one stage at a time so that the codes stay below 2 * M1
    column = np.zeros(grid1.m, dtype=np.intp)
    for row in primary.continue_mask:
        codes = 2 * column + row
        column = np.searchsorted(np.unique(codes), codes)
    patterns = np.zeros((max(k - 1, 0), column.max() + 1), dtype=bool)
    patterns[:, column] = primary.continue_mask  # equal columns write equal values
    with_values = np.zeros((k + 1, grid2.m, patterns.shape[1]))
    actions_with = np.zeros((max(k - 1, 0), grid2.m, patterns.shape[1]), dtype=np.int8)
    sharing_gap = np.empty(k)

    solo = _optimal_stopping(app2, lam, grid2, bounds2)
    with_values[k] = solo.values[k][:, None]
    tie = _TIE_SLACK * cm
    own_ops, shared_ops = _stage_operators(grid2, app2.stages), _stage_operators(grid2, shared_stages)

    for i in range(k - 1, -1, -1):
        own = app2.stages[i]
        t_own, t_shared = own_ops[i], shared_ops[i]

        f1 = t_shared.expect(with_values[i + 1])
        same = t_own is t_shared  # equal models: both features give the same expectation
        f2 = f1 if same else t_own.expect(with_values[i + 1])
        priced = lam * own.cost_mj + f2
        avail = patterns[i - 1] if i else np.ones(patterns.shape[1], dtype=bool)  # shared feature on offer
        sharing_gap[i] = -np.inf if not avail.any() else 0.0 if same else (f1 - f2)[:, avail].max()

        if i == 0:
            # no stop action before the first observation
            with_values[0] = np.minimum(f1, priced)
            delta0 = np.where(f1 <= priced + tie, np.int8(USE_SHARED), np.int8(USE_OWN))
            continue

        best_cont = np.minimum(f1, priced)
        with_values[i] = np.minimum(stop[:, None], best_cont)
        with_values[i][:, ~avail] = solo.values[i][:, None]

        act = np.where(f1 <= priced + tie, np.int8(USE_SHARED), np.int8(USE_OWN))
        act[best_cont > stop[:, None] + tie] = STOP
        act[:, ~avail] = np.where(solo.continue_mask[i - 1], USE_OWN, STOP)[:, None]  # the fallback
        actions_with[i - 1] = act

    return SecondaryResult(grid1, with_values[:, :, column], sharing_gap, actions_with[:, :, column],
                           delta0[:, column], solo, primary.continue_mask.copy())


@dataclass(frozen=True)
class SharingCheck:
    """Per-stage feature-sharing optimality check (decision at stage-1 index)."""

    stage: int            # feature index i = 1..K (decision taken at stage i-1)
    passes: bool
    worst_margin: float   # the stage's sharing gap - lam*D; <= 0 passes


def check_sharing_condition(result: SecondaryResult, app2: AppConfig):
    """Evaluate, per stage, whether taking the shared feature is always optimal.

    The check prices each stage's sharing gap, the largest excess of the
    shared over the own continuation where the shared feature is on offer,
    against the own feature's cost; a pass (worst margin <= 0) guarantees
    the optimizer never selects the own feature there (ties prefer sharing).
    """
    worst = [gap - result.lam * stage.cost_mj for gap, stage in zip(result.sharing_gap.tolist(), app2.stages)]
    return [SharingCheck(i + 1, bool(w <= 0.0), w) for i, w in enumerate(worst)]


def cascade_optimality_primary(result: PrimaryResult, app: AppConfig) -> list[bool]:
    """Would an added early-positive action ever fire?  True means never.

    For each intermediate stage, the cascade form is optimal iff the
    largest grid belief where the stage value still beats an immediate
    positive declaration exceeds the stage's reachable upper belief bound;
    that is, iff some grid belief above the bound has such a value.
    """
    b = result.grid.points
    return [bool(np.any((result.values[i] - app.fa_cost * (1.0 - b) < 0) & (b > result.bounds[i][1])))
            for i in range(1, result.k)]


def cascade_optimality_secondary(result: SecondaryResult, app2: AppConfig) -> list[bool]:
    """Worst case over the solo chain and every primary-belief column."""
    solo = cascade_optimality_primary(result.solo, app2)
    b = result.grid2.points
    out = []
    for i in range(1, result.k):
        no_positive = result.with_values[i] - app2.fa_cost * (1.0 - b)[:, None] < 0
        out.append(bool(solo[i - 1] and no_positive[b > result.solo.bounds[i][1]].any(axis=0).all()))
    return out


def forward_primary(result: PrimaryResult, app: AppConfig):
    """Exact forward propagation of the primary policy on the grid.

    Mirrors the backward pass with the adjoint `T.T @ mass` of each stage
    operator, so the accumulated total reproduces the stage-0 value up to
    roundoff.  Returns the risk breakdown, the expected extraction energy
    in mJ, and the per-stage continuation probabilities.
    """
    grid = result.grid
    b = grid.points
    k = result.k
    cm, ca = app.miss_cost, app.fa_cost

    mass = np.zeros(grid.m)
    idx = min(np.searchsorted(b, app.prior, side="right") - 1, grid.m - 2)
    w = (app.prior - b[idx]) / (b[idx + 1] - b[idx])
    mass[idx] += 1.0 - w
    mass[idx + 1] += w

    energy = app.stages[0].cost_mj  # first feature is always extracted
    cont_probs = []
    miss = 0.0
    ops = _stage_operators(grid, app.stages)
    mass = ops[0].push(mass)
    for i in range(1, k):
        go = result.continue_mask[i - 1]
        stopped = mass * ~go
        miss += cm * float(stopped @ b)
        moving = mass * go
        p_cont = float(moving.sum())
        cont_probs.append(p_cont)
        energy += app.stages[i].cost_mj * p_cont
        mass = ops[i].push(moving)
    pos = result.declare_mask
    miss += cm * float((mass * ~pos) @ b)
    fa = ca * float((mass * pos) @ (1.0 - b))
    breakdown = RiskBreakdown(miss, fa, result.lam * energy)
    return breakdown, energy, np.asarray(cont_probs)


def forward_secondary(result: SecondaryResult, app2: AppConfig, shared_stages, prior1: Belief):
    """Forward propagation of the secondary policy, the adjoint of its DP.

    Under the design measure the primary belief never moves: it is a fixed
    parameter of the per-column recursion, and every transition acts on the
    own-belief axis only.  So all with-branch mass stays on the two primary
    columns j1, j1+1 that bracket `prior1`, and the pass carries an
    (M2 x 2) mass on them plus a marginal M2 mass for the without-branch.
    Nothing is approximated: the other columns would only ever hold zeros.
    A column where the primary policy stops hands its mass to the
    without-branch.  Returns the risk breakdown, the expected own-feature
    energy, and the per-decision-stage probabilities of paying for the own
    feature.
    """
    g2, g1 = result.grid2, result.grid1
    b2, b1 = g2.points, g1.points
    k = result.k
    cm, ca = app2.miss_cost, app2.fa_cost
    lam = result.lam

    i2 = min(np.searchsorted(b2, app2.prior, side="right") - 1, g2.m - 2)
    w2 = (app2.prior - b2[i2]) / (b2[i2 + 1] - b2[i2])
    j1 = min(np.searchsorted(b1, prior1, side="right") - 1, g1.m - 2)
    w1 = (prior1 - b1[j1]) / (b1[j1 + 1] - b1[j1])
    cols = [j1, j1 + 1]
    col_weights = np.array([1.0 - w1, w1])
    mass = np.zeros((g2.m, 2))
    mass[i2] += (1.0 - w2) * col_weights
    mass[i2 + 1] += w2 * col_weights

    energy = 0.0
    own_probs = []
    miss = 0.0
    own_ops, shared_ops = _stage_operators(g2, app2.stages), _stage_operators(g2, shared_stages)

    delta0 = result.delta0[:, cols]
    f2_mass = mass * (delta0 == USE_OWN)
    f1_mass = mass * (delta0 == USE_SHARED)
    p_own = float(f2_mass.sum())
    own_probs.append(p_own)
    energy += app2.stages[0].cost_mj * p_own
    mass = shared_ops[0].push(f1_mass) + own_ops[0].push(f2_mass)
    mass_without = np.zeros(g2.m)

    for i in range(1, k):
        avail = result.primary_continue[i - 1][cols]
        mass_without = mass_without + mass[:, ~avail].sum(axis=1)
        mass[:, ~avail] = 0.0

        go_wo = result.solo.continue_mask[i - 1]
        miss += cm * float((mass_without * ~go_wo) @ b2)
        moving_wo = mass_without * go_wo

        act = result.actions_with[i - 1][:, cols]
        stop_mass = mass * (act == STOP)
        miss += cm * float(stop_mass.sum(axis=1) @ b2)
        f1_mass = mass * (act == USE_SHARED)
        f2_mass = mass * (act == USE_OWN)

        p_own = float(f2_mass.sum() + moving_wo.sum())
        own_probs.append(p_own)
        energy += app2.stages[i].cost_mj * p_own

        mass = shared_ops[i].push(f1_mass) + own_ops[i].push(f2_mass)
        mass_without = own_ops[i].push(moving_wo)

    pos = result.solo.declare_mask
    total2 = mass.sum(axis=1) + mass_without
    miss += cm * float((total2 * ~pos) @ b2)
    fa = ca * float((total2 * pos) @ (1.0 - b2))
    breakdown = RiskBreakdown(miss, fa, lam * energy)
    return breakdown, energy, np.asarray(own_probs)
