"""The system description, Monte Carlo validation, exhaustive tiny-instance oracles, twin experiment.

`CascadeSystem` is the one description of a two-application system and of
how to run it; the commands, the oracles and the simulator all read their
planning models from it.

The Monte Carlo harness draws target states and features from the nominal
models (robustification is a design-time hedge, not a generative claim) and
executes the optimized policies, tracking the live primary belief for
availability.  The brute-force oracles enumerate every deterministic
threshold policy on the exact reachable-belief sets and evaluate risks by
direct forward summation under the same probabilistic semantics as the
optimizer, so agreement isolates algorithmic errors from discretization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .models import AppConfig, ConditionalPmf, likelihood_ratios, posterior_update_array
# robustify_app, optimize_secondary and forward_* are imported only so that perfbench/spans.py can trace
# them under this module's name
from .robust import StageModel, robustify_app, robustify_system
from .dp import (
    Grid,
    PrimaryResult,
    SecondaryResult,
    STOP,
    USE_OWN,
    USE_SHARED,
    forward_primary,
    forward_secondary,
    optimize_primary,
    optimize_secondary,
)
from .budget import BudgetSpec, solve_system

ENUMERATION_CAP = 10_000_000


class EnumerationCapError(ValueError):
    """Instance too large for exhaustive policy enumeration."""


@dataclass(frozen=True)
class CascadeSystem:
    """One two-application system (secondary optional) and how to run it.

    It holds the nominal models, the coupling, and the run settings: exactly
    one of the multiplier `lam` and an energy `budget` to solve it from,
    the always-on `baseline_mj` (the one baseline: a budget must exceed it),
    the belief grid size, the Monte Carlo seed and trial count, and a prior
    sweep.  Twin coupling forces the secondary
    target to equal the primary target and requires the shared-feature
    models to match the primary's own.

    The planning models (`robustified`) and the belief grid (`grid`) are
    made once, on first use, and `at` carries them to copies at another
    prior or multiplier.
    """

    primary: AppConfig
    lam: Optional[float]
    secondary: Optional[AppConfig] = None
    shared: Optional[tuple] = None
    coupling: str = "twin"
    budget: Optional[BudgetSpec] = None
    baseline_mj: float = 0.0
    grid_m: int = 100
    seed: int = 0
    trials: int = 100_000
    priors: tuple = ()

    def __post_init__(self):
        if (self.lam is None) == (self.budget is None):
            raise ValueError("exactly one of lambda and budget must be given")
        if self.lam is not None:
            if not 0.0 <= self.lam < math.inf:
                raise ValueError(f"lambda must be finite and nonnegative, got {self.lam!r}")
            object.__setattr__(self, "lam", float(self.lam))
        if not 0.0 <= self.baseline_mj < math.inf:
            raise ValueError(f"baseline must be finite and nonnegative, got {self.baseline_mj!r} mJ")
        if self.budget is not None and not self.budget.budget_mj > self.baseline_mj:
            raise ValueError(f"need budget_mj > baseline_mj, got {self.budget.budget_mj!r} <= {self.baseline_mj!r}")
        for name, least in (("grid_m", 2), ("seed", 0), ("trials", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        object.__setattr__(self, "shared", _check_pairing(self.primary, self.secondary, self.shared, self.coupling))

    @cached_property
    def robustified(self) -> tuple:
        """The robustified (primary, secondary, shared), as `robust.robustify_system` returns them."""
        return robustify_system(self.primary, self.secondary, self.shared)

    @cached_property
    def grid(self) -> Grid:
        """The uniform belief grid of `grid_m` points, which keeps the transition operators built on it."""
        return Grid.uniform(self.grid_m)

    def at(self, prior: Optional[float] = None, lam: Optional[float] = None) -> "CascadeSystem":
        """This system with both applications at `prior` and/or run at multiplier `lam`.

        A multiplier replaces the budget.  The robustified models and the
        grid carry over, since they depend on neither.
        """
        app1, app2, shared = self.robustified
        changes = {}
        if prior is not None:
            p = float(prior)
            changes["primary"] = replace(self.primary, prior=p)
            app1 = replace(app1, prior=p)
            if self.secondary is not None:
                changes["secondary"] = replace(self.secondary, prior=p)
                app2 = replace(app2, prior=p)
        if lam is not None:
            changes.update(lam=lam, budget=None)
        system = replace(self, **changes)
        system.__dict__.update(robustified=(app1, app2, shared), grid=self.grid)
        return system


def _check_pairing(primary: AppConfig, secondary: Optional[AppConfig], shared, coupling: str) -> Optional[tuple]:
    """Validate how a secondary pairs with the primary; returns `shared` as a tuple.

    The coupling is 'twin' or 'independent'; a secondary comes with one
    shared-feature model per stage and has the primary's stage count.
    Twin coupling also needs equal priors and shared-feature models equal
    to the primary's own.  Raises ValueError otherwise.
    """
    if coupling not in ("twin", "independent"):
        raise ValueError("coupling must be 'twin' or 'independent'")
    if (secondary is None) != (shared is None):
        raise ValueError("secondary config and shared-feature models go together")
    if secondary is None:
        return None
    shared = tuple(shared)
    if len(shared) != secondary.k or secondary.k != primary.k:
        raise ValueError("stage counts must match across applications")
    if coupling == "twin":
        if secondary.prior != primary.prior:
            raise ValueError("twin coupling requires equal priors")
        for sh, st in zip(shared, primary.stages):
            if not (np.array_equal(sh.nominal.p0, st.nominal.p0)
                    and np.array_equal(sh.nominal.p1, st.nominal.p1)):
                raise ValueError("twin coupling requires identical shared-feature models")
    return shared


# ---------------------------------------------------------------------------
# reachable-belief closures (exact grids for oracle comparisons)
# ---------------------------------------------------------------------------

def _reachable(prior: float, stage_ratios) -> list[np.ndarray]:
    sets = [np.array([prior])]
    for ratios in stage_ratios:
        ratios = ratios[~np.isnan(ratios)]
        sets.append(np.unique(posterior_update_array(sets[-1][:, None], ratios[None, :]).ravel()))
    return sets


def reachable_beliefs_primary(app: AppConfig) -> list[np.ndarray]:
    """Distinct beliefs reachable after each stage (index 0 = prior only)."""
    return _reachable(app.prior, [likelihood_ratios(s.effective) for s in app.stages])


def reachable_beliefs_secondary(app2: AppConfig, shared: Sequence[StageModel]) -> list[np.ndarray]:
    """Same closure, allowing either the own or the shared feature per stage."""
    return _reachable(app2.prior, [np.concatenate([likelihood_ratios(own.effective), likelihood_ratios(sh.effective)])
                                   for own, sh in zip(app2.stages, shared)])


def exact_grid_primary(app: AppConfig) -> Grid:
    return Grid.from_points(np.concatenate(reachable_beliefs_primary(app)))


def exact_grid_secondary(app2: AppConfig, shared) -> Grid:
    return Grid.from_points(np.concatenate(reachable_beliefs_secondary(app2, shared)))


# ---------------------------------------------------------------------------
# brute-force enumeration oracles
# ---------------------------------------------------------------------------

def _observe(pis: np.ndarray, qs: np.ndarray, model: ConditionalPmf):
    """Beliefs and joint probabilities after one feature from each (belief, probability) node.

    Probabilities are taken under the design measure: the evidence mixture
    of the model actually used, weighted by the node's belief.
    """
    sup = model.support()
    p0, p1 = model.p0[sup], model.p1[sup]
    ev = pis[:, None] * p1[None, :] + (1.0 - pis)[:, None] * p0[None, :]
    nxt = posterior_update_array(pis[:, None], likelihood_ratios(model)[sup][None, :])
    return nxt.ravel(), (qs[:, None] * ev).ravel()


def _prefix_tree(models: list[ConditionalPmf], prior: float):
    """Per stage: (beliefs, joint probs, parent index) of every feature prefix."""
    beliefs = [np.array([prior])]
    probs = [np.array([1.0])]
    parents = [np.array([0])]
    for model in models:
        b, q = _observe(beliefs[-1], probs[-1], model)
        parents.append(np.repeat(np.arange(beliefs[-1].size), model.support().size))
        beliefs.append(b)
        probs.append(q)
    return beliefs, probs, parents


def _threshold_candidates(beliefs: np.ndarray) -> np.ndarray:
    return np.concatenate([np.unique(beliefs), [np.inf]])


def _primary_policy_count(app: AppConfig, augmented: bool) -> int:
    sets = reachable_beliefs_primary(app)
    count = 1
    for i in range(1, app.k):
        c = np.unique(sets[i]).size + 1
        count *= (c * (c + 1)) // 2 if augmented else c
    count *= np.unique(sets[app.k]).size + 1
    return count


def _sweep_primary(app: AppConfig, lam: float, augmented: bool):
    """Exhaustive threshold-policy sweep for a single application.

    Enumerates, for every intermediate stage, the stop threshold (and the
    early-positive threshold when `augmented`), and the final declaration
    threshold, evaluating exact risk by prefix summation.  Returns the
    minimal system risk and the number of policies.
    """
    count = _primary_policy_count(app, augmented)
    if count > ENUMERATION_CAP:
        raise EnumerationCapError(f"policy count {count} exceeds cap {ENUMERATION_CAP}")
    k = app.k
    cm, ca = app.miss_cost, app.fa_cost
    beliefs, probs, parents = _prefix_tree([s.effective for s in app.stages], app.prior)

    risk = np.array([lam * app.stages[0].cost_mj])  # first feature unconditional
    alive = np.ones((1, 1))
    for i in range(1, k):
        b, q, par = beliefs[i], probs[i], parents[i]
        alive_i = alive[par, :]  # (n_i, C)
        cands = _threshold_candidates(b)
        stop_gate = b[:, None] < cands[None, :]
        if augmented:
            pos_cands = cands
            tt, ss = np.meshgrid(np.arange(cands.size), np.arange(pos_cands.size), indexing="ij")
            ok = cands[tt.ravel()] <= pos_cands[ss.ravel()]
            t_idx, s_idx = tt.ravel()[ok], ss.ravel()[ok]
            stopg = stop_gate[:, t_idx]
            posg = (b[:, None] >= pos_cands[None, s_idx]) & ~stopg
            contg = ~stopg & ~posg
            loss = cm * b[:, None] * stopg + ca * (1.0 - b)[:, None] * posg
        else:
            stopg = stop_gate
            contg = ~stopg
            loss = cm * b[:, None] * stopg
        wq = alive_i * q[:, None]
        stage_loss = np.einsum("pc,pt->ct", wq, loss)
        cont_prob = np.einsum("pc,pt->ct", wq, contg.astype(float))
        risk = (risk[:, None] + stage_loss + lam * app.stages[i].cost_mj * cont_prob).ravel()
        alive = (alive_i[:, :, None] * contg[:, None, :]).reshape(b.size, -1)

    b, q, par = beliefs[k], probs[k], parents[k]
    alive_k = alive[par, :]
    cands = _threshold_candidates(b)
    term = np.where(b[:, None] < cands[None, :], cm * b[:, None], ca * (1.0 - b)[:, None])
    total = risk[:, None] + np.einsum("pc,pt->ct", alive_k * q[:, None], term)
    return float(total.min()), count


def _enumerate_secondary(
    app2: AppConfig,
    shared: Sequence[StageModel],
    primary: PrimaryResult,
    lam: float,
    prior1: float,
    augmented: bool,
):
    """Exhaustive policy search for the secondary application.

    Mirrors the optimizer's semantics: the shared feature is on offer while
    the primary policy keeps continuing at the (exact-grid) primary-belief
    column; afterwards only the own-feature chain remains.  Policies are
    enumerated as, per stage, a stop threshold (plus an early-positive
    threshold when `augmented`) and a per-belief-node feature choice while
    the shared feature is available; evaluation is exact forward summation.
    """
    k = app2.k
    cm, ca = app2.miss_cost, app2.fa_cost

    g1 = primary.grid.points
    j0 = int(np.searchsorted(g1, prior1))
    if j0 >= g1.size or g1[j0] != prior1:
        raise ValueError("primary prior must be an exact grid point for the oracle")
    horizon = k  # shared feature on offer at decision stages 0..horizon-1
    for i in range(1, k):
        if not primary.continue_mask[i - 1][j0]:
            horizon = i
            break

    best = [math.inf]
    count = [0]

    own = [s.effective for s in app2.stages]
    sh = [s.effective for s in shared]

    def final_cost(nodes):
        pis, qs = nodes
        cands = _threshold_candidates(pis)
        term = np.where(pis[:, None] < cands[None, :], cm * pis[:, None], ca * (1.0 - pis)[:, None])
        count[0] += cands.size - 1  # distinct final rules beyond the first
        return float((qs[:, None] * term).sum(axis=0).min())

    def recurse(stage, nodes, acc):
        if stage == k:
            total = acc + final_cost(nodes)
            best[0] = min(best[0], total)
            return
        pis, qs = nodes
        can_share = stage < horizon
        if stage == 0:
            choices = [USE_SHARED, USE_OWN] if can_share else [USE_OWN]
            for choice in choices:
                count[0] += 1
                model = sh[0] if choice == USE_SHARED else own[0]
                cost = lam * app2.stages[0].cost_mj if choice == USE_OWN else 0.0
                recurse(1, _observe(*nodes, model), acc + cost)
            return

        cands = _threshold_candidates(pis)
        pos_cands = cands if augmented else np.array([np.inf])
        for tau in cands:
            for sigma in pos_cands:
                if tau > sigma:
                    continue
                stop = pis < tau
                pos = (pis >= sigma) & ~stop
                go = ~stop & ~pos
                loss = cm * float(qs[stop] @ pis[stop]) + ca * float(qs[pos] @ (1.0 - pis[pos]))
                if not go.any():
                    count[0] += 1
                    total = acc + loss
                    best[0] = min(best[0], total)
                    continue
                live = (pis[go], qs[go])
                if can_share:
                    # feature choice per continuing belief node
                    values = np.unique(live[0])
                    for mask_bits in range(1 << values.size):
                        count[0] += 1
                        if count[0] > ENUMERATION_CAP:
                            raise EnumerationCapError("secondary policy enumeration over cap")
                        use_own = np.zeros(live[0].size, dtype=bool)
                        for vi, v in enumerate(values):
                            if mask_bits >> vi & 1:
                                use_own |= live[0] == v
                        cost = lam * app2.stages[stage].cost_mj * float(live[1][use_own].sum())
                        parts = []
                        if (~use_own).any():
                            parts.append(_observe(live[0][~use_own], live[1][~use_own], sh[stage]))
                        if use_own.any():
                            parts.append(_observe(live[0][use_own], live[1][use_own], own[stage]))
                        nxt = (
                            np.concatenate([p[0] for p in parts]),
                            np.concatenate([p[1] for p in parts]),
                        )
                        recurse(stage + 1, nxt, acc + loss + cost)
                else:
                    count[0] += 1
                    if count[0] > ENUMERATION_CAP:
                        raise EnumerationCapError("secondary policy enumeration over cap")
                    cost = lam * app2.stages[stage].cost_mj * float(live[1].sum())
                    recurse(stage + 1, _observe(*live, own[stage]), acc + loss + cost)

    recurse(0, (np.array([app2.prior]), np.array([1.0])), 0.0)
    return best[0], count[0]


def _oracle(system: CascadeSystem, primary_result, prepared, augmented: bool):
    app1, app2, shared = system.robustified if prepared is None else prepared
    out = {}
    out["primary_risk"], out["primary_policies"] = _sweep_primary(app1, system.lam, augmented)
    if app2 is not None:
        if primary_result is None:
            primary_result = optimize_primary(app1, system.lam, exact_grid_primary(app1))
        out["secondary_risk"], out["secondary_policies"] = _enumerate_secondary(
            app2, shared, primary_result, system.lam, app1.prior, augmented=augmented
        )
        out["total_risk"] = out["primary_risk"] + out["secondary_risk"]
    else:
        out["total_risk"] = out["primary_risk"]
    return out


def brute_force_optimum(system: CascadeSystem, primary_result: Optional[PrimaryResult] = None,
                        prepared=None):
    """Global optimum of a tiny instance by exhaustive policy enumeration.

    Returns a dict with the per-application optima (secondary entries only
    when the system has one).  Instances whose policy space exceeds the cap
    are refused with EnumerationCapError.  The secondary search requires the
    primary policy, which is recomputed on its exact reachable grid unless
    one is supplied.  The system's own robustified models are used unless
    `prepared` carries a (primary, secondary, shared) triple robustified
    elsewhere, in which case the system's are never computed.
    """
    return _oracle(system, primary_result, prepared, augmented=False)


def augmented_optimum(system: CascadeSystem, primary_result: Optional[PrimaryResult] = None,
                      prepared=None):
    """Optimum when intermediate stages may also declare positive."""
    return _oracle(system, primary_result, prepared, augmented=True)


# ---------------------------------------------------------------------------
# Monte Carlo simulation
# ---------------------------------------------------------------------------

def _trials_column(a: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """A zero-copy view for `SimulationReport.trials`: flags as int8, an (n, k) action array as n k-strings."""
    if a is None or a.dtype.kind not in "bU":
        return a
    return a.view(np.int8) if a.dtype == bool else a.view(f"U{a.shape[1]}")[:, 0]


@dataclass
class AppEstimate:
    """Monte Carlo estimates for one application."""

    miss: float
    false_alarm: float
    energy_mean: float
    energy_stderr: float
    risk_mean: float          # miss + false alarm + lam * energy, per trial averaged
    risk_stderr: float


@dataclass
class SimulationReport:
    n_trials: int
    seed: int
    lam: float
    primary: AppEstimate
    secondary: Optional[AppEstimate] = None
    energy_total_mean: float = 0.0
    energy_total_stderr: float = 0.0
    trials: dict = field(default_factory=dict)


def _stderr(x: np.ndarray) -> float:
    """The standard error of `x`'s mean; nan, without a warning, for fewer than two samples."""
    return float(x.std(ddof=1) / math.sqrt(x.size)) if x.size > 1 else math.nan


def _estimate(cost_samples: np.ndarray, energy: np.ndarray, lam: float,
              miss: np.ndarray, fa: np.ndarray) -> AppEstimate:
    risk = cost_samples + lam * energy
    return AppEstimate(
        miss=float(miss.mean()),
        false_alarm=float(fa.mean()),
        energy_mean=float(energy.mean()),
        energy_stderr=_stderr(energy),
        risk_mean=float(risk.mean()),
        risk_stderr=_stderr(risk),
    )


_CHUNK = 1 << 16  # trials per block of uniforms in `simulate`: the size of its working set
_GUIDE_BUCKETS = 1 << 12  # buckets per unit interval in a `_Guide`'s table


class _Guide:
    """`np.searchsorted(points, x, side)` for a fixed sorted `points`, read from a guide table.

    The table (Chen & Asau 1974) has a bucket [j/B, (j+1)/B) for each
    j < B = `_GUIDE_BUCKETS` and the bucket {1.0} for j = B; x * B is exact,
    so truncating it gives x's bucket.  A bucket whose lowest and highest
    doubles get the same answer holds it, and that answer is exact for every
    x in the bucket because the search is monotone in x.  Needles in the
    other buckets, or outside [0, 1] (NaN included), go to `np.searchsorted`.
    """

    def __init__(self, points: np.ndarray, side: str = "left"):
        self.points, self.side = points, side
        lowest = np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS
        highest = np.append(np.nextafter(lowest[1:], 0.0), 1.0)
        answer = np.searchsorted(points, lowest, side)
        # -1 marks a bucket whose needles do not all get one answer
        self.table = np.where(answer == np.searchsorted(points, highest, side), answer, -1)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        t = x * _GUIDE_BUCKETS
        inside = (t >= 0.0) & (t <= _GUIDE_BUCKETS)  # NaN fails both
        pos = self.table[np.where(inside, t, 0.0).astype(np.intp)]
        redo = np.flatnonzero((pos < 0) | ~inside)
        if redo.size:
            pos[redo] = np.searchsorted(self.points, x[redo], self.side)
        return pos


def _nearest(guide: _Guide, x: np.ndarray) -> np.ndarray:
    """The index of the grid node nearest each x; a tie goes to the lower node."""
    grid = guide.points
    pos = np.clip(guide(x), 1, grid.size - 1)
    lo = pos - 1
    return np.where(x - grid[lo] <= grid[pos] - x, lo, pos)


def _lookup_rule(guide: _Guide, result: PrimaryResult, i: int, pi: np.ndarray) -> np.ndarray:
    """A cascade's rule after i features, to continue (i < K) or to declare positive (i = K), on its grid:
    the stored action at an exact grid node, `pi >= threshold` elsewhere."""
    mask = result.continue_mask[i - 1] if i < result.k else result.declare_mask
    grid = guide.points
    pos = np.minimum(guide(pi), grid.size - 1)
    return np.where(grid[pos] == pi, mask[pos], pi >= result.thresholds[i - 1])


def _lookup_table(table: np.ndarray, guide2: _Guide, guide1: _Guide, pi2: np.ndarray, pi1: np.ndarray):
    """`table`'s entries at the grid nodes nearest (pi2, pi1); a grid belief reads its own node."""
    return table[_nearest(guide2, pi2), _nearest(guide1, pi1)]


def _sampler(model: ConditionalPmf):
    """Inverse-CDF draws of `model`'s bins: `draw(x, u)` reads the p1 CDF where x holds, p0 elsewhere."""
    c0, c1 = _Guide(np.cumsum(model.p0), "right"), _Guide(np.cumsum(model.p1), "right")
    top = model.bins - 1

    def draw(x: np.ndarray, u: np.ndarray) -> np.ndarray:
        y = c0(u)
        y[x] = c1(u[x])
        return np.minimum(y, top, out=y)

    return draw


def simulate(
    system: CascadeSystem,
    primary_result: PrimaryResult,
    secondary_result: Optional[SecondaryResult] = None,
    n_trials: int = 100_000,
    seed: int = 0,
    no_sharing: bool = False,
) -> SimulationReport:
    """Run the cascade end to end on synthetic frames.

    Targets and features are drawn from the nominal models under the
    system's coupling mode; policies update beliefs with the system's
    robustified likelihood models.  The generator is a counter-based
    Philox stream keyed by the seed, with one row of uniforms per trial, so
    reports are bit-identical across runs and platforms for fixed inputs.

    The uniforms are drawn and processed in consecutive chunks of `_CHUNK`
    rows of that one stream, and within a chunk each feature is drawn and
    each rule looked up only for the trials that reach it.  No output
    depends on the chunking; only the per-trial result columns grow with
    the trial count, and the moments are taken over them at the end.
    Every per-trial search (a feature's inverse CDF, a belief's grid
    position) reads a `_Guide` table built once per call for each CDF and
    grid, and gets exactly the index `np.searchsorted` would.

    The report's `trials` holds the per-trial results as columns keyed by
    the `trials.csv` header (without `trial`, the row number): views of the
    run's own arrays, with booleans as int8 and each trial's per-stage
    actions as one string.  A primary-only run's secondary columns are None.
    """
    if n_trials < 1:
        raise ValueError("need at least one trial")
    has2 = system.secondary is not None and secondary_result is not None
    app1, app2, shared = system.robustified
    k = app1.k
    lam = system.lam
    pr, sr = primary_result, secondary_result

    draw1 = [_sampler(s.nominal) for s in app1.stages]
    r1tab = [likelihood_ratios(s.effective) for s in app1.stages]
    x1 = np.empty(n_trials, dtype=bool)
    xhat1 = np.zeros(n_trials, dtype=bool)
    stop_stage1 = np.full(n_trials, k)
    e1 = np.full(n_trials, app1.stages[0].cost_mj)
    acts1 = np.full((n_trials, k), "-", dtype="U1")
    codes1 = acts1.view(np.uint32)  # the actions' code points: written as integers, read as strings
    guide_p = _Guide(pr.grid.points)

    if has2:
        draw2 = [_sampler(s.nominal) for s in app2.stages]
        r2own = [likelihood_ratios(s.effective) for s in app2.stages]
        r2sh = [likelihood_ratios(s.effective) for s in shared]
        x2 = np.empty(n_trials, dtype=bool)
        xhat2 = np.zeros(n_trials, dtype=bool)
        stop_stage2 = np.full(n_trials, k)
        guide2, guide1 = (guide_p if g.points is pr.grid.points else _Guide(g.points) for g in (sr.grid2, sr.grid1))
        # every trial takes its first secondary feature from the same source
        first_own = no_sharing or _lookup_table(sr.delta0, guide2, guide1, np.array([app2.prior]),
                                                np.array([app1.prior]))[0] == USE_OWN
        e2 = np.full(n_trials, app2.stages[0].cost_mj if first_own else 0.0)
        acts2 = np.full((n_trials, k + 1), "-", dtype="U1")
        acts2[:, 0] = "2" if first_own else "1"
        codes2 = acts2.view(np.uint32)
    else:
        x2 = acts2 = xhat2 = stop_stage2 = None

    rng = np.random.Generator(np.random.Philox(key=seed))
    for lo in range(0, n_trials, _CHUNK):
        hi = min(lo + _CHUNK, n_trials)
        u = rng.random((hi - lo, 2 + 2 * k))
        rows = np.arange(hi - lo)

        # index arrays of the live trials; beliefs are chunk-long, read and written through them
        x1c = np.less(u[:, 0], app1.prior, out=x1[lo:hi])
        pi1 = np.full(rows.size, app1.prior)
        live1 = rows
        if has2:
            x2c = x2[lo:hi]
            if system.coupling == "twin":
                x2c[:] = x1c
            else:
                np.less(u[:, 1], app2.prior, out=x2c)
            pi2 = np.full(rows.size, app2.prior)
            live2 = rows
            own, via_shared = (rows, rows[:0]) if first_own else (rows[:0], rows)
            offered = np.full(rows.size, not no_sharing)  # the shared feature is on offer
            y1 = np.empty(rows.size, dtype=np.intp)       # the primary's latest feature bin

        for i in range(1, k + 1):
            y = draw1[i - 1](x1c[live1], u[live1, 1 + i])
            pi1[live1] = posterior_update_array(pi1[live1], r1tab[i - 1][y])
            if has2:
                y1[live1] = y
                y = draw2[i - 1](x2c[own], u[own, 1 + k + i])
                pi2[own] = posterior_update_array(pi2[own], r2own[i - 1][y])
                pi2[via_shared] = posterior_update_array(pi2[via_shared], r2sh[i - 1][y1[via_shared]])
            if i == k:
                break

            go = _lookup_rule(guide_p, pr, i, pi1[live1])
            codes1[lo + live1, i - 1] = np.where(go, ord("F"), ord("0"))
            stopped = live1[~go]
            stop_stage1[lo + stopped] = i
            live1 = live1[go]
            e1[lo + live1] += app1.stages[i].cost_mj

            if has2:
                offered[stopped] = False
                avail = offered[live2]
                act = np.empty(live2.size, dtype=np.int8)
                w = live2[avail]
                act[avail] = _lookup_table(sr.actions_with[i - 1], guide2, guide1, pi2[w], pi1[w])
                w = live2[~avail]
                act[~avail] = np.where(_lookup_rule(guide2, sr.solo, i, pi2[w]), USE_OWN, STOP)
                codes2[lo + live2, i] = act + ord("0")
                going = act != STOP
                stop_stage2[lo + live2[~going]] = i
                live2, act = live2[going], act[going]
                own, via_shared = live2[act == USE_OWN], live2[act != USE_OWN]
                e2[lo + own] += app2.stages[i].cost_mj

        declared = _lookup_rule(guide_p, pr, k, pi1[live1])
        xhat1[lo + live1] = declared
        codes1[lo + live1, k - 1] = np.where(declared, ord("1"), ord("0"))
        if has2:
            declared = _lookup_rule(guide2, sr.solo, k, pi2[live2])
            xhat2[lo + live2] = declared
            codes2[lo + live2, k] = np.where(declared, ord("1"), ord("0"))

    miss1 = app1.miss_cost * (x1 & ~xhat1)
    fa1 = app1.fa_cost * (~x1 & xhat1)
    est1 = _estimate(miss1 + fa1, e1, lam, miss1, fa1)

    est2 = None
    if has2:
        miss2 = app2.miss_cost * (x2 & ~xhat2)
        fa2 = app2.fa_cost * (~x2 & xhat2)
        est2 = _estimate(miss2 + fa2, e2, lam, miss2, fa2)

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
        energy_total_stderr=_stderr(total_energy),
        trials={name: _trials_column(c) for name, c in columns.items()},
    )


# ---------------------------------------------------------------------------
# twin experiment
# ---------------------------------------------------------------------------

def twin_experiment(system: CascadeSystem, priors: Sequence[float], trials: int = 0, seed: int = 0) -> list[dict]:
    """Clone the system's primary as its own secondary and quantify sharing.

    The system supplies the primary, the grid size and either a fixed
    multiplier or a budget to solve one multiplier per prior from; any
    secondary it has is replaced by the clone.  For each prior, both
    applications are optimized, and the report row collects expected
    energies, the energy saving factor, the primary risk breakdown, and the
    secondary risk with sharing against a no-sharing ablation (shared
    feature removed).  When `trials` > 0 a Monte Carlo cross-check is
    appended to each row.  Each prior's system is solved by
    `budget.solve_system`; the twin system is robustified once, since
    robustification does not depend on the prior.
    """
    primary = system.primary
    twin = replace(system, secondary=primary, shared=primary.stages, coupling="twin")
    rows = []
    for p in priors:
        solved = solve_system(twin.at(prior=p))
        (b1, en1, _), (b2, en2, _) = solved.forward
        b2a = b1  # without the shared feature the secondary is the primary's exact twin

        row = dict(
            prior=float(p),
            lam=solved.lam,
            e1_mj=en1,
            e2_mj=en2,
            saving=(en1 / en2) if en2 > 0 else math.inf,
            miss1=b1.miss,
            fa1=b1.false_alarm,
            resource1_weighted=b1.weighted_resource,
            risk1=b1.total,
            risk2_shared=b2.total,
            risk2_ablated=b2a.total,
            detection2_shared=b2.detection,
            detection2_ablated=b2a.detection,
            resource2_weighted=b2.weighted_resource,
        )
        if trials > 0:
            rep = simulate(solved.system, solved.primary, solved.secondary, n_trials=trials, seed=seed)
            row.update(
                sim_risk1=rep.primary.risk_mean,
                sim_risk1_stderr=rep.primary.risk_stderr,
                sim_e1=rep.primary.energy_mean,
                sim_risk2=rep.secondary.risk_mean,
                sim_e2=rep.secondary.energy_mean,
            )
        rows.append(row)
    return rows
