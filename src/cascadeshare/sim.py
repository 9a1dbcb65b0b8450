"""Monte Carlo validation, exhaustive tiny-instance oracles, twin experiment.

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
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .models import AppConfig, ConditionalPmf, likelihood_ratios, posterior_update_array
# robustify_app is imported only so that perfbench/spans.py can trace it under this module's name
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
from .budget import _solve_robustified

ENUMERATION_CAP = 10_000_000


class EnumerationCapError(ValueError):
    """Instance too large for exhaustive policy enumeration."""


@dataclass(frozen=True)
class CascadeSystem:
    """A full two-application instance (secondary optional) plus lambda.

    Twin coupling forces the secondary target to equal the primary target
    and requires the shared-feature models to match the primary's own.
    """

    primary: AppConfig
    lam: float
    secondary: Optional[AppConfig] = None
    shared: Optional[tuple] = None
    coupling: str = "twin"

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        object.__setattr__(self, "shared", _check_pairing(self.primary, self.secondary, self.shared, self.coupling))


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


@dataclass(frozen=True)
class TrialOutcome:
    """One simulated frame: targets, per-stage actions, verdicts, energy."""

    trial: int
    x1: int
    x2: Optional[int]
    actions1: str
    actions2: Optional[str]
    xhat1: int
    xhat2: Optional[int]
    stop_stage1: int
    stop_stage2: Optional[int]
    energy_mj: float


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
    minimal system risk.
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


def brute_force_primary(app: AppConfig, lam: float) -> tuple[float, int]:
    """Exact optimum of the single-application cascade (no early positives)."""
    return _sweep_primary(app, lam, augmented=False)


def augmented_primary(app: AppConfig, lam: float) -> tuple[float, int]:
    """Exact optimum when intermediate stages may also declare positive."""
    return _sweep_primary(app, lam, augmented=True)


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


def _oracle(system: CascadeSystem, primary_result, augmented: bool, prepared=None):
    if prepared is None:
        prepared = robustify_system(system.primary, system.secondary, system.shared)
    app1, app2, shared = prepared
    sweep = augmented_primary if augmented else brute_force_primary
    out = {}
    out["primary_risk"], out["primary_policies"] = sweep(app1, system.lam)
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
    one is supplied; `prepared` may carry already-robustified
    (primary, secondary, shared) configs to skip redundant solves.
    """
    return _oracle(system, primary_result, augmented=False, prepared=prepared)


def augmented_optimum(system: CascadeSystem, primary_result: Optional[PrimaryResult] = None,
                      prepared=None):
    """Optimum when intermediate stages may also declare positive."""
    return _oracle(system, primary_result, augmented=True, prepared=prepared)


# ---------------------------------------------------------------------------
# Monte Carlo simulation
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


def _lookup_with_action(result: SecondaryResult, i: int, pi2: np.ndarray, pi1: np.ndarray) -> np.ndarray:
    g2, g1 = result.grid2.points, result.grid1.points
    p2 = np.clip(np.searchsorted(g2, pi2), 0, g2.size - 1)
    p1 = np.clip(np.searchsorted(g1, pi1), 0, g1.size - 1)
    exact = (g2[p2] == pi2) & (g1[p1] == pi1)
    i2 = np.where(exact, p2, _nearest_index(g2, pi2))
    i1 = np.where(exact, p1, _nearest_index(g1, pi1))
    return result.actions_with[i - 1][i2, i1]


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
    trials: Optional[list] = None


def _estimate(cost_samples: np.ndarray, energy: np.ndarray, lam: float,
              miss: np.ndarray, fa: np.ndarray) -> AppEstimate:
    n = cost_samples.size
    risk = cost_samples + lam * energy
    return AppEstimate(
        miss=float(miss.mean()),
        false_alarm=float(fa.mean()),
        energy_mean=float(energy.mean()),
        energy_stderr=float(energy.std(ddof=1) / math.sqrt(n)),
        risk_mean=float(risk.mean()),
        risk_stderr=float(risk.std(ddof=1) / math.sqrt(n)),
    )


def simulate(
    system: CascadeSystem,
    primary_result: PrimaryResult,
    secondary_result: Optional[SecondaryResult] = None,
    n_trials: int = 100_000,
    seed: int = 0,
    no_sharing: bool = False,
    collect_trials: bool = False,
) -> SimulationReport:
    """Run the cascade end to end on synthetic frames.

    Targets and features are drawn from the nominal models under the
    system's coupling mode; policies update beliefs with their robustified
    likelihood models.  The generator is a counter-based Philox stream
    keyed by the seed, with one row of uniforms per trial, so reports are
    bit-identical across runs and platforms for fixed inputs.
    """
    if n_trials < 1:
        raise ValueError("need at least one trial")
    has2 = system.secondary is not None and secondary_result is not None
    app1, app2, shared = robustify_system(
        system.primary, system.secondary if has2 else None, system.shared if has2 else None)
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
    xhat1 = np.zeros(n_trials, dtype=bool)
    e1 = np.full(n_trials, app1.stages[0].cost_mj)
    acts1 = np.full((n_trials, k), "-", dtype="U1")

    if has2:
        pi2 = np.full(n_trials, app2.prior)
        alive2 = np.ones(n_trials, dtype=bool)
        stop_stage2 = np.full(n_trials, k)
        xhat2 = np.zeros(n_trials, dtype=bool)
        e2 = np.zeros(n_trials)
        acts2 = np.full((n_trials, k + 1), "-", dtype="U1")
        # source of the next update: shared draw or own draw
        if no_sharing:
            delta0_own = np.ones(n_trials, dtype=bool)
        else:
            d0 = _lookup_with_action_scalar(secondary_result, app2.prior, app1.prior)
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
                _lookup_with_action(secondary_result, i, pi2, pi1),
                np.where(_lookup_rule(secondary_result.grid2.points, secondary_result.actions_without[i - 1],
                                      secondary_result.tau_without[i - 1], pi2), USE_OWN, STOP),
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
        declared2 = _lookup_rule(secondary_result.grid2.points, secondary_result.declare_mask,
                                 secondary_result.final_threshold, pi2)
        xhat2 = alive2 & declared2
        acts2[alive2, k] = np.where(declared2[alive2], "1", "0")
        miss2 = app2.miss_cost * (x2 & ~xhat2)
        fa2 = app2.fa_cost * (~x2 & xhat2)
        est2 = _estimate(miss2 + fa2, e2, lam, miss2, fa2)

    total_energy = e1 + (e2 if has2 else 0.0)
    report = SimulationReport(
        n_trials=n_trials,
        seed=seed,
        lam=lam,
        primary=est1,
        secondary=est2,
        energy_total_mean=float(total_energy.mean()),
        energy_total_stderr=float(total_energy.std(ddof=1) / math.sqrt(n_trials)),
    )
    if collect_trials:
        rows = []
        for t in range(n_trials):
            rows.append(TrialOutcome(
                trial=t,
                x1=int(x1[t]),
                x2=int(x2[t]) if has2 else None,
                actions1="".join(acts1[t]),
                actions2="".join(acts2[t]) if has2 else None,
                xhat1=int(xhat1[t]),
                xhat2=int(xhat2[t]) if has2 else None,
                stop_stage1=int(stop_stage1[t]),
                stop_stage2=int(stop_stage2[t]) if has2 else None,
                energy_mj=float(total_energy[t]),
            ))
        report.trials = rows
    return report


def _lookup_with_action_scalar(result: SecondaryResult, pi2: float, pi1: float) -> int:
    # nearest-node lookup; lands on the node itself for on-grid beliefs
    i2 = int(_nearest_index(result.grid2.points, np.array([pi2]))[0])
    i1 = int(_nearest_index(result.grid1.points, np.array([pi1]))[0])
    return int(result.delta0[i2, i1])


# ---------------------------------------------------------------------------
# twin experiment
# ---------------------------------------------------------------------------

@dataclass
class TwinRow:
    prior: float
    lam: float
    e1_mj: float
    e2_mj: float
    saving: float
    miss1: float
    fa1: float
    resource1_weighted: float
    risk1: float
    risk2_shared: float
    risk2_ablated: float
    detection2_shared: float
    detection2_ablated: float
    resource2_weighted: float


def twin_experiment(
    base_app: AppConfig,
    prior_sweep: Sequence[float],
    grid: Grid,
    lam: Optional[float] = None,
    budget=None,
    trials: int = 0,
    seed: int = 0,
) -> list[dict]:
    """Clone the application as its own secondary and quantify sharing.

    For each swept prior, both applications are optimized (at a fixed
    multiplier, or one solved per prior from a budget spec), and the report
    row collects expected energies, the energy saving factor, the primary
    risk breakdown, and the secondary risk with sharing against a
    no-sharing ablation (shared feature removed).  When `trials` > 0 a
    Monte Carlo cross-check is appended to each row.
    """
    if (lam is None) == (budget is None):
        raise ValueError("provide exactly one of lam or budget")
    # robustification does not depend on the prior, and a twin's secondary
    # and shared-feature models are the primary's own
    robust_app, _, _ = robustify_system(base_app)
    rows = []
    for p in prior_sweep:
        nominal = replace(base_app, prior=float(p))
        app = replace(robust_app, prior=float(p))
        if budget is not None:
            lam_p = _solve_robustified(budget, grid, app, app, app.stages).lam
        else:
            lam_p = float(lam)
        pr = optimize_primary(app, lam_p, grid)
        sr = optimize_secondary(app, app.stages, pr, lam_p)
        b1, en1, _ = forward_primary(pr, app)
        b2, en2, _ = forward_secondary(sr, app, app.stages, app.prior)
        b2a = b1  # without the shared feature the secondary is the primary's exact twin

        row = TwinRow(
            prior=float(p),
            lam=lam_p,
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
        ).__dict__
        if trials > 0:
            system = CascadeSystem(nominal, lam_p, secondary=nominal,
                                   shared=nominal.stages, coupling="twin")
            rep = simulate(system, pr, sr, n_trials=trials, seed=seed)
            row.update(
                sim_risk1=rep.primary.risk_mean,
                sim_risk1_stderr=rep.primary.risk_stderr,
                sim_e1=rep.primary.energy_mean,
                sim_risk2=rep.secondary.risk_mean,
                sim_e2=rep.secondary.energy_mean,
            )
        rows.append(row)
    return rows
