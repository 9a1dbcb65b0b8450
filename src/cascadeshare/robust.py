"""Huber least-favorable robustification of stage feature models.

Early cascade stages use cheap, deliberately crude features, so their
conditional PMFs are trusted only up to a contamination neighborhood
described by four parameters (eps0, eps1, nu0, nu1).  The least-favorable
pair replaces the nominal conditionals with a three-branch piecewise
transform that clips the likelihood ratio to a window [l_lo, l_hi].  The
window endpoints are pinned by requiring both transformed PMFs to remain
properly normalized; the pair of equations separates into one
piecewise-linear equation per endpoint, which this module solves exactly
over the support sorted by nominal ratio, and then applies the transform.

With eps0 == eps1 the transformed ratio lies exactly in [l_lo, l_hi]; for
asymmetric eps the ratio is the clipped nominal ratio scaled by
(1-eps1)/(1-eps0), which is what the branch algebra produces.  Every
uncertainty, one-sided or zero included, goes through the same two
equations, so the window is continuous in the four parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .models import Belief, ConditionalPmf, likelihood_ratios, posterior_update

# slack for a candidate window that lands on a segment end up to rounding
_SEGMENT_TOL = 1e-12


class DegenerateUncertaintyError(ValueError):
    """Uncertainty too large for the nominal pair: no valid ratio window."""


@dataclass(frozen=True)
class UncertaintyParams:
    """Contamination levels (eps) and strengths (nu) per hypothesis."""

    eps0: float = 0.0
    eps1: float = 0.0
    nu0: float = 0.0
    nu1: float = 0.0

    def __post_init__(self):
        for name in ("eps0", "eps1", "nu0", "nu1"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v!r}")
        if self.eps0 >= 1.0 or self.eps1 >= 1.0:
            raise ValueError("eps0 and eps1 must be < 1")

    @property
    def is_zero(self) -> bool:
        return self.eps0 == self.eps1 == self.nu0 == self.nu1 == 0.0


@dataclass(frozen=True)
class Breakpoints:
    """Likelihood-ratio clipping window; l_hi may be +inf."""

    l_lo: float
    l_hi: float

    def __post_init__(self):
        if not 0.0 <= self.l_lo <= self.l_hi:
            raise ValueError(f"need 0 <= l_lo <= l_hi, got ({self.l_lo}, {self.l_hi})")


@dataclass(frozen=True)
class StageModel:
    """One stage of one application: nominal model, uncertainty, cost.

    `robust` and `breakpoints` are populated by `robustify_stage`; until
    then the stage carries only its nominal model.  `cost_mj` is the
    feature-extraction cost in millijoules per frame.
    """

    nominal: ConditionalPmf
    uncertainty: UncertaintyParams = UncertaintyParams()
    cost_mj: float = 0.0
    robust: Optional[ConditionalPmf] = None
    breakpoints: Optional[Breakpoints] = None

    def __post_init__(self):
        if not 0.0 <= self.cost_mj < math.inf:
            raise ValueError(f"cost_mj must be finite and nonnegative, got {self.cost_mj!r}")

    @property
    def effective(self) -> ConditionalPmf:
        """Robustified model when available, else the nominal one."""
        return self.nominal if self.robust is None else self.robust


def _transform_coeffs(u: UncertaintyParams) -> tuple[float, float, float, float]:
    # (mix_lo, cross_lo, mix_hi, cross_hi): mixing weights of the piecewise
    # transform; mix_lo drives the target-present lift on the low branch and
    # mix_hi the target-absent lift on the high branch.
    mix_lo = (u.eps1 + u.nu1) / (1.0 - u.eps1)
    cross_lo = u.nu0 / (1.0 - u.eps0)
    mix_hi = (u.eps0 + u.nu0) / (1.0 - u.eps0)
    cross_hi = u.nu1 / (1.0 - u.eps1)
    return mix_lo, cross_lo, mix_hi, cross_hi


def _lfd_pair(p0, p1, ratios, u: UncertaintyParams, l_lo: float, l_hi: float):
    """Apply the three-branch transform on the support arrays."""
    mix_lo, cross_lo, mix_hi, cross_hi = _transform_coeffs(u)
    low = ratios < l_lo
    high = ratios > l_hi

    q0 = (1.0 - u.eps0) * p0
    q1 = (1.0 - u.eps1) * p1
    if np.any(low):
        blend = mix_lo * p0[low] + cross_lo * p1[low]
        denom = mix_lo + cross_lo * l_lo
        q0[low] = (1.0 - u.eps0) * blend / denom
        q1[low] = (1.0 - u.eps1) * l_lo * blend / denom
    if np.any(high):
        blend = cross_hi * p0[high] + mix_hi * p1[high]
        if math.isinf(l_hi):
            # empty-window limit: only reachable when the high set is empty
            raise AssertionError("high branch with infinite l_hi")
        denom = cross_hi + mix_hi * l_hi
        q0[high] = (1.0 - u.eps0) * blend / denom
        q1[high] = (1.0 - u.eps1) * l_hi * blend / denom
    # a window end on ratio 0 (+inf) with mix_lo (mix_hi) == 0 and strength nu0 (nu1) > 0 is the limit
    # of clipping the bins that only target absence (presence) emits: the strength removes its mass there
    if mix_lo == 0.0 < cross_lo and l_lo == ratios.min() == 0.0:
        edge = ratios == 0.0
        q0[edge] *= 1.0 - cross_lo / p0[edge].sum()
    if mix_hi == 0.0 < cross_hi and l_hi == ratios.max() == math.inf:
        edge = ratios == math.inf
        q1[edge] *= 1.0 - cross_hi / p1[edge].sum()
    return q0, q1


def _segment_root(candidates, edges, valid) -> Optional[float]:
    """First candidate lying in its own ratio segment [edges[i], edges[i+1]].

    Candidate i is the root of the linear piece of a normalization equation
    on segment i; the equation is convex piecewise-linear with one sign
    change, so at most one segment holds its root (two when the root sits on
    a segment end, up to rounding).  Returns None when none does.
    """
    with np.errstate(invalid="ignore"):
        fits = (
            valid
            & (candidates >= edges[:-1] * (1.0 - _SEGMENT_TOL) - _SEGMENT_TOL)
            & (candidates <= edges[1:] * (1.0 + _SEGMENT_TOL) + _SEGMENT_TOL)
        )
    return float(candidates[np.argmax(fits)]) if fits.any() else None


def solve_breakpoints(nominal: ConditionalPmf, u: UncertaintyParams) -> Breakpoints:
    """Ratio-window endpoints making both least-favorable PMFs sum to one.

    With L = {ratio < l_lo} and H = {ratio > l_hi}, substituting
    x = 1/(mix_lo + cross_lo*l_lo), t = l_lo*x, y = 1/(cross_hi + mix_hi*l_hi)
    and s = l_hi*y makes both normalizations linear in (x, t, y, s), and
    eliminating gives one equation per endpoint (Huber 1965):

        sum_L p0*(l_lo - ratio) = mix_lo + cross_lo*l_lo
        sum_H (p1 - l_hi*p0)    = cross_hi + mix_hi*l_hi

    i.e. (P0(L) - cross_lo)*l_lo = mix_lo + P1(L) and
    (P0(H) + mix_hi)*l_hi = P1(H) - cross_hi.  Each left side is convex
    piecewise-linear in its endpoint with a single crossing, so it is solved
    exactly from cumulative sums over the support sorted by nominal ratio
    (tied ratios grouped): the root is the one linear-piece root that lies
    inside its own ratio segment.  These two equations imply both
    normalizations; for eps0 == eps1 == 0, where the normalizations admit a
    family of windows, they pick the limit of the eps -> 0 windows.

    One-sided uncertainty (eps1 == nu1 == 0, or eps0 == nu0 == 0) takes the
    same two equations, so its window is the limit of the windows as the
    other side's contamination goes to 0: no special case makes the
    solution jump there.  Where that limit clips bins that only one
    hypothesis emits (ratio 0 or +inf), the window end sits on that ratio
    and `robustify` takes the strength contamination's mass from those
    bins, as the limit pair does.  Zero uncertainty returns the nominal
    ratio range.  Raises DegenerateUncertaintyError when an equation has no
    root or the two endpoints cross.
    """
    support = nominal.support()
    ratios = likelihood_ratios(nominal)[support]
    if not np.isfinite(ratios).any():
        raise DegenerateUncertaintyError("no finite likelihood ratios on support")
    g, group = np.unique(ratios, return_inverse=True)  # +inf sorts last
    p0 = nominal.p0[support]
    p1 = nominal.p1[support]
    g0 = np.bincount(group, weights=p0, minlength=g.size)
    g1 = np.bincount(group, weights=p1, minlength=g.size)
    # entry i: mass of the first i groups (left) and of groups i.. (right)
    left0 = np.concatenate(([0.0], np.cumsum(g0)))
    left1 = np.concatenate(([0.0], np.cumsum(g1)))
    right0 = np.concatenate((np.cumsum(g0[::-1])[::-1], [0.0]))
    right1 = np.concatenate((np.cumsum(g1[::-1])[::-1], [0.0]))
    edges = np.concatenate(([0.0], g, [math.inf]))

    mix_lo, cross_lo, mix_hi, cross_hi = _transform_coeffs(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        l_lo = g[0] if mix_lo == cross_lo == 0.0 else _segment_root(
            (mix_lo + left1) / (left0 - cross_lo), edges, left0 > cross_lo)
        # the root is +inf where the high set holds only bins with p0 = 0 and mix_hi == 0
        l_hi = g[-1] if mix_hi == cross_hi == 0.0 else _segment_root(
            (right1 - cross_hi) / (right0 + mix_hi), edges, (right0 + mix_hi > 0.0) | (right1 > cross_hi))
    if l_lo is None or l_hi is None:
        raise DegenerateUncertaintyError("degenerate uncertainty: no ratio window normalizes the pair")
    if l_lo > l_hi:
        raise DegenerateUncertaintyError("degenerate uncertainty: ratio window collapsed (l_lo > l_hi)")

    q0, q1 = _lfd_pair(p0.copy(), p1.copy(), ratios, u, l_lo, l_hi)
    s0, s1 = q0.sum(), q1.sum()
    if abs(s0 - 1.0) > 1e-9 or abs(s1 - 1.0) > 1e-9:
        raise DegenerateUncertaintyError(
            f"degenerate uncertainty: normalization failed (residuals {s0 - 1.0:.3g}, {s1 - 1.0:.3g})"
        )
    return Breakpoints(float(l_lo), float(l_hi))


def robustify(nominal: ConditionalPmf, u: UncertaintyParams, b: Breakpoints) -> ConditionalPmf:
    """Least-favorable PMF pair for the given window.

    Applies the three-branch transform bin-wise by nominal ratio; ties at
    exactly l_lo or l_hi fall in the middle (unclipped) branch.  The output
    is validated to stay normalized within 1e-9.
    """
    support = nominal.support()
    ratios = likelihood_ratios(nominal)[support]
    q0 = np.zeros(nominal.bins)
    q1 = np.zeros(nominal.bins)
    q0[support], q1[support] = _lfd_pair(
        nominal.p0[support].copy(), nominal.p1[support].copy(), ratios, u, b.l_lo, b.l_hi
    )
    if abs(q0.sum() - 1.0) > 1e-9 or abs(q1.sum() - 1.0) > 1e-9:
        raise DegenerateUncertaintyError("robustified PMFs are not normalized")
    return ConditionalPmf(p0=q0, p1=q1)


def robustify_stage(stage: StageModel) -> StageModel:
    """Stage with `robust` and `breakpoints` populated from its uncertainty."""
    b = solve_breakpoints(stage.nominal, stage.uncertainty)
    return replace(stage, robust=robustify(stage.nominal, stage.uncertainty, b), breakpoints=b)


def robustify_app_stages(stages) -> tuple[StageModel, ...]:
    """Robustify all intermediate stages; the final stage is trusted as-is.

    The last stage's uncertainty is forced to zero (its model is assumed
    adequate), so its robust model equals the nominal one and its window is
    the full nominal ratio range.
    """
    out = []
    for i, stage in enumerate(stages):
        if i == len(stages) - 1:
            stage = replace(stage, uncertainty=UncertaintyParams())
        out.append(robustify_stage(stage))
    return tuple(out)


def robustify_app(app) -> "AppConfig":
    """Copy of an application config with all stages robustified."""
    return replace(app, stages=robustify_app_stages(app.stages))


def robustify_system(primary, secondary=None, shared=None) -> tuple:
    """The planning models of a system: robustified (primary, secondary, shared).

    Both applications and the secondary's models of the shared feature are
    replaced by their least-favorable versions; the shared models form a
    stage chain of their own, whose last stage is trusted as-is like any
    final stage.  Without a secondary the last two entries are None.
    A secondary or shared chain that is the primary's own object (a twin
    cloned from one application) reuses the primary's robustified models.
    This is the one place a system gets robustified.
    """
    app1 = robustify_app(primary)
    if secondary is None:
        return app1, None, None
    if shared is None:
        raise ValueError("a secondary application needs its shared-feature models")
    app2 = app1 if secondary is primary else robustify_app(secondary)
    if shared is primary.stages:
        return app1, app2, app1.stages
    return app1, app2, robustify_app(replace(secondary, stages=shared)).stages


def posterior_bounds(pi_prev: Belief, b: Breakpoints) -> tuple[Belief, Belief]:
    """Reachable posterior interval after one update with a clipped ratio."""
    return (posterior_update(pi_prev, b.l_lo), posterior_update(pi_prev, b.l_hi))


def stage_model_to_json(stage: StageModel) -> dict:
    from .models import pmf_to_json

    doc = {
        "nominal": pmf_to_json(stage.nominal),
        "uncertainty": {
            "eps0": stage.uncertainty.eps0,
            "eps1": stage.uncertainty.eps1,
            "nu0": stage.uncertainty.nu0,
            "nu1": stage.uncertainty.nu1,
        },
        "cost_mJ": stage.cost_mj,
    }
    if stage.robust is not None:
        doc["robust"] = pmf_to_json(stage.robust)
    if stage.breakpoints is not None:
        doc["breakpoints"] = {"l_lo": stage.breakpoints.l_lo, "l_hi": stage.breakpoints.l_hi}
    return doc


def stage_model_from_json(doc: dict) -> StageModel:
    from .models import pmf_from_json

    nominal, _ = pmf_from_json(doc["nominal"])
    u = UncertaintyParams(**doc.get("uncertainty", {}))
    robust = None
    breakpoints = None
    if doc.get("robust") is not None:
        robust, _ = pmf_from_json(doc["robust"])
    if doc.get("breakpoints") is not None:
        breakpoints = Breakpoints(float(doc["breakpoints"]["l_lo"]), float(doc["breakpoints"]["l_hi"]))
    return StageModel(
        nominal=nominal,
        uncertainty=u,
        cost_mj=float(doc.get("cost_mJ", 0.0)),
        robust=robust,
        breakpoints=breakpoints,
    )
