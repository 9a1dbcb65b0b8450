"""Expected resource accounting and Lagrange-multiplier search.

The multiplier prices feature extraction inside the optimizer; this module
computes the resulting expected energy per frame and bisects the multiplier
until consumption meets a system budget.  Consumption is a step-like,
non-increasing function of the multiplier (policies change discretely), so
the search returns the smallest bracketed multiplier whose consumption does
not exceed the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .models import AppConfig
from .robust import robustify_app
from .dp import (
    Grid,
    _secondary_operators,
    _stage_operators,
    forward_primary,
    forward_secondary,
    optimize_primary,
    optimize_secondary,
)


class BracketFailureError(ValueError):
    """Even the largest multiplier in the bracket exceeds the budget."""


@dataclass(frozen=True)
class BudgetSpec:
    """Energy budget in mJ per frame, with the policy-independent baseline."""

    budget_mj: float
    baseline_mj: float = 0.0
    lambda_bracket: tuple[float, float] = (0.0, 1.0)
    tolerance: float = 1e-3

    def __post_init__(self):
        if not self.budget_mj > self.baseline_mj >= 0.0:
            raise ValueError("need budget_mj > baseline_mj >= 0")
        lo, hi = self.lambda_bracket
        if not 0.0 <= lo < hi:
            raise ValueError("need 0 <= bracket lo < hi")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


def energy_mj(power_mw: float, time_s: float) -> float:
    """Extraction energy from a component's power draw and execution time."""
    return power_mw * time_s


def cost_from_components(components) -> float:
    """Sum energy over {power_mW, time_ms | time_s} component entries."""
    total = 0.0
    for c in components:
        if "time_s" in c:
            t = float(c["time_s"])
        else:
            t = float(c["time_ms"]) / 1000.0
        total += energy_mj(float(c["power_mW"]), t)
    return total


def expected_resource(
    primary_result,
    app: AppConfig,
    secondary_result=None,
    app2: Optional[AppConfig] = None,
    shared_stages=None,
    baseline_mj: float = 0.0,
) -> tuple[float, float, float]:
    """(E1, E2, total) expected energy in mJ per frame.

    E1 charges the first primary feature unconditionally plus each later
    feature weighted by its selection probability; E2 charges only stages
    where the secondary pays for its own feature (shared selections are
    free).  The total adds the always-on baseline.
    """
    _, e1, _ = forward_primary(primary_result, app)
    e2 = 0.0
    if secondary_result is not None:
        if app2 is None or shared_stages is None:
            raise ValueError("secondary accounting needs app2 and shared_stages")
        _, e2, _ = forward_secondary(secondary_result, app2, shared_stages, app.prior)
    return e1, e2, e1 + e2 + baseline_mj


@dataclass(frozen=True)
class LambdaSolution:
    lam: float
    e1_mj: float
    e2_mj: float
    baseline_mj: float
    total_mj: float
    slack: bool

    def to_json(self) -> dict:
        return {
            "lambda": self.lam,
            "E1_mJ": self.e1_mj,
            "E2_mJ": self.e2_mj,
            "baseline_mJ": self.baseline_mj,
            "total_mJ": self.total_mj,
            "slack": self.slack,
        }


def _consumption(lam: float, app: AppConfig, grid: Grid, app2, shared_stages, ops=(None, None)):
    ops1, ops2 = ops
    pr = optimize_primary(app, lam, grid, _ops=ops1)
    _, e1, _ = forward_primary(pr, app, _ops=ops1)
    e2 = 0.0
    if app2 is not None:
        sr = optimize_secondary(app2, shared_stages, pr, lam, _ops=ops2)
        _, e2, _ = forward_secondary(sr, app2, shared_stages, app.prior, _ops=ops2)
    return e1, e2


def solve_lambda(
    spec: BudgetSpec,
    primary_app: AppConfig,
    grid: Grid,
    secondary_app: Optional[AppConfig] = None,
    shared_stages=None,
    max_iter: int = 60,
) -> LambdaSolution:
    """Bisection on the multiplier until consumption meets the budget.

    Returns with the slack flag when the bracket's lower end (normally 0)
    already satisfies the budget; raises BracketFailureError when even the
    top of the bracket consumes too much.  Otherwise iterates until the
    achieved consumption is within the relative tolerance of the target or
    the iteration cap is reached, and returns the cheapest multiplier seen
    whose consumption is within budget.

    The stage models do not depend on the multiplier, so each stage's
    belief-transition operator is built once here and reused by every
    solve of the search; it is dropped when the search returns.
    """
    app = robustify_app(primary_app)
    app2 = None
    shared = None
    if secondary_app is not None:
        if shared_stages is None:
            raise ValueError("secondary budget accounting needs shared_stages")
        app2 = robustify_app(secondary_app)
        shared = tuple(robustify_app(AppConfig(
            prior=secondary_app.prior,
            miss_cost=secondary_app.miss_cost,
            fa_cost=secondary_app.fa_cost,
            stages=tuple(shared_stages),
        )).stages)

    ops = (
        _stage_operators(grid, app.stages),
        None if app2 is None else _secondary_operators(grid, app2, shared),
    )
    target = spec.budget_mj - spec.baseline_mj
    lo, hi = spec.lambda_bracket

    e1, e2 = _consumption(lo, app, grid, app2, shared, ops)
    if e1 + e2 <= target:
        return LambdaSolution(lo, e1, e2, spec.baseline_mj, e1 + e2 + spec.baseline_mj, True)

    e1_hi, e2_hi = _consumption(hi, app, grid, app2, shared, ops)
    if e1_hi + e2_hi > target:
        raise BracketFailureError(
            f"consumption {e1_hi + e2_hi:.6g} mJ at lambda={hi} still exceeds target {target:.6g} mJ"
        )

    # E is step-like in the multiplier: bisect the bracket all the way down so
    # the returned multiplier is the smallest one meeting the target
    best = (hi, e1_hi, e2_hi)
    width0 = hi - lo
    for _ in range(max_iter):
        if hi - lo <= 1e-12 * width0:
            break
        mid = 0.5 * (lo + hi)
        e1_m, e2_m = _consumption(mid, app, grid, app2, shared, ops)
        if e1_m + e2_m <= target:
            hi = mid
            best = (mid, e1_m, e2_m)
        else:
            lo = mid

    lam, e1, e2 = best
    return LambdaSolution(lam, e1, e2, spec.baseline_mj, e1 + e2 + spec.baseline_mj, False)
