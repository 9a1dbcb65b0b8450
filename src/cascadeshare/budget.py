"""Expected resource accounting, Lagrange-multiplier search, and the one system solve.

The multiplier prices feature extraction inside the optimizer; this module
computes the resulting expected energy per frame and bisects the multiplier
until consumption meets a system budget.  Consumption is a step-like,
non-increasing function of the multiplier (policies change discretely).
The search stops at the first midpoint whose consumption is within budget
and within the budget's relative tolerance of it; when no midpoint comes
that close, it narrows the bracket to 1e-12 of its width and returns the
smallest multiplier seen within budget.

`solve_system` is how every command and the twin experiment turn a system
into policies: optimize both applications at the system's multiplier, or,
when the system has a budget, keep the policies its search solved at the
multiplier it returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from .models import AppConfig
# robustify_app is imported only so that perfbench/spans.py can trace it under this module's name
from .robust import robustify_app
from .dp import (
    Grid,
    PrimaryResult,
    SecondaryResult,
    forward_primary,
    forward_secondary,
    optimize_primary,
    optimize_secondary,
)

if TYPE_CHECKING:
    from .sim import CascadeSystem


class BracketFailureError(ValueError):
    """Even the largest multiplier in the bracket exceeds the budget."""


@dataclass(frozen=True)
class BudgetSpec:
    """Energy budget in mJ per frame, with the policy-independent baseline.

    The multiplier is searched in `lambda_bracket`; the search may stop once
    consumption is within budget and within `tolerance` (relative) of it.
    """

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
    """The multiplier a budget search returned, its consumption, and the policies it solved there.

    `primary` and `secondary` are the search's own solves at `lam`; a
    solution built from a given multiplier leaves them None.  They are not
    part of `to_json`.
    """

    lam: float
    e1_mj: float
    e2_mj: float
    baseline_mj: float
    total_mj: float
    slack: bool
    primary: Optional[PrimaryResult] = field(default=None, repr=False, compare=False)
    secondary: Optional[SecondaryResult] = field(default=None, repr=False, compare=False)

    def to_json(self) -> dict:
        return {
            "lambda": self.lam,
            "E1_mJ": self.e1_mj,
            "E2_mJ": self.e2_mj,
            "baseline_mJ": self.baseline_mj,
            "total_mJ": self.total_mj,
            "slack": self.slack,
        }


def _consumption(lam: float, app: AppConfig, grid: Grid, app2, shared_stages, policies: Optional[list] = None):
    """(E1, E2) of both applications optimized at `lam` on `grid`.

    When `policies` is a list, the primary and secondary (or None) policies
    solved at `lam` are appended to it.
    """
    pr = optimize_primary(app, lam, grid)
    _, e1, _ = forward_primary(pr, app)
    e2, sr = 0.0, None
    if app2 is not None:
        sr = optimize_secondary(app2, shared_stages, pr, lam)
        _, e2, _ = forward_secondary(sr, app2, shared_stages, app.prior)
    if policies is not None:
        policies += [pr, sr]
    return e1, e2


def solve_lambda(system: CascadeSystem) -> LambdaSolution:
    """Bisection on the multiplier until the system's consumption meets its budget.

    Searches `system.budget` on the system's robustified models and its
    grid, `system.grid`; raises ValueError when the system has
    no budget.  Returns with the slack flag when the bracket's lower end
    (normally 0) already satisfies the budget; raises BracketFailureError
    when even the top of the bracket consumes too much.  Otherwise bisects
    and returns the first midpoint whose consumption is within budget and
    within `tolerance * target` of the target; when none is, the bracket is
    narrowed to 1e-12 of its width and the cheapest multiplier seen within
    budget is returned.  The solution carries the policies the search solved
    at the returned multiplier.

    The stage models do not depend on the multiplier, and the system's grid
    keeps each stage's belief-transition operator, so every solve of the
    search, and any later one on the system, reuses those the first built.
    """
    spec = system.budget
    if spec is None:
        raise ValueError("the system has no budget to solve the multiplier from")
    grid = system.grid
    app, app2, shared = system.robustified
    target = spec.budget_mj - spec.baseline_mj
    lo, hi = spec.lambda_bracket

    def solve_at(lam, slack=False):
        policies = []
        e1, e2 = _consumption(lam, app, grid, app2, shared, policies)
        if e1 + e2 > target:
            policies = []  # the search never returns this multiplier, so let its policies go now
        return LambdaSolution(lam, e1, e2, spec.baseline_mj, e1 + e2 + spec.baseline_mj, slack, *policies)

    at_lo = solve_at(lo, slack=True)
    if at_lo.e1_mj + at_lo.e2_mj <= target:
        return at_lo

    best = solve_at(hi)
    if best.e1_mj + best.e2_mj > target:
        raise BracketFailureError(
            f"consumption {best.e1_mj + best.e2_mj:.6g} mJ at lambda={hi} still exceeds target {target:.6g} mJ"
        )

    width0 = hi - lo
    for _ in range(60):  # more halvings than a double has digits
        if hi - lo <= 1e-12 * width0:
            break
        mid = 0.5 * (lo + hi)
        at_mid = solve_at(mid)
        used = at_mid.e1_mj + at_mid.e2_mj
        if used > target:
            lo = mid
            continue
        hi, best = mid, at_mid
        if target - used <= spec.tolerance * target:
            break
    return best


@dataclass
class Solved:
    """A system at its solved multiplier, and the policies the solve produced."""

    system: CascadeSystem
    primary: PrimaryResult
    secondary: Optional[SecondaryResult]
    budget_solution: Optional[LambdaSolution]

    @property
    def lam(self) -> float:
        return self.system.lam

    @property
    def app1(self) -> AppConfig:
        return self.system.robustified[0]

    @property
    def app2(self) -> Optional[AppConfig]:
        return self.system.robustified[1]

    @property
    def shared(self) -> Optional[tuple]:
        return self.system.robustified[2]


def solve_system(system: CascadeSystem) -> Solved:
    """Optimize both applications at the system's multiplier, or take them from its budget search."""
    if system.lam is None:
        solution = solve_lambda(system)
        return Solved(system.at(lam=solution.lam), solution.primary, solution.secondary, solution)
    app1, app2, shared = system.robustified
    pr = optimize_primary(app1, system.lam, system.grid)
    sr = None if app2 is None else optimize_secondary(app2, shared, pr, system.lam)
    return Solved(system, pr, sr, None)
