"""Expected resource accounting, Lagrange-multiplier search, and the one system solve.

The multiplier prices feature extraction inside the optimizer; this module
computes the resulting expected energy per frame and bisects the multiplier
until consumption meets a system budget.  Consumption is a step function
of the multiplier (policies change discretely); the bisection assumes it
non-increasing, as it is for the primary alone.  With two applications it
need not be: the secondary's options move with the primary's policy.
The search stops at the first midpoint within budget and within the
budget's relative tolerance of it; else it narrows the bracket to 1e-12
of its width and returns the smallest multiplier seen within budget,
however far under the budget, without saying that it missed.

`Solved` is the one record of a solve: the system at its multiplier, both
policies, and their consumption E1 + E2, read off the forward passes,
which run once per record.  `solve_system` is how every command and the
twin experiment turn a system into one: optimize both applications at the
system's multiplier, or, when the system has a budget, keep the record its
search made at the multiplier it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Optional

from .models import AppConfig
# robustify_app is imported only so that perfbench/spans.py can trace it under this module's name
from .robust import robustify_app
from .dp import (
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
    """Energy budget in mJ per frame, the system's baseline included.

    The multiplier is searched in `lambda_bracket`; the search may stop once
    consumption is within budget and within `tolerance` (relative) of it.
    The system that carries the budget checks that it exceeds its baseline.
    """

    budget_mj: float
    lambda_bracket: tuple[float, float] = (0.0, 1.0)
    tolerance: float = 1e-3

    def __post_init__(self):
        lo, hi = self.lambda_bracket
        if not all(math.isfinite(v) for v in (self.budget_mj, lo, hi, self.tolerance)):
            raise ValueError("budget, bracket and tolerance must be finite")
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


@dataclass
class Solved:
    """One solve: the system at its multiplier, both policies, and what they consume.

    Every record `solve_system` returns holds the system at the multiplier
    its policies were solved at (the steps inside a budget search hold the
    budgeted system).  `secondary` is None for a primary-only system;
    `slack` says a budget search returned the bottom of its bracket.  `forward` holds both
    applications' forward passes, run once, on first read; the energies
    and `to_json`, the record `budget.json` holds, are read off them.
    """

    system: CascadeSystem
    primary: PrimaryResult
    secondary: Optional[SecondaryResult]
    slack: bool = False

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

    @cached_property
    def forward(self) -> tuple:
        """(`forward_primary`'s result, `forward_secondary`'s result or None)."""
        first = forward_primary(self.primary, self.app1)
        if self.secondary is None:
            return first, None
        return first, forward_secondary(self.secondary, self.app2, self.shared, self.app1.prior)

    @property
    def e1_mj(self) -> float:
        return self.forward[0][1]

    @property
    def e2_mj(self) -> float:
        second = self.forward[1]
        return 0.0 if second is None else second[1]

    @property
    def baseline_mj(self) -> float:
        return self.system.baseline_mj

    @property
    def total_mj(self) -> float:
        return self.e1_mj + self.e2_mj + self.baseline_mj

    def to_json(self) -> dict:
        return {
            "lambda": self.lam,
            "E1_mJ": self.e1_mj,
            "E2_mJ": self.e2_mj,
            "baseline_mJ": self.baseline_mj,
            "total_mJ": self.total_mj,
            "slack": self.slack,
        }


def _solve_at(system: CascadeSystem, lam: float, slack: bool = False) -> Solved:
    """Both applications optimized at multiplier `lam` on the system's planning models and grid."""
    app1, app2, shared = system.robustified
    pr = optimize_primary(app1, lam, system.grid)
    sr = None if app2 is None else optimize_secondary(app2, shared, pr, lam)
    return Solved(system, pr, sr, slack)


def solve_lambda(system: CascadeSystem) -> Solved:
    """Bisection on the multiplier until the system's consumption meets its budget.

    Searches `system.budget` on the system's robustified models and its
    grid, `system.grid`, against the target `budget_mj - system.baseline_mj`;
    raises ValueError when the system has no budget.  Returns with the
    slack flag when the bracket's lower end (normally 0) already satisfies
    the budget; raises BracketFailureError when even the top of the
    bracket consumes too much.  Otherwise bisects and returns the first
    midpoint whose consumption is within budget and within
    `tolerance * target` of the target; when none is, the bracket is
    narrowed to 1e-12 of its width and the smallest multiplier seen within
    budget is returned, even if another multiplier meets the budget more
    closely (see the module docstring).  What it returns is the search's
    own solve at that multiplier, forward passes included.

    The stage models do not depend on the multiplier, and the system's grid
    keeps each stage's belief-transition operator, so every solve of the
    search, and any later one on the system, reuses those the first built.
    """
    spec = system.budget
    if spec is None:
        raise ValueError("the system has no budget to solve the multiplier from")
    target = spec.budget_mj - system.baseline_mj
    lo, hi = spec.lambda_bracket

    def used(solved):
        return solved.e1_mj + solved.e2_mj

    best = _solve_at(system, lo, slack=True)
    if used(best) > target:
        best = _solve_at(system, hi)
        if used(best) > target:
            raise BracketFailureError(
                f"consumption {used(best):.6g} mJ at lambda={hi} still exceeds target {target:.6g} mJ"
            )
        width0 = hi - lo
        for _ in range(60):  # more halvings than a double has digits
            if hi - lo <= 1e-12 * width0:
                break
            mid = 0.5 * (lo + hi)
            at_mid = _solve_at(system, mid)
            spent = used(at_mid)
            if spent > target:
                lo = mid
                continue
            hi, best = mid, at_mid
            if target - spent <= spec.tolerance * target:
                break
    # the steps share the budgeted system; only the record returned is moved to its multiplier
    best.system = system.at(lam=best.primary.lam)
    return best


def solve_system(system: CascadeSystem) -> Solved:
    """Optimize both applications at the system's multiplier, or take them from its budget search."""
    if system.lam is None:
        return solve_lambda(system)
    return _solve_at(system, system.lam)
