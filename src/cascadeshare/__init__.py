"""Threshold design and validation for cascade detectors with feature sharing.

Two applications share a staged detection pipeline: the primary extracts
universal features that the secondary may consume at zero marginal cost.
This package estimates and robustifies the per-stage feature models, finds
globally optimal stop/continue/share thresholds by backward induction on
quantized belief grids under a priced energy budget, solves the price for a
target budget, and validates everything against exhaustive enumeration and
Monte Carlo simulation.
"""

from .models import (
    AppConfig,
    Belief,
    ConditionalPmf,
    OperatingPoint,
    estimate_pmf,
    evidence_pmf,
    likelihood_ratios,
    posterior_update,
    roc_pr,
)
from .robust import (
    Breakpoints,
    DegenerateUncertaintyError,
    StageModel,
    UncertaintyParams,
    posterior_bounds,
    robustify,
    robustify_app,
    robustify_app_stages,
    robustify_stage,
    robustify_system,
    solve_breakpoints,
)
from .dp import (
    Grid,
    PrimaryResult,
    RiskBreakdown,
    SecondaryResult,
    SharingCheck,
    cascade_optimality_primary,
    cascade_optimality_secondary,
    check_sharing_condition,
    optimize_primary,
    optimize_secondary,
)
from .budget import (
    BracketFailureError,
    BudgetSpec,
    LambdaSolution,
    cost_from_components,
    expected_resource,
    solve_lambda,
)
from .sim import (
    CascadeSystem,
    EnumerationCapError,
    SimulationReport,
    augmented_optimum,
    brute_force_optimum,
    exact_grid_primary,
    exact_grid_secondary,
    simulate,
    twin_experiment,
)

__version__ = "0.1.0"
