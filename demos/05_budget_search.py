"""Energy accounting and multiplier search against a frame budget.

Expected consumption falls in steps as the multiplier rises (policies
change discretely).  The solver bisects to the smallest multiplier whose
consumption fits the budget.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from cascadeshare import BudgetSpec, solve_lambda, solve_system
from cascadeshare.cli import load_config

cfg = load_config(str(Path(__file__).resolve().parent.parent / "configs" / "gcw_twin.json"))
primary_only = replace(cfg, secondary=None, shared=None)

print("expected primary consumption vs multiplier:")
for lam in np.linspace(0.0, 0.02, 9):
    e1 = solve_system(primary_only.at(lam=lam)).e1_mj
    print(f"  lambda={lam:.4f}: E1 = {e1:8.3f} mJ/frame")

baseline = 3.6 * 0.032  # always-on microphone + preamp + ADC
spec = BudgetSpec(budget_mj=49.398, lambda_bracket=(0.0, 1.0))
sol = solve_lambda(replace(cfg, lam=None, budget=spec, baseline_mj=baseline))
print(f"\nbudget {spec.budget_mj} mJ/frame (baseline {baseline:.4f} mJ):")
print(f"  lambda* = {sol.lam:.6f}")
print(f"  E1 = {sol.e1_mj:.3f} mJ, E2 = {sol.e2_mj:.3f} mJ, total = {sol.total_mj:.3f} mJ")
print(f"  slack = {sol.slack}")
print("\n(the packaged config pins lambda = 0.0043, the reference operating point "
      "for roughly this budget)")

generous = BudgetSpec(budget_mj=1e4, lambda_bracket=(0.0, 1.0))
sol2 = solve_lambda(replace(cfg, lam=None, budget=generous, baseline_mj=baseline))
print(f"a generous budget returns the unconstrained optimum: lambda = {sol2.lam}, "
      f"slack = {sol2.slack}")
