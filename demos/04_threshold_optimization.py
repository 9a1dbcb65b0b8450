"""Backward threshold optimization for the bundled three-stage system.

Loads the packaged configuration (hardware energy constants plus synthetic
graded feature models), robustifies the intermediate stages, and runs the
belief-grid value iteration for both applications.
"""

from pathlib import Path

import numpy as np

from cascadeshare.cli import load_config, solve_system

config_path = Path(__file__).resolve().parent.parent / "configs" / "gcw_twin.json"
cfg = load_config(str(config_path))
print(f"K={cfg.primary.k} stages, L={cfg.primary.stages[0].nominal.bins} bins, "
      f"grid M={cfg.grid_m}, lambda={cfg.lam}")
print("stage costs (mJ):", [round(s.cost_mj, 5) for s in cfg.primary.stages])

solved = solve_system(cfg)
pr, sr = solved.primary, solved.secondary

print("\nprimary thresholds (stop below; read off the stored grid actions, inf if a stage never continues):")
for i, tau in enumerate(pr.thresholds, start=1):
    lo, hi = pr.bounds[i]
    kind = "declare-positive above" if i == pr.k else "continue at or above"
    print(f"  stage {i}: tau = {tau:.4f}  (envelope [{lo:.4f}, {hi:.4f}], {kind})")

print(f"\nstage-0 value at the prior: {pr.value_at(cfg.primary.prior):.6f}")

print("\nsecondary policy while the primary is running:")
print(f"  first decision: shared feature chosen at "
      f"{(sr.delta0 == 1).mean():.0%} of belief cells")
for i in range(1, sr.k):
    avail = sr.primary_continue[i - 1]
    own = int((sr.actions_with[i - 1][:, avail] == 2).sum()) if avail.any() else 0
    print(f"  stage {i}: own feature selected at {own} available cells "
          f"(sharing condition makes this 0); fallback threshold {sr.solo.thresholds[i-1]:.4f}")

v2 = sr.value_at(cfg.secondary.prior, cfg.primary.prior)
print(f"\nsecondary value with sharing: {v2:.6f}")
print(f"secondary value without sharing (ablation): {sr.solo.value_at(cfg.secondary.prior):.6f}")

# value functions are concave with slope at most the miss cost
v = pr.values[1]
print("\nshape checks on V_1: max second difference "
      f"{np.diff(v, 2).max():.2e}, max slope {np.diff(v).max() * (cfg.grid_m - 1):.3f}"
      f" (miss cost {cfg.primary.miss_cost})")
