"""The twin-comparison experiment: how much does feature sharing buy?

The secondary application is an exact clone of the primary, so every
difference in energy and risk is attributable to the sharing asymmetry:
the clone may consume already-extracted primary features for free, but its
own extractions cost full price.
"""

import math
from pathlib import Path

from cascadeshare import twin_experiment
from cascadeshare.cli import load_config

cfg = load_config(str(Path(__file__).resolve().parent.parent / "configs" / "gcw_twin.json"))
rows = twin_experiment(cfg, cfg.priors)

print(f"lambda = {cfg.lam}, grid M = {cfg.grid_m}, priors {list(cfg.priors)}\n")
print(f"{'prior':>6} {'E1 mJ':>9} {'E2 mJ':>9} {'saving':>8} "
      f"{'risk2 shared':>13} {'risk2 ablated':>14}")
for r in rows:
    saving = "inf" if math.isinf(r["saving"]) else f"{r['saving']:.2f}x"
    print(f"{r['prior']:>6.2f} {r['e1_mj']:>9.3f} {r['e2_mj']:>9.3f} {saving:>8} "
          f"{r['risk2_shared']:>13.4f} {r['risk2_ablated']:>14.4f}")

finite = [r["saving"] for r in rows if math.isfinite(r["saving"])]
print("\nreading the table:")
print(" - the saving factor E1/E2 exceeds 1 at every prior; rows where the")
print("   clone never pays for a feature of its own show as inf")
print(" - shared risk never exceeds the no-sharing ablation: free features")
print("   only add options")
if finite:
    print(f" - finite saving factors here: {[round(s, 2) for s in finite]}; the magnitude")
    print("   depends entirely on the feature models, so treat it as qualitative")

print("\nprimary risk decomposition per prior (miss / false alarm / priced energy):")
for r in rows:
    print(f"  prior {r['prior']:.2f}: {r['miss1']:.4f} / {r['fa1']:.4f} / "
          f"{r['resource1_weighted']:.4f}  (total {r['risk1']:.4f})")
