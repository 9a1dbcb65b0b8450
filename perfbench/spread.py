"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the repository root:

    python3 perfbench/spread.py --workloads gcw-design,oracle-stream --seeds 1-10

Runs perfbench/run.py once per (workload, seed), one after another, and
prints, per workload and metric, the median of the runs and the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of that median.  Raw results go to .perfbench_out/spread-*.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    for workload in args.workloads.split(","):
        runs = []
        start = time.perf_counter()
        for seed in seeds(args.seeds):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
            runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
        (out / f"spread-{workload}.json").write_text(json.dumps(runs, indent=1), encoding="utf-8")
        shares = {round(r["failed"] / r["attempted"], 12) for r in runs}
        wall = (time.perf_counter() - start) / len(runs)
        print(f"{workload}: correct={all(r['correct'] for r in runs)} failed/attempted={sorted(shares)} "
              f"wall per run {wall:.1f} s")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"  {name:12s} median {med:12.5g}  IQR/median {(q3 - q1) / med:6.3f}  bound {bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
