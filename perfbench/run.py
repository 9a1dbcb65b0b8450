"""Benchmark entry point: one workload in one process, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload gcw-design --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from --seed; operations run one after
another (a closed loop with a single client) until their measured time
reaches --seconds, always finishing the operation under way.  Every output
is checked.  The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1.  Results and span traces are also written under
.perfbench_out/ in the repository root.  The program is imported from
src/, so a directory without it makes the run fail before any result.
"""

import os
import sys
import time

SETUP_START = time.perf_counter()

# one thread of load: numpy's BLAS must not fan out over the two cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "cascadeshare" / "__init__.py").is_file():
    sys.exit(f"perfbench: no program source under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

import spans
from checks import CheckError
from workloads import WORKLOADS

SETUP_REPEATS = 3  # set-ups per run: this process plus two fresh ones
SETUP_TIMEOUT_S = 120


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print {'setup_s': ...} and exit (used for repeated set-up timing)")
    return p.parse_args(argv)


def child_setup_seconds(args) -> float:
    """Set-up time of a fresh process: imports, input generation, warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


class Loop:
    """Closed-loop runner: attempted/failed counts and per-operation times."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.times = []          # seconds per completed operation
        self.artifact_bytes = []

    def one(self, rng, tracer=None, index=0) -> tuple[float, bool]:
        """Run one operation; returns (seconds, completed)."""
        inp = self.workload.make_input(rng)
        self.attempted += 1
        ctx = tracer.op(index) if tracer is not None else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with ctx:
                outcome = self.workload.run(inp)
        except Exception:
            elapsed = time.perf_counter() - start
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return elapsed, False
        elapsed = time.perf_counter() - start
        if outcome.code != 0:
            self.failed += 1
            print(f"operation {self.attempted} exited {outcome.code}", file=sys.stderr)
            return elapsed, False
        self.times.append(elapsed)
        self.artifact_bytes.append(outcome.artifact_bytes)
        try:
            self.workload.check(inp, outcome)
        except CheckError as exc:
            self.correct = False
            print(f"operation {self.attempted}: check failed: {exc}", file=sys.stderr)
        return elapsed, True


def op_rng(seed: int, index: int) -> np.random.Generator:
    """Inputs of operation `index`; the same seed gives the same inputs."""
    return np.random.default_rng([abs(seed), int(seed < 0), index])


def end_to_end(args, workload, setups) -> tuple:
    loop = Loop(workload)
    measured, i = 0.0, 0
    while measured < args.seconds:
        measured += loop.one(op_rng(args.seed, i))[0]
        i += 1
    ok_time = sum(loop.times)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ms": (1e3 * statistics.median(loop.times) if loop.times else 0.0, "ms"),
        "ops_per_s": (len(loop.times) / ok_time if ok_time > 0 else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {"setups_s": setups, "op_ms": [1e3 * t for t in loop.times]}
    return loop, metrics, extra, None


def traced(args, workload) -> tuple:
    """Alternate untraced and traced operations; layer figures from the traced ones."""
    loop = Loop(workload)
    tracer = spans.Tracer()
    plain, with_spans, traced_bytes = [], [], []
    measured, i = 0.0, 0
    # at least one operation of each kind, unless the first few all fail
    while measured < args.seconds or (not (plain and with_spans) and i < 4):
        is_traced = i % 2 == 1
        dt, completed = loop.one(op_rng(args.seed, i), tracer if is_traced else None, i)
        if completed:
            (with_spans if is_traced else plain).append(dt)
            if is_traced:
                traced_bytes.append(loop.artifact_bytes[-1])
        measured += dt
        i += 1
    layer = tracer.layer_metrics(len(with_spans))
    units = {"ms": "ms", "self_ms": "ms", "calls": "count", "evals": "count", "trials_per_s": "1/s",
             "peak_alloc_mb": "MB", "availability_patterns": "count", "policies_evaluated": "count"}
    metrics = {name: (value, units[name.rsplit(".", 1)[-1]]) for name, value in layer.items()}
    metrics["cli.artifact_bytes"] = (statistics.median(traced_bytes) if traced_bytes else 0, "bytes")
    overhead = 100.0 * (statistics.median(with_spans) / statistics.median(plain) - 1.0) if plain and with_spans else 0.0
    metrics["trace.overhead_pct"] = (overhead, "%")
    extra = {"untraced_op_ms": [1e3 * t for t in plain], "traced_op_ms": [1e3 * t for t in with_spans]}
    return loop, metrics, extra, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](work)
        if workload.warm_up().code != 0:
            raise RuntimeError(f"{args.workload}: warm-up operation failed")
        setup_s = time.perf_counter() - SETUP_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            loop, metrics, extra, tracer = traced(args, workload)
        else:
            setups = [setup_s] + [child_setup_seconds(args) for _ in range(SETUP_REPEATS - 1)]
            loop, metrics, extra, tracer = end_to_end(args, workload, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": loop.correct and bool(loop.times),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps({**result, "detail": extra}, indent=1), encoding="utf-8")
    if tracer is not None:
        (out / f"{stem}-spans.json").write_text(json.dumps(tracer.to_json()), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
