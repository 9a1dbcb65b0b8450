"""Output checks that the benchmark makes apart from the program.

Every function here either recomputes a quantity with its own arithmetic
(a short value iteration with `np.interp`, an exhaustive sum over feature
paths) or tests a property the method must have (concavity, a slope
bound, a closed-form threshold).  None compares against a stored copy of
earlier program output.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np


class CheckError(AssertionError):
    """A program output failed one of the benchmark's checks."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _reject_constant(token):
    raise CheckError(f"non-finite JSON constant {token}")


def read_json(path: Path):
    """Strict JSON: NaN and Infinity are refused, as the program promises."""
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)


def read_csv(path: Path, header: list[str]) -> np.ndarray:
    """Float table of a CSV artifact after checking its header."""
    with open(path, newline="", encoding="utf-8") as fh:
        first = next(csv.reader([fh.readline()]), [])
        require(first == header, f"{path.name}: header {first} != {header}")
        return np.loadtxt(fh, delimiter=",", ndmin=2).reshape(-1, len(header))


def value_iteration(points: np.ndarray, stages, miss_cost: float, fa_cost: float, lam: float):
    """Primary value tables on a belief grid, computed independently.

    `stages` is a list of (p0, p1, cost_mJ), the models the design uses.
    The next belief is pi*p1/(pi*p1 + (1-pi)*p0), written directly from the
    joint probabilities rather than through a likelihood ratio, and off-grid
    values are read with `np.interp`.  Stage 0 always takes the first
    feature; later stages take the cheaper of stopping (miss cost times the
    belief) and continuing.

    Returns (values, margins): values V_0..V_K of shape (K+1, M), and
    stop - continue at stages 1..K-1 of shape (K-1, M), >= 0 where the
    policy continues.
    """
    b = np.asarray(points, dtype=float)
    k = len(stages)
    values = np.empty((k + 1, b.size))
    margins = np.empty((max(k - 1, 0), b.size))
    values[k] = np.minimum(miss_cost * b, fa_cost * (1.0 - b))
    for i in range(k - 1, -1, -1):
        p0, p1, cost = stages[i]
        joint1 = np.outer(b, p1)
        evidence = joint1 + np.outer(1.0 - b, p0)
        nxt = np.divide(joint1, evidence, out=np.zeros_like(joint1), where=evidence > 0)
        cont = lam * cost + (evidence * np.interp(nxt, b, values[i + 1])).sum(axis=1)
        if i == 0:
            values[0] = cont
        else:
            values[i] = np.minimum(miss_cost * b, cont)
            margins[i - 1] = miss_cost * b - cont
    return values, margins


def concave_with_slope_bound(table: np.ndarray, points: np.ndarray, miss_cost: float, tol: float = 1e-9):
    """Raise unless a value table is concave with slope <= C_M along axis 0.

    On a uniform grid a concave function has non-positive second
    differences; every value table is also bounded in slope by the miss
    cost, since V(pi) <= C_M * pi and both sides vanish at pi = 0.
    """
    t = np.asarray(table, dtype=float)
    dx = np.diff(points)
    second = np.diff(t, 2, axis=0).max() if t.shape[0] > 2 else -np.inf
    slope = (np.diff(t, axis=0) / dx.reshape((-1,) + (1,) * (t.ndim - 1))).max()
    require(second <= tol, f"value table not concave: second difference {second:.3e}")
    require(slope <= miss_cost + tol, f"value table slope {slope:.6g} exceeds C_M = {miss_cost}")


def grid_rule(points: np.ndarray, grid_action: np.ndarray, threshold: float, pi: np.ndarray) -> np.ndarray:
    """The documented execution rule of a published policy.

    On a grid point (exact equality) the grid action applies; off the grid
    the belief is compared with the stage threshold, `pi >= threshold`.
    """
    pi = np.asarray(pi, dtype=float)
    pos = np.clip(np.searchsorted(points, pi), 0, points.size - 1)
    on_grid = points[pos] == pi
    return np.where(on_grid, grid_action[pos], pi >= threshold)


def primary_path_expectation(prior, nominal, ratios, costs, miss_cost, fa_cost, lam,
                             continue_rules, declare_rule, update):
    """Exact expected risk and energy of an executed primary policy.

    Sums over every sequence of nominal feature bins (B^K paths for B bins
    and K stages), which is what a Monte Carlo run of the same policy
    estimates.  Arguments:

    - `nominal[i]` = (p0, p1): the distributions the features are drawn from;
    - `ratios[i]`: per-bin likelihood ratio the policy updates its belief by;
    - `costs[i]`: energy of feature i (the first is always paid);
    - `continue_rules[i-1](pi)`: continue decision after i features;
    - `declare_rule(pi)`: final positive declaration;
    - `update(pi, ratio)`: the belief update the executed policy uses.

    Paths that stop are dropped from later stages, so memory is bounded by
    the paths still running.  Returns (risk, energy, miss, false_alarm)
    with risk = miss + false_alarm + lam * energy.
    """
    k = len(nominal)
    pis = np.array([float(prior)])
    w1 = np.array([float(prior)])        # P(path, target present)
    w0 = np.array([1.0 - float(prior)])  # P(path, target absent)
    energy = float(costs[0])
    miss = 0.0
    for i in range(k):
        p0, p1 = (np.asarray(p, dtype=float) for p in nominal[i])
        keep = (p0 > 0) | (p1 > 0)
        r = np.asarray(ratios[i], dtype=float)[keep]
        pis = update(pis[:, None], r[None, :]).ravel()
        w1 = (w1[:, None] * p1[keep][None, :]).ravel()
        w0 = (w0[:, None] * p0[keep][None, :]).ravel()
        if i == k - 1:
            break
        go = np.asarray(continue_rules[i](pis), dtype=bool)
        miss += miss_cost * float(w1[~go].sum())
        energy += float(costs[i + 1]) * float(w1[go].sum() + w0[go].sum())
        pis, w1, w0 = pis[go], w1[go], w0[go]
    declared = np.asarray(declare_rule(pis), dtype=bool)
    miss += miss_cost * float(w1[~declared].sum())
    fa = fa_cost * float(w0[declared].sum())
    return miss + fa + lam * energy, energy, miss, fa


def interp2(table: np.ndarray, rows: np.ndarray, cols: np.ndarray, r: float, c: float) -> float:
    """Bilinear interpolation of a (rows x cols) table at (r, c)."""
    at_col = np.array([np.interp(r, rows, table[:, j]) for j in range(cols.size)])
    return float(np.interp(c, cols, at_col))


def close(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= tol
