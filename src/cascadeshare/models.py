"""Feature probability models and Bayesian belief arithmetic.

A detector stage observes a quantized feature whose distribution depends on
the binary target state.  This module holds the conditional PMF container,
the posterior-belief update, the predictive (evidence) mixture, histogram
estimation of PMFs from labeled score streams, and ROC/PR computation.

All functions are pure and all containers are immutable after construction,
so values can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

# A belief is a probability of target presence; kept as a plain float.
Belief = float

_PMF_SUM_TOL = 1e-10


def validate_belief(value: float, name: str = "belief") -> float:
    value = float(value)
    if math.isnan(value) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value


@dataclass(frozen=True)
class ConditionalPmf:
    """Per-stage likelihood model p(y | x) over quantized bins.

    `p0` and `p1` are the conditional PMFs of the feature bin index under
    target-absent (x=0) and target-present (x=1).  Both must be nonnegative
    and sum to 1 within 1e-10; at least two bins are required.
    """

    p0: np.ndarray
    p1: np.ndarray

    def __post_init__(self):
        p0 = np.asarray(self.p0, dtype=float)
        p1 = np.asarray(self.p1, dtype=float)
        if p0.ndim != 1 or p1.ndim != 1 or p0.shape != p1.shape:
            raise ValueError("p0 and p1 must be 1-D vectors of equal length")
        if p0.size < 2:
            raise ValueError("need at least 2 bins")
        for name, vec in (("p0", p0), ("p1", p1)):
            if not np.all(np.isfinite(vec)) or np.any(vec < 0):
                raise ValueError(f"{name} must be finite and nonnegative")
            if abs(vec.sum() - 1.0) > _PMF_SUM_TOL:
                raise ValueError(f"{name} must sum to 1 (got {vec.sum()!r})")
        p0.setflags(write=False)
        p1.setflags(write=False)
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "p1", p1)

    @property
    def bins(self) -> int:
        return self.p0.size

    def support(self) -> np.ndarray:
        """Indices of bins carrying any probability mass under either state."""
        return np.flatnonzero((self.p0 > 0) | (self.p1 > 0))


def likelihood_ratios(model: ConditionalPmf) -> np.ndarray:
    """Per-bin likelihood ratio p1[y]/p0[y].

    Bins with p0=0 but p1>0 get +inf; bins with no mass under either state
    get NaN and are excluded from evidence support.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = model.p1 / model.p0
    ratios = np.where((model.p0 == 0) & (model.p1 > 0), np.inf, ratios)
    ratios[(model.p0 == 0) & (model.p1 == 0)] = np.nan
    return ratios


def posterior_update(pi_prev: Belief, likelihood_ratio: float) -> Belief:
    """Bayes update of the target-presence belief by one likelihood ratio.

    Returns 1 / (1 + (1-pi)/(l*pi)) with the limiting conventions:
    pi=0 stays 0 (absorbing), pi=1 stays 1, l=+inf drives the belief to 1,
    and l=0 drives it to 0 for any pi<1.
    """
    pi_prev = validate_belief(pi_prev, "pi_prev")
    likelihood_ratio = float(likelihood_ratio)
    if math.isnan(likelihood_ratio) or likelihood_ratio < 0:
        raise ValueError(f"likelihood ratio must be >= 0, got {likelihood_ratio!r}")
    if pi_prev == 0.0:
        return 0.0
    if pi_prev == 1.0:
        return 1.0
    if math.isinf(likelihood_ratio):
        return 1.0
    num = likelihood_ratio * pi_prev
    return num / (num + (1.0 - pi_prev))


def posterior_update_array(pi_prev, ratios) -> np.ndarray:
    """Vectorized `posterior_update` (same arithmetic, broadcasting inputs)."""
    pi = np.asarray(pi_prev, dtype=float)
    l = np.asarray(ratios, dtype=float)
    with np.errstate(invalid="ignore"):
        num = l * pi
        out = num / (num + (1.0 - pi))
    out = np.where(np.isinf(l), 1.0, out)
    out = np.where(pi == 0.0, 0.0, out)
    out = np.where(pi == 1.0, 1.0, out)
    return out


def evidence_pmf(model: ConditionalPmf, pi_prev: Belief) -> np.ndarray:
    """Predictive distribution of the next feature bin given the belief.

    Entry y equals p1[y]*pi + p0[y]*(1-pi), a convex combination of the two
    conditionals; the output sums to 1 up to roundoff.
    """
    pi_prev = validate_belief(pi_prev, "pi_prev")
    return model.p1 * pi_prev + model.p0 * (1.0 - pi_prev)


@dataclass(frozen=True)
class AppConfig:
    """One application's cascade: prior, decision costs, and stage models.

    `stages` holds one StageModel (see `cascadeshare.robust`) per cascade
    stage, ordered first to last.
    """

    prior: Belief
    miss_cost: float
    fa_cost: float
    stages: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        if len(self.stages) < 1:
            raise ValueError("need at least one stage (K >= 1)")
        if not 0.0 < float(self.prior) < 1.0:
            raise ValueError("prior must lie strictly inside (0, 1)")
        if not (0.0 <= self.miss_cost < math.inf and 0.0 <= self.fa_cost < math.inf):
            raise ValueError(f"costs must be finite and nonnegative, got {self.miss_cost!r} and {self.fa_cost!r}")

    @property
    def k(self) -> int:
        return len(self.stages)


def estimate_pmf(
    scores: Sequence[float],
    labels: Sequence[int],
    bins: int,
) -> tuple[ConditionalPmf, np.ndarray]:
    """Histogram PMF pair from a labeled score stream.

    Scores are quantized into `bins` equal-width bins spanning the observed
    pooled range (last bin right-closed, as in numpy histograms).  Per-label
    counts get add-one smoothing before normalization so every bin keeps
    strictly positive mass, which keeps downstream likelihood ratios finite.

    Returns the smoothed ConditionalPmf and the bin edges (length bins+1).
    Raises ValueError when either label is absent: a single-label stream
    cannot pin down both conditionals.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise ValueError("scores and labels must be 1-D and equal length")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("labels must be 0 or 1")
    if bins < 2:
        raise ValueError("need at least 2 bins")
    if not np.any(labels == 0) or not np.any(labels == 1):
        raise ValueError("need at least one sample of each label")

    edges = np.histogram_bin_edges(scores, bins=bins)
    counts1, _ = np.histogram(scores[labels == 1], bins=edges)
    counts0, _ = np.histogram(scores[labels == 0], bins=edges)
    p1 = (counts1 + 1.0) / (counts1.sum() + bins)
    p0 = (counts0 + 1.0) / (counts0.sum() + bins)
    return ConditionalPmf(p0=p0, p1=p1), edges


@dataclass(frozen=True)
class OperatingPoint:
    """One threshold rule: declare positive when the bin index >= threshold."""

    threshold: int
    tpr: float
    fpr: float
    precision: Optional[float]
    recall: float


def roc_pr(model: ConditionalPmf, prior: Belief) -> list[OperatingPoint]:
    """ROC and precision/recall operating points of a quantized feature.

    One point per bin threshold t = 0..L: TPR and FPR are the tail sums of
    p1 and p0 from bin t up; precision mixes the tails by the prior and is
    None when the predicted-positive mass is zero (the all-negative rule).
    """
    prior = validate_belief(prior, "prior")
    n = model.bins
    # tail[t] = sum over bins >= t; tail[L] = 0 covers the all-negative rule
    tail1 = np.concatenate([np.cumsum(model.p1[::-1])[::-1], [0.0]])
    tail0 = np.concatenate([np.cumsum(model.p0[::-1])[::-1], [0.0]])
    points = []
    for t in range(n + 1):
        tpr = float(tail1[t])
        fpr = float(tail0[t])
        pos_mass = prior * tpr + (1.0 - prior) * fpr
        precision = (prior * tpr / pos_mass) if pos_mass > 0 else None
        points.append(OperatingPoint(t, tpr, fpr, precision, tpr))
    return points


def pmf_to_json(model: ConditionalPmf, edges=None) -> dict:
    """JSON-ready dict {bins, edges, p0, p1} (edges may be None)."""
    return {
        "bins": model.bins,
        "edges": None if edges is None else [float(e) for e in np.asarray(edges)],
        "p0": [float(v) for v in model.p0],
        "p1": [float(v) for v in model.p1],
    }


def pmf_from_json(doc: dict) -> tuple[ConditionalPmf, Optional[np.ndarray]]:
    model = ConditionalPmf(p0=np.asarray(doc["p0"], float), p1=np.asarray(doc["p1"], float))
    if doc.get("bins") is not None and int(doc["bins"]) != model.bins:
        raise ValueError("bins field disagrees with vector length")
    edges = None if doc.get("edges") is None else np.asarray(doc["edges"], float)
    return model, edges
