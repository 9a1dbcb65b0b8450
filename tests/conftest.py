"""Shared random-instance generators and a bitwise result comparison for the test suite."""

import dataclasses

import numpy as np
import pytest

from cascadeshare.models import AppConfig, ConditionalPmf
from cascadeshare.robust import (
    DegenerateUncertaintyError,
    StageModel,
    UncertaintyParams,
    robustify_app,
)


def random_pmf(rng, bins, floor=0.05):
    a = rng.random(bins) + floor
    b = rng.random(bins) + floor
    return ConditionalPmf(p0=a / a.sum(), p1=b / b.sum())


def random_uncertainty(rng, scale=0.06):
    return UncertaintyParams(*(rng.random(4) * scale))


def random_app(rng, k=None, bins=None, u_scale=0.06, max_cost=3.0, prior_range=(0.05, 0.6)):
    """Random solvable application config (degenerate robustifications resampled)."""
    k = int(rng.integers(1, 4)) if k is None else k
    bins = int(rng.integers(2, 5)) if bins is None else bins
    for _ in range(50):
        stages = tuple(
            StageModel(
                nominal=random_pmf(rng, bins),
                uncertainty=random_uncertainty(rng, u_scale) if i < k - 1 else UncertaintyParams(),
                cost_mj=float(rng.random() * max_cost),
            )
            for i in range(k)
        )
        app = AppConfig(
            prior=float(rng.uniform(*prior_range)),
            miss_cost=float(rng.uniform(0.5, 3.0)),
            fa_cost=float(rng.uniform(0.5, 3.0)),
            stages=stages,
        )
        try:
            robustify_app(app)
            return app
        except DegenerateUncertaintyError:
            continue
    raise RuntimeError("could not draw a solvable random instance")


def assert_stages_bitwise_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.uncertainty == b.uncertainty and a.cost_mj == b.cost_mj
        assert a.breakpoints == b.breakpoints
        for name in ("nominal", "robust"):
            for side in ("p0", "p1"):
                assert getattr(getattr(a, name), side).tobytes() == getattr(getattr(b, name), side).tobytes()


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)


def assert_bitwise_equal(got, want, path="result"):
    """Dataclasses field by field, arrays by dtype and bytes, floats by repr."""
    if dataclasses.is_dataclass(want):
        assert type(got) is type(want), path
        for f in dataclasses.fields(want):
            assert_bitwise_equal(getattr(got, f.name), getattr(want, f.name), f"{path}.{f.name}")
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes(), path
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_bitwise_equal(g, w, f"{path}[{i}]")
    else:
        assert repr(got) == repr(want), path
