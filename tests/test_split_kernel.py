"""The split kernel's array gains choose exactly what the scalar scan does.

``best_split_from_aggregates`` scores a whole slice with
``Criterion.gain_array`` and re-scores only the near-maximal thresholds
with the scalar ``gain_aggs``, which stays the arbiter: CPython's float
``x ** 2`` calls libm ``pow``, which differs from the array's ``x * x``
by one ulp on ~0.08% of doubles.  Every case here compares the result
with a criterion whose array form is switched off, so the scalar loop
scores every threshold.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.split import (
    GradientCriterion,
    VarianceCriterion,
    best_split_from_aggregates,
)


class ScalarVariance(VarianceCriterion):
    def gain_array(self, left, totals):
        return None


class ScalarGradient(GradientCriterion):
    def gain_array(self, left, totals):
        return None


def criteria():
    """(array criterion, scalar-only twin) pairs."""
    yield VarianceCriterion(), ScalarVariance()
    for lam in (0.0, 1.0):
        yield GradientCriterion(reg_lambda=lam), ScalarGradient(reg_lambda=lam)


def slice_aggregates(rng, shape: str, criterion):
    """One per-value aggregate slice: (values, nulls, agg arrays)."""
    n = int(rng.integers(2, 60))
    w_name, s_name = criterion.components
    if isinstance(criterion, VarianceCriterion):
        w = rng.integers(1, 6, size=n).astype(float)
    else:
        w = rng.random(n) * 3
        w[rng.random(n) < 0.1] = 1e-10  # below the 1e-9 hessian floor
    s = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
    if shape == "exact_ties":
        # massless values repeat the prefix: equal gains, the first wins
        empty = rng.random(n) < 0.4
        w[empty], s[empty] = 0.0, 0.0
    elif shape == "mirror":
        # a palindromic slice makes threshold k and its mirror tie up to
        # rounding — where x ** 2 and x * x disagree on the order
        half = (n + 1) // 2
        w = np.concatenate([w[:half], w[: n - half][::-1]])
        s = np.concatenate([s[:half], s[: n - half][::-1]])
    elif shape == "cancellation":
        # huge totals, small gains: the terms cancel to a few digits
        s = 1e8 + rng.normal(size=n)
    nulls = np.zeros(n, dtype=bool)
    if shape == "null_mass":
        nulls[rng.random(n) < 0.3] = True
        nulls[0] = True
    # rows arrive in no particular order; value order is construction order
    rows = rng.permutation(n)
    return rows.astype(float), nulls[rows], {w_name: w[rows], s_name: s[rows]}


SHAPES = ("random", "exact_ties", "mirror", "cancellation", "null_mass")


@pytest.mark.parametrize("categorical", [False, True], ids=["numeric", "categorical"])
@pytest.mark.parametrize("missing", ["right", "both"])
@pytest.mark.parametrize("shape", SHAPES)
def test_array_path_matches_the_scalar_scan(shape, missing, categorical):
    rng = np.random.default_rng([SHAPES.index(shape), len(missing), categorical])
    for fast, scalar in criteria():
        for _ in range(60):
            values, nulls, aggs = slice_aggregates(rng, shape, fast)
            totals = {c: float(a.sum()) for c, a in aggs.items()}
            kwargs = dict(
                values=values, nulls=nulls, agg_arrays=aggs, totals=totals,
                categorical=categorical, missing=missing,
                min_child_samples=int(rng.integers(1, 8)),
            )
            expected = best_split_from_aggregates(scalar, "r", "f", **kwargs)
            assert best_split_from_aggregates(fast, "r", "f", **kwargs) == expected


def test_pinned_near_tie_is_decided_by_the_scalar_gain():
    """A palindromic three-value slice: thresholds 0 and 1 tie exactly in
    real arithmetic.  In doubles the array gains put threshold 1 strictly
    first and the scalar gains threshold 0 (found by a seeded search; a
    few in 10 000 such slices reverse); the kernel must return the scalar
    scan's choice."""
    h = np.array([1.9935390448915702, 0.48708539252516525, 1.9935390448915702])
    g = np.array([-0.15313332586882736, -0.05560325658153969, -0.15313332586882736])
    criterion = GradientCriterion(reg_lambda=0.0)
    totals = {"h": float(h.sum()), "g": float(g.sum())}
    prefix = {"h": np.cumsum(h), "g": np.cumsum(g)}
    gains, _ = criterion.gain_array(prefix, totals)
    scalar = [
        criterion.gain_aggs({c: float(a[i]) for c, a in prefix.items()}, totals)
        for i in range(2)
    ]
    assert gains[1] > gains[0] and scalar[0] > scalar[1]
    split = best_split_from_aggregates(
        criterion, "r", "f", np.arange(3.0), np.zeros(3, dtype=bool),
        {"h": h, "g": g}, totals, categorical=False,
    )
    assert split.predicate.value == 0
    assert split.gain == scalar[0]
