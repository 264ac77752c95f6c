"""Best-split search (Algorithm 1, line 14 — the hot loop).

Every split, batched or per-leaf, is one client-side prefix scan over a
per-value aggregate (:func:`best_split_from_aggregates`), LightGBM's
histogram scan.  The database computes the aggregate: the batched
frontier reads one fused ``UNION ALL`` query per relation and scores each
(leaf, feature) slice of it; the per-leaf path reads one factorized
absorption grouped by the feature.  The aggregate holds one row per
distinct feature value, so the scan is small next to the join it
summarises, and one kernel serves numeric and categorical features,
missing='both' routing and every criterion alike.

Criteria:

* :class:`VarianceCriterion` (c, s) — reduction in variance (regression
  trees / random forests);
* :class:`GradientCriterion` (h, g) — second-order gain of Appendix B with
  L2 regularization, component names parameterizable for per-class
  multiclass training;
* :class:`ClassificationCriterion` (c, c0..ck) — gini / entropy / chi2
  over the class-count semi-ring (Appendix A).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import TrainingError
from repro.factorize.predicates import Predicate
from repro.semiring.classcount import ClassCountSemiRing


class Criterion:
    """Maps semi-ring aggregates to gains and leaf values."""

    #: aggregate columns this criterion consumes
    components: Tuple[str, ...] = ()
    #: True when the weight component (``components[0]``) is an exact row
    #: count: a child's aggregates are then its parent's minus its
    #: sibling's, and a value whose count cancels to 0 holds no row
    count_weight = False

    def gain_aggs(
        self, left: Dict[str, float], totals: Dict[str, float]
    ) -> float:
        """Gain of splitting ``totals`` into ``left`` and its complement."""
        raise NotImplementedError

    def gain_array(
        self, left: Dict[str, np.ndarray], totals: Dict[str, float]
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """:meth:`gain_aggs` over arrays of left aggregates, one entry per
        threshold: ``(gains, scale)``, with ``-inf`` where the scalar form
        refuses a split.  ``scale`` bounds the magnitudes of the formula's
        terms, so ``|gains - gain_aggs| <= 8 * eps * scale`` even where
        the terms cancel.  ``None`` when the criterion has no array form
        (every threshold goes through :meth:`gain_aggs`)."""
        return None

    def leaf_value(self, aggregates: Dict[str, float]) -> float:
        """The prediction of a leaf holding ``aggregates``."""
        raise NotImplementedError

    def weight(self, aggregates: Dict[str, float]) -> float:
        """Mass used for min-child checks (count or hessian sum)."""
        if not self.components:
            raise TrainingError(
                f"criterion {type(self).__name__} declares no aggregate "
                "components; weight() needs at least one (the count or "
                "hessian column)"
            )
        return aggregates.get(self.components[0], 0.0)

    def min_weight(self, min_child_samples: int) -> float:
        """The least :meth:`weight` each child of a split must carry."""
        return max(float(min_child_samples), 1e-9)

    def order_key(
        self, aggs: Dict[str, np.ndarray]
    ) -> np.ndarray:
        """Category ordering for subset splits (mean-response heuristic)."""
        raise NotImplementedError


class VarianceCriterion(Criterion):
    """Reduction in variance (Appendix A); q cancels, only (c, s) needed."""

    components = ("c", "s")
    count_weight = True

    def gain_aggs(self, left, totals):
        """Variance reduction; (s/c)·s keeps intermediate magnitudes small
        (overflow note, Appendix A)."""
        w, s = left.get("c", 0.0), left.get("s", 0.0)
        w_total, s_total = totals.get("c", 0.0), totals.get("s", 0.0)
        if w <= 0 or w_total - w <= 0:
            return float("-inf")
        return (
            -(s_total / w_total) * s_total
            + (s / w) * s
            + ((s_total - s) / (w_total - w)) * (s_total - s)
        )

    def gain_array(self, left, totals):
        """:meth:`gain_aggs` over arrays, with its error ``scale``."""
        w, s = left["c"], left["s"]
        w_total, s_total = totals.get("c", 0.0), totals.get("s", 0.0)
        ok = (w > 0) & (w_total - w > 0)
        with np.errstate(all="ignore"):
            parent = -(np.float64(s_total) / w_total) * s_total
            own = (s / w) * s
            rest = ((s_total - s) / (w_total - w)) * (s_total - s)
            gains = parent + own + rest
            scale = abs(parent) + np.abs(own) + np.abs(rest)
        return np.where(ok, gains, -np.inf), scale

    def leaf_value(self, aggregates):
        """The mean response s / c (0 for an empty leaf)."""
        c = aggregates.get("c", 0.0)
        return aggregates.get("s", 0.0) / c if c else 0.0

    def order_key(self, aggs):
        """Categories by mean response s / c."""
        with np.errstate(invalid="ignore", divide="ignore"):
            return aggs["s"] / aggs["c"]


class GradientCriterion(Criterion):
    """Second-order gain −½G²/(H+λ) form (Appendix B)."""

    def __init__(
        self,
        reg_lambda: float = 0.0,
        weight_component: str = "h",
        sum_component: str = "g",
        count_weight: bool = False,
    ):
        self.reg_lambda = float(reg_lambda)
        self.components = (weight_component, sum_component)
        # The hessian sum is a row count only when the loss's hessian is
        # the constant 1; the training driver knows which loss it lifted.
        self.count_weight = count_weight

    def gain_aggs(self, left, totals):
        """½(G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ))."""
        w_name, s_name = self.components
        w, s = left.get(w_name, 0.0), left.get(s_name, 0.0)
        w_total, s_total = totals.get(w_name, 0.0), totals.get(s_name, 0.0)
        lam = self.reg_lambda
        if w + lam <= 0 or (w_total - w) + lam <= 0:
            return float("-inf")
        return 0.5 * (
            s * s / (w + lam)
            + (s_total - s) ** 2 / ((w_total - w) + lam)
            - s_total**2 / (w_total + lam)
        )

    def gain_array(self, left, totals):
        """:meth:`gain_aggs` over arrays, with its error ``scale``."""
        # Same operation order as gain_aggs, except that the array square
        # is x * x where CPython's float ``**`` calls libm pow: the two
        # differ by one ulp on ~0.08% of doubles, inside ``scale``'s bound.
        w_name, s_name = self.components
        w, s = left[w_name], left[s_name]
        w_total, s_total = totals.get(w_name, 0.0), totals.get(s_name, 0.0)
        lam = self.reg_lambda
        ok = (w + lam > 0) & ((w_total - w) + lam > 0)
        with np.errstate(all="ignore"):
            own = s * s / (w + lam)
            rest = (s_total - s) ** 2 / ((w_total - w) + lam)
            parent = np.float64(s_total**2) / (w_total + lam)
            gains = 0.5 * (own + rest - parent)
            scale = 0.5 * (np.abs(own) + np.abs(rest) + abs(parent))
        return np.where(ok, gains, -np.inf), scale

    def leaf_value(self, aggregates):
        """The Newton step −G/(H+λ) (0 when H+λ is not positive)."""
        w_name, s_name = self.components
        denominator = aggregates.get(w_name, 0.0) + self.reg_lambda
        if denominator <= 0:
            return 0.0
        return -aggregates.get(s_name, 0.0) / denominator

    def min_weight(self, min_child_samples: int) -> float:
        """A numeric floor only: hessian sums are not row counts for
        general losses."""
        return 1e-9

    def order_key(self, aggs):
        """Categories by G/(H+λ), their negated leaf value."""
        w_name, s_name = self.components
        with np.errstate(invalid="ignore", divide="ignore"):
            return aggs[s_name] / (aggs[w_name] + self.reg_lambda)


class ClassificationCriterion(Criterion):
    """Gini / entropy / chi-square over class counts (Appendix A)."""

    count_weight = True

    def __init__(self, num_classes: int, measure: str = "gini"):
        if measure not in ("gini", "entropy", "chi2"):
            raise TrainingError(f"unknown classification measure {measure!r}")
        self.ring = ClassCountSemiRing(num_classes)
        self.measure = measure
        self.num_classes = num_classes
        self.components = self.ring.components

    def _tuple(self, aggs: Dict[str, float]) -> Tuple[float, ...]:
        return tuple(aggs.get(comp, 0.0) for comp in self.components)

    def gain_aggs(self, left, totals):
        """Impurity decrease (gini / entropy) or the chi-square statistic."""
        left_t = self._tuple(left)
        total_t = self._tuple(totals)
        right_t = tuple(t - l for t, l in zip(total_t, left_t))
        if left_t[0] <= 0 or right_t[0] <= 0:
            return float("-inf")
        if self.measure == "gini":
            impurity = self.ring.gini
        elif self.measure == "entropy":
            impurity = self.ring.entropy
        else:
            return self.ring.chi_square(left_t, right_t)
        return impurity(total_t) - impurity(left_t) - impurity(right_t)

    def leaf_value(self, aggregates):
        """The majority class."""
        return float(self.ring.mode(self._tuple(aggregates)))

    def order_key(self, aggs):
        """Categories by first-class purity (binary-optimal; a standard
        heuristic for k > 2)."""
        with np.errstate(invalid="ignore", divide="ignore"):
            return aggs[self.components[1]] / aggs["c"]


@dataclasses.dataclass
class SplitCandidate:
    """A candidate split and the aggregates of both children."""

    gain: float
    relation: str
    predicate: Predicate
    left_aggregates: Dict[str, float]
    right_aggregates: Dict[str, float]
    feature: str


def best_split_from_aggregates(
    criterion: Criterion,
    relation: str,
    feature: str,
    values: np.ndarray,
    nulls: np.ndarray,
    agg_arrays: Dict[str, np.ndarray],
    totals: Dict[str, float],
    categorical: bool,
    missing: str = "right",
    min_child_samples: int = 1,
) -> Optional[SplitCandidate]:
    """Prefix-scan a per-value aggregate for the best split of one feature.

    This is the only split kernel: the per-leaf path feeds it one
    absorption result, the batched frontier evaluator feeds it per-(leaf,
    feature) slices of one fused query.  ``values``/``nulls``/``agg_arrays`` hold one
    row per distinct feature value (nulls included); ``totals`` are the
    node's aggregates.
    """
    comps = list(criterion.components)
    null_aggs = {c: float(a[nulls].sum()) for c, a in agg_arrays.items()}
    keep = ~nulls
    values = values[keep]
    agg_arrays = {c: a[keep] for c, a in agg_arrays.items()}
    if len(values) == 0:
        return None

    if categorical:
        order = np.argsort(criterion.order_key(agg_arrays), kind="stable")
    else:
        order = np.argsort(values.astype(np.float64), kind="stable")
    values = values[order]
    prefix = {c: np.cumsum(a[order]) for c, a in agg_arrays.items()}

    min_w = criterion.min_weight(min_child_samples)
    w_total = criterion.weight(totals)
    best: Optional[Tuple[float, int, bool]] = None
    has_nulls = null_aggs.get(comps[0], 0.0) > 0
    routings = (False, True) if (missing == "both" and has_nulls) else (False,)
    for null_left in routings:
        # The last index is the all-non-nulls-left split (nulls route
        # right); the min-weight filter rejects it unless nulls carry
        # mass.
        for i in _gain_candidates(
            criterion, prefix, null_aggs if null_left else None, totals,
            min_w, w_total,
        ):
            left = {c: float(prefix[c][i]) for c in comps}
            if null_left:
                left = {c: left[c] + null_aggs[c] for c in comps}
            w_left = criterion.weight(left)
            if w_left < min_w or (w_total - w_left) < min_w:
                continue
            gain = criterion.gain_aggs(left, totals)
            if np.isfinite(gain) and (best is None or gain > best[0]):
                best = (gain, i, null_left)
    if best is None:
        return None
    gain, idx, null_left = best
    left = {c: float(prefix[c][idx]) for c in comps}
    if null_left:
        left = {c: left[c] + null_aggs[c] for c in comps}
    right = {c: totals.get(c, 0.0) - left[c] for c in comps}

    if categorical:
        members = tuple(_plain(v, relation, feature) for v in values[: idx + 1])
        predicate = Predicate(feature, "IN", members, include_null=null_left)
    else:
        predicate = Predicate(
            feature, "<=", _plain(values[idx], relation, feature),
            include_null=null_left,
        )
    return SplitCandidate(
        gain=float(gain),
        relation=relation,
        predicate=predicate,
        left_aggregates=left,
        right_aggregates=right,
        feature=feature,
    )


def _gain_candidates(
    criterion: Criterion,
    prefix: Dict[str, np.ndarray],
    null_aggs: Optional[Dict[str, float]],
    totals: Dict[str, float],
    min_w: float,
    w_total: float,
) -> Sequence[int]:
    """Threshold indices the scalar scan must score, in ascending order.

    With an array form of the criterion, every threshold whose array gain
    is more than twice the error bound below the array maximum has a
    scalar gain strictly below the scalar maximum, so it can never be the
    scan's first strict maximum; only the near-ties are re-scored with
    :meth:`Criterion.gain_aggs`, which stays the arbiter.
    """
    n = len(next(iter(prefix.values())))
    if null_aggs is None:
        left = prefix
    else:
        left = {c: a + null_aggs[c] for c, a in prefix.items()}
    scored = criterion.gain_array(left, totals)
    if scored is None:
        return range(n)
    gains, scale = scored
    w_left = left[criterion.components[0]]
    ok = (w_left >= min_w) & ((w_total - w_left) >= min_w) & np.isfinite(gains)
    if not ok.any():
        return ()
    tol = 32 * np.finfo(np.float64).eps * float(scale[ok].max())
    return np.flatnonzero(ok & (gains >= gains[ok].max() - tol)).tolist()


def _plain(value, relation: str, feature: str):
    """Convert NumPy scalars to plain Python for Predicate literals.

    ±inf has no SQL literal, so a split on it is refused by name."""
    if isinstance(value, (float, np.floating)) and np.isinf(value):
        raise TrainingError(
            f"feature {feature!r} of relation {relation!r} holds "
            f"{float(value)}: infinite values cannot be split on "
            f"(store missing values as NULL)"
        )
    if isinstance(value, (np.floating,)):
        out = float(value)
        return int(out) if out == int(out) and abs(out) < 1e15 else out
    if isinstance(value, (np.integer,)):
        return int(value)
    return value
