"""Algebraic property tests (hypothesis) for the semi-ring library.

These verify the paper's Tables 1-2 definitions and the central
Definition 1 / Proposition 4.1 arguments:

* all semi-rings satisfy the commutative semi-ring axioms;
* the variance and gradient lifts are addition-to-multiplication
  preserving (hence rmse residual updates factorize);
* the naive mae sign structure is NOT (the paper's counterexample);
* updating an aggregate by ⊗ lift(-p) equals re-lifting the residuals.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SemiRingError
from repro.semiring import (
    ClassCountSemiRing,
    GradientSemiRing,
    MulticlassGradientSemiRing,
    SignSemiRing,
    VarianceSemiRing,
    check_semiring_axioms,
    get_semiring,
    is_addition_to_multiplication_preserving,
)
from repro.semiring.properties import residual_update_matches_relift

floats = st.floats(-50, 50, allow_nan=False)


def elements_for(ring, values):
    """Sample elements: lifted values plus 0/1."""
    out = [ring.zero(), ring.one()]
    for v in values:
        try:
            out.append(ring.lift(v))
        except SemiRingError:
            pass
    return out


class TestAxioms:
    @pytest.mark.parametrize(
        "ring",
        [
            VarianceSemiRing(),
            VarianceSemiRing(include_q=True),
            GradientSemiRing(),
            GradientSemiRing(suffix="3"),
            ClassCountSemiRing(3),
            MulticlassGradientSemiRing(3),
        ],
        ids=lambda r: f"{r.name}-{len(r.components)}",
    )
    def test_axioms_hold(self, ring):
        if ring.name in ("classcount", "multiclass_gradient"):
            sample = [0, 1, 2]
        else:
            sample = [-2.5, 0.0, 1.0, 3.25]
        violations = check_semiring_axioms(ring, elements_for(ring, sample))
        assert violations == []

    @given(st.lists(floats, min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_variance_axioms_property(self, values):
        ring = VarianceSemiRing(include_q=True)
        assert check_semiring_axioms(ring, elements_for(ring, values)) == []


class TestAdditionToMultiplicationPreserving:
    @given(st.lists(floats, min_size=2, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_variance_preserving(self, values):
        assert is_addition_to_multiplication_preserving(
            VarianceSemiRing(include_q=True), values
        )

    @given(st.lists(floats, min_size=2, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_gradient_preserving(self, values):
        assert is_addition_to_multiplication_preserving(GradientSemiRing(), values)

    def test_sign_semiring_is_not_preserving(self):
        # The paper's mae counterexample: sign(3 + (-1)) != "sign algebra".
        assert not is_addition_to_multiplication_preserving(
            SignSemiRing(), [3.0, -1.0]
        )

    @given(st.lists(floats, min_size=3, max_size=8), floats)
    @settings(max_examples=60, deadline=None)
    def test_proposition_4_1(self, ys, pred):
        """⊗ lift(-p) on the aggregate == re-lift of residuals."""
        assert residual_update_matches_relift(
            VarianceSemiRing(include_q=True), ys, pred, tol=1e-5
        )
        assert residual_update_matches_relift(GradientSemiRing(), ys, pred, tol=1e-5)


class TestVarianceStatistics:
    @given(st.lists(floats, min_size=2, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_aggregate_recovers_variance(self, ys):
        ring = VarianceSemiRing(include_q=True)
        agg = ring.zero()
        for y in ys:
            agg = ring.add(agg, ring.lift(y))
        c, s, q = agg
        assert ring.variance(c, s, q) == pytest.approx(
            float(np.var(ys) * len(ys)), abs=1e-6
        )

    def test_paper_example_1(self):
        """γ(R⋈) = (8, 16, 36), variance = 4 (the paper's Example 1)."""
        ring = VarianceSemiRing(include_q=True)
        values = [2, 2, 3, 1, 1, 3, 2, 2]
        agg = ring.zero()
        for y in values:
            agg = ring.add(agg, ring.lift(y))
        assert agg == (8, 16, 36)
        assert ring.variance(*agg) == pytest.approx(4.0)


class TestClassCount:
    def test_lift_one_hot(self):
        ring = ClassCountSemiRing(3)
        assert ring.lift(1) == (1, 0, 1, 0)

    def test_lift_out_of_range(self):
        with pytest.raises(SemiRingError):
            ClassCountSemiRing(2).lift(5)

    def test_gini_pure_node_is_zero(self):
        assert ClassCountSemiRing.gini((5, 5, 0)) == 0.0

    def test_entropy_balanced_is_max(self):
        balanced = ClassCountSemiRing.entropy((4, 2, 2))
        skewed = ClassCountSemiRing.entropy((4, 3, 1))
        assert balanced > skewed

    def test_chi_square_independent_is_zero(self):
        stat = ClassCountSemiRing.chi_square((4, 2, 2), (4, 2, 2))
        assert stat == pytest.approx(0.0)

    def test_mode(self):
        assert ClassCountSemiRing(3).mode((5, 1, 3, 1)) == 1


class TestSQLFace:
    def test_registry(self):
        assert get_semiring("variance").name == "variance"
        assert get_semiring("gradient", suffix="2").components == ("h2", "g2")
        with pytest.raises(SemiRingError):
            get_semiring("quaternion")

    def test_variance_multiply_sql_mentions_components(self):
        ring = VarianceSemiRing(include_q=True)
        fragments = dict(ring.multiply_sql("l", "r"))
        assert "l.c" in fragments["c"] and "r.c" in fragments["c"]
        assert "2 * l.s * r.s" in fragments["q"]

    def test_lift_sql_shape(self):
        ring = VarianceSemiRing()
        assert [c for c, _ in ring.lift_sql("y")] == ["c", "s"]

    def test_scale_sql(self):
        ring = VarianceSemiRing()
        scaled = dict(ring.scale_sql("m", "k.cnt"))
        assert scaled["s"] == "(m.s * k.cnt)"
