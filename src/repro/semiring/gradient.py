"""Gradient semi-rings (Table 2) — second-order boosting statistics.

Regression elements are (h, g): Σhessian and Σgradient of the loss with
respect to the current prediction.  The ⊗ rule mirrors the variance
semi-ring with h in the count slot::

    (h1, g1) ⊗ (h2, g2) = (h1·h2, g1·h2 + g2·h1)

and the lift of a fact row is (h(t), g(t)) from Table 3's loss formulas.
The aggregated (H, G) of a leaf gives the optimal prediction
``p* = -G / (H + λ)`` and the split gain of Appendix B
(:class:`repro.core.split.GradientCriterion`).

For rmse (h ≡ 1) the lift ``g ↦ (1, g)`` is addition-to-multiplication
preserving, so galaxy-schema residual updates work by joining with
``lift(lr·p)`` — the gradient for L2 shifts additively with the prediction.
Other losses need per-row y and prediction, hence snowflake schemas only
(the paper's exact restriction).

Multiclass elements are ((h¹, g¹), ..., (hᵏ, gᵏ)) — flattened here to
(h0, g0, h1, g1, ...) — with pair-wise ⊗.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.exceptions import SemiRingError
from repro.semiring.base import Element, SemiRing, register_semiring


@register_semiring
class GradientSemiRing(SemiRing):
    """(R, R) regression gradient semi-ring of Table 2.

    ``suffix`` renames the components (e.g. ``suffix="2"`` gives
    ``("h2", "g2")``) so per-class multiclass trainers can share one
    lifted table holding all classes' columns.
    """

    name = "gradient"
    components = ("h", "g")

    def __init__(self, suffix: str = ""):
        self.suffix = suffix
        self.components = (f"h{suffix}", f"g{suffix}")

    @property
    def h(self) -> str:
        return self.components[0]

    @property
    def g(self) -> str:
        return self.components[1]

    def zero(self) -> Element:
        return (0.0, 0.0)

    def one(self) -> Element:
        return (1.0, 0.0)

    def multiply(self, a: Element, b: Element) -> Element:
        self._check(a), self._check(b)
        h1, g1 = a
        h2, g2 = b
        return (h1 * h2, g1 * h2 + g2 * h1)

    def lift(self, value) -> Element:
        """Lift a gradient with unit hessian (the rmse case)."""
        return (1.0, float(value))

    # -- SQL face ----------------------------------------------------------
    def lift_sql(self, y_expr: str) -> List[Tuple[str, str]]:
        """Unit-hessian lift; general losses use :meth:`lift_pair_sql`."""
        return [(self.h, "1"), (self.g, f"({y_expr})")]

    def lift_pair_sql(self, h_expr: str, g_expr: str) -> List[Tuple[str, str]]:
        return [(self.h, f"({h_expr})"), (self.g, f"({g_expr})")]

    def multiply_expr(self, left, right):
        h, g = self.components
        return {
            h: f"({left[h]} * {right[h]})",
            g: f"({left[g]} * {right[h]} + {right[g]} * {left[h]})",
        }


@register_semiring
class MulticlassGradientSemiRing(SemiRing):
    """Classification gradient semi-ring of Table 2 (k (h, g) pairs)."""

    name = "multiclass_gradient"

    def __init__(self, num_classes: int = 2):
        if num_classes < 2:
            raise SemiRingError("multiclass gradient needs >= 2 classes")
        self.num_classes = num_classes
        comps: List[str] = []
        for i in range(num_classes):
            comps += [f"h{i}", f"g{i}"]
        self.components = tuple(comps)

    def zero(self) -> Element:
        return (0.0,) * len(self.components)

    def one(self) -> Element:
        return (1.0, 0.0) * self.num_classes

    def multiply(self, a: Element, b: Element) -> Element:
        self._check(a), self._check(b)
        out: List[float] = []
        for i in range(self.num_classes):
            h1, g1 = a[2 * i], a[2 * i + 1]
            h2, g2 = b[2 * i], b[2 * i + 1]
            out += [h1 * h2, g1 * h2 + g2 * h1]
        return tuple(out)

    def lift(self, value) -> Element:
        """Unit-hessian lift of per-class gradients from a label."""
        label = int(value)
        out: List[float] = []
        for i in range(self.num_classes):
            out += [1.0, 1.0 if i == label else 0.0]
        return tuple(out)

    def lift_sql(self, y_expr: str) -> List[Tuple[str, str]]:
        out: List[Tuple[str, str]] = []
        for i in range(self.num_classes):
            out += [
                (f"h{i}", "1"),
                (f"g{i}", f"(CASE WHEN ({y_expr}) = {i} THEN 1 ELSE 0 END)"),
            ]
        return out

    def multiply_expr(self, left, right):
        out = {}
        for i in range(self.num_classes):
            h, g = f"h{i}", f"g{i}"
            out[h] = f"({left[h]} * {right[h]})"
            out[g] = f"({left[g]} * {right[h]} + {right[g]} * {left[h]})"
        return out

    def scale_expr(self, exprs, count_expr):
        # k summed copies of the 1 element is (k, 0, k, 0, ...): every
        # pair scales by k.
        return {comp: f"({expr} * {count_expr})" for comp, expr in exprs.items()}

    def scale_sql(self, alias: str, count_expr: str) -> List[Tuple[str, str]]:
        prefix = f"{alias}." if alias else ""
        out: List[Tuple[str, str]] = []
        for i in range(self.num_classes):
            out += [
                (f"h{i}", f"({prefix}h{i} * {count_expr})"),
                (f"g{i}", f"({prefix}g{i} * {count_expr})"),
            ]
        return out
