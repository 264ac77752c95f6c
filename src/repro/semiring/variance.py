"""The variance semi-ring (Table 1) — supports the rmse criterion.

Elements are (c, s, q) = (count, Σy, Σy²); the aggregated element over a
tuple set gives ``variance = q - s²/c``.  The lift is
``lift(y) = (1, y, y²)`` and it is *addition-to-multiplication preserving*
(Definition 1): ``lift(y1 + y2) = lift(y1) ⊗ lift(y2)``, which is exactly
what makes factorized residual updates possible for gradient boosting —
multiplying an aggregate by ``lift(-p)`` shifts every underlying y by -p.

The paper notes (Section 5.3.1 / Appendix A) that the q component cancels
out of the variance-*reduction* criterion, so training can carry (c, s)
only; ``include_q=False`` (the default) enables that optimization.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.semiring.base import Element, SemiRing, register_semiring


@register_semiring
class VarianceSemiRing(SemiRing):
    """(Z, R, R) with the ⊕/⊗ of Table 1."""

    name = "variance"

    def __init__(self, include_q: bool = False):
        self.include_q = include_q
        self.components = ("c", "s", "q") if include_q else ("c", "s")

    # -- Python face -----------------------------------------------------
    def zero(self) -> Element:
        return (0.0,) * len(self.components)

    def one(self) -> Element:
        return (1.0,) + (0.0,) * (len(self.components) - 1)

    def multiply(self, a: Element, b: Element) -> Element:
        self._check(a), self._check(b)
        if self.include_q:
            c1, s1, q1 = a
            c2, s2, q2 = b
            return (c1 * c2, s1 * c2 + s2 * c1, q1 * c2 + q2 * c1 + 2 * s1 * s2)
        c1, s1 = a
        c2, s2 = b
        return (c1 * c2, s1 * c2 + s2 * c1)

    def lift(self, value) -> Element:
        y = float(value)
        if self.include_q:
            return (1.0, y, y * y)
        return (1.0, y)

    # -- SQL face ----------------------------------------------------------
    def lift_sql(self, y_expr: str) -> List[Tuple[str, str]]:
        out = [("c", "1"), ("s", f"({y_expr})")]
        if self.include_q:
            out.append(("q", f"(({y_expr}) * ({y_expr}))"))
        return out

    def multiply_expr(self, left, right):
        out = {
            "c": f"({left['c']} * {right['c']})",
            "s": f"({left['s']} * {right['c']} + {right['s']} * {left['c']})",
        }
        if self.include_q:
            out["q"] = (
                f"({left['q']} * {right['c']} + {right['q']} * {left['c']}"
                f" + 2 * {left['s']} * {right['s']})"
            )
        return out

    # -- statistics ---------------------------------------------------------
    @staticmethod
    def variance(c: float, s: float, q: float) -> float:
        """Total variance statistic of an aggregated (c, s, q)."""
        if c <= 0:
            return 0.0
        return q - s * s / c

    @staticmethod
    def mean(c: float, s: float) -> float:
        return s / c if c else 0.0
