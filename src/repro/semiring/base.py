"""Semi-ring protocol and registry.

A semi-ring here is a commutative semi-ring (D, ⊕, ⊗, 0, 1) together with a
``lift`` function from base-tuple values into D (Section 3.1).  All the
semi-rings used for tree training have *component-wise* ⊕ — their elements
are fixed-width tuples of reals added coordinate-wise — which is what makes
the SQL translation simple: ⊕-aggregation is ``SUM`` per component column,
and ⊗ is a per-component arithmetic expression over the two join sides.

Two faces are exposed:

* a **Python face** (``zero``/``one``/``add``/``multiply``/``lift``) over
  plain tuples, used by property tests and the in-memory fast paths, and
* a **SQL face** (``lift_sql``/``multiply_sql``/``identity_sql``) producing
  the expression strings the factorizer splices into its messages.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.exceptions import SemiRingError

Element = Tuple[float, ...]


class SemiRing:
    """Base class; subclasses define components and the two faces."""

    name: str = "abstract"
    #: component column names in storage order (e.g. ("c", "s") or ("h", "g"))
    components: Tuple[str, ...] = ()

    # ------------------------------------------------------------------
    # Python face
    # ------------------------------------------------------------------
    def zero(self) -> Element:
        raise NotImplementedError

    def one(self) -> Element:
        raise NotImplementedError

    def add(self, a: Element, b: Element) -> Element:
        """⊕ — component-wise for every semi-ring in this library."""
        self._check(a), self._check(b)
        return tuple(x + y for x, y in zip(a, b))

    def multiply(self, a: Element, b: Element) -> Element:
        raise NotImplementedError

    def lift(self, value) -> Element:
        """Annotate a base-tuple target value (Table 1/2 "Lift")."""
        raise NotImplementedError

    def _check(self, element: Element) -> None:
        if len(element) != len(self.components):
            raise SemiRingError(
                f"{self.name} element must have {len(self.components)} "
                f"components, got {len(element)}"
            )

    # ------------------------------------------------------------------
    # SQL face
    # ------------------------------------------------------------------
    def lift_sql(self, y_expr: str) -> List[Tuple[str, str]]:
        """(component, sql_expr) pairs lifting target expression ``y_expr``."""
        raise NotImplementedError

    def identity_sql(self) -> List[Tuple[str, str]]:
        """Lift of the 1 element (non-target relations)."""
        one = self.one()
        return [(comp, _fmt(val)) for comp, val in zip(self.components, one)]

    def multiply_expr(
        self, left: Dict[str, str], right: Dict[str, str]
    ) -> Dict[str, str]:
        """⊗ over component->SQL-expression dicts (the general form)."""
        raise NotImplementedError

    def multiply_sql(self, left: str, right: str) -> List[Tuple[str, str]]:
        """(component, sql_expr) for ⊗ of ``left.comp`` and ``right.comp``."""
        lhs = {comp: f"{left}.{comp}" for comp in self.components}
        rhs = {comp: f"{right}.{comp}" for comp in self.components}
        product = self.multiply_expr(lhs, rhs)
        return [(comp, product[comp]) for comp in self.components]

    def scale_expr(self, exprs: Dict[str, str], count_expr: str) -> Dict[str, str]:
        """⊗ with ``count_expr`` copies of the 1 element, over expressions.

        Valid whenever 1 = (1, 0, ..., 0); subclasses with a different 1
        (e.g. multiclass pairs) override.
        """
        one = self.one()
        if any(v != 0 for v in one[1:]) or one[0] != 1:
            raise SemiRingError(f"{self.name} needs a custom scale_expr")
        return {
            comp: f"({expr} * {count_expr})" for comp, expr in exprs.items()
        }

    # ------------------------------------------------------------------
    # Count-scaling (multiplying by an un-lifted relation whose annotation
    # is k copies of 1, i.e. the element lift-of-1 added k times).
    # ------------------------------------------------------------------
    def scale_sql(self, alias: str, count_expr: str) -> List[Tuple[str, str]]:
        """⊗ with ``count_expr`` copies of the 1 element.

        For component-wise semi-rings whose 1 element is (1, 0, ..., 0) this
        is simply multiplying every component by the count; subclasses with
        a different 1 must override.
        """
        one = self.one()
        if any(v != 0 for v in one[1:]) or one[0] != 1:
            raise SemiRingError(f"{self.name} needs a custom scale_sql")
        prefix = f"{alias}." if alias else ""
        return [
            (comp, f"({prefix}{comp} * {count_expr})") for comp in self.components
        ]

    def __repr__(self) -> str:
        return f"<SemiRing {self.name} components={self.components}>"


def _fmt(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(float(value))


_REGISTRY: Dict[str, type] = {}


def register_semiring(cls: type) -> type:
    """Class decorator: register a semi-ring under its ``name``."""
    _REGISTRY[cls.name] = cls
    return cls


def get_semiring(name: str, **kwargs) -> SemiRing:
    """Instantiate a registered semi-ring by name."""
    try:
        return _REGISTRY[name](**kwargs)
    except KeyError:
        raise SemiRingError(
            f"unknown semi-ring {name!r}; known: {sorted(_REGISTRY)}"
        ) from None
