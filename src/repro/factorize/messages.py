"""Annotation algebra over SQL expressions.

During message passing each relation/message carries an *annotation* — a
set of semi-ring component expressions.  Three kinds occur:

* ``identity`` — the relation contributes the 1 element per tuple and the
  join is fan-out-free (N-to-1 into a filtered-nothing dimension): the
  message can be dropped entirely (Appendix D "Identity Messages").
* ``count``    — the subtree contributes k summed copies of 1 per key:
  only a COUNT column ``c`` is needed; multiplying scales components.
* ``full``     — all semi-ring components are present.

``combine_annotations`` implements ⊗ over these kinds symbolically, so the
factorizer can fold a relation's own annotation with any number of
incoming messages into a single SELECT's expressions.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from repro.exceptions import SemiRingError
from repro.semiring.base import SemiRing

COUNT_COLUMN = "c"

IDENTITY = "identity"
COUNT = "count"
FULL = "full"


@dataclasses.dataclass
class Annotation:
    """Symbolic semi-ring annotation: kind + component SQL expressions."""

    kind: str
    exprs: Dict[str, str] = dataclasses.field(default_factory=dict)

    @staticmethod
    def identity() -> "Annotation":
        return Annotation(IDENTITY, {})

    @staticmethod
    def count(expr: str) -> "Annotation":
        return Annotation(COUNT, {COUNT_COLUMN: expr})

    @staticmethod
    def full(exprs: Dict[str, str]) -> "Annotation":
        return Annotation(FULL, dict(exprs))

    @staticmethod
    def from_columns(
        kind: str, alias: str, semiring: SemiRing, outer: bool = False
    ) -> "Annotation":
        """Annotation referencing a stored table's component columns.

        With ``outer=True`` (message joined via LEFT JOIN for missing-key
        tolerance, Appendix D.2) absent rows must act as the semi-ring's
        1 element, so each component is COALESCEd to its 1-element value.
        """
        if kind == IDENTITY:
            return Annotation.identity()
        if kind == COUNT:
            expr = f"{alias}.{COUNT_COLUMN}"
            if outer:
                expr = f"COALESCE({expr}, 1)"
            return Annotation.count(expr)
        exprs = {}
        one = semiring.one()
        for comp, one_value in zip(semiring.components, one):
            expr = f"{alias}.{comp}"
            if outer:
                literal = int(one_value) if one_value == int(one_value) else one_value
                expr = f"COALESCE({expr}, {literal})"
            exprs[comp] = expr
        return Annotation.full(exprs)



def combine_annotations(
    semiring: SemiRing, left: Annotation, right: Annotation
) -> Annotation:
    """Symbolic ⊗ of two annotations."""
    if left.kind == IDENTITY:
        return right
    if right.kind == IDENTITY:
        return left
    if left.kind == COUNT and right.kind == COUNT:
        return Annotation.count(
            f"({left.exprs[COUNT_COLUMN]} * {right.exprs[COUNT_COLUMN]})"
        )
    if left.kind == FULL and right.kind == COUNT:
        return Annotation.full(
            semiring.scale_expr(left.exprs, right.exprs[COUNT_COLUMN])
        )
    if left.kind == COUNT and right.kind == FULL:
        return Annotation.full(
            semiring.scale_expr(right.exprs, left.exprs[COUNT_COLUMN])
        )
    if left.kind == FULL and right.kind == FULL:
        return Annotation.full(semiring.multiply_expr(left.exprs, right.exprs))
    raise SemiRingError(f"cannot combine annotations {left.kind}/{right.kind}")


def aggregate_select_list(
    semiring: SemiRing, annotation: Annotation
) -> List[Tuple[str, str]]:
    """SELECT fragments summing an annotation's components per group."""
    if annotation.kind == IDENTITY:
        return [(COUNT_COLUMN, "COUNT(*)")]
    if annotation.kind == COUNT:
        return [(COUNT_COLUMN, f"SUM({annotation.exprs[COUNT_COLUMN]})")]
    return [
        (comp, f"SUM({annotation.exprs[comp]})")
        for comp in semiring.components
    ]


def aggregated_kind(annotation: Annotation) -> str:
    """Kind of a message built by aggregating ``annotation``.

    Aggregating an identity annotation yields per-key counts, so the
    resulting *message* is count-kind, never identity.
    """
    if annotation.kind == IDENTITY:
        return COUNT
    return annotation.kind
