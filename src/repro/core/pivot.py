"""Pivot-transformation optimization (Appendix D.1 / Figure 19).

Sparse attribute-value tables (IMDB's ``person_info``: one row per
(person, type, value)) would naively be pivoted into a wide, mostly-NULL
matrix before training.  Cunningham et al.'s rewrite avoids that: an
aggregation over the pivoted column ``<type>`` is the same aggregation
over the original table *filtered to that type* — a selection instead of
a materialized pivot.

Two entry points:

* :func:`naive_pivot` — materializes the wide table (the slow baseline);
* :class:`PivotedRelation` — registers virtual pivot features; its
  :meth:`absorb_feature` runs the rewritten selection-based aggregation.

The paper reports a 3.8× node-split speedup from this rewrite on
``Person_Info``; ``tests/test_serialize_pivot.py`` checks equivalence
with the naive pivot and that the rewrite is faster at scale.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import TrainingError


def naive_pivot(
    db,
    table: str,
    key: str,
    type_column: str,
    value_column: str,
    out_name: Optional[str] = None,
) -> str:
    """Materialize the wide pivot table (one column per type value).

    This is the baseline the rewrite avoids: the output has one row per
    key and one (mostly NULL) column per distinct type.
    """
    source = db.table(table)
    types = sorted(
        {str(v) for v in source.column(type_column).values}
    )
    keys = source.column(key).values
    type_vals = source.column(type_column).values
    values = source.column(value_column).as_float()

    unique_keys = np.unique(keys)
    index = {k: i for i, k in enumerate(unique_keys)}
    data: Dict[str, np.ndarray] = {key: unique_keys}
    for type_name in types:
        column = np.full(len(unique_keys), np.nan)
        mask = np.array([str(v) == type_name for v in type_vals])
        for k, v in zip(keys[mask], values[mask]):
            column[index[k]] = v
        data[_pivot_column(type_name)] = column
    out_name = out_name or db.temp_name(f"pivot_{table}")
    db.create_table(out_name, data)
    return out_name


def _pivot_column(type_name: str) -> str:
    return f"pv_{type_name}"


@dataclasses.dataclass
class PivotedRelation:
    """Virtual pivot over an attribute-value table.

    ``features()`` lists the virtual columns; ``absorb_feature`` computes
    the per-value (c, s) aggregate of a virtual feature by *selecting*
    the type — no pivot is ever materialized (the Figure 19 rewrite).
    """

    db: object
    table: str
    key: str
    type_column: str
    value_column: str

    def feature_types(self) -> List[str]:
        result = self.db.execute(
            f"SELECT DISTINCT {self.type_column} AS t FROM {self.table} "
            "ORDER BY t"
        )
        return [str(v) for v in result["t"]]

    def features(self) -> List[str]:
        return [_pivot_column(t) for t in self.feature_types()]

    def absorb_feature(
        self, feature: str, target_sql: str = "1"
    ) -> "object":
        """Per-value aggregate of a virtual pivot feature.

        Equivalent to ``SELECT pv_t, COUNT(*), SUM(target) FROM pivot
        GROUP BY pv_t`` but rewritten as a selection on the original
        narrow table: ``WHERE type = t GROUP BY value``.
        """
        type_name = self._type_of(feature)
        return self.db.execute(
            f"SELECT {self.value_column} AS {feature}, COUNT(*) AS c, "
            f"SUM({target_sql}) AS s "
            f"FROM {self.table} WHERE {self.type_column} = '{type_name}' "
            f"GROUP BY {self.value_column}",
            tag="feature",
        )

    def _type_of(self, feature: str) -> str:
        if not feature.startswith("pv_"):
            raise TrainingError(f"{feature!r} is not a virtual pivot feature")
        return feature[len("pv_"):]


def aggregate_over_naive_pivot(db, pivot_table: str, feature: str,
                               target_sql: str = "1"):
    """The unrewritten form: aggregate the materialized pivot column."""
    return db.execute(
        f"SELECT {feature}, COUNT(*) AS c, SUM({target_sql}) AS s "
        f"FROM {pivot_table} WHERE {feature} IS NOT NULL "
        f"GROUP BY {feature}",
        tag="feature",
    )
