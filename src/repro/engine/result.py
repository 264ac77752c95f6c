"""Query results: an ordered, immutable bag of named columns, and the
per-statement profile every connector records."""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ExecutionError
from repro.storage.column import Column


@dataclasses.dataclass
class QueryProfile:
    """One executed statement: text, classification tag, latency, fan-out.

    ``encode_passes``/``encode_seconds`` split the latency into key-encode
    work vs everything else (aggregation, joins, projection): the Figure 9
    census and the encoding-cache CI gate read the split.
    """

    sql: str
    kind: str
    seconds: float
    rows_out: int
    tag: Optional[str] = None
    encode_passes: int = 0
    encode_seconds: float = 0.0
    #: ``time.perf_counter()`` at statement start — two profiles overlap
    #: when their [started, started+seconds) intervals intersect, which is
    #: how the Figure 18 bench measures real inter-query concurrency
    started: float = 0.0


class Relation:
    """The output of a query: ordered columns of equal length."""

    def __init__(self, columns: Sequence[Column]):
        self._columns = list(columns)
        if self._columns:
            n = len(self._columns[0])
            for col in self._columns:
                if len(col) != n:
                    raise ExecutionError("relation columns must have equal length")

    @property
    def names(self) -> List[str]:
        return [c.name for c in self._columns]

    @property
    def num_rows(self) -> int:
        return len(self._columns[0]) if self._columns else 0

    @property
    def num_columns(self) -> int:
        return len(self._columns)

    def __len__(self) -> int:
        return self.num_rows

    def columns(self) -> List[Column]:
        return list(self._columns)

    def column(self, name: str) -> Column:
        wanted = name.lower()
        for col in self._columns:
            if col.name.lower() == wanted:
                return col
        raise ExecutionError(f"result has no column {name!r}")

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column(name).values

    def to_dict(self) -> Dict[str, np.ndarray]:
        return {c.name: c.values for c in self._columns}

    def rows(self) -> Iterator[Tuple]:
        arrays = [c.values for c in self._columns]
        masks = [c.is_null() for c in self._columns]
        for i in range(self.num_rows):
            yield tuple(
                None if masks[j][i] else arrays[j][i] for j in range(len(arrays))
            )

    def scalar(self):
        """The single value of a 1x1 result."""
        if self.num_rows != 1 or self.num_columns != 1:
            raise ExecutionError(
                f"scalar() needs a 1x1 result, got {self.num_rows}x{self.num_columns}"
            )
        col = self._columns[0]
        if col.is_null()[0]:
            return None
        return col.values[0]

    def first_row(self) -> Dict[str, object]:
        """The first row as a name -> value dict (None for nulls)."""
        if self.num_rows == 0:
            raise ExecutionError("relation is empty")
        return {
            col.name: (None if col.is_null()[0] else col.values[0])
            for col in self._columns
        }

    def __repr__(self) -> str:
        return f"Relation({self.names}, rows={self.num_rows})"
