"""Typed, NumPy-backed column vectors with null support.

A :class:`Column` is the unit of storage for :class:`~repro.storage.table.
ColumnTable`.  It wraps a NumPy array plus an optional validity mask, and
knows how to cast incoming Python/NumPy data to one of three logical types:

* ``INT``    — 64-bit integers (dictionary-encoded strings land here too)
* ``FLOAT``  — 64-bit floats
* ``STR``    — NumPy object arrays of Python strings

Nulls are represented with a boolean validity mask (``True`` = present) so
integer columns can hold nulls without sentinel values.
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterable, Optional, Tuple

import numpy as np

from repro.exceptions import StorageError

#: Monotonic stamps for column payloads.  Every distinct column payload in
#: the process gets a unique stamp, so ``(table uid, column name, version)``
#: identifies immutable data and caches keyed on it can detect staleness
#: instead of assuming it (see :mod:`repro.engine.encodings`).
_VERSION_COUNTER = itertools.count(1)


def next_version() -> int:
    """Mint a fresh monotonic version stamp."""
    return next(_VERSION_COUNTER)


class ColumnType(enum.Enum):
    """Logical column types supported by the engine."""

    INT = "INT"
    FLOAT = "FLOAT"
    STR = "STR"

    @staticmethod
    def infer(values: np.ndarray) -> "ColumnType":
        """Infer the logical type of a NumPy array."""
        kind = values.dtype.kind
        if kind in ("i", "u", "b"):
            return ColumnType.INT
        if kind == "f":
            return ColumnType.FLOAT
        if kind in ("U", "S", "O"):
            return ColumnType.STR
        raise StorageError(f"unsupported dtype {values.dtype!r}")


_NUMPY_DTYPE = {
    ColumnType.INT: np.int64,
    ColumnType.FLOAT: np.float64,
    ColumnType.STR: object,
}


class Column:
    """A single typed vector of values with an optional validity mask.

    Besides the payload, a column carries cache-coherence metadata:

    * ``version`` — a process-wide monotonic stamp minted at construction.
      Derivations that do not change the data (``rename``, ``copy``) keep
      the stamp; anything that builds new values gets a new one.
    * ``source`` — ``(table uid, column name, version)`` provenance set by
      the owning table's read path, or ``None`` for derived columns.
    * ``enc`` — a transient encoding hint for the query engine: either a
      :class:`~repro.engine.encodings.ColumnEncoding` or a lazy
      ``("gather", parent Column, positions)`` tuple that lets columns
      gathered by a join or a WHERE selection vector reuse their parent's
      dictionary codes.
    """

    __slots__ = ("name", "ctype", "values", "valid", "version", "source", "enc")

    def __init__(
        self,
        name: str,
        values: Iterable,
        ctype: Optional[ColumnType] = None,
        valid: Optional[np.ndarray] = None,
    ):
        array = np.asarray(values)
        if array.ndim == 0:
            array = array.reshape(1)
        if array.ndim != 1:
            raise StorageError(f"column {name!r} must be one-dimensional")
        if ctype is None:
            ctype = ColumnType.infer(array)
        target = _NUMPY_DTYPE[ctype]
        if ctype is ColumnType.FLOAT:
            array = array.astype(np.float64, copy=False)
            if valid is None:
                nan_mask = np.isnan(array)
                valid = ~nan_mask if nan_mask.any() else None
        elif ctype is ColumnType.INT:
            if array.dtype.kind == "f":
                # Floats assigned to an INT column keep NaN as nulls.
                nan_mask = np.isnan(array)
                if nan_mask.any():
                    filled = np.where(nan_mask, 0.0, array)
                    array = filled.astype(np.int64)
                    if valid is None:
                        valid = ~nan_mask
                else:
                    array = array.astype(np.int64)
            else:
                array = array.astype(np.int64, copy=False)
        else:
            array = array.astype(object, copy=False)
        self.name = name
        self.ctype = ctype
        self.values = array
        self.valid = valid
        self.version: int = next_version()
        self.source: Optional[Tuple[int, str, int]] = None
        # ColumnEncoding, a lazy ("gather", parent, positions) hint, or
        # None — typed loosely to keep storage free of engine imports.
        self.enc: object = None

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return f"Column({self.name!r}, {self.ctype.value}, n={len(self)})"

    # ------------------------------------------------------------------
    # Derivation helpers — all return new Column objects (copy-on-write).
    # ------------------------------------------------------------------
    def take(self, indexes: np.ndarray, pads: Optional[bool] = None) -> "Column":
        """Gather rows by position; positions of -1 become null (outer join).

        ``pads`` says whether any position is -1.  A caller gathering many
        columns by one index array tests that once and passes the answer;
        ``None`` tests here.
        """
        if pads is None:
            pads = bool(len(indexes)) and int(indexes.min()) < 0
        if not pads:
            # The gathered payload already has this column's dtype and
            # its nulls are the gathered mask: no re-cast, no NaN scan.
            clone = Column.__new__(Column)
            clone.name = self.name
            clone.ctype = self.ctype
            clone.values = self.values[indexes]
            clone.valid = self.valid[indexes] if self.valid is not None else None
            clone.version = next_version()
            clone.source = None
            clone.enc = None
            return clone
        if len(self.values) == 0:
            # Outer join against an empty side: every position is a pad.
            if self.ctype is ColumnType.STR:
                values = np.full(len(indexes), None, dtype=object)
            elif self.ctype is ColumnType.FLOAT:
                values = np.full(len(indexes), np.nan)
            else:
                values = np.zeros(len(indexes), dtype=np.int64)
            return Column(
                self.name, values, self.ctype,
                np.zeros(len(indexes), dtype=bool),
            )
        missing = indexes < 0
        safe = np.where(missing, 0, indexes)
        values = self.values[safe]
        valid = np.ones(len(indexes), dtype=bool)
        if self.valid is not None:
            valid &= self.valid[safe]
        valid &= ~missing
        if self.ctype is ColumnType.FLOAT:
            values = values.copy()
            values[missing] = np.nan
        return Column(self.name, values, self.ctype, valid)

    def filter(self, mask: np.ndarray) -> "Column":
        """Keep rows where ``mask`` is True."""
        valid = self.valid[mask] if self.valid is not None else None
        return Column(self.name, self.values[mask], self.ctype, valid)

    def rename(self, name: str) -> "Column":
        """Return the same data under a different name (no copy)."""
        clone = Column.__new__(Column)
        clone.name = name
        clone.ctype = self.ctype
        clone.values = self.values
        clone.valid = self.valid
        # Same payload: the version stamp and encoding hints stay valid.
        clone.version = self.version
        clone.source = self.source
        clone.enc = self.enc
        return clone

    def copy(self) -> "Column":
        """A deep copy of the payload that keeps the stamp and hints."""
        valid = self.valid.copy() if self.valid is not None else None
        clone = Column(self.name, self.values.copy(), self.ctype, valid)
        # A copy holds equal data; keep the stamp so encodings still apply.
        clone.version = self.version
        clone.source = self.source
        clone.enc = self.enc
        return clone

    def is_null(self) -> np.ndarray:
        """Boolean mask of null positions."""
        if self.valid is None:
            return np.zeros(len(self.values), dtype=bool)
        return ~self.valid

    def as_float(self) -> np.ndarray:
        """Values as float64 with nulls as NaN (for numeric expressions)."""
        if self.ctype is ColumnType.STR:
            raise StorageError(f"column {self.name!r} is not numeric")
        out = self.values.astype(np.float64, copy=self.ctype is ColumnType.INT)
        if self.valid is not None:
            out = out.copy() if out is self.values else out
            out[~self.valid] = np.nan
        return out

    def nbytes(self) -> int:
        """Approximate in-memory size in bytes."""
        if self.ctype is ColumnType.STR:
            return int(sum(len(str(v)) for v in self.values)) + 8 * len(self)
        size = int(self.values.nbytes)
        if self.valid is not None:
            size += int(self.valid.nbytes)
        return size
