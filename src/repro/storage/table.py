"""Table storage: columnar, row-oriented, and external (dataframe-like).

The engine supports three physical layouts so the paper's backend comparison
(Figure 15) can be reproduced:

* :class:`ColumnTable` — columnar storage with optional compression, WAL and
  MVCC on writes.  Maps to DuckDB / X-col in the paper.
* :class:`RowTable` — row-oriented storage over a NumPy structured array.
  Column scans pay a strided gather; updates rewrite whole records.  Maps to
  X-row.
* :class:`ExternalColumnStore` — uncompressed columns held "outside" the
  database (the paper's DuckDB+Pandas ``DP`` mode): scans pay an interop copy
  through a staging buffer, but writes are plain pointer stores with no WAL,
  MVCC or compression.

A :class:`StorageConfig` bundles the knobs; named presets mirror the paper's
backends (``x-col``, ``x-row``, ``d-disk``, ``d-mem``, ``dp``, ``d-swap``).
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.exceptions import StorageError
from repro.storage.column import Column, ColumnType, next_version
from repro.storage.compression import Codec, codec_for
from repro.storage.mvcc import VersionStore
from repro.storage.wal import KIND_UPDATE, WriteAheadLog


@dataclasses.dataclass
class StorageConfig:
    """Knobs controlling the write path of a table.

    Attributes:
        layout: ``"column"``, ``"row"`` or ``"external"``.
        compression: codec name applied to stored columns (``None`` = plain).
        wal: append every column write to a write-ahead log.
        wal_sync: fsync each WAL record (disk-based backends).
        mvcc: version pre-images and run a validation pass per write.
        allow_column_swap: permit the pointer-swap fast path (the paper's
            D-Swap patch; <100 LoC in DuckDB, one method here).
        scan_copy: force an extra staging copy on every column read
            (interop overhead of the DP backend).
    """

    layout: str = "column"
    compression: Optional[str] = None
    wal: bool = False
    wal_sync: bool = False
    mvcc: bool = False
    # The default engine ships the paper's <100-LoC column-swap patch;
    # the stock-DBMS presets below turn it off to reproduce Figure 5/15.
    allow_column_swap: bool = True
    scan_copy: bool = False

    PRESETS = {
        # Commercial columnar store: compression + synced WAL (disk-based).
        "x-col": dict(layout="column", compression="rle", wal=True,
                      wal_sync=True, allow_column_swap=False),
        # Commercial row store: synced WAL, row-major pages.
        "x-row": dict(layout="row", wal=True, wal_sync=True,
                      allow_column_swap=False),
        # Disk-based DuckDB: compression + synced WAL + MVCC.
        "d-disk": dict(layout="column", compression="rle", wal=True,
                       wal_sync=True, mvcc=True, allow_column_swap=False),
        # In-memory DuckDB: no WAL but MVCC versioning remains.
        "d-mem": dict(layout="column", mvcc=True, allow_column_swap=False),
        # DuckDB + Pandas: fact table external, cheap writes, scan penalty.
        "dp": dict(layout="external", scan_copy=True),
        # Patched DuckDB with pointer-based column swap.
        "d-swap": dict(layout="column", mvcc=True, allow_column_swap=True),
        # Plain in-memory store (used by tests and non-benchmark code).
        "plain": dict(layout="column"),
    }

    @classmethod
    def preset(cls, name: str) -> "StorageConfig":
        """Build the named backend configuration."""
        try:
            return cls(**cls.PRESETS[name])
        except KeyError:
            raise StorageError(f"unknown storage preset {name!r}") from None


#: process-wide identities for table objects.  A table keeps its uid for
#: life — catalog renames preserve it — so caches keyed on
#: ``(uid, column, version)`` survive renames and can never confuse two
#: tables that happened to share a name.
_TABLE_UIDS = itertools.count(1)


class Table:
    """Common interface over the three physical layouts.

    Every concrete table tracks a monotonic version stamp per column
    (``column_version``) plus a table-level high-water mark (``version``),
    bumped on every mutating path: ``set_column`` (which the WAL-replay and
    MVCC-commit flows go through), masked updates (``swap_in``),
    ``drop_column`` and ``swap_column``.  Renames preserve identity — the
    uid and all column versions are untouched, because the data is.
    """

    name: str
    config: StorageConfig
    uid: int
    version: int

    def _init_identity(self) -> None:
        self.uid = next(_TABLE_UIDS)
        self.version = 0
        self._versions: Dict[str, int] = {}

    def _touch(self, column_name: str) -> None:
        """Record a mutation of one column."""
        stamp = next_version()
        self._versions[column_name] = stamp
        self.version = stamp

    def column_version(self, name: str) -> int:
        """The current version stamp of one column (0 = never stored)."""
        return self._versions.get(name, 0)

    def _stamp(self, col: Column) -> Column:
        """Attach ``(uid, name, version)`` provenance to a read result."""
        col.source = (self.uid, col.name, self._versions.get(col.name, 0))
        return col

    def column_names(self) -> List[str]:
        """Stored column names, in table order."""
        raise NotImplementedError

    def num_rows(self) -> int:
        """The table's row count."""
        raise NotImplementedError

    def column(self, name: str) -> Column:
        """Read one column, stamped with ``(uid, name, version)``."""
        raise NotImplementedError

    def set_column(self, column: Column) -> None:
        """Store ``column`` (new or replacing one of its name) and bump
        its version stamp."""
        raise NotImplementedError

    def drop_column(self, name: str) -> None:
        """Remove one column and forget its version stamp."""
        raise NotImplementedError

    def __len__(self) -> int:
        return self.num_rows()

    def __contains__(self, name: str) -> bool:
        return name in self.column_names()

    def columns(self) -> Iterator[Column]:
        """Every column, read in table order."""
        for name in self.column_names():
            yield self.column(name)

    def nbytes(self) -> int:
        """Approximate in-memory bytes of every column as read."""
        return sum(col.nbytes() for col in self.columns())

    def to_dict(self) -> Dict[str, np.ndarray]:
        """Materialize all columns as a name -> array mapping."""
        return {name: self.column(name).values for name in self.column_names()}

    @staticmethod
    def from_columns(
        name: str,
        columns: Sequence[Column],
        config: Optional[StorageConfig] = None,
        wal: Optional[WriteAheadLog] = None,
        mvcc: Optional[VersionStore] = None,
    ) -> "Table":
        """Construct a table of the layout requested by ``config``."""
        config = config or StorageConfig()
        if config.layout == "row":
            return RowTable(name, columns, config, wal=wal)
        if config.layout == "external":
            return ExternalColumnStore(name, columns, config)
        return ColumnTable(name, columns, config, wal=wal, mvcc=mvcc)


class ColumnTable(Table):
    """Columnar table; the default layout.

    Stored entries are either raw :class:`Column` objects (plain codec) or
    ``(codec, payload, ctype, valid)`` tuples when compression is enabled.
    Reads decode; writes encode, append to the WAL and version pre-images —
    unless :meth:`swap_column` is used, which is a schema-level pointer
    exchange exactly like the paper's D-Swap patch.
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        config: Optional[StorageConfig] = None,
        wal: Optional[WriteAheadLog] = None,
        mvcc: Optional[VersionStore] = None,
    ):
        self.name = name
        self.config = config or StorageConfig()
        self._init_identity()
        self._wal = wal
        self._mvcc = mvcc
        if self.config.wal and self._wal is None:
            self._wal = WriteAheadLog(sync=self.config.wal_sync)
        if self.config.mvcc and self._mvcc is None:
            self._mvcc = VersionStore()
        self._codec: Optional[Codec] = (
            codec_for(self.config.compression) if self.config.compression else None
        )
        self._order: List[str] = []
        self._store: Dict[str, object] = {}
        self._num_rows = len(columns[0]) if columns else 0
        for col in columns:
            self._store_column(col, log=False)

    # -- reads ----------------------------------------------------------
    def column_names(self) -> List[str]:
        """Stored column names, in insertion order."""
        return list(self._order)

    def num_rows(self) -> int:
        """The table's row count."""
        return self._num_rows

    def column(self, name: str) -> Column:
        """The stored column (decoded when compressed), stamped; a copy
        under ``scan_copy``."""
        try:
            entry = self._store[name]
        except KeyError:
            raise StorageError(f"table {self.name!r} has no column {name!r}") from None
        if isinstance(entry, Column):
            col = entry
        else:
            codec, payload, ctype, valid = entry
            col = Column(name, codec.decode(payload), ctype, valid)
        self._stamp(col)
        if self.config.scan_copy:
            col = col.copy()  # copy() keeps the stamp: equal data
        return col

    # -- writes ---------------------------------------------------------
    def _store_column(self, col: Column, log: bool = True) -> None:
        if self._num_rows and len(col) != self._num_rows:
            raise StorageError(
                f"column {col.name!r} has {len(col)} rows, "
                f"table {self.name!r} has {self._num_rows}"
            )
        if not self._order:
            self._num_rows = len(col)
        if log:
            if self._mvcc is not None and col.name in self._store:
                pre_image = self.column(col.name)
                self._mvcc.record_update(self.name, col.name, pre_image.values)
            if self._wal is not None:
                self._wal.log_array(KIND_UPDATE, f"{self.name}.{col.name}", col.values)
            if self._mvcc is not None:
                self._mvcc.validate(col.values)
        if self._codec is not None and col.ctype is not ColumnType.STR:
            payload = self._codec.encode(col.values)
            self._store[col.name] = (self._codec, payload, col.ctype, col.valid)
        else:
            self._store[col.name] = col
        if col.name not in self._order:
            self._order.append(col.name)
        self._touch(col.name)

    def set_column(self, column: Column) -> None:
        """Full-column write through WAL/MVCC/compression (the slow path)."""
        self._store_column(column, log=True)

    def swap_in(self, column: Column) -> None:
        """Pointer-store one column with no logging (masked-update fast
        path).  The version stamp still advances — staleness of any cache
        keyed on ``(uid, name, version)`` is detectable, not assumed."""
        self._store[column.name] = column
        if column.name not in self._order:
            self._order.append(column.name)
        self._touch(column.name)

    def drop_column(self, name: str) -> None:
        """Remove one column; the table's version advances."""
        if name not in self._store:
            raise StorageError(f"table {self.name!r} has no column {name!r}")
        del self._store[name]
        self._order.remove(name)
        self._versions.pop(name, None)
        self.version = next_version()

    def swap_column(self, name: str, other: "ColumnTable", other_name: str) -> None:
        """Pointer-swap a column with another table (the D-Swap fast path).

        This is a schema-level operation: no decode, no re-encode, no WAL
        record, no version copy.  Requires ``allow_column_swap`` (the paper's
        <100-LoC DuckDB patch); stock configurations raise.
        """
        if not self.config.allow_column_swap:
            raise StorageError(
                f"backend for table {self.name!r} does not support column swap"
            )
        if name not in self._store or other_name not in other._store:
            raise StorageError("swap_column: missing column")
        if other.num_rows() != self.num_rows():
            raise StorageError("swap_column: row-count mismatch")
        mine, theirs = self._store[name], other._store[other_name]
        self._store[name] = theirs.rename(name) if isinstance(theirs, Column) else theirs
        other._store[other_name] = mine.rename(other_name) if isinstance(mine, Column) else mine
        self._touch(name)
        other._touch(other_name)

    def stored_nbytes(self) -> int:
        """Bytes as stored (post-compression)."""
        total = 0
        for entry in self._store.values():
            if isinstance(entry, Column):
                total += entry.nbytes()
            else:
                codec, payload, _, _ = entry
                total += codec.encoded_nbytes(payload)
        return total


class RowTable(Table):
    """Row-oriented table over a NumPy structured array.

    Column reads gather a strided field (slower than contiguous columnar
    scans); column writes rebuild the record array, which is why UPDATE is
    prohibitive on the paper's X-row backend.
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        config: Optional[StorageConfig] = None,
        wal: Optional[WriteAheadLog] = None,
    ):
        self.name = name
        self.config = config or StorageConfig(layout="row")
        self._init_identity()
        self._wal = wal
        if self.config.wal and self._wal is None:
            self._wal = WriteAheadLog(sync=self.config.wal_sync)
        self._ctypes: Dict[str, ColumnType] = {}
        self._valids: Dict[str, Optional[np.ndarray]] = {}
        self._records = self._pack(columns)
        for col in columns:
            self._touch(col.name)

    def _pack(self, columns: Sequence[Column]) -> np.ndarray:
        fields = []
        for col in columns:
            self._ctypes[col.name] = col.ctype
            self._valids[col.name] = col.valid
            if col.ctype is ColumnType.STR:
                width = max((len(str(v)) for v in col.values), default=1)
                fields.append((col.name, f"U{max(1, width)}"))
            elif col.ctype is ColumnType.FLOAT:
                fields.append((col.name, np.float64))
            else:
                fields.append((col.name, np.int64))
        n = len(columns[0]) if columns else 0
        records = np.empty(n, dtype=np.dtype(fields))
        for col in columns:
            records[col.name] = col.values
        return records

    def column_names(self) -> List[str]:
        """The record fields, in table order."""
        return list(self._records.dtype.names or ())

    def num_rows(self) -> int:
        """The record count."""
        return len(self._records)

    def column(self, name: str) -> Column:
        """One field gathered out of every record (a strided copy),
        stamped."""
        if name not in (self._records.dtype.names or ()):
            raise StorageError(f"table {self.name!r} has no column {name!r}")
        # Strided gather: this copy is the row-store scan penalty.
        values = np.ascontiguousarray(self._records[name])
        ctype = self._ctypes[name]
        if ctype is ColumnType.STR:
            values = values.astype(object)
        return self._stamp(Column(name, values, ctype, self._valids.get(name)))

    def set_column(self, column: Column) -> None:
        """Rewrite every record to change one field (the row-store tax)."""
        if self._wal is not None:
            self._wal.log_array(KIND_UPDATE, f"{self.name}.{column.name}", column.values)
        cols = [self.column(n) for n in self.column_names() if n != column.name]
        cols.append(column)
        self._ctypes[column.name] = column.ctype
        self._valids[column.name] = column.valid
        self._records = self._pack(cols)
        self._touch(column.name)

    def drop_column(self, name: str) -> None:
        """Repack every record without one field."""
        cols = [self.column(n) for n in self.column_names() if n != name]
        self._ctypes.pop(name, None)
        self._valids.pop(name, None)
        self._records = self._pack(cols)
        self._versions.pop(name, None)
        self.version = next_version()


class ExternalColumnStore(ColumnTable):
    """Dataframe-held table (the paper's DP mode).

    Writes are plain pointer stores — no WAL, MVCC or compression — which is
    why residual updates are ~15× faster.  Reads pay the interop copy
    (``scan_copy``), which is why aggregations slow by ~1.6×.
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        config: Optional[StorageConfig] = None,
    ):
        config = config or StorageConfig.preset("dp")
        stripped = dataclasses.replace(
            config, layout="external", compression=None, wal=False, mvcc=False,
            allow_column_swap=True,
        )
        super().__init__(name, columns, stripped)

    def set_column(self, column: Column) -> None:
        """Replace the column pointer (a Pandas ``df[col] = array``)."""
        self._store_column(column, log=False)
