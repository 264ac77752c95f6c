"""Physical strategies for full-column (residual) updates.

Section 5.3/5.4 of the paper compares four ways to replace the semi-ring
column of the fact table each boosting iteration:

* ``naive``  — materialize the update relation and re-create F = F ⋈ U
  (handled at the logical layer in :mod:`repro.core.residual`; here it maps
  to ``create`` applied to the join result).
* ``update`` — ``UPDATE F SET s = ...`` in place; pays WAL + MVCC +
  (de)compression on the stored column.
* ``create`` — ``CREATE TABLE F_updated AS SELECT ...``; re-copies all k
  extra columns, cost grows with k.
* ``swap``   — compute the new column into a scratch table, then pointer-
  swap it into F (the paper's D-Swap patch / DP dataframe assignment).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.exceptions import StorageError
from repro.sql.expressions import as_objects
from repro.storage.column import Column, ColumnType
from repro.storage.table import ColumnTable, ExternalColumnStore, Table


def apply_masked_update(
    db,
    table_name: str,
    column_name: str,
    new_values: np.ndarray,
    rows: np.ndarray,
) -> int:
    """Write ``new_values`` to the positions ``rows`` of one stored column.

    This is the physical half of the narrow predicated ``UPDATE`` the
    incremental frontier state issues: ``rows`` is the selection vector
    the ``WHERE`` matched and ``new_values`` the ``SET`` result for those
    rows only.  It reuses the column-swap permission — a table whose
    configuration allows pointer swaps has no WAL, MVCC or compression to
    honor, so a merged copy of the column is pointer-swapped into the
    store with no logging, no value re-inference and no dtype
    round-trip.  (The merge is a fresh buffer,
    never a write through the stored array: stored arrays can be
    buffer-aliased with other columns or tables — ``UPDATE t SET a = b``,
    ``CREATE TABLE AS SELECT`` — and an in-place write would corrupt
    every alias.)  Anything else goes through the logged ``set_column``
    slow path, preserving the backend cost model of Section 5.4.
    Returns the rows written.
    """
    table = db.table(table_name)
    count = len(rows)
    old = table.column(column_name)
    new_values = np.asarray(new_values)

    swap_path = (
        count > 0
        and isinstance(table, ColumnTable)
        and table.config.allow_column_swap
        and table.config.compression is None
        and not table.config.wal
        and not table.config.mvcc
        and not table.config.scan_copy
        and isinstance(table._store.get(column_name), Column)
        and old.valid is None
    )
    if swap_path and old.ctype is not ColumnType.STR:
        if old.ctype is ColumnType.INT and new_values.dtype.kind in "iub":
            fresh = old.values.copy()
            fresh[rows] = new_values
            # swap_in bumps the column's version stamp, so encoded-key
            # caches keyed on (uid, name, version) see the mutation.
            table.swap_in(Column(column_name, fresh, old.ctype))
            return count
        if old.ctype is ColumnType.FLOAT:
            as_float = new_values.astype(np.float64, copy=False)
            if not np.isnan(as_float).any():
                fresh = old.values.copy()
                fresh[rows] = as_float
                table.swap_in(Column(column_name, fresh, old.ctype))
                return count

    # Merge + full write (logged) — the general path.
    if old.ctype is ColumnType.STR:
        merged = old.values.astype(object, copy=True)
        new_values = as_objects(new_values)
    elif old.ctype is ColumnType.INT and new_values.dtype.kind in "iub" \
            and old.valid is None:
        merged = old.values.copy()
    else:
        merged = np.array(old.as_float(), dtype=np.float64)
        new_values = new_values.astype(np.float64, copy=False)
    merged[rows] = new_values
    table.set_column(Column(column_name, merged, old.ctype))
    return count


def embedded_column_update(
    db,
    table_name: str,
    column_name: str,
    new_values: np.ndarray,
    strategy: str = "update",
) -> None:
    """The embedded engine's physical strategies (Section 5.3/5.4),
    behind :meth:`Database.replace_column`."""
    table = db.table(table_name)
    if strategy == "update":
        _update_in_place(table, column_name, new_values)
    elif strategy == "create":
        _create_new_table(db, table, column_name, new_values)
    elif strategy == "swap":
        _pointer_swap(db, table, column_name, new_values)
    else:
        raise StorageError(f"unknown update strategy {strategy!r}")


def _update_in_place(table: Table, column_name: str, new_values: np.ndarray) -> None:
    old = table.column(column_name)
    table.set_column(Column(column_name, np.asarray(new_values), old.ctype))


def _create_new_table(db, table: Table, column_name: str, new_values: np.ndarray) -> None:
    """Re-create the table with the new column; all other columns copy."""
    old = table.column(column_name)
    columns = []
    for name in table.column_names():
        if name == column_name:
            columns.append(Column(column_name, np.asarray(new_values), old.ctype))
        else:
            # The copy is the CREATE-k cost the paper measures.
            columns.append(table.column(name).copy())
    rebuilt = Table.from_columns(table.name, columns, table.config,
                                 wal=getattr(db, "_wal", None),
                                 mvcc=getattr(db, "_mvcc", None))
    db.catalog.drop(table.name)
    db.catalog.create(rebuilt)


def _pointer_swap(db, table: Table, column_name: str, new_values: np.ndarray) -> None:
    old = table.column(column_name)
    fresh = Column(column_name, np.asarray(new_values), old.ctype)
    if isinstance(table, ExternalColumnStore):
        # DP mode: a dataframe column assignment is already a pointer store.
        table.set_column(fresh)
        return
    if not isinstance(table, ColumnTable):
        raise StorageError("column swap requires columnar storage")
    scratch_name = db.temp_name("swap")
    scratch = ColumnTable(scratch_name, [fresh], table.config)
    db.catalog.create(scratch)
    try:
        table.swap_column(column_name, scratch, column_name)
    finally:
        db.catalog.drop(scratch_name)


def supported_strategies(table: Table) -> Dict[str, bool]:
    """Which strategies the table's backend supports."""
    swap_ok = isinstance(table, ExternalColumnStore) or (
        isinstance(table, ColumnTable) and table.config.allow_column_swap
    )
    return {"update": True, "create": True, "swap": swap_ok}
