"""DuckDBConnector: the paper's actual demo engine, as a tier-1 backend.

JoinBoost's published numbers (Figures 15/16) come from running the
factorized message-passing queries *inside* DuckDB; this module is that
path, behind the same :class:`~repro.backends.base.Connector` protocol
as the embedded engine and stdlib sqlite3.  The connector is a full
peer of :class:`~repro.backends.sqlite3_backend.SQLiteConnector`:

* **Native fused queries.**  DuckDB speaks essentially the SQL surface
  the Factorizer emits — the fused ``UNION ALL`` split queries,
  ``CASE`` residual updates and semi-join ``IN`` predicates all run
  unmodified.  The only dialect rewrite is renaming
  the population statistical aggregates (see
  :class:`~repro.backends.dialect.DuckDBDialect`).
* **Concurrent reads** (``Capabilities.concurrent_read=True``).  DuckDB
  documents ``connection.cursor()`` as its multi-threading primitive:
  each cursor is an independent handle onto the same database, safe to
  drive from its own thread.  :meth:`execute_read` checks cursors out of
  a pool per call — bounded by peak task-runner concurrency, exactly
  like the sqlite reader pool — while every write funnels through the
  owner connection under one lock.  That is what lets
  :func:`~repro.engine.scheduler.run_tasks` fan a round's relations and
  a forest's trees out on this backend.
* **Deterministic training** (the PR 5 parity contract).
  :meth:`prepare_training` pins ``SET threads TO 1``: DuckDB's internal
  intra-query parallelism aggregates floats in a nondeterministic
  order, which would break the tree-for-tree bit-identity gate across
  ``num_workers`` settings.  Inter-*query* parallelism — the kind the
  paper's Section 5.5.3 measures and the task runner provides — is
  unaffected: each pooled cursor executes on its calling thread.

The ``duckdb`` package is **not** a dependency of this repo;
construction raises a clear, actionable error when it is absent.
Install it with::

    pip install repro[duckdb]        # or: pip install duckdb

and ``joinboost.connect(backend="duckdb")`` will use it.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.backends.base import (
    BackendError,
    Capabilities,
    check_update_strategy,
    register_backend,
)
from repro.backends.dbapi import SQLConnector
from repro.backends.dialect import DuckDBDialect
from repro.exceptions import BackendExecutionError, TransientBackendError

#: duckdb exception *class names* that signal momentary conditions — IO
#: hiccups, transaction conflicts, connection interruptions.  Matched by
#: name because the package is optional: this module must classify
#: without importing ``duckdb`` at module scope.
_TRANSIENT_CLASS_NAMES = (
    "IOException",
    "TransactionException",
    "ConnectionException",
    "InterruptException",
)

#: message fragments that mark a transient fault regardless of class
_TRANSIENT_MESSAGE_MARKERS = ("database is locked", "could not set lock")


def _translate_duckdb_error(
    exc: Exception, context: str
) -> BackendExecutionError:
    """Map a raw duckdb exception onto the backend taxonomy.

    Callers of the connector never see the driver's exception classes:
    IO/transaction/connection hiccups become
    :class:`TransientBackendError` (retryable), everything else
    :class:`BackendExecutionError` (permanent).
    """
    message = f"duckdb backend failed on: {context}: {exc}"
    transient = type(exc).__name__ in _TRANSIENT_CLASS_NAMES or any(
        marker in str(exc).lower() for marker in _TRANSIENT_MESSAGE_MARKERS
    )
    if transient:
        return TransientBackendError(message)
    return BackendExecutionError(message)


_INSTALL_HINT = (
    "the 'duckdb' package is not installed in this environment.\n"
    "The DuckDB backend is an optional extra; install it with\n"
    "    pip install repro[duckdb]\n"
    "or\n"
    "    pip install duckdb\n"
    "then retry connect(backend='duckdb').  The stdlib alternative is\n"
    "connect(backend='sqlite'), which needs no extra packages."
)

#: per-database settings applied once by :meth:`prepare_training` — the
#: DuckDB analogue of the sqlite connector's PERF_PRAGMAS.  ``threads=1``
#: is the determinism pin (see the module docstring); insertion order
#: must be preserved because ``replace_column``/table views correlate
#: values with ``rowid`` scan order.
DUCKDB_SETTINGS = (
    ("threads", "1"),
    ("preserve_insertion_order", "true"),
)


def _require_duckdb():
    """Import and return the optional ``duckdb`` module or raise a
    :class:`BackendError` carrying install instructions."""
    try:
        import duckdb  # type: ignore
    except ImportError as exc:
        raise BackendError(_INSTALL_HINT) from exc
    return duckdb


@register_backend("duckdb")
class DuckDBConnector(SQLConnector):
    """Connector over the optional ``duckdb`` package.

    Pooled readers are ``connection.cursor()`` handles; DuckDB has no
    per-cursor ``query_only`` pin, so the dialect classifier in
    :meth:`execute_read` is what keeps them read-only.
    """

    dialect = "duckdb"
    # Pooled per-thread cursors (DuckDB's documented threading model)
    # make the read path concurrency-safe, so ``concurrent_read`` holds.
    capabilities = Capabilities(
        column_swap=False,
        union_all=True,
        narrow_update=True,
        concurrent_read=True,
    )
    _dialect = DuckDBDialect()
    _TABLE_NAMES_SQL = (
        "SELECT table_name FROM information_schema.tables "
        "WHERE table_schema = 'main' ORDER BY table_name"
    )
    _HAS_TABLE_SQL = (
        "SELECT COUNT(*) FROM information_schema.tables "
        "WHERE table_schema = 'main' AND lower(table_name) = lower(?)"
    )
    _SETTINGS = DUCKDB_SETTINGS
    _SETTING_SQL = "SET {} TO {}"
    _SETTINGS_SCOPE = "per-database settings"

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def _open_owner(self):
        return _require_duckdb().connect(self.path)

    def _open_reader(self):
        """``connection.cursor()`` is DuckDB's threading primitive: an
        independent handle onto the same database, safe to execute on
        the calling thread while the owner (and other cursors) run
        elsewhere.  Cursors see committed state, so a message table
        CREATEd by a round task's build step is visible to the split
        query that follows it."""
        with self._lock:
            return self._conn.cursor()

    @staticmethod
    def _translate_error(exc: Exception, context: str) -> BackendExecutionError:
        return _translate_duckdb_error(exc, context)

    @staticmethod
    def _column_type(array: np.ndarray) -> str:
        kind = np.asarray(array).dtype.kind
        if kind in ("i", "u", "b"):
            return "BIGINT"
        if kind == "f":
            return "DOUBLE"
        return "VARCHAR"

    def _catalog_column_names(self, table_name: str) -> List[str]:
        rows = self._conn.execute(
            "SELECT column_name FROM information_schema.columns "
            "WHERE table_schema = 'main' "
            "AND lower(table_name) = lower(?) "
            "ORDER BY ordinal_position",
            [table_name],
        ).fetchall()
        return [r[0] for r in rows]

    def _rows_changed(self, cursor, kind: str) -> int:
        # DuckDB returns the affected-row count as a one-row relation
        if kind not in ("Update", "Insert", "Delete"):
            return 0
        try:
            row = cursor.fetchone()
            return int(row[0]) if row else 0
        except Exception:
            return 0

    # ------------------------------------------------------------------
    # Column replacement (residual updates)
    # ------------------------------------------------------------------
    def replace_column(
        self,
        table_name: str,
        column_name: str,
        values: np.ndarray,
        strategy: str = "swap",
    ) -> None:
        """Rewrite one column via a rowid-keyed scratch join.

        The scratch table is keyed by the table's *actual* rowids (they
        need not be contiguous after rebuilds), fetched in the same scan
        order ``values`` was computed in; a length mismatch raises
        instead of silently NULLing unmatched rows.  All logical
        strategies map onto this one physical write; ``strategy`` is
        still validated so typos fail identically across backends.
        """
        check_update_strategy(strategy)
        with self._lock:
            with self._wrap_errors(f"replace_column({table_name}.{column_name})"):
                rowids = [r[0] for r in self._conn.execute(
                    f"SELECT rowid FROM {table_name} ORDER BY rowid"
                ).fetchall()]
                array = np.asarray(values)
                if len(rowids) != len(array):
                    raise BackendExecutionError(
                        f"replace_column: {len(array)} values for "
                        f"{len(rowids)} rows of {table_name!r}"
                    )
                scratch = self.temp_name("swap")
                self.create_table(
                    scratch,
                    {"rid": np.asarray(rowids, dtype=np.int64), "v": array},
                )
                self._conn.execute(
                    f"UPDATE {table_name} SET {column_name} = ("
                    f"SELECT v FROM {scratch} "
                    f"WHERE {scratch}.rid = {table_name}.rowid)"
                )
                self.drop_table(scratch)
            self._bump_version()
