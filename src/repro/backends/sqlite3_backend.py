"""SQLiteConnector: run the Factorizer's lifted SQL on stdlib sqlite3.

This is the portability proof the paper makes with DuckDB and DBMS-X:
the training stack issues dialect-translated SQL (see
:mod:`repro.backends.dialect`) against a genuinely different engine and
grows identical trees.  Everything JoinBoost needs from the DBMS —
CREATE TABLE AS SELECT message materialization, grouped split
aggregates, CASE residual updates, semi-join ``IN`` predicates — maps onto
SQLite; scalar/aggregate functions SQLite lacks (``GREATEST``,
``MEDIAN``, older builds' ``EXP``/``POWER``/``SIGN``) are registered as
Python functions on the connection.

Query results come back as the same :class:`Relation`/:class:`Column`
objects the embedded engine produces, so client-side consumers
(``feature_frame``, categorical split scans, forest sampling) run
unchanged.  ``feature_frame`` walks key encodings of the client-side
column snapshots, encoded once per data version and memoized on the
snapshot, since this connector serves no ``encoding_for``.  NaN is the
NULL interchange value on both sides: floats arriving as NaN are stored
as SQL NULL, and NULLs read back as NaN under a validity mask — matching
the embedded engine's convention.
"""

from __future__ import annotations

import math
import os
import shutil
import sqlite3
import statistics
import tempfile
from typing import Dict, List, Optional

import numpy as np

from repro.backends.base import (
    check_update_strategy,
    register_backend,
    to_sql_values,
)
from repro.backends.dbapi import SQLConnector
from repro.backends.dialect import SQLiteDialect
from repro.exceptions import BackendExecutionError, TransientBackendError

#: ``sqlite3.OperationalError`` messages that signal contention rather
#: than a broken statement — these map to :class:`TransientBackendError`
#: and are retried by the engine's retry policy
_TRANSIENT_MARKERS = ("locked", "busy")


def _translate_sqlite_error(
    exc: Exception, context: str
) -> BackendExecutionError:
    """Map a raw driver error onto the backend taxonomy.

    Callers of the connector never see ``sqlite3.Error``: lock/busy
    contention becomes :class:`TransientBackendError` (retryable),
    everything else :class:`BackendExecutionError` (permanent).
    """
    message = f"sqlite backend failed on: {context}: {exc}"
    if isinstance(exc, sqlite3.OperationalError) and any(
        marker in str(exc).lower() for marker in _TRANSIENT_MARKERS
    ):
        return TransientBackendError(message)
    return BackendExecutionError(message)


class _Median:
    """MEDIAN aggregate (used by the L1/MAPE init-score query)."""

    def __init__(self):
        self.values: List[float] = []

    def step(self, value):
        """Accumulate one non-NULL value."""
        if value is not None:
            self.values.append(float(value))

    def finalize(self):
        """Median of the accumulated values (NULL when empty)."""
        return statistics.median(self.values) if self.values else None


def _sign(x):
    if x is None:
        return None
    return (x > 0) - (x < 0)


def _greatest(*args):
    present = [a for a in args if a is not None]
    return max(present) if present else None


def _least(*args):
    present = [a for a in args if a is not None]
    return min(present) if present else None


def register_sql_functions(conn: sqlite3.Connection) -> None:
    """Register JoinBoost's SQL function surface on a connection.

    Module-level so every connection to the database file — the owner
    and each pooled reader — carries the identical function set; the
    same Python functions on every connection is part of what keeps
    pooled reads bit-identical to owner-handle ones.
    """
    conn.create_aggregate("MEDIAN", 1, _Median)
    conn.create_function("GREATEST", -1, _greatest, deterministic=True)
    conn.create_function("LEAST", -1, _least, deterministic=True)
    # Math scalars: present on SQLITE_ENABLE_MATH_FUNCTIONS builds,
    # registered otherwise so the Table-3 loss expressions always run.
    probes = {
        "EXP": (1, lambda x: None if x is None else math.exp(x)),
        "LN": (1, lambda x: None if x is None or x <= 0 else math.log(x)),
        "LOG": (1, lambda x: None if x is None or x <= 0 else math.log10(x)),
        "SQRT": (1, lambda x: None if x is None or x < 0 else math.sqrt(x)),
        "POWER": (2, lambda a, b: None if a is None or b is None
                  else math.pow(a, b)),
        "SIGN": (1, _sign),
        "FLOOR": (1, lambda x: None if x is None else math.floor(x)),
        "CEIL": (1, lambda x: None if x is None else math.ceil(x)),
    }
    for fn_name, (nargs, fn) in probes.items():
        probe = f"SELECT {fn_name}({', '.join(['1'] * nargs)})"
        try:
            conn.execute(probe)
        except sqlite3.OperationalError:
            conn.create_function(fn_name, nargs, fn, deterministic=True)


#: per-connection performance PRAGMAs applied to the owner and to every
#: pooled reader (prepare_training records them under the ``index`` tag):
#: sort/temp spills stay in RAM, the page cache is sized for the lifted
#: fact's working set, and file-backed databases read through mmap
PERF_PRAGMAS = (
    ("temp_store", "MEMORY"),
    ("cache_size", "-65536"),  # 64 MiB, in -KiB units
    ("mmap_size", "268435456"),  # 256 MiB (no-op for in-memory databases)
)


@register_backend("sqlite", "sqlite3")
class SQLiteConnector(SQLConnector):
    """Connector over Python's stdlib ``sqlite3``."""

    dialect = "sqlite"
    _dialect = SQLiteDialect()
    _driver_errors = (sqlite3.Error,)
    _TABLE_NAMES_SQL = (
        "SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY name"
    )
    _HAS_TABLE_SQL = (
        "SELECT COUNT(*) FROM sqlite_master "
        "WHERE type = 'table' AND lower(name) = lower(?)"
    )
    _SETTINGS = PERF_PRAGMAS
    _SETTING_SQL = "PRAGMA {} = {}"
    _SETTINGS_SCOPE = "per-connection PRAGMAs"
    _ANALYZE = True

    def __init__(self, path: str = ":memory:", name: str = "repro"):
        # All connections (the owner plus pooled readers) open the same
        # database in WAL mode, which is what makes the pool real: WAL
        # readers take a page snapshot and never block (or get blocked
        # by) the owner's DDL/UPDATEs — shared-cache ``:memory:`` stores
        # cannot do this (schema table locks serialize readers against
        # every CREATE).  ``:memory:`` therefore maps to an ephemeral
        # database file on tmpfs (``/dev/shm`` when present — RAM-backed,
        # so "in-memory" stays honest), removed on close.
        self._tmpdir: Optional[str] = None
        self._db_file = path
        if path == ":memory:":
            shm = "/dev/shm"
            base = shm if os.path.isdir(shm) and os.access(shm, os.W_OK) else None
            self._tmpdir = tempfile.mkdtemp(prefix="jb_sqlite_", dir=base)
            self._db_file = os.path.join(self._tmpdir, "repro.db")
        super().__init__(path, name)

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def _open_owner(self) -> sqlite3.Connection:
        # check_same_thread=False: the owner connection is shared across
        # task-runner threads (serialized by self._lock), and pooled
        # readers must be closable from the owning thread's close().
        conn = sqlite3.connect(self._db_file, check_same_thread=False)
        conn.isolation_level = None  # autocommit; training is single-writer
        conn.execute("PRAGMA busy_timeout = 30000")
        conn.execute("PRAGMA journal_mode = WAL")
        # Scratch stores skip fsync entirely; user files keep WAL-default
        # durability.
        conn.execute(
            "PRAGMA synchronous = OFF" if self._tmpdir is not None
            else "PRAGMA synchronous = NORMAL"
        )
        register_sql_functions(conn)
        return conn

    def _open_reader(self) -> sqlite3.Connection:
        """A new connection to the same WAL file, pinned ``query_only``.

        A write through a pooled connection is a bug, and SQLite rejects
        it at the C level, while WAL snapshots mean a concurrent message
        CREATE or label UPDATE on the owner never blocks it.  sqlite3's
        C core releases the GIL while a statement runs, which is where
        the real inter-query overlap comes from.  Readers carry the
        PERF_PRAGMAS from birth; the owner gets them in prepare_training.
        """
        conn = self._open_owner()
        self._apply_settings(conn)
        conn.execute("PRAGMA query_only = 1")
        return conn

    @staticmethod
    def _translate_error(exc: Exception, context: str) -> BackendExecutionError:
        return _translate_sqlite_error(exc, context)

    @staticmethod
    def _column_type(array: np.ndarray) -> str:
        kind = np.asarray(array).dtype.kind
        if kind in ("i", "u", "b"):
            return "INTEGER"
        if kind == "f":
            return "REAL"
        return "TEXT"

    def _catalog_column_names(self, table_name: str) -> List[str]:
        rows = self._conn.execute(f"PRAGMA table_info({table_name})").fetchall()
        return [r[1] for r in rows]

    def _rows_changed(self, cursor: sqlite3.Cursor, kind: str) -> int:
        # sqlite3 reports the rows an UPDATE matched
        return max(cursor.rowcount, 0) if kind == "Update" else 0

    def _setup_tables(self, graph, lifted: Dict[str, str]) -> Dict[str, str]:
        """The relations training does not lift (the dimensions).

        Lifted tables stay unindexed here: the batched frontier's carry
        group-bys scan the lifted fact and never probe its key index, and
        with one present sqlite plans them as an index walk plus a temp
        B-tree — slower than the scan.  The per-leaf split path, whose
        standard messages do probe it, builds it first through
        :meth:`index_lifted`.
        """
        return {r: r for r in graph.relations if r not in lifted}

    def index_lifted(self, graph, lifted: Dict[str, str]) -> float:
        """Index the join-key columns of the lifted tables + ANALYZE.

        The per-leaf split path calls this before its first statement:
        its standard messages out of the lifted fact group by the join
        key, and sqlite walks the key index for them (without it the
        per-leaf wall grows by half and the ``SUM`` order changes).
        Idempotent per (table, key tuple); a lifted table recreated under
        the same name starts unindexed.
        """
        return self._index_join_keys(graph, lifted, "per-leaf path")

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
        """Rewrite one column via a rowid-keyed scratch table and one
        correlated ``UPDATE``, in a single transaction.

        The scratch table (connection-private ``TEMP``) is keyed by the
        table's *actual* rowids — ``rid INTEGER PRIMARY KEY`` aliases the
        scratch rowid, so each correlated lookup is a B-tree probe — and
        rowids need not be contiguous.  Row order: a bare
        ``SELECT ... FROM t`` scan and ``ORDER BY rowid`` agree in SQLite
        for ordinary tables, which is the order ``values`` was computed
        in.  NaN is written as NULL; a length mismatch raises before
        anything is written.  SQLite exposes no storage pointers, so every
        logical strategy maps to this one physical write; ``strategy`` is
        still validated so typos fail identically across backends.
        """
        check_update_strategy(strategy)
        array = np.asarray(values)
        with self._lock:
            with self._wrap_errors(f"replace_column({table_name}.{column_name})"):
                rowids = [r[0] for r in self._conn.execute(
                    f"SELECT rowid FROM {table_name} ORDER BY rowid"
                )]
                if len(rowids) != len(array):
                    raise BackendExecutionError(
                        f"replace_column: {len(array)} values for "
                        f"{len(rowids)} rows of {table_name!r}"
                    )
                scratch = self.temp_name("swap")
                self._conn.execute("BEGIN")
                try:
                    self._conn.execute(
                        f"CREATE TEMP TABLE {scratch} "
                        f"(rid INTEGER PRIMARY KEY, v {self._column_type(array)})"
                    )
                    self._conn.executemany(
                        f"INSERT INTO {scratch} VALUES (?, ?)",
                        zip(rowids, to_sql_values(array)),
                    )
                    self._conn.execute(
                        f"UPDATE {table_name} SET {column_name} = ("
                        f"SELECT v FROM {scratch} "
                        f"WHERE {scratch}.rid = {table_name}.rowid)"
                    )
                    self._conn.execute(f"DROP TABLE {scratch}")
                    self._conn.execute("COMMIT")
                except BaseException:
                    if self._conn.in_transaction:
                        self._conn.execute("ROLLBACK")
                    raise
            self._bump_version()

    def close(self) -> None:
        """Close readers and owner; an ephemeral store's scratch
        directory is removed, a file-backed store kept."""
        super().close()
        if self._tmpdir is not None:
            shutil.rmtree(self._tmpdir, ignore_errors=True)
