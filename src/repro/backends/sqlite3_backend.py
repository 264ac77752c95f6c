"""SQLiteConnector: run the Factorizer's lifted SQL on stdlib sqlite3.

This is the portability proof the paper makes with DuckDB and DBMS-X:
the training stack issues dialect-translated SQL (see
:mod:`repro.backends.dialect`) against a genuinely different engine and
grows identical trees.  Everything JoinBoost needs from the DBMS —
CREATE TABLE AS SELECT message materialization, window prefix-sum split
queries, CASE residual updates, semi-join ``IN`` predicates — maps onto
SQLite; scalar/aggregate functions SQLite lacks (``GREATEST``,
``MEDIAN``, older builds' ``EXP``/``POWER``/``SIGN``) are registered as
Python functions on the connection.

Query results come back as the same :class:`Relation`/:class:`Column`
objects the embedded engine produces, so client-side consumers
(``feature_frame``, categorical split scans, forest sampling) run
unchanged.  NaN is the NULL interchange value on both sides: floats
arriving as NaN are stored as SQL NULL, and NULLs read back as NaN under
a validity mask — matching the embedded engine's convention.
"""

from __future__ import annotations

import contextlib
import math
import os
import shutil
import sqlite3
import statistics
import tempfile
import threading
import time
import zlib
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backends.base import (
    Capabilities,
    Connector,
    TempNamespaceMixin,
    check_equal_lengths,
    check_update_strategy,
    column_from_values,
    register_backend,
    to_sql_values,
)
from repro.backends.dialect import SQLiteDialect, split_statements
from repro.engine.database import QueryProfile
from repro.engine.result import Relation
from repro.exceptions import (
    BackendExecutionError,
    CatalogError,
    TransientBackendError,
)
from repro.storage.column import Column

#: ``sqlite3.OperationalError`` messages that signal contention rather
#: than a broken statement — these map to :class:`TransientBackendError`
#: and are retried by the engine's retry policy
_TRANSIENT_MARKERS = ("locked", "busy")


def _translate_sqlite_error(
    exc: sqlite3.Error, context: str
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


@contextlib.contextmanager
def _wrap_errors(context: str) -> Iterator[None]:
    """Re-raise any ``sqlite3.Error`` as its taxonomy translation."""
    try:
        yield
    except sqlite3.Error as exc:
        raise _translate_sqlite_error(exc, context) from exc


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


class SQLiteTableView:
    """Read view over a SQLite table, shaped like a storage ``Table``.

    Columns materialize lazily (one ``SELECT col FROM t`` each) into the
    same :class:`Column` objects the embedded engine stores, and cache on
    the connector keyed by its data version, so repeated reads during
    prediction don't re-fetch unchanged data.
    """

    def __init__(self, connector: "SQLiteConnector", name: str):
        self._connector = connector
        self.name = name

    def column_names(self) -> List[str]:
        """Column names in stored order."""
        return self._connector._column_names(self.name)

    def num_rows(self) -> int:
        """Row count (cached per data version)."""
        return self._connector._num_rows(self.name)

    def column(self, name: str) -> Column:
        """Fetch one column as an embedded-engine :class:`Column`."""
        return self._connector._fetch_column(self.name, name)

    def columns(self):
        """Iterate all columns in stored order."""
        for name in self.column_names():
            yield self.column(name)

    def __contains__(self, name: str) -> bool:
        return name in self.column_names()

    def __len__(self) -> int:
        return self.num_rows()

    def nbytes(self) -> int:
        """Total bytes of the materialized column arrays."""
        return sum(c.values.nbytes for c in self.columns())

    def __repr__(self) -> str:
        return f"SQLiteTableView({self.name!r})"


@register_backend("sqlite", "sqlite3")
class SQLiteConnector(TempNamespaceMixin, Connector):
    """Connector over Python's stdlib ``sqlite3``."""

    dialect = "sqlite"

    def __init__(self, path: str = ":memory:", name: str = "repro"):
        self.name = name
        self.path = path
        # All connections (the owner plus per-thread readers) open the
        # same database in WAL mode, which is what makes the pool real:
        # WAL readers take a page snapshot and never block (or get
        # blocked by) the owner's DDL/UPDATEs — shared-cache ``:memory:``
        # stores cannot do this (schema table locks serialize readers
        # against every CREATE).  ``:memory:`` therefore maps to an
        # ephemeral database file on tmpfs (``/dev/shm`` when present —
        # RAM-backed, so "in-memory" stays honest), removed on close.
        if path == ":memory:":
            shm = "/dev/shm"
            base = shm if os.path.isdir(shm) and os.access(shm, os.W_OK) else None
            self._tmpdir: Optional[str] = tempfile.mkdtemp(
                prefix="jb_sqlite_", dir=base
            )
            self._db_file = os.path.join(self._tmpdir, "repro.db")
            self._ephemeral = True
        else:
            self._tmpdir = None
            self._db_file = path
            self._ephemeral = False
        self._conn = self._connect()
        # One re-entrant lock serializes every use of the owner
        # connection: all DDL and UPDATEs funnel through it, so SQLite
        # sees a single writer while pooled readers overlap freely.
        self._lock = threading.RLock()
        # Reader pool: connections are checked out per execute_read call
        # and checked back in afterwards, so the pool size is bounded by
        # the *peak concurrency* (the scheduler's worker count), not by
        # how many threads ever existed — each QueryScheduler.run()
        # spawns fresh threads, and a thread-local pool would mint (and
        # strand) new connections every round.
        self._free_readers: List[sqlite3.Connection] = []
        self._all_readers: List[sqlite3.Connection] = []
        self._pool_lock = threading.Lock()
        self._closed = False
        self._perf_pragmas_applied = False
        self._dialect = SQLiteDialect()
        self._register_functions(self._conn)
        self._data_version = 0
        self._schema_cache: Dict[str, Tuple[int, List[str]]] = {}
        self._column_cache: Dict[Tuple[str, str], Tuple[int, Column]] = {}
        self._rows_cache: Dict[str, Tuple[int, int]] = {}
        self._indexed: set = set()
        self.index_seconds = 0.0
        self.profiles: List[QueryProfile] = []
        self.profiling_enabled = True
        self.capabilities = Capabilities(
            column_swap=False,
            query_profiles=True,
            window_functions=sqlite3.sqlite_version_info >= (3, 25, 0),
            union_all=True,
            narrow_update=True,
            concurrent_read=True,
            in_process=True,
        )

    # ------------------------------------------------------------------
    # Connection setup
    # ------------------------------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        # check_same_thread=False: the owner connection is shared across
        # scheduler threads (serialized by self._lock), and pooled
        # readers must be closable from the owning thread's close().
        conn = sqlite3.connect(self._db_file, check_same_thread=False)
        conn.isolation_level = None  # autocommit; training is single-writer
        conn.execute("PRAGMA busy_timeout = 30000")
        conn.execute("PRAGMA journal_mode = WAL")
        # Scratch stores skip fsync entirely; user files keep WAL-default
        # durability.
        conn.execute(
            "PRAGMA synchronous = OFF" if self._ephemeral
            else "PRAGMA synchronous = NORMAL"
        )
        return conn

    def _checkout_reader(self) -> sqlite3.Connection:
        """Check a pooled read-only connection out for one statement.

        Connections open the same WAL database file and are pinned
        ``query_only`` — a write through a pooled connection is a bug,
        and SQLite rejects it at the C level — while WAL snapshots mean
        a concurrent message CREATE or label UPDATE on the owner
        connection never blocks them.  sqlite3's C core releases the GIL
        while a statement runs, which is where the real inter-query
        overlap comes from.
        """
        with self._pool_lock:
            if self._closed:
                raise BackendExecutionError("sqlite connector is closed")
            if self._free_readers:
                return self._free_readers.pop()
        conn = self._connect()
        self._register_functions(conn)
        self._apply_perf_pragmas(conn)
        conn.execute("PRAGMA query_only = 1")
        with self._pool_lock:
            if self._closed:
                conn.close()
                raise BackendExecutionError("sqlite connector is closed")
            self._all_readers.append(conn)
        return conn

    def _checkin_reader(self, conn: sqlite3.Connection) -> None:
        with self._pool_lock:
            if not self._closed:
                self._free_readers.append(conn)
                return
        conn.close()

    @staticmethod
    def _apply_perf_pragmas(conn: sqlite3.Connection) -> None:
        for pragma, value in PERF_PRAGMAS:
            conn.execute(f"PRAGMA {pragma} = {value}")

    def _register_functions(self, conn: sqlite3.Connection) -> None:
        register_sql_functions(conn)

    # ------------------------------------------------------------------
    # Statement execution
    # ------------------------------------------------------------------
    def execute(self, sql: str, tag: Optional[str] = None) -> Optional[Relation]:
        """Run translated statements on the owner connection (locked)."""
        result: Optional[Relation] = None
        for statement in split_statements(sql):
            result = self._run_statement(statement, tag)
        return result

    def execute_read(self, sql: str, tag: Optional[str] = None) -> Optional[Relation]:
        """Run a rows-returning statement on the calling thread's pooled
        connection.  Statements that write (and multi-statement scripts)
        funnel back through :meth:`execute` — the owner connection under
        the write lock — so readers stay genuinely read-only."""
        statements = split_statements(sql)
        if len(statements) != 1:
            return self.execute(sql, tag)
        translated = self._dialect.translate(statements[0])
        kind, returns_rows = self._dialect.classify(translated)
        if not returns_rows:
            return self.execute(sql, tag)
        conn = self._checkout_reader()
        start = time.perf_counter()
        try:
            with _wrap_errors(repr(translated)):
                cursor = conn.execute(translated)
                result = self._relation_from_cursor(cursor)
        finally:
            self._checkin_reader(conn)
        elapsed = time.perf_counter() - start
        if self.profiling_enabled:
            self.profiles.append(QueryProfile(
                sql=statements[0],
                kind=kind,
                seconds=elapsed,
                rows_out=result.num_rows,
                tag=tag,
                started=start,
            ))
        return result

    def _run_statement(self, statement: str, tag: Optional[str]) -> Optional[Relation]:
        translated = self._dialect.translate(statement)
        kind, returns_rows = self._dialect.classify(translated)
        start = time.perf_counter()
        with self._lock:
            with _wrap_errors(repr(translated)):
                cursor = self._conn.execute(translated)
                result: Optional[Relation] = None
                if returns_rows:
                    result = self._relation_from_cursor(cursor)
                else:
                    self._bump_version()
                rowcount = cursor.rowcount
        elapsed = time.perf_counter() - start
        if self.profiling_enabled:
            if result is not None:
                rows_out = result.num_rows
            elif kind == "Update":
                # sqlite3 reports rows matched by the UPDATE — the
                # frontier census prices narrow label updates with it.
                rows_out = max(rowcount, 0)
            else:
                rows_out = 0
            self.profiles.append(QueryProfile(
                sql=statement,
                kind=kind,
                seconds=elapsed,
                rows_out=rows_out,
                tag=tag,
                started=start,
            ))
        return result

    def _relation_from_cursor(self, cursor: sqlite3.Cursor) -> Relation:
        names = [d[0] for d in cursor.description or ()]
        rows = cursor.fetchall()
        columns = [
            column_from_values(name, [row[i] for row in rows])
            for i, name in enumerate(names)
        ]
        return Relation(columns)

    # ------------------------------------------------------------------
    # Table management
    # ------------------------------------------------------------------
    @staticmethod
    def _affinity(array: np.ndarray) -> str:
        kind = np.asarray(array).dtype.kind
        if kind in ("i", "u", "b"):
            return "INTEGER"
        if kind == "f":
            return "REAL"
        return "TEXT"

    def create_table(
        self,
        name: str,
        data: Dict[str, Union[np.ndarray, Sequence]],
        config=None,
        replace: bool = False,
    ) -> SQLiteTableView:
        """Create a table from arrays (NaN rows stored as NULL)."""
        # ``config`` is an embedded-engine storage preset; SQLite owns its
        # physical layout, so the parameter is accepted and ignored.
        arrays = {col: np.asarray(values) for col, values in data.items()}
        with self._lock:
            if replace:
                self.drop_table(name, if_exists=True)
            elif self.has_table(name):
                raise CatalogError(f"table {name!r} already exists")
            self._forget_indexes(name)
            decls = ", ".join(
                f"{col} {self._affinity(arr)}" for col, arr in arrays.items()
            )
            placeholders = ", ".join(["?"] * len(arrays))
            check_equal_lengths(name, arrays)
            rows = zip(*(to_sql_values(arr) for arr in arrays.values()))
            with _wrap_errors(f"CREATE TABLE {name}"):
                self._conn.execute(f"CREATE TABLE {name} ({decls})")
                self._conn.executemany(
                    f"INSERT INTO {name} VALUES ({placeholders})", rows
                )
            self._bump_version()
        return SQLiteTableView(self, name)

    def _forget_indexes(self, table_name: str) -> None:
        """Drop the idempotency record of a table's training indexes — a
        recreated table starts unindexed and must be indexable again."""
        key = table_name.lower()
        self._indexed = {i for i in self._indexed if i[0] != key}

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        """Drop a table; :class:`CatalogError` unless ``if_exists``."""
        with self._lock:
            if not if_exists and not self.has_table(name):
                raise CatalogError(f"no such table: {name!r}")
            with _wrap_errors(f"DROP TABLE {name}"):
                self._conn.execute(f"DROP TABLE IF EXISTS {name}")
            self._forget_indexes(name)
            self._bump_version()

    def rename_table(self, old: str, new: str) -> None:
        """Rename ``old`` to ``new`` with embedded-engine semantics."""
        with self._lock:
            if not self.has_table(old):
                raise CatalogError(f"no such table: {old!r}")
            if self.has_table(new):
                raise CatalogError(f"table {new!r} already exists")
            with _wrap_errors(f"ALTER TABLE {old} RENAME TO {new}"):
                self._conn.execute(f"ALTER TABLE {old} RENAME TO {new}")
            # The physical indexes follow the table; the name-keyed records
            # do not — a future table under either name must re-index.
            self._forget_indexes(old)
            self._forget_indexes(new)
            self._bump_version()

    def table(self, name: str) -> SQLiteTableView:
        """Lazy column view; :class:`CatalogError` on missing names."""
        if not self.has_table(name):
            raise CatalogError(f"no such table: {name!r}")
        return SQLiteTableView(self, name)

    def has_table(self, name: str) -> bool:
        """Case-insensitive catalog membership test."""
        with self._lock:
            with _wrap_errors("has_table"):
                row = self._conn.execute(
                    "SELECT COUNT(*) FROM sqlite_master "
                    "WHERE type = 'table' AND lower(name) = lower(?)",
                    (name,),
                ).fetchone()
        return row[0] > 0

    def table_names(self) -> List[str]:
        """All stored table names (sorted), temporaries included."""
        with self._lock:
            with _wrap_errors("table_names"):
                rows = self._conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table' "
                    "ORDER BY name"
                ).fetchall()
        return [r[0] for r in rows]

    # Temporary namespace: temp_name/cleanup_temp from TempNamespaceMixin.

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
            with _wrap_errors(f"replace_column({table_name}.{column_name})"):
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
                        f"(rid INTEGER PRIMARY KEY, v {self._affinity(array)})"
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

    # ------------------------------------------------------------------
    # Training setup: join-key indexes (the sqlite analogue of the
    # embedded engine's encoded-key cache — build the per-key access
    # structure once per training run, not once per query)
    # ------------------------------------------------------------------
    def prepare_training(self, graph, lifted: Optional[Dict[str, str]] = None) -> float:
        """Per-connection PRAGMAs, an index on every join-key column of the
        relations training does not lift (the dimensions), and ANALYZE.

        Message and absorption queries join dimensions on the same key
        columns hundreds of times per tree; without indexes SQLite
        re-scans per query.  Lifted tables (``lifted``'s relations) stay
        unindexed here: the batched frontier's carry group-bys scan the
        lifted fact and never probe its key index, and with one present
        sqlite plans them as an index walk plus a temp B-tree — slower
        than the scan.  The per-leaf split path, whose standard messages
        do probe it, builds it first through :meth:`index_lifted`.
        Idempotent per (table, key tuple).  The time spent is recorded
        both on ``index_seconds`` and as an ``"index"``-tagged profile.
        """
        lifted = lifted or {}
        with self._lock:
            # Per-connection perf PRAGMAs: the owner gets them here, and
            # every pooled reader applies the same set at creation (see
            # _checkout_reader) — "every pooled connection" because
            # readers are minted lazily per scheduler thread.
            pragmas_fresh = not self._perf_pragmas_applied
            if pragmas_fresh:
                self._apply_perf_pragmas(self._conn)
                self._perf_pragmas_applied = True
                if self.profiling_enabled:
                    rendered = ", ".join(f"{p}={v}" for p, v in PERF_PRAGMAS)
                    self.profiles.append(QueryProfile(
                        sql="-- training setup: per-connection PRAGMAs "
                            f"({rendered})",
                        kind="Pragma",
                        seconds=0.0,
                        rows_out=len(PERF_PRAGMAS),
                        tag="index",
                        started=time.perf_counter(),
                    ))
            return self._index_join_keys(
                graph,
                {r: r for r in graph.relations if r not in lifted},
                "training setup",
            )

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

    def _index_join_keys(self, graph, tables: Dict[str, str], purpose: str) -> float:
        """Create the missing join-key indexes of ``tables`` (relation ->
        physical table) in edge order, then ANALYZE if any were created."""
        start = time.perf_counter()
        created = []
        with self._lock:
            for edge in graph.edges:
                for relation in (edge.left, edge.right):
                    table = tables.get(relation)
                    if table is None:
                        continue
                    keys = tuple(edge.keys_for(relation))
                    ident = (table.lower(), keys)
                    if ident in self._indexed or not self.has_table(table):
                        continue
                    # Deterministic digest: underscore-joined names can collide
                    # across (table, keys) pairs, and a colliding name would
                    # make CREATE INDEX IF NOT EXISTS a silent no-op.
                    digest = zlib.crc32("|".join((table.lower(),) + keys).encode())
                    index_name = f"jb_idx_{digest:08x}"
                    with _wrap_errors(f"CREATE INDEX {index_name}"):
                        self._conn.execute(
                            f"CREATE INDEX IF NOT EXISTS {index_name} "
                            f"ON {table} ({', '.join(keys)})"
                        )
                    self._indexed.add(ident)
                    created.append(index_name)
            if created:
                # Refresh planner statistics so the fresh indexes get picked.
                with _wrap_errors("ANALYZE"):
                    self._conn.execute("ANALYZE")
        elapsed = time.perf_counter() - start
        self.index_seconds += elapsed
        if self.profiling_enabled and created:
            self.profiles.append(QueryProfile(
                sql=f"-- {purpose}: {len(created)} join-key indexes + ANALYZE",
                kind="Index",
                seconds=elapsed,
                rows_out=len(created),
                tag="index",
                started=start,
            ))
        return elapsed

    # ------------------------------------------------------------------
    # Cached metadata reads (invalidated on any write)
    # ------------------------------------------------------------------
    def _bump_version(self) -> None:
        self._data_version += 1

    def _column_names(self, table_name: str) -> List[str]:
        key = table_name.lower()
        cached = self._schema_cache.get(key)
        if cached is not None and cached[0] == self._data_version:
            return cached[1]
        with self._lock:
            version = self._data_version
            with _wrap_errors(f"PRAGMA table_info({table_name})"):
                rows = self._conn.execute(
                    f"PRAGMA table_info({table_name})"
                ).fetchall()
        if not rows:
            raise CatalogError(f"no such table: {table_name!r}")
        names = [r[1] for r in rows]
        self._schema_cache[key] = (version, names)
        return names

    def _num_rows(self, table_name: str) -> int:
        key = table_name.lower()
        cached = self._rows_cache.get(key)
        if cached is not None and cached[0] == self._data_version:
            return cached[1]
        with self._lock:
            version = self._data_version
            with _wrap_errors(f"COUNT rows of {table_name}"):
                n = self._conn.execute(
                    f"SELECT COUNT(*) FROM {table_name}"
                ).fetchone()[0]
        self._rows_cache[key] = (version, n)
        return n

    def _fetch_column(self, table_name: str, column_name: str) -> Column:
        wanted = column_name.lower()
        actual = None
        for name in self._column_names(table_name):
            if name.lower() == wanted:
                actual = name
                break
        if actual is None:
            raise BackendExecutionError(
                f"table {table_name!r} has no column {column_name!r}"
            )
        key = (table_name.lower(), wanted)
        cached = self._column_cache.get(key)
        if cached is not None and cached[0] == self._data_version:
            return cached[1]
        with self._lock:
            version = self._data_version
            with _wrap_errors(f"fetch {table_name}.{actual}"):
                values = [r[0] for r in self._conn.execute(
                    f"SELECT {actual} FROM {table_name} ORDER BY rowid"
                )]
        column = column_from_values(actual, values)
        if len(self._column_cache) > 512:
            self._column_cache.clear()
        self._column_cache[key] = (version, column)
        return column

    # ------------------------------------------------------------------
    # Profiling / lifecycle
    # ------------------------------------------------------------------
    def reset_profiles(self) -> None:
        """Clear accumulated query profiles."""
        self.profiles.clear()

    def close(self) -> None:
        """Close pooled readers then the owner (idempotent); ephemeral
        scratch directories are removed, file-backed stores kept."""
        with self._pool_lock:
            if self._closed:
                return
            self._closed = True
            readers, self._all_readers = self._all_readers, []
            self._free_readers = []
        for conn in readers:
            conn.close()
        self._conn.close()
        if self._ephemeral and self._tmpdir is not None:
            shutil.rmtree(self._tmpdir, ignore_errors=True)

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        return f"SQLiteConnector({self.path!r}, tables={len(self.table_names())})"
