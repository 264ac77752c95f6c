"""DuckDBConnector: the paper's actual demo engine, as a tier-1 backend.

JoinBoost's published numbers (Figures 15/16) come from running the
factorized message-passing queries *inside* DuckDB; this module is that
path, behind the same :class:`~repro.backends.base.Connector` protocol
as the embedded engine and stdlib sqlite3.  The connector is a full
peer of :class:`~repro.backends.sqlite3_backend.SQLiteConnector`:

* **Native fused queries.**  DuckDB speaks essentially the SQL surface
  the Factorizer emits — the fused ``UNION ALL`` split queries, window
  prefix sums, ``CASE`` residual updates and semi-join ``IN``
  predicates all run unmodified.  The only dialect rewrite is renaming
  the population statistical aggregates (see
  :class:`~repro.backends.dialect.DuckDBDialect`).
* **Concurrent reads** (``Capabilities.concurrent_read=True``).  DuckDB
  documents ``connection.cursor()`` as its multi-threading primitive:
  each cursor is an independent handle onto the same database, safe to
  drive from its own thread.  :meth:`execute_read` checks cursors out of
  a pool per call — bounded by peak scheduler concurrency, exactly like
  the sqlite reader pool — while every write funnels through the owner
  connection under one lock.  That is what lets PR 5's
  ``QueryScheduler`` fan evaluation rounds and forest trees out on this
  backend.
* **Deterministic training** (the PR 5 parity contract).
  :meth:`prepare_training` pins ``SET threads TO 1``: DuckDB's internal
  intra-query parallelism aggregates floats in a nondeterministic
  order, which would break the tree-for-tree bit-identity gate across
  ``num_workers`` settings.  Inter-*query* parallelism — the kind the
  paper's Section 5.5.3 measures and the scheduler provides — is
  unaffected: each pooled cursor executes on its calling thread.

The ``duckdb`` package is **not** a dependency of this repo;
construction raises a clear, actionable error when it is absent.
Install it with::

    pip install repro[duckdb]        # or: pip install duckdb

and ``joinboost.connect(backend="duckdb")`` will use it.
"""

from __future__ import annotations

import contextlib
import threading
import time
import zlib
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backends.base import (
    BackendError,
    Capabilities,
    Connector,
    TempNamespaceMixin,
    check_equal_lengths,
    check_update_strategy,
    column_from_values,
    register_backend,
    to_sql_values,
)
from repro.backends.dialect import DuckDBDialect, split_statements
from repro.backends.sqlite3_backend import SQLiteTableView
from repro.engine.database import QueryProfile
from repro.engine.result import Relation
from repro.exceptions import (
    BackendExecutionError,
    CatalogError,
    ReproError,
    TransientBackendError,
)
from repro.storage.column import Column

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


@contextlib.contextmanager
def _wrap_errors(context: str) -> Iterator[None]:
    """Re-raise raw duckdb exceptions as their taxonomy translation.

    Our own :class:`ReproError` family passes through untouched — the
    connector's catalog checks raise it deliberately from inside these
    blocks.
    """
    try:
        yield
    except ReproError:
        raise
    except Exception as exc:  # duckdb.Error hierarchy (package optional)
        raise _translate_duckdb_error(exc, context) from exc

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


def _duck_type(array: np.ndarray) -> str:
    """DuckDB column type for a NumPy array's dtype kind."""
    kind = np.asarray(array).dtype.kind
    if kind in ("i", "u", "b"):
        return "BIGINT"
    if kind == "f":
        return "DOUBLE"
    return "VARCHAR"


@register_backend("duckdb")
class DuckDBConnector(TempNamespaceMixin, Connector):
    """Connector over the optional ``duckdb`` package.

    Shares the SQLite connector's table-view/marshalling machinery
    (:class:`SQLiteTableView` duck-types against ``_column_names`` /
    ``_num_rows`` / ``_fetch_column``) and mirrors its concurrency
    architecture: one owner connection for writes, serialized by a
    re-entrant lock, plus a checkout/checkin pool of cursors for
    concurrent reads.
    """

    dialect = "duckdb"

    def __init__(self, path: str = ":memory:", name: str = "repro"):
        duckdb = _require_duckdb()
        self.name = name
        self.path = path
        self._conn = duckdb.connect(path)
        # One re-entrant lock serializes every use of the owner
        # connection: DDL, UPDATEs and metadata reads funnel through it,
        # so DuckDB sees a single writer while pooled cursors overlap.
        self._lock = threading.RLock()
        # Cursor pool: checked out per execute_read call and checked
        # back in afterwards, so the pool size is bounded by the *peak
        # concurrency* (the scheduler's worker count), not by how many
        # threads ever existed — QueryScheduler.run() spawns fresh
        # threads every round.
        self._free_readers: List[Any] = []
        self._all_readers: List[Any] = []
        self._pool_lock = threading.Lock()
        self._closed = False
        self._settings_applied = False
        self._dialect = DuckDBDialect()
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
            window_functions=True,
            union_all=True,
            narrow_update=True,
            # Pooled per-thread cursors (DuckDB's documented threading
            # model) make the read path concurrency-safe, so the
            # scheduler fans evaluation rounds and forest trees out here
            # exactly as it does on sqlite.
            concurrent_read=True,
            in_process=True,
        )

    # ------------------------------------------------------------------
    # Cursor pool
    # ------------------------------------------------------------------
    def _checkout_reader(self):
        """Check a pooled cursor out for one rows-returning statement.

        ``connection.cursor()`` is DuckDB's threading primitive: an
        independent handle onto the same database, safe to execute on
        the calling thread while the owner connection (and other
        cursors) run elsewhere.  Cursors see committed state, so a
        message table CREATEd by a scheduler build task is visible to
        the split query that depends on it.
        """
        with self._pool_lock:
            if self._closed:
                raise BackendExecutionError("duckdb connector is closed")
            if self._free_readers:
                return self._free_readers.pop()
        with self._lock:
            cursor = self._conn.cursor()
        with self._pool_lock:
            if self._closed:
                cursor.close()
                raise BackendExecutionError("duckdb connector is closed")
            self._all_readers.append(cursor)
        return cursor

    def _checkin_reader(self, cursor) -> None:
        with self._pool_lock:
            if not self._closed:
                self._free_readers.append(cursor)
                return
        cursor.close()

    # ------------------------------------------------------------------
    # Statement execution
    # ------------------------------------------------------------------
    def execute(self, sql: str, tag: Optional[str] = None) -> Optional[Relation]:
        """Run ``;``-separated statements on the owner connection."""
        result: Optional[Relation] = None
        for statement in split_statements(sql):
            result = self._run_statement(statement, tag)
        return result

    def execute_read(self, sql: str, tag: Optional[str] = None) -> Optional[Relation]:
        """Run a rows-returning statement on a pooled cursor.

        Statements that write (and multi-statement scripts) funnel back
        through :meth:`execute` — the owner connection under the write
        lock — so pooled cursors stay read-only by construction (DuckDB
        has no per-cursor ``query_only`` pin; the dialect classifier is
        the gate).
        """
        statements = split_statements(sql)
        if len(statements) != 1:
            return self.execute(sql, tag)
        translated = self._dialect.translate(statements[0])
        kind, returns_rows = self._dialect.classify(translated)
        if not returns_rows:
            return self.execute(sql, tag)
        cursor = self._checkout_reader()
        start = time.perf_counter()
        try:
            with _wrap_errors(repr(translated)):
                cursor.execute(translated)
                result = self._relation_from_cursor(cursor)
        finally:
            self._checkin_reader(cursor)
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
            changed_rows = 0
            if returns_rows:
                result = self._relation_from_cursor(cursor)
            else:
                if kind in ("Update", "Insert", "Delete"):
                    # DuckDB returns the affected-row count as a one-row
                    # relation — the frontier census prices narrow label
                    # updates with it (sqlite uses cursor.rowcount).
                    try:
                        row = cursor.fetchone()
                        changed_rows = int(row[0]) if row else 0
                    except Exception:
                        changed_rows = 0
                self._bump_version()
        elapsed = time.perf_counter() - start
        if self.profiling_enabled:
            rows_out = result.num_rows if result is not None else changed_rows
            self.profiles.append(QueryProfile(
                sql=statement,
                kind=kind,
                seconds=elapsed,
                rows_out=rows_out,
                tag=tag,
                started=start,
            ))
        return result

    @staticmethod
    def _relation_from_cursor(cursor) -> Relation:
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
    def create_table(
        self,
        name: str,
        data: Dict[str, Union[np.ndarray, Sequence]],
        config=None,
        replace: bool = False,
    ) -> SQLiteTableView:
        """Create a table from a column-name -> array mapping.

        ``config`` is an embedded-engine storage preset; DuckDB owns its
        physical layout, so the parameter is accepted and ignored.
        """
        arrays = {col: np.asarray(values) for col, values in data.items()}
        with self._lock:
            if replace:
                self.drop_table(name, if_exists=True)
            elif self.has_table(name):
                raise CatalogError(f"table {name!r} already exists")
            self._forget_indexes(name)
            decls = ", ".join(
                f"{col} {_duck_type(arr)}" for col, arr in arrays.items()
            )
            check_equal_lengths(name, arrays)
            placeholders = ", ".join(["?"] * len(arrays))
            rows = list(zip(*(to_sql_values(arr) for arr in arrays.values())))
            with _wrap_errors(f"CREATE TABLE {name}"):
                self._conn.execute(f"CREATE TABLE {name} ({decls})")
                if rows:
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
        """Drop a table; raise :class:`CatalogError` when it is missing
        unless ``if_exists``."""
        with self._lock:
            if not if_exists and not self.has_table(name):
                raise CatalogError(f"no such table: {name!r}")
            with _wrap_errors(f"DROP TABLE {name}"):
                self._conn.execute(f"DROP TABLE IF EXISTS {name}")
            self._forget_indexes(name)
            self._bump_version()

    def rename_table(self, old: str, new: str) -> None:
        """Rename a table; both missing-source and existing-target fail
        with :class:`CatalogError` (matching the embedded engine)."""
        with self._lock:
            if not self.has_table(old):
                raise CatalogError(f"no such table: {old!r}")
            if self.has_table(new):
                raise CatalogError(f"table {new!r} already exists")
            with _wrap_errors(f"ALTER TABLE {old} RENAME TO {new}"):
                self._conn.execute(f"ALTER TABLE {old} RENAME TO {new}")
            self._forget_indexes(old)
            self._forget_indexes(new)
            self._bump_version()

    def table(self, name: str) -> SQLiteTableView:
        """A lazy read view over a stored table."""
        if not self.has_table(name):
            raise CatalogError(f"no such table: {name!r}")
        return SQLiteTableView(self, name)

    def has_table(self, name: str) -> bool:
        """Case-insensitive existence check against the main schema."""
        with self._lock:
            with _wrap_errors("has_table"):
                row = self._conn.execute(
                    "SELECT COUNT(*) FROM information_schema.tables "
                    "WHERE table_schema = 'main' "
                    "AND lower(table_name) = lower(?)",
                    [name],
                ).fetchone()
        return row[0] > 0

    def table_names(self) -> List[str]:
        """Sorted names of every table in the main schema."""
        with self._lock:
            with _wrap_errors("table_names"):
                rows = self._conn.execute(
                    "SELECT table_name FROM information_schema.tables "
                    "WHERE table_schema = 'main' ORDER BY table_name"
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
            with _wrap_errors(f"replace_column({table_name}.{column_name})"):
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

    # ------------------------------------------------------------------
    # Training setup: per-database settings + join-key access paths
    # ------------------------------------------------------------------
    def prepare_training(self, graph, lifted: Optional[Dict[str, str]] = None) -> float:
        """One-time physical setup before message passing starts.

        Applies :data:`DUCKDB_SETTINGS` once per connector (the
        ``threads=1`` determinism pin plus insertion-order preservation)
        and creates an ART index on every join-key column of the
        training tables — including the lifted fact's — the access path
        the incremental frontier's narrow semi-join ``UPDATE``s and key
        lookups probe.  Idempotent per (table, key tuple); the time
        spent is recorded on ``index_seconds`` and as ``"index"``-tagged
        query profiles, matching the sqlite connector.
        """
        lifted = dict(lifted or {})
        start = time.perf_counter()
        created = []
        with self._lock:
            settings_fresh = not self._settings_applied
            if settings_fresh:
                with _wrap_errors("SET training settings"):
                    for setting, value in DUCKDB_SETTINGS:
                        self._conn.execute(f"SET {setting} TO {value}")
                self._settings_applied = True
            for edge in graph.edges:
                for relation in (edge.left, edge.right):
                    table = lifted.get(relation, relation)
                    keys = tuple(edge.keys_for(relation))
                    ident = (table.lower(), keys)
                    if ident in self._indexed or not self.has_table(table):
                        continue
                    # Deterministic digest: underscore-joined names can
                    # collide across (table, keys) pairs, and a colliding
                    # name would make CREATE INDEX IF NOT EXISTS a silent
                    # no-op.
                    digest = zlib.crc32("|".join((table.lower(),) + keys).encode())
                    index_name = f"jb_idx_{digest:08x}"
                    with _wrap_errors(f"CREATE INDEX {index_name}"):
                        self._conn.execute(
                            f"CREATE INDEX IF NOT EXISTS {index_name} "
                            f"ON {table} ({', '.join(keys)})"
                        )
                    self._indexed.add(ident)
                    created.append(index_name)
        elapsed = time.perf_counter() - start
        self.index_seconds += elapsed
        if self.profiling_enabled and settings_fresh:
            rendered = ", ".join(f"{s}={v}" for s, v in DUCKDB_SETTINGS)
            self.profiles.append(QueryProfile(
                sql=f"-- training setup: per-database settings ({rendered})",
                kind="Pragma",
                seconds=0.0,
                rows_out=len(DUCKDB_SETTINGS),
                tag="index",
                started=start,
            ))
        if self.profiling_enabled and created:
            self.profiles.append(QueryProfile(
                sql=f"-- training setup: {len(created)} join-key indexes",
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
            with _wrap_errors(f"column names of {table_name}"):
                rows = self._conn.execute(
                    "SELECT column_name FROM information_schema.columns "
                    "WHERE table_schema = 'main' "
                    "AND lower(table_name) = lower(?) "
                    "ORDER BY ordinal_position",
                    [table_name],
                ).fetchall()
        if not rows:
            raise CatalogError(f"no such table: {table_name!r}")
        names = [r[0] for r in rows]
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
                ).fetchall()]
        column = column_from_values(actual, values)
        if len(self._column_cache) > 512:
            self._column_cache.clear()
        self._column_cache[key] = (version, column)
        return column

    # ------------------------------------------------------------------
    # Profiling / lifecycle
    # ------------------------------------------------------------------
    def reset_profiles(self) -> None:
        """Clear the recorded :class:`QueryProfile` list."""
        self.profiles.clear()

    def close(self) -> None:
        """Close every pooled cursor and the owner connection
        (idempotent; in-flight checkouts fail cleanly afterwards)."""
        with self._pool_lock:
            if self._closed:
                return
            self._closed = True
            readers, self._all_readers = self._all_readers, []
            self._free_readers = []
        for cursor in readers:
            try:
                cursor.close()
            except Exception:  # pragma: no cover - driver teardown races
                pass
        self._conn.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        return f"DuckDBConnector({self.path!r})"
