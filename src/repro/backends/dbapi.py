"""SQLConnector: the shared body of every DB-API engine connector.

The paper's portability claim is that JoinBoost needs nothing from an
engine but SQL.  This module is that claim in code: everything a DB-API
driver connector does the same way on every engine lives here once —

* the concurrency architecture: one owner connection for every write,
  serialized by a re-entrant lock, plus a checkout/checkin pool of
  reader handles for :meth:`SQLConnector.execute_read`, bounded by peak
  concurrency (the task runner's worker count), not by how many threads
  ever existed — each :func:`~repro.engine.scheduler.run_tasks` pool
  spawns fresh threads;
* statement execution: dialect translation, ``;``-splitting, the
  rows-returning/writing classification, :class:`QueryProfile`
  recording, and translation of raw driver errors (fetches included)
  into the backend taxonomy;
* the catalog surface (create/drop/rename/list tables, the ``jb_tmp_``
  namespace) and :class:`SQLTableView`, whose column reads are cached
  per data version and invalidated by any write;
* training setup: the engine's session settings, once, and one index
  per join key (named by a crc32 of ``(table, keys)``, idempotent on
  that pair), each recorded as an ``"index"``-tagged profile.

A concrete connector supplies only what differs per engine — the hooks
below, listed in docs/BACKENDS.md as the checklist for a new engine:
``_open_owner`` / ``_open_reader``, ``_translate_error`` (transient vs
permanent), ``_column_type``, ``_TABLE_NAMES_SQL`` / ``_HAS_TABLE_SQL``
/ ``_catalog_column_names``, ``_rows_changed``, ``replace_column``, the
settings (``_SETTINGS`` rendered through ``_SETTING_SQL``), and which
tables :meth:`SQLConnector.prepare_training` indexes
(``_setup_tables``) and whether ``ANALYZE`` follows (``_ANALYZE``).
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
import zlib
from typing import (
    Any, Dict, Iterator, List, Optional, Sequence, Tuple, Type, Union,
)

import numpy as np

from repro.backends.base import (
    Connector,
    check_equal_lengths,
    column_from_values,
    to_sql_values,
)
from repro.backends.dialect import DuckDBDialect, SQLiteDialect, split_statements
from repro.engine.result import QueryProfile, Relation
from repro.exceptions import BackendExecutionError, CatalogError, ReproError
from repro.storage.catalog import TEMP_PREFIX
from repro.storage.column import Column

#: rows per ``executemany`` / ``fetchmany`` call when a table is loaded
#: or a column fetched: drivers may copy a whole parameter list, and a
#: whole ``fetchall`` holds one tuple per row next to the values
_BATCH_ROWS = 1_000


class SQLTableView:
    """Read view over an engine table, shaped like a storage ``Table``.

    Columns materialize lazily (one ``SELECT col FROM t`` each) into the
    same :class:`Column` objects the embedded engine stores, and cache on
    the connector keyed by its data version, so repeated reads during
    prediction don't re-fetch unchanged data.
    """

    def __init__(self, connector: "SQLConnector", name: str):
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
        return f"SQLTableView({self.name!r})"


class SQLConnector(Connector):
    """A DB-API engine behind the :class:`Connector` protocol.

    Subclasses implement the per-engine hooks named in the module
    docstring; every other protocol method is implemented here.
    """

    #: translates the Factorizer's SQL into the engine's spelling
    _dialect: SQLiteDialect | DuckDBDialect
    #: raw driver exception classes :meth:`_wrap_errors` translates
    _driver_errors: Tuple[Type[Exception], ...] = (Exception,)
    #: catalog queries: every table name (sorted), and a one-parameter
    #: case-insensitive existence count
    _TABLE_NAMES_SQL = ""
    _HAS_TABLE_SQL = ""
    #: session settings applied once by :meth:`prepare_training`, each
    #: rendered through ``_SETTING_SQL.format(name, value)``; the profile
    #: recording them names them ``_SETTINGS_SCOPE``
    _SETTINGS: Tuple[Tuple[str, str], ...] = ()
    _SETTING_SQL = ""
    _SETTINGS_SCOPE = "settings"
    #: refresh planner statistics after creating join-key indexes
    _ANALYZE = False

    def __init__(self, path: str = ":memory:", name: str = "repro"):
        self.name = name
        self.path = path
        # One re-entrant lock serializes every use of the owner
        # connection: DDL, UPDATEs and metadata reads funnel through it,
        # so the engine sees a single writer while pooled readers overlap.
        self._lock = threading.RLock()
        self._free_readers: List[Any] = []
        self._all_readers: List[Any] = []
        self._pool_lock = threading.Lock()
        self._closed = False
        self._settings_applied = False
        self._data_version = 0
        self._schema_cache: Dict[str, Tuple[int, List[str]]] = {}
        self._column_cache: Dict[Tuple[str, str], Tuple[int, Column]] = {}
        self._rows_cache: Dict[str, Tuple[int, int]] = {}
        self._indexed: set = set()
        # next() on itertools.count is atomic in CPython, so concurrent
        # tasks are never handed the same temp name.
        self._temp_names = itertools.count(1)
        self.index_seconds = 0.0
        self.profiles: List[QueryProfile] = []
        self.profiling_enabled = True
        self._conn: Any = self._open_owner()

    # ------------------------------------------------------------------
    # Per-engine hooks
    # ------------------------------------------------------------------
    def _open_owner(self) -> Any:
        """Open the owner connection every write runs on."""
        raise NotImplementedError

    def _open_reader(self) -> Any:
        """Open one pooled read-only handle (has ``execute``/``close``)."""
        raise NotImplementedError

    @staticmethod
    def _translate_error(exc: Exception, context: str) -> BackendExecutionError:
        """Map a raw driver error onto the taxonomy: transient
        (retryable) or permanent."""
        raise NotImplementedError

    @staticmethod
    def _column_type(array: np.ndarray) -> str:
        """The engine's column type for a NumPy array."""
        raise NotImplementedError

    def _catalog_column_names(self, table_name: str) -> List[str]:
        """Stored column names of ``table_name`` (empty when missing),
        read on the owner connection."""
        raise NotImplementedError

    def _rows_changed(self, cursor: Any, kind: str) -> int:
        """Rows a write of ``kind`` changed, as its profile reports them."""
        return 0

    def _setup_tables(self, graph, lifted: Dict[str, str]) -> Dict[str, str]:
        """Relation -> physical table whose join keys
        :meth:`prepare_training` indexes."""
        return {r: lifted.get(r, r) for r in graph.relations}

    # ------------------------------------------------------------------
    # Errors, reader pool, profiles
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def _wrap_errors(self, context: str) -> Iterator[None]:
        """Re-raise raw driver errors as their taxonomy translation;
        our own :class:`ReproError` family passes through untouched."""
        try:
            yield
        except ReproError:
            raise
        except self._driver_errors as exc:
            raise self._translate_error(exc, context) from exc

    def _closed_error(self) -> BackendExecutionError:
        return BackendExecutionError(f"{self.dialect} connector is closed")

    def _checkout_reader(self) -> Any:
        """Check a pooled reader out for one rows-returning statement."""
        with self._pool_lock:
            if self._closed:
                raise self._closed_error()
            if self._free_readers:
                return self._free_readers.pop()
        with self._wrap_errors("open reader"):
            reader = self._open_reader()
        with self._pool_lock:
            if self._closed:
                reader.close()
                raise self._closed_error()
            self._all_readers.append(reader)
        return reader

    def _checkin_reader(self, reader: Any) -> None:
        with self._pool_lock:
            if not self._closed:
                self._free_readers.append(reader)
                return
        reader.close()

    def _apply_settings(self, conn: Any) -> None:
        for setting, value in self._SETTINGS:
            conn.execute(self._SETTING_SQL.format(setting, value))

    def _record(
        self, sql: str, kind: str, start: float, rows_out: int, tag: Optional[str]
    ) -> None:
        elapsed = time.perf_counter() - start
        if self.profiling_enabled:
            self.profiles.append(QueryProfile(
                sql=sql,
                kind=kind,
                seconds=elapsed,
                rows_out=rows_out,
                tag=tag,
                started=start,
            ))

    # ------------------------------------------------------------------
    # Statement execution
    # ------------------------------------------------------------------
    def execute(
        self, sql: str, tag: Optional[str] = None
    ) -> Union[Relation, int, None]:
        """Run translated statements on the owner connection (locked)."""
        result: Union[Relation, int, None] = None
        for statement in split_statements(sql):
            result = self._run_statement(statement, tag)
        return result

    def execute_read(
        self, sql: str, tag: Optional[str] = None
    ) -> Union[Relation, int, None]:
        """Run a rows-returning statement on a pooled reader.

        Statements that write (and multi-statement scripts) funnel back
        through :meth:`execute` — the owner connection under the write
        lock — so readers stay read-only.
        """
        statements = split_statements(sql)
        if len(statements) != 1:
            return self.execute(sql, tag)
        translated = self._dialect.translate(statements[0])
        kind, returns_rows = self._dialect.classify(translated)
        if not returns_rows:
            return self.execute(sql, tag)
        reader = self._checkout_reader()
        start = time.perf_counter()
        try:
            with self._wrap_errors(repr(translated)):
                result = self._relation_from_cursor(reader.execute(translated))
        finally:
            self._checkin_reader(reader)
        self._record(statements[0], kind, start, result.num_rows, tag)
        return result

    def _run_statement(
        self, statement: str, tag: Optional[str]
    ) -> Union[Relation, int, None]:
        translated = self._dialect.translate(statement)
        kind, returns_rows = self._dialect.classify(translated)
        start = time.perf_counter()
        result: Union[Relation, int, None] = None
        with self._lock, self._wrap_errors(repr(translated)):
            cursor = self._conn.execute(translated)
            if returns_rows:
                result = self._relation_from_cursor(cursor)
                rows_out = result.num_rows
            else:
                # the frontier census prices narrow label updates with it
                rows_out = self._rows_changed(cursor, kind)
                if kind == "Update":
                    result = rows_out
                self._bump_version()
        self._record(statement, kind, start, rows_out, tag)
        return result

    @staticmethod
    def _relation_from_cursor(cursor: Any) -> Relation:
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
    ) -> SQLTableView:
        """Create a table from arrays (NaN rows stored as NULL).

        ``config`` is an embedded-engine storage preset; the engine owns
        its physical layout, so the parameter is accepted and ignored.
        """
        arrays = {col: np.asarray(values) for col, values in data.items()}
        check_equal_lengths(name, arrays)
        with self._lock:
            if replace:
                self.drop_table(name, if_exists=True)
            elif self.has_table(name):
                raise CatalogError(f"table {name!r} already exists")
            self._forget_indexes(name)
            decls = ", ".join(
                f"{col} {self._column_type(arr)}" for col, arr in arrays.items()
            )
            insert = f"INSERT INTO {name} VALUES ({', '.join(['?'] * len(arrays))})"
            rows = zip(*(to_sql_values(arr) for arr in arrays.values()))
            with self._wrap_errors(f"CREATE TABLE {name}"):
                self._conn.execute(f"CREATE TABLE {name} ({decls})")
                # non-empty batches: some drivers reject an empty list
                while batch := list(itertools.islice(rows, _BATCH_ROWS)):
                    self._conn.executemany(insert, batch)
            self._bump_version()
        return SQLTableView(self, name)

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
            with self._wrap_errors(f"DROP TABLE {name}"):
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
            with self._wrap_errors(f"ALTER TABLE {old} RENAME TO {new}"):
                self._conn.execute(f"ALTER TABLE {old} RENAME TO {new}")
            # The physical indexes follow the table; the name-keyed records
            # do not — a future table under either name must re-index.
            self._forget_indexes(old)
            self._forget_indexes(new)
            self._bump_version()

    def table(self, name: str) -> SQLTableView:
        """Lazy column view; :class:`CatalogError` on missing names."""
        if not self.has_table(name):
            raise CatalogError(f"no such table: {name!r}")
        return SQLTableView(self, name)

    def has_table(self, name: str) -> bool:
        """Case-insensitive catalog membership test."""
        with self._lock, self._wrap_errors("has_table"):
            row = self._conn.execute(self._HAS_TABLE_SQL, [name]).fetchone()
        return row[0] > 0

    def table_names(self) -> List[str]:
        """All stored table names (sorted), temporaries included."""
        with self._lock, self._wrap_errors("table_names"):
            rows = self._conn.execute(self._TABLE_NAMES_SQL).fetchall()
        return [r[0] for r in rows]

    def temp_name(self, hint: str = "t") -> str:
        """Mint a fresh ``jb_tmp_{hint}_{n}`` name (thread-safe)."""
        return f"{TEMP_PREFIX}{hint}_{next(self._temp_names)}"

    def cleanup_temp(self, keep: Optional[List[str]] = None) -> int:
        """Drop every ``jb_tmp_`` table not named in ``keep``; return the
        count dropped (the paper's leave-no-trace safety contract)."""
        keep_keys = {k.lower() for k in (keep or [])}
        doomed = [
            n for n in self.table_names()
            if n.startswith(TEMP_PREFIX) and n.lower() not in keep_keys
        ]
        for table_name in doomed:
            self.drop_table(table_name, if_exists=True)
        return len(doomed)

    # ------------------------------------------------------------------
    # Training setup: settings + join-key indexes (the external-engine
    # analogue of the embedded engine's encoded-key cache — build the
    # per-key access structure once per training run, not once per query)
    # ------------------------------------------------------------------
    def prepare_training(self, graph, lifted: Optional[Dict[str, str]] = None) -> float:
        """Apply the engine's settings once, then index the join-key
        columns of :meth:`_setup_tables` (idempotent per (table, keys)).

        Message and absorption queries join on the same key columns
        hundreds of times per tree; without indexes the engine re-scans
        per query.  The time spent is recorded both on
        ``index_seconds`` and as ``"index"``-tagged profiles.
        """
        with self._lock:
            if not self._settings_applied:
                with self._wrap_errors("training settings"):
                    self._apply_settings(self._conn)
                self._settings_applied = True
                if self.profiling_enabled:
                    rendered = ", ".join(f"{s}={v}" for s, v in self._SETTINGS)
                    self.profiles.append(QueryProfile(
                        sql=f"-- training setup: {self._SETTINGS_SCOPE} "
                            f"({rendered})",
                        kind="Pragma",
                        seconds=0.0,
                        rows_out=len(self._SETTINGS),
                        tag="index",
                        started=time.perf_counter(),
                    ))
            return self._index_join_keys(
                graph, self._setup_tables(graph, lifted or {}), "training setup"
            )

    def _index_join_keys(self, graph, tables: Dict[str, str], purpose: str) -> float:
        """Create the missing join-key indexes of ``tables`` (relation ->
        physical table) in edge order, then ANALYZE if any were created
        and the engine wants it."""
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
                    with self._wrap_errors(f"CREATE INDEX {index_name}"):
                        self._conn.execute(
                            f"CREATE INDEX IF NOT EXISTS {index_name} "
                            f"ON {table} ({', '.join(keys)})"
                        )
                    self._indexed.add(ident)
                    created.append(index_name)
            if created and self._ANALYZE:
                # Refresh planner statistics so the fresh indexes get picked.
                with self._wrap_errors("ANALYZE"):
                    self._conn.execute("ANALYZE")
        elapsed = time.perf_counter() - start
        self.index_seconds += elapsed
        if self.profiling_enabled and created:
            analyze = " + ANALYZE" if self._ANALYZE else ""
            self.profiles.append(QueryProfile(
                sql=f"-- {purpose}: {len(created)} join-key indexes{analyze}",
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
            with self._wrap_errors(f"column names of {table_name}"):
                names = self._catalog_column_names(table_name)
        if not names:
            raise CatalogError(f"no such table: {table_name!r}")
        self._schema_cache[key] = (version, names)
        return names

    def _num_rows(self, table_name: str) -> int:
        key = table_name.lower()
        cached = self._rows_cache.get(key)
        if cached is not None and cached[0] == self._data_version:
            return cached[1]
        with self._lock:
            version = self._data_version
            with self._wrap_errors(f"COUNT rows of {table_name}"):
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
            values: List[Any] = []
            with self._wrap_errors(f"fetch {table_name}.{actual}"):
                cursor = self._conn.execute(
                    f"SELECT {actual} FROM {table_name} ORDER BY rowid"
                )
                while rows := cursor.fetchmany(_BATCH_ROWS):
                    values.extend(r[0] for r in rows)
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
        """Close pooled readers, then the owner (idempotent; in-flight
        checkouts fail cleanly afterwards)."""
        with self._pool_lock:
            if self._closed:
                return
            self._closed = True
            readers, self._all_readers = self._all_readers, []
            self._free_readers = []
        for reader in readers:
            with contextlib.suppress(Exception):  # driver teardown races
                reader.close()
        self._conn.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.path!r})"
