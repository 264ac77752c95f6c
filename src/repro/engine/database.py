"""The Database facade: parse, plan, execute, profile.

This is the object that stands in for DuckDB / DBMS-X, and the embedded
engine's :class:`~repro.backends.base.Connector`: JoinBoost hands it SQL
strings; it returns :class:`Relation` results and keeps a per-query
profile (kind, latency, rows) that the Figure 9 census bench reads back.

Storage presets ("plain", "x-col", "d-mem", "dp", "d-swap", ...) are
configurations of this one engine, registered as backends so that
``connect(backend="d-swap")`` builds a ``Database`` of that preset.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.backends.base import Capabilities, Connector, register_backend
from repro.exceptions import ExecutionError, SQLError
from repro.sql import ast_nodes as ast
from repro.sql.expressions import Frame, as_objects, evaluate, restrict
from repro.sql.parser import parse
from repro.sql.shapes import Shape, normalize
from repro.engine import operators as ops
from repro.engine.encodings import EncodingCache
from repro.engine.planner import run_query, _precompute_subqueries
from repro.engine.result import QueryProfile, Relation
from repro.storage.catalog import Catalog
from repro.storage.column import Column, ColumnType
from repro.storage.mvcc import VersionStore
from repro.storage.table import StorageConfig, Table
from repro.storage.wal import WriteAheadLog

#: statement shapes whose parsed ASTs the plan cache keeps
PARSE_CACHE_SIZE = 256


class Database(Connector):
    """An embedded single-process database over the storage substrate."""

    dialect = "embedded"

    def __init__(self, config: Optional[StorageConfig] = None, name: str = "repro"):
        self.name = name
        self.config = config or StorageConfig()
        # Every other flag keeps its default, True.  concurrent_read holds
        # because the plain execute path is the read path: base relations
        # and the encoding cache are immutable during an evaluation round,
        # get-or-compute encoding is lock-protected, and catalog mutations
        # are serialized behind the catalog lock.
        self.capabilities = Capabilities(
            column_swap=self.config.allow_column_swap
            or self.config.layout == "external",
        )
        self.catalog = Catalog()
        self._wal = (
            WriteAheadLog(sync=self.config.wal_sync) if self.config.wal else None
        )
        self._mvcc = VersionStore() if self.config.mvcc else None
        self.profiles: List[QueryProfile] = []
        self.profiling_enabled = True
        # Encoded-key cache: dictionary codes per (table uid, column,
        # version).  Immutable base relations factorize once per training
        # run instead of once per query; version stamps make any mutation
        # (UPDATE, replace_column, swap, WAL/MVCC write) detectable.
        self.encodings = EncodingCache()
        # Plan cache: parsed statement shapes keyed by shape key (DBMSes
        # cache plans; JoinBoost re-issues a few dozen shapes with fresh
        # temp names and literals, see repro.sql.shapes).  Bounded, oldest
        # entry evicted first; worker threads miss concurrently, so
        # inserts and evictions share one lock.
        self._parse_cache: Dict[str, Shape] = {}
        self._parse_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Table management
    # ------------------------------------------------------------------
    def table(self, name: str) -> Table:
        """The stored table ``name`` (case-insensitive; raises when absent)."""
        return self.catalog.get(name)

    def has_table(self, name: str) -> bool:
        """Whether a table ``name`` exists."""
        return self.catalog.exists(name)

    def register(self, table: Table, replace: bool = False) -> None:
        """Register an externally built table (e.g. the DP fact dataframe)."""
        if replace:
            self._forget_encodings(table.name)
        self.catalog.create(table, replace=replace)

    def create_table(
        self,
        name: str,
        data: Dict[str, Union[np.ndarray, Sequence]],
        config: Optional[StorageConfig] = None,
        replace: bool = False,
    ) -> Table:
        """Create a table from a column-name -> array mapping."""
        columns = [Column(col_name, np.asarray(values)) for col_name, values in data.items()]
        table = Table.from_columns(
            name, columns, config or self.config, wal=self._wal, mvcc=self._mvcc
        )
        if replace:
            self._forget_encodings(name)
        self.catalog.create(table, replace=replace)
        return table

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        """Drop table ``name`` and release its cached encodings."""
        self._forget_encodings(name)
        self.catalog.drop(name, if_exists=if_exists)

    def rename_table(self, old: str, new: str) -> None:
        """Rename table ``old`` to ``new``, keeping its identity."""
        # Renames preserve table identity (uid): cached encodings stay
        # valid because the data did not move.
        self.catalog.rename(old, new)

    def encoding_for(self, table: str, column: str) -> ops.ColumnEncoding:
        """The version-stamped key encoding of one stored column (the
        Connector protocol's ``encoding_for`` hook): cached, or encoded
        fresh for a column exempt from the cache — never ``None``."""
        return self.encodings.encoding_for(self.table(table).column(column))

    def _forget_encodings(self, name: str) -> None:
        """Release cache entries of a table that is about to disappear."""
        if self.catalog.exists(name):
            self.encodings.invalidate_table(self.catalog.get(name).uid)

    def replace_column(
        self,
        table_name: str,
        column_name: str,
        values,
        strategy: str = "swap",
    ) -> None:
        """Replace one stored column (residual updates, Section 5.4)."""
        from repro.engine.update import embedded_column_update

        embedded_column_update(self, table_name, column_name, values, strategy)

    def temp_name(self, hint: str = "t") -> str:
        """A fresh ``jb_tmp_<hint>_<n>`` table name."""
        return self.catalog.temp_name(hint)

    def cleanup_temp(self, keep: Optional[List[str]] = None) -> int:
        """Drop JoinBoost's temporary tables (the safety contract)."""
        keep_keys = {k.lower() for k in (keep or [])}
        for temp in self.catalog.temp_names():
            if temp.lower() not in keep_keys:
                self._forget_encodings(temp)
        return self.catalog.drop_temp(keep=keep)

    # ------------------------------------------------------------------
    # Statement execution
    # ------------------------------------------------------------------
    def execute(
        self, sql_text: str, tag: Optional[str] = None
    ) -> Union[Relation, int, None]:
        """Execute one or more ``;``-separated statements.

        Returns the result of the final SELECT, the rows its ``WHERE``
        matched if the last statement was an ``UPDATE``, or ``None``
        after DDL.
        """
        result: Union[Relation, int, None] = None
        for statement in self._parse(sql_text):
            result = self._run_statement(statement, tag=tag)
        return result

    def _parse(self, sql_text: str) -> List[ast.Statement]:
        """The statements of ``sql_text``, bound into its cached shape."""
        key, slots = normalize(sql_text)
        shape = self._parse_cache.get(key)
        if shape is None:
            try:
                shape = Shape(key, slots)
            except (SQLError, ValueError):
                return parse(sql_text)  # the text's own error (or statements)
            with self._parse_lock:
                self._parse_cache[key] = shape
                if len(self._parse_cache) > PARSE_CACHE_SIZE:
                    # dicts keep insertion order: the first key is oldest
                    del self._parse_cache[next(iter(self._parse_cache))]
        return shape.bind(sql_text, slots)

    def _run_statement(
        self, statement: ast.Statement, tag: Optional[str]
    ) -> Union[Relation, int, None]:
        start = time.perf_counter()
        encode_before = ops.thread_encode_census()
        kind = type(statement).__name__
        result: Union[Relation, int, None] = None
        rows_out = 0
        if isinstance(statement, (ast.Select, ast.UnionAll)):
            result = run_query(statement, self)
            rows_out = result.num_rows
        elif isinstance(statement, ast.CreateTableAs):
            relation = run_query(statement.query, self)
            table = Table.from_columns(
                statement.name, relation.columns(), self.config,
                wal=self._wal, mvcc=self._mvcc,
            )
            if statement.replace:
                self._forget_encodings(statement.name)
            self.catalog.create(table, replace=statement.replace)
        elif isinstance(statement, ast.DropTable):
            self._forget_encodings(statement.name)
            self.catalog.drop(statement.name, if_exists=statement.if_exists)
        elif isinstance(statement, ast.Update):
            # Rows the WHERE matched: the frontier census prices narrow
            # label updates by the rows they moved.
            result = rows_out = self._run_update(statement)
        else:
            raise ExecutionError(f"unsupported statement {kind}")
        elapsed = time.perf_counter() - start
        if self.profiling_enabled:
            encode_after = ops.thread_encode_census()
            self.profiles.append(
                QueryProfile(
                    sql=statement.sql(),
                    kind=kind,
                    seconds=elapsed,
                    rows_out=rows_out,
                    tag=tag,
                    encode_passes=int(
                        encode_after["passes"] - encode_before["passes"]
                    ),
                    encode_seconds=float(
                        encode_after["seconds"] - encode_before["seconds"]
                    ),
                    started=start,
                )
            )
        return result

    def _run_update(self, statement: ast.Update) -> int:
        from repro.engine.update import apply_masked_update

        table = self.catalog.get(statement.table)
        frame = Frame(table.num_rows())
        for col in table.columns():
            frame.bind(col, binding=statement.table)
        context: Dict[int, object] = {"__encodings__": self.encodings}
        rows = None
        if statement.where is not None:
            _precompute_subqueries(statement.where, self, context)
            mask = np.asarray(evaluate(statement.where, frame, context), dtype=bool)
            rows = np.flatnonzero(mask)
        # SET is evaluated over the rows WHERE matched only, and every
        # assignment against the pre-update values before any write (SQL
        # semantics: `SET a = b, b = a` swaps).
        sub, sub_context = restrict(frame, context, rows)
        computed = []
        for col_name, expr in statement.assignments:
            _precompute_subqueries(expr, self, sub_context)
            new_values = np.asarray(evaluate(expr, sub, sub_context))
            if new_values.ndim == 0:
                new_values = np.full(sub.num_rows, new_values[()])
            elif rows is not None:
                # Snapshot: evaluate() may return a view of a stored
                # array that a later write would replace or mutate.
                new_values = new_values.copy()
            computed.append((col_name, new_values))
        for col_name, new_values in computed:
            if rows is not None:
                # Partial write: only the matched rows are touched (the
                # pointer-swap fast path when the storage config allows it).
                apply_masked_update(
                    self, statement.table, col_name, new_values, rows
                )
            else:
                old = table.column(col_name)
                if old.ctype is ColumnType.STR:
                    new_values = as_objects(new_values)
                table.set_column(Column(col_name, new_values, old.ctype))
        return table.num_rows() if rows is None else len(rows)

    # ------------------------------------------------------------------
    # Profiling helpers (Figure 9)
    # ------------------------------------------------------------------
    def reset_profiles(self) -> None:
        """Forget every recorded query profile."""
        self.profiles.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def table_names(self) -> List[str]:
        """The names of every stored table."""
        return self.catalog.names()

    def nbytes(self) -> int:
        """Approximate in-memory bytes of every stored table."""
        return sum(t.nbytes() for t in self.catalog)

    def __repr__(self) -> str:
        return f"Database({self.name!r}, tables={len(self.catalog)})"


def _preset_factory(preset: str):
    return lambda name="repro": Database(
        config=StorageConfig.preset(preset), name=name
    )


register_backend("embedded")(_preset_factory("plain"))
for _preset in StorageConfig.PRESETS:
    register_backend(_preset)(_preset_factory(_preset))
