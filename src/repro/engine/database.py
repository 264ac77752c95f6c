"""The Database facade: parse, plan, execute, profile.

This is the object that stands in for DuckDB / DBMS-X.  JoinBoost's
connector hands it SQL strings; it returns :class:`Relation` results and
keeps a per-query profile (kind, latency, rows) that the Figure 9 census
bench reads back.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.exceptions import CatalogError, ExecutionError, PlanError
from repro.sql import ast_nodes as ast
from repro.sql.expressions import Frame, evaluate
from repro.sql.parser import parse
from repro.engine import operators as ops
from repro.engine.encodings import EncodingCache
from repro.engine.planner import run_query, run_select, _precompute_subqueries
from repro.engine.result import Relation
from repro.storage.catalog import Catalog
from repro.storage.column import Column
from repro.storage.mvcc import VersionStore
from repro.storage.table import ColumnTable, StorageConfig, Table
from repro.storage.wal import WriteAheadLog


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


class Database:
    """An embedded single-process database over the storage substrate."""

    def __init__(self, config: Optional[StorageConfig] = None, name: str = "repro"):
        self.name = name
        self.config = config or StorageConfig()
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
        # Plan cache: statement ASTs keyed by SQL text (DBMSes cache plans;
        # JoinBoost re-issues structurally identical statements constantly).
        self._parse_cache: Dict[str, List[ast.Statement]] = {}

    # ------------------------------------------------------------------
    # Table management
    # ------------------------------------------------------------------
    def table(self, name: str) -> Table:
        return self.catalog.get(name)

    def has_table(self, name: str) -> bool:
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
        self._forget_encodings(name)
        self.catalog.drop(name, if_exists=if_exists)

    def rename_table(self, old: str, new: str) -> None:
        # Renames preserve table identity (uid): cached encodings stay
        # valid because the data did not move.
        self.catalog.rename(old, new)

    def encoding_for(self, table: str, column: str) -> Optional[ops.ColumnEncoding]:
        """The cached, version-stamped key encoding of one stored column
        (the Connector protocol's ``encoding_for`` hook); ``None`` when
        the encoding cache is off or the column is exempt from it."""
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
    def execute(self, sql_text: str, tag: Optional[str] = None) -> Optional[Relation]:
        """Execute one or more ``;``-separated statements.

        Returns the result of the final SELECT, or ``None`` if the last
        statement was DDL/DML.
        """
        statements = self._parse_cache.get(sql_text)
        if statements is None:
            statements = parse(sql_text)
            if len(self._parse_cache) > 4096:
                self._parse_cache.clear()
            self._parse_cache[sql_text] = statements
        result: Optional[Relation] = None
        for statement in statements:
            result = self._run_statement(statement, tag=tag)
        return result

    def execute_read(self, sql_text: str, tag: Optional[str] = None) -> Optional[Relation]:
        """Concurrency-safe read entry point (the Connector protocol's
        ``execute_read``).  The embedded engine executes in-process over
        immutable-during-a-round storage: SELECTs from worker threads
        read shared arrays, the encoding cache's get-or-compute is
        lock-protected, and catalog mutations are serialized behind the
        catalog lock — so the plain execute path is the read path.
        """
        return self.execute(sql_text, tag=tag)

    def _run_statement(self, statement: ast.Statement, tag: Optional[str]) -> Optional[Relation]:
        start = time.perf_counter()
        encode_before = ops.encode_census()
        kind = type(statement).__name__
        result: Optional[Relation] = None
        if isinstance(statement, (ast.Select, ast.UnionAll)):
            result = run_query(statement, self)
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
            rows_affected = self._run_update(statement)
        else:
            raise ExecutionError(f"unsupported statement {kind}")
        elapsed = time.perf_counter() - start
        if self.profiling_enabled:
            encode_after = ops.encode_census()
            if result is not None:
                rows_out = result.num_rows
            elif isinstance(statement, ast.Update):
                # Rows the WHERE matched — the frontier census reads this
                # to price narrow label updates by rows actually moved.
                rows_out = rows_affected
            else:
                rows_out = 0
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
        mask = None
        affected = table.num_rows()
        if statement.where is not None:
            _precompute_subqueries(statement.where, self, context)
            mask = np.asarray(evaluate(statement.where, frame, context), dtype=bool)
            affected = int(mask.sum())
        # Evaluate every assignment against the pre-update row values
        # before applying any write (SQL semantics: `SET a = b, b = a`
        # swaps) — the in-place masked write below would otherwise feed
        # already-updated values into later assignments.
        computed = []
        for col_name, expr in statement.assignments:
            _precompute_subqueries(expr, self, context)
            new_values = np.asarray(evaluate(expr, frame, context))
            if new_values.ndim == 0:
                new_values = np.full(table.num_rows(), new_values[()])
            elif mask is not None:
                # Snapshot: evaluate() may return a view of a stored
                # array that a later in-place masked write would mutate.
                new_values = new_values.copy()
            computed.append((col_name, new_values))
        for col_name, new_values in computed:
            if mask is not None:
                # Partial write: only the matched rows are touched (the
                # in-place fast path when the storage config allows it).
                apply_masked_update(
                    self, statement.table, col_name, new_values, mask
                )
            else:
                old = table.column(col_name)
                table.set_column(Column(col_name, new_values, old.ctype))
        return affected

    # ------------------------------------------------------------------
    # Profiling helpers (Figure 9)
    # ------------------------------------------------------------------
    def reset_profiles(self) -> None:
        self.profiles.clear()

    def profiles_by_tag(self) -> Dict[str, List[QueryProfile]]:
        grouped: Dict[str, List[QueryProfile]] = {}
        for profile in self.profiles:
            grouped.setdefault(profile.tag or "untagged", []).append(profile)
        return grouped

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def table_names(self) -> List[str]:
        return self.catalog.names()

    def nbytes(self) -> int:
        return sum(t.nbytes() for t in self.catalog)

    def __repr__(self) -> str:
        return f"Database({self.name!r}, tables={len(self.catalog)})"
