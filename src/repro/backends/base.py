"""The Connector protocol — JoinBoost's one-DBMS-wide waist.

The paper's portability claim (Section 5.1) is that the Factorizer emits
*only SQL*, so training runs unchanged atop any DBMS.  This module pins
down the exact surface that claim needs: a :class:`Connector` executes
SQL strings and returns :class:`~repro.engine.result.Relation` results,
manages tables and a temporary namespace, and advertises what its engine
can do via :class:`Capabilities`.  Everything above this layer — the
Factorizer, trainers, residual updaters, benches — talks to a Connector
and never to a concrete engine.

Three implementations ship:

* :class:`~repro.engine.database.Database` — the in-process engine (the
  default), a connector in its own right;
* :class:`~repro.backends.sqlite3_backend.SQLiteConnector` — stdlib
  ``sqlite3``, an actual second DBMS, with a dialect-translation layer;
* :class:`~repro.backends.duckdb_backend.DuckDBConnector` — DuckDB when
  the optional ``duckdb`` package is installed.
"""

from __future__ import annotations

import dataclasses
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Union,
)

import numpy as np

# Annotation-only: repro.engine.database subclasses Connector, so a
# runtime import of the engine package from here would be circular.
if TYPE_CHECKING:
    from repro.engine.operators import ColumnEncoding
    from repro.engine.result import Relation

# BackendError moved to repro.exceptions (PR 8, error taxonomy) so the
# whole hierarchy lives in one module; re-exported here for compat.
from repro.exceptions import BackendError, StorageError

#: the logical residual-update strategies every backend must accept
#: (external engines map them all onto their own physical write)
UPDATE_STRATEGIES = ("update", "create", "swap")

__all__ = [
    "BackendError",
    "Capabilities",
    "Connector",
    "UPDATE_STRATEGIES",
    "backend_names",
    "check_equal_lengths",
    "check_update_strategy",
    "column_from_values",
    "get_backend",
    "register_backend",
    "to_sql_values",
]


def check_update_strategy(strategy: str) -> None:
    """Reject typo'd strategies uniformly across backends (the embedded
    engine raises the same error from its physical dispatch)."""
    if strategy not in UPDATE_STRATEGIES:
        raise StorageError(f"unknown update strategy {strategy!r}")


@dataclasses.dataclass(frozen=True)
class Capabilities:
    """What a connector's engine supports; callers branch on these flags
    instead of isinstance-checking connectors."""

    #: pointer-swap of a stored column without a write transaction; without
    #: it the residual updater resolves ``update_strategy="swap"`` to one
    #: in-DBMS ``UPDATE`` per tree
    column_swap: bool = False
    #: ``UNION ALL`` is available; without it the frontier evaluator falls
    #: back to one best-split query per (leaf, feature)
    union_all: bool = True
    #: predicated in-place ``UPDATE t SET col = v WHERE ...`` (with
    #: semi-join ``IN`` subqueries) is available; batched frontier rounds
    #: read the persistent leaf-membership column it maintains, so without
    #: it the frontier evaluator falls back to one best-split query per
    #: (leaf, feature)
    narrow_update: bool = True
    #: concurrent read-only queries from multiple threads are safe (the
    #: connector either pools per-thread connections or has an audited
    #: in-process read path); without it training never fans
    #: evaluation rounds or forest trees out to a worker pool
    concurrent_read: bool = True


class Connector:
    """Abstract DBMS connector: execute SQL, manage tables, report caps.

    Every engine the trainer runs on is one of these, the embedded
    :class:`~repro.engine.database.Database` included, so training and
    serving read :attr:`capabilities` and call the protocol methods
    without fallbacks.
    """

    #: dialect tag ("embedded", "sqlite", "duckdb") for diagnostics
    dialect: str = "unknown"
    capabilities: Capabilities = Capabilities()

    # -- statement execution -------------------------------------------
    def execute(
        self, sql: str, tag: Optional[str] = None
    ) -> Union[Relation, int, None]:
        """Run one or more ``;``-separated statements on the owner handle.

        Returns the final SELECT's result as a
        :class:`~repro.engine.result.Relation`, the number of rows its
        ``WHERE`` matched if the last statement was an ``UPDATE``, or
        ``None`` after other DDL/DML.  This is the *mutating* entry
        point: any statement may write, so implementations serialize
        calls on the owning connection (single writer).  ``tag`` labels
        the resulting :class:`QueryProfile` for the census
        (``"feature"``, ``"message"``, ``"frontier_delta"``, ...).  Raises
        :class:`~repro.exceptions.ExecutionError` on engine errors and
        :class:`~repro.exceptions.CatalogError` on missing/duplicate
        tables where the statement makes that distinction.
        """
        raise NotImplementedError

    def execute_read(
        self, sql: str, tag: Optional[str] = None
    ) -> Union[Relation, int, None]:
        """Run a read-only query from any thread.

        The task runner's worker pool issues the frontier's fused split
        queries through this entry point.  Connectors with per-thread
        resources (the sqlite pool) execute rows-returning statements on
        the calling thread's own connection; anything that writes is
        funneled back through :meth:`execute` (the owning connection).
        The default delegates to :meth:`execute`, which is correct for
        engines whose read path is natively thread-safe.
        """
        return self.execute(sql, tag=tag)

    # -- table management ----------------------------------------------
    def create_table(
        self,
        name: str,
        data: Dict[str, Union[np.ndarray, Sequence]],
        config=None,
        replace: bool = False,
    ):
        """Create a table from a column-name -> array mapping.

        ``config`` is a storage preset understood by the embedded engine;
        external engines accept and ignore it (their storage layout is
        their own business).
        """
        raise NotImplementedError

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        """Drop a stored table (a mutation; owner-serialized).

        Raises :class:`~repro.exceptions.CatalogError` when ``name`` does
        not exist unless ``if_exists`` is set, matching the embedded
        engine's semantics so callers can rely on one behavior.
        """
        raise NotImplementedError

    def rename_table(self, old: str, new: str) -> None:
        """Rename ``old`` to ``new`` (a mutation; owner-serialized).

        The swap half of create-and-swap residual updates.  Raises
        :class:`~repro.exceptions.CatalogError` when ``old`` is missing
        or ``new`` already exists.
        """
        raise NotImplementedError

    def table(self, name: str):
        """A read view of a stored table: ``column_names()``,
        ``num_rows()``, ``column(name) -> Column``, ``in`` support."""
        raise NotImplementedError

    def has_table(self, name: str) -> bool:
        """Whether ``name`` is a stored table (read-only, never raises)."""
        raise NotImplementedError

    def table_names(self) -> List[str]:
        """All stored table names, including ``jb_tmp_`` temporaries.

        Read-only; :meth:`cleanup_temp` filters this list by prefix, so
        external engines must report their catalog faithfully.
        """
        raise NotImplementedError

    # -- temporary namespace (the paper's safety contract) --------------
    def temp_name(self, hint: str = "t") -> str:
        """Mint a fresh name in the temporary namespace."""
        raise NotImplementedError

    def cleanup_temp(self, keep: Optional[List[str]] = None) -> int:
        """Drop JoinBoost's temporary tables; returns how many dropped."""
        raise NotImplementedError

    # -- physical column replacement (residual updates, Section 5.4) ----
    def replace_column(
        self,
        table_name: str,
        column_name: str,
        values: np.ndarray,
        strategy: str = "swap",
    ) -> None:
        """Replace one stored column with ``values`` (row order preserved).

        ``strategy`` is the physical method the embedded engine honours
        (``update`` / ``create`` / ``swap``); engines without exposed
        storage internals implement whatever their fastest equivalent is.
        """
        raise NotImplementedError

    # -- training setup ---------------------------------------------------
    def prepare_training(self, graph, lifted: Optional[Dict[str, str]] = None) -> float:
        """One-time physical setup before message passing starts.

        ``graph`` is the join graph about to be trained on and ``lifted``
        maps relations to their lifted physical tables.  Engines use this
        to build access paths the training workload will hammer — the
        sqlite connector creates indexes on the join-key columns of the
        relations that are not lifted and refreshes planner statistics
        with ``ANALYZE``; the embedded engine pre-warms its encoded-key
        cache through :meth:`Factorizer.warm_encodings` instead.
        Idempotent.  Returns the seconds spent (0.0 for the default no-op).
        """
        return 0.0

    def index_lifted(self, graph, lifted: Dict[str, str]) -> float:
        """Build the lifted tables' join-key access paths (idempotent).

        The per-leaf split path calls this once, before its first
        statement: its standard messages out of the lifted fact group by
        the join key, an access path the batched frontier never uses —
        so an engine whose :meth:`prepare_training` leaves lifted tables
        unindexed builds the index here (the sqlite connector).  The
        default resolves through :attr:`unwrapped`, so chaos, retry and
        timing wrappers reach the backend's implementation; a backend
        without one returns 0.0.  Returns the seconds spent.
        """
        inner = self.unwrapped
        return 0.0 if inner is self else inner.index_lifted(graph, lifted)

    # -- cached key encodings (optional, read-only) ------------------------
    def encoding_for(self, table: str, column: str) -> Optional[ColumnEncoding]:
        """The cached dictionary encoding of one stored column, or ``None``.

        An engine that keeps version-stamped
        :class:`~repro.engine.operators.ColumnEncoding` objects for its
        key columns (the embedded engine's encoding cache) returns the
        current one; key scoring then finds the matching rows in it
        (:func:`repro.core.predict.key_rows`) instead of rendering a
        statement.  Engines that own their storage return ``None`` and
        keep the SQL path, where their optimizer pushes the key
        predicate down; client-side frames
        (:func:`repro.core.predict.feature_frame`) then encode their
        column snapshots once per data version.  The hook runs no
        statement, so there is nothing for a proxy to intercept: the
        default resolves through :attr:`unwrapped`, and a chaos, retry
        or timing wrapper inherits the backend's answer unchanged.
        """
        inner = self.unwrapped
        return None if inner is self else inner.encoding_for(table, column)

    # -- retired hook ------------------------------------------------------
    def process_task_payload(
        self, sql: str, tag: Optional[str] = None
    ) -> Optional[Dict[str, object]]:
        """Always ``None``.  Nothing in the program calls this: it
        survives only because the bench spine's timing connector
        forwards it and the spine smoke test asserts on the forward."""
        return None

    # -- profiling -------------------------------------------------------
    #: per-query :class:`~repro.engine.result.QueryProfile` records;
    #: connectors that profile shadow this with an instance list
    profiles: Sequence = ()

    def reset_profiles(self) -> None:
        """Clear accumulated query profiles (no-op for non-profiling
        engines); the bench harness calls this between measured legs."""
        pass

    def profiles_by_tag(self) -> Dict[str, list]:
        """Group :attr:`profiles` by their census tag (``"untagged"``
        collects profiles whose statement carried no tag)."""
        grouped: Dict[str, list] = {}
        for profile in self.profiles:
            grouped.setdefault(profile.tag or "untagged", []).append(profile)
        return grouped

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Release engine resources (connections, scratch directories).

        Must be idempotent — training drivers and tests call it from
        ``finally`` blocks that may run after an explicit close.  After
        closing, further statement execution may raise.
        """
        pass

    @property
    def unwrapped(self) -> "Connector":
        """The innermost backend behind any proxy stack (self here).

        ``connect(..., chaos=..., retry=...)`` layers fault-injection
        and retry proxies over the backend; code that needs the concrete
        connector (type checks, engine internals) reaches it here
        without knowing how many wrappers are in the way.
        """
        return self

    def __enter__(self) -> "Connector":
        """Context-manager support: ``with connect(...) as db:``."""
        return self

    def __exit__(self, *exc) -> None:
        """Close the connector on context exit (exceptions propagate)."""
        self.close()


# ---------------------------------------------------------------------------
# Row <-> Column marshalling shared by the external connectors
# ---------------------------------------------------------------------------
def column_from_values(name: str, values: Sequence) -> "Column":
    """Build a typed, null-masked Column from driver row values.

    None is the SQL NULL; it maps to the embedded engine's convention
    (NaN + validity mask for floats, masked zeros for ints).
    """
    from repro.storage.column import Column, ColumnType

    present = [v for v in values if v is not None]
    if not present:
        return Column(name, np.full(len(values), np.nan))
    if any(isinstance(v, str) for v in present):
        array = np.array(
            [None if v is None else str(v) for v in values], dtype=object
        )
        valid = np.array([v is not None for v in values], dtype=bool)
        return Column(name, array, ColumnType.STR,
                      None if valid.all() else valid)
    if all(isinstance(v, int) for v in present):
        if len(present) == len(values):
            return Column(name, np.array(values, dtype=np.int64))
        array = np.array([0 if v is None else v for v in values],
                         dtype=np.int64)
        valid = np.array([v is not None for v in values], dtype=bool)
        return Column(name, array, ColumnType.INT, valid)
    array = np.array(
        [np.nan if v is None else float(v) for v in values], dtype=np.float64
    )
    return Column(name, array)


def to_sql_values(array: np.ndarray) -> List:
    """NumPy array -> driver parameter list (NaN becomes NULL)."""
    import math

    kind = array.dtype.kind
    if kind == "f":
        return [None if math.isnan(v) else float(v) for v in array.tolist()]
    if kind in ("i", "u", "b"):
        return [int(v) for v in array.tolist()]
    return [None if v is None else str(v) for v in array.tolist()]


def check_equal_lengths(name: str, arrays: Dict[str, np.ndarray]) -> None:
    """Ragged create_table input fails loudly, matching the embedded
    engine, instead of zip() silently truncating to the shortest."""
    lengths = {col: len(arr) for col, arr in arrays.items()}
    if len(set(lengths.values())) > 1:
        raise StorageError(
            f"table {name!r} columns have unequal lengths: {lengths}"
        )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
_BACKENDS: Dict[str, Callable[..., Connector]] = {}


def register_backend(*names: str):
    """Class decorator: register a connector factory under ``names``."""

    def _wrap(factory):
        for name in names:
            _BACKENDS[name.lower()] = factory
        return factory

    return _wrap


def backend_names() -> List[str]:
    """All registered backend names (sorted, for error messages)."""
    return sorted(_BACKENDS)


def get_backend(backend: str, **kwargs) -> Connector:
    """Instantiate the connector registered under ``backend``."""
    try:
        factory = _BACKENDS[backend.lower()]
    except KeyError:
        raise BackendError(
            f"unknown backend {backend!r}; "
            f"available: {', '.join(backend_names())}"
        ) from None
    return factory(**kwargs)
