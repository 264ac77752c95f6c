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

* :class:`~repro.backends.embedded.EmbeddedConnector` — the in-process
  engine under ``repro.engine.database.Database`` (the default);
* :class:`~repro.backends.sqlite3_backend.SQLiteConnector` — stdlib
  ``sqlite3``, an actual second DBMS, with a dialect-translation layer;
* :class:`~repro.backends.duckdb_backend.DuckDBConnector` — DuckDB when
  the optional ``duckdb`` package is installed.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.engine.operators import ColumnEncoding
from repro.engine.result import Relation

# BackendError moved to repro.exceptions (PR 8, error taxonomy) so the
# whole hierarchy lives in one module; re-exported here for compat.
from repro.exceptions import BackendError, StorageError
from repro.storage.catalog import TEMP_PREFIX

#: the logical residual-update strategies every backend must accept
#: (external engines map them all onto their own physical write)
UPDATE_STRATEGIES = ("update", "create", "swap")

__all__ = [
    "BackendError",
    "Capabilities",
    "Connector",
    "TempNamespaceMixin",
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

    #: pointer-swap of a stored column without a write transaction
    column_swap: bool = False
    #: the engine records per-query latency profiles (Figure 9 census)
    query_profiles: bool = False
    #: window functions (``SUM(...) OVER (ORDER BY ...)``) are available;
    #: without them the split finder falls back to client-side prefix scans
    window_functions: bool = True
    #: ``UNION ALL`` is available; without it the frontier evaluator falls
    #: back to one best-split query per (leaf, feature)
    union_all: bool = True
    #: predicated in-place ``UPDATE t SET col = v WHERE ...`` (with
    #: semi-join ``IN`` subqueries) is available; without it the frontier
    #: evaluator keeps per-round label rebuilds instead of maintaining a
    #: persistent leaf-membership column incrementally
    narrow_update: bool = True
    #: concurrent read-only queries from multiple threads are safe (the
    #: connector either pools per-thread connections or has an audited
    #: in-process read path); without it the scheduler never fans
    #: evaluation rounds or forest trees out to a worker pool
    concurrent_read: bool = True
    #: the engine runs inside this process (no network / IPC hop)
    in_process: bool = True
    #: the connector can serialize read-only tasks for *worker processes*
    #: (see :meth:`Connector.process_task_payload`): either the database
    #: is a file another process can open (sqlite's WAL file) or the
    #: referenced base relations pickle cheaply (the embedded engine's
    #: immutable columns); without it ``executor="process"`` falls back
    #: to the thread pool
    process_safe: bool = False


class Connector:
    """Abstract DBMS connector: execute SQL, manage tables, report caps.

    The protocol is intentionally the surface the training stack already
    consumes, so a bare :class:`~repro.engine.database.Database` is itself
    protocol-compatible; :class:`EmbeddedConnector` wraps one to add the
    capability flags and dialect identity.
    """

    #: dialect tag ("embedded", "sqlite", "duckdb") for diagnostics
    dialect: str = "unknown"
    capabilities: Capabilities = Capabilities()

    # -- statement execution -------------------------------------------
    def execute(self, sql: str, tag: Optional[str] = None) -> Optional[Relation]:
        """Run one or more ``;``-separated statements on the owner handle.

        Returns the final SELECT's result as a
        :class:`~repro.engine.result.Relation`, or ``None`` if the last
        statement was DDL/DML.  This is the *mutating* entry point: any
        statement may write, so implementations serialize calls on the
        owning connection (single writer).  ``tag`` labels the resulting
        :class:`QueryProfile` for the census (``"feature"``,
        ``"message"``, ``"frontier"``, ...).  Raises
        :class:`~repro.exceptions.ExecutionError` on engine errors and
        :class:`~repro.exceptions.CatalogError` on missing/duplicate
        tables where the statement makes that distinction.
        """
        raise NotImplementedError

    def execute_read(self, sql: str, tag: Optional[str] = None) -> Optional[Relation]:
        """Run a read-only query from any thread.

        The scheduler's worker pool issues the frontier's fused split
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
        sqlite connector creates indexes on every join-key column
        (including the lifted fact's) and refreshes planner statistics
        with ``ANALYZE``; the embedded engine pre-warms its encoded-key
        cache through :meth:`Factorizer.warm_encodings` instead.  Returns
        the seconds spent (0.0 for the default no-op).
        """
        return 0.0

    # -- cached key encodings (optional, read-only) ------------------------
    def encoding_for(self, table: str, column: str) -> Optional[ColumnEncoding]:
        """The cached dictionary encoding of one stored column, or ``None``.

        An engine that keeps version-stamped
        :class:`~repro.engine.operators.ColumnEncoding` objects for its
        key columns (the embedded engine's encoding cache) returns the
        current one; key scoring then gathers the matching rows from it
        instead of rendering a statement
        (:func:`repro.core.predict.gather_frame`).  Engines that own
        their storage return ``None`` and keep the SQL path, where their
        optimizer pushes the key predicate down.  The hook runs no
        statement, so there is nothing for a proxy to intercept: the
        default resolves through :attr:`unwrapped`, and a chaos, retry
        or timing wrapper inherits the backend's answer unchanged.
        """
        inner = self.unwrapped
        return None if inner is self else inner.encoding_for(table, column)

    # -- process-worker serialization ------------------------------------
    def process_task_payload(
        self, sql: str, tag: Optional[str] = None
    ) -> Optional[Dict[str, object]]:
        """Serialize one read-only query as a worker-process task spec.

        Connectors with ``capabilities.process_safe`` return a plain-data
        payload dict that :func:`repro.engine.procpool.execute_task_payload`
        can execute in a *different process* — rebuilding its own database
        handle from the spec — with a result bit-identical to running
        ``execute_read(sql)`` here.  Returning ``None`` declines (the
        statement writes, is multi-statement, or references state that
        does not serialize); the scheduler then runs the query inline.
        The default declines everything, which is the correct behavior
        for connectors that never set ``process_safe``.
        """
        return None

    # -- profiling -------------------------------------------------------
    #: per-query :class:`~repro.engine.database.QueryProfile` records;
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


#: guards lazy per-connector counter creation only (next() itself is
#: atomic); without it, two scheduler threads' *first-ever* temp_name
#: calls on a fresh connector could each build a counter and collide
_TEMP_NAME_INIT_LOCK = threading.Lock()


class TempNamespaceMixin:
    """Counter-minted ``jb_tmp_`` names + cleanup for external engines.

    Requires ``table_names()`` and ``drop_table(name, if_exists=True)``
    from the host connector.  Names mint through ``itertools.count`` —
    ``next()`` is atomic in CPython, so concurrent scheduler tasks
    (parallel forest trees each lifting and messaging) can never be
    handed the same temp name.
    """

    def temp_name(self, hint: str = "t") -> str:
        """Mint a fresh ``jb_tmp_{hint}_{n}`` name (thread-safe)."""
        counter = getattr(self, "_temp_name_counter", None)
        if counter is None:
            with _TEMP_NAME_INIT_LOCK:
                counter = getattr(self, "_temp_name_counter", None)
                if counter is None:
                    counter = self._temp_name_counter = itertools.count(1)
        return f"{TEMP_PREFIX}{hint}_{next(counter)}"

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
