"""Pluggable SQL connectors — the system's multi-backend seam.

``connect(backend=...)`` in :mod:`repro.api` resolves names through this
package's registry:

===============  ==========================================================
name             engine
===============  ==========================================================
``embedded``     the in-process engine, ``repro.engine.database.Database``
``plain`` ...    embedded-engine *storage presets* (``x-col``, ``x-row``,
                 ``d-disk``, ``d-mem``, ``dp``, ``d-swap``) — one engine,
                 different physical layouts (the Figure 5/15 benches)
``sqlite``       stdlib ``sqlite3`` via a dialect-translation layer — an
                 actual second DBMS, no extra packages
``duckdb``       the paper's demo engine via the optional ``duckdb``
                 package (``pip install repro[duckdb]``) — a tier-1
                 backend with concurrent reads when installed; raises a
                 guided install error when absent
===============  ==========================================================

See docs/BACKENDS.md for the full backend-authoring contract (every
protocol method, every capability flag and what degrades when it is
off) and docs/DESIGN.md ("Connector layer") for how training consumes
the surface.
"""

from repro.backends.base import (
    BackendError,
    Capabilities,
    Connector,
    backend_names,
    get_backend,
    register_backend,
)
from repro.backends.chaos import (
    ChaosConnector,
    FaultPlan,
    FaultRule,
    RetryConnector,
    wrap_with_chaos,
)
from repro.backends.dbapi import SQLConnector, SQLTableView
from repro.backends.sqlite3_backend import SQLiteConnector
from repro.backends.duckdb_backend import DuckDBConnector
from repro.backends.dialect import DuckDBDialect, SQLiteDialect, split_statements

__all__ = [
    "BackendError",
    "Capabilities",
    "ChaosConnector",
    "Connector",
    "FaultPlan",
    "FaultRule",
    "RetryConnector",
    "wrap_with_chaos",
    "SQLConnector",
    "SQLTableView",
    "SQLiteConnector",
    "DuckDBConnector",
    "DuckDBDialect",
    "SQLiteDialect",
    "split_statements",
    "backend_names",
    "get_backend",
    "register_backend",
]
