"""Query engine: planner, physical operators, updates and the task runner.

``Database`` is the facade the rest of the system talks to; it parses SQL
text (via :mod:`repro.sql`), plans and executes it over the storage layer,
and records a per-query profile (used to reproduce the paper's Figure 9
query census).
"""

from repro.engine.database import Database
from repro.engine.result import QueryProfile, Relation

__all__ = [
    "Database",
    "QueryProfile",
    "Relation",
]
