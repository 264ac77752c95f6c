"""Catalog: the name -> table mapping plus temp-namespace management.

JoinBoost (Section 5.1, "Safety") never modifies user data: every
intermediate (lifted relations, messages, updated fact tables) is created in
a temporary namespace with a unique prefix and dropped after training unless
the user keeps them for provenance.  The catalog implements that contract.
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict, Iterator, List, Optional

from repro.exceptions import CatalogError
from repro.storage.table import Table

TEMP_PREFIX = "jb_tmp_"


class Catalog:
    """Holds tables by (case-insensitive) name.

    Registration, drops, renames and temp-name minting are serialized
    behind one re-entrant lock: the inter-query task runner's worker
    threads materialize message temps concurrently, and two CREATEs (or
    a CREATE racing a rename) must observe a consistent name map.
    Point reads (``get``/``exists``) stay lock-free — a dict lookup is
    atomic under the GIL, and readers only name tables that are
    immutable for the duration of their round.
    """

    def __init__(self):
        self._tables: Dict[str, Table] = {}
        self._temp_counter = itertools.count()
        self._lock = threading.RLock()

    @staticmethod
    def _key(name: str) -> str:
        return name.lower()

    def create(self, table: Table, replace: bool = False) -> None:
        key = self._key(table.name)
        with self._lock:
            if key in self._tables and not replace:
                raise CatalogError(f"table {table.name!r} already exists")
            self._tables[key] = table

    def get(self, name: str) -> Table:
        try:
            return self._tables[self._key(name)]
        except KeyError:
            raise CatalogError(f"no such table: {name!r}") from None

    def drop(self, name: str, if_exists: bool = False) -> None:
        key = self._key(name)
        with self._lock:
            if key not in self._tables:
                if if_exists:
                    return
                raise CatalogError(f"no such table: {name!r}")
            del self._tables[key]

    def exists(self, name: str) -> bool:
        return self._key(name) in self._tables

    def rename(self, old: str, new: str) -> None:
        with self._lock:
            table = self.get(old)
            if self.exists(new):
                raise CatalogError(f"table {new!r} already exists")
            self.drop(old)
            table.name = new
            self.create(table)

    def names(self) -> List[str]:
        return sorted(t.name for t in self._tables.values())

    def __iter__(self) -> Iterator[Table]:
        return iter(list(self._tables.values()))

    def __len__(self) -> int:
        return len(self._tables)

    # -- temporary namespace (JoinBoost safety contract) ----------------
    def temp_name(self, hint: str = "t") -> str:
        """Mint a fresh name in the temporary namespace."""
        return f"{TEMP_PREFIX}{hint}_{next(self._temp_counter)}"

    def temp_names(self) -> List[str]:
        return [t.name for t in self._tables.values() if t.name.startswith(TEMP_PREFIX)]

    def drop_temp(self, keep: Optional[List[str]] = None) -> int:
        """Drop all temporary tables; returns how many were dropped."""
        keep_keys = {self._key(k) for k in (keep or [])}
        with self._lock:
            doomed = [
                key
                for key, table in self._tables.items()
                if table.name.startswith(TEMP_PREFIX) and key not in keep_keys
            ]
            for key in doomed:
                del self._tables[key]
        return len(doomed)
