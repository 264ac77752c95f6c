"""EmbeddedConnector: the in-process engine behind the Connector protocol.

Wraps :class:`repro.engine.database.Database` — the repo's own DBMS
substrate — and adds the capability flags and dialect identity the
protocol requires.  Unknown attributes forward to the wrapped Database,
so engine-specific surfaces (``catalog``, ``config``, the WAL) stay
reachable for the storage benches that deliberately poke them.

Storage presets ("plain", "x-col", "d-mem", "dp", "d-swap", ...) are
*configurations of this one engine*, not separate backends; the factory
accepts a preset name so ``joinboost.connect(backend="d-swap")`` keeps
working exactly as before the connector layer existed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.backends.base import Capabilities, Connector, register_backend
from repro.engine.database import Database
from repro.engine.operators import ColumnEncoding
from repro.engine.result import Relation
from repro.storage.table import StorageConfig


class EmbeddedConnector(Connector):
    """Connector over the embedded ``Database`` engine."""

    dialect = "embedded"

    def __init__(
        self,
        db: Optional[Database] = None,
        preset: str = "plain",
        name: str = "repro",
    ):
        self._db = db if db is not None else Database(
            config=StorageConfig.preset(preset), name=name
        )
        self.preset = preset if db is None else "custom"
        self.capabilities = Capabilities(
            column_swap=self._db.config.allow_column_swap
            or self._db.config.layout == "external",
            window_functions=True,
            union_all=True,
            narrow_update=True,
            # The audited in-process read path: base relations and the
            # encoding cache are immutable during an evaluation round,
            # get-or-compute encoding is lock-protected, and temp-table
            # registration is serialized behind the catalog lock.
            concurrent_read=True,
        )

    @property
    def db(self) -> Database:
        """The wrapped embedded Database."""
        return self._db

    # -- protocol -------------------------------------------------------
    def execute(self, sql: str, tag: Optional[str] = None) -> Optional[Relation]:
        """Delegate to :meth:`Database.execute` (natively profiled)."""
        return self._db.execute(sql, tag=tag)

    def create_table(
        self,
        name: str,
        data: Dict[str, Union[np.ndarray, Sequence]],
        config=None,
        replace: bool = False,
    ):
        """Create a table honouring the storage ``config`` preset."""
        return self._db.create_table(name, data, config=config, replace=replace)

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        """Drop a stored table (engine raises on missing names)."""
        self._db.drop_table(name, if_exists=if_exists)

    def rename_table(self, old: str, new: str) -> None:
        """Rename a stored table (the swap half of create-and-swap)."""
        self._db.rename_table(old, new)

    def table(self, name: str):
        """Column-view handle onto a stored table."""
        return self._db.table(name)

    def has_table(self, name: str) -> bool:
        """Whether ``name`` is a stored table."""
        return self._db.has_table(name)

    def table_names(self) -> List[str]:
        """All stored table names, temporaries included."""
        return self._db.table_names()

    def temp_name(self, hint: str = "t") -> str:
        """Mint a fresh ``jb_tmp_`` name from the engine catalog."""
        return self._db.temp_name(hint)

    def cleanup_temp(self, keep: Optional[List[str]] = None) -> int:
        """Drop JoinBoost temporaries; returns the count dropped."""
        return self._db.cleanup_temp(keep=keep)

    def replace_column(
        self,
        table_name: str,
        column_name: str,
        values: np.ndarray,
        strategy: str = "swap",
    ) -> None:
        """Replace a stored column via the engine's physical strategy."""
        self._db.replace_column(table_name, column_name, values, strategy)

    def encoding_for(self, table: str, column: str) -> Optional[ColumnEncoding]:
        """The engine's cached key encoding of ``table.column``."""
        return self._db.encoding_for(table, column)

    @property
    def profiles(self):
        """The engine's per-query :class:`QueryProfile` records."""
        return self._db.profiles

    def reset_profiles(self) -> None:
        """Clear the engine's accumulated query profiles."""
        self._db.reset_profiles()

    def profiles_by_tag(self):
        """Group the engine's profiles by census tag."""
        return self._db.profiles_by_tag()

    # -- engine-specific passthrough ------------------------------------
    def __getattr__(self, item):
        return getattr(self._db, item)

    def __repr__(self) -> str:
        return f"EmbeddedConnector({self.preset!r}, {self._db!r})"


def embedded_factory(preset: str = "plain", **kwargs) -> EmbeddedConnector:
    """Registry factory: build an :class:`EmbeddedConnector` preset."""
    return EmbeddedConnector(preset=preset, **kwargs)


register_backend("embedded")(embedded_factory)
for _preset in StorageConfig.PRESETS:
    register_backend(_preset)(
        lambda preset=_preset, **kwargs: EmbeddedConnector(preset=preset, **kwargs)
    )
