"""Message cache: the work-sharing engine of Sections 3.3 and 5.5.1.

A message between relations depends only on (a) the directed edge it
crosses and (b) the selection predicates applied to relations in the
sending side's connected component — *not* on which relation is the
message-passing root.  The cache is therefore keyed by
``(child, parent, predicate-state of child's side)`` which automatically
yields both kinds of sharing the paper exploits:

* across the per-feature query batch of one tree node (LMFAO-style), and
* across tree nodes: after splitting on a relation R, only messages whose
  side contains R are invalidated; everything else is reused (the ~3×
  improvement of Figure 16a).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, Hashable, Optional, Tuple

PredicateState = FrozenSet[Tuple[str, str]]  # {(relation, condition sql)}


@dataclasses.dataclass
class MessageInfo:
    """A materialized message: its table, kind, and key columns.

    ``carried`` lists the (relation, column) pairs the message re-exposes
    as extra grouping columns (empty for ordinary messages); the carry
    cache needs it to rebuild alias references on a hit.
    """

    table: str
    kind: str  # 'count' | 'full'
    key_columns: Tuple[str, ...]
    child: str
    parent: str
    carried: Tuple[Tuple[str, str], ...] = ()


class MessageCache:
    """Keyed store of materialized message tables, with hit accounting.

    Ordinary messages key on ``(child, parent, predicate state)``.  Carry
    messages — which additionally group by a mutable leaf-membership
    column — key on the same triple plus an opaque ``scope`` (the
    frontier evaluator passes its leaf epoch), so one evaluation round's
    relations share materializations while a stale epoch can never be
    served.
    """

    def __init__(self, db, enabled: bool = True):
        self.db = db
        self.enabled = enabled
        self._store: Dict[Tuple, MessageInfo] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(
        child: str,
        parent: str,
        side_predicates: PredicateState,
        scope: Optional[Hashable] = None,
    ) -> Tuple:
        if scope is None:
            return (child, parent, side_predicates)
        return (child, parent, side_predicates, scope)

    def lookup(
        self,
        child: str,
        parent: str,
        side_predicates: PredicateState,
        scope: Optional[Hashable] = None,
    ) -> Optional[MessageInfo]:
        if not self.enabled:
            self.misses += 1
            return None
        info = self._store.get(self.key(child, parent, side_predicates, scope))
        if info is not None:
            self.hits += 1
        else:
            self.misses += 1
        return info

    def store(
        self,
        child: str,
        parent: str,
        side_predicates: PredicateState,
        info: MessageInfo,
        scope: Optional[Hashable] = None,
    ) -> None:
        if self.enabled:
            self._store[self.key(child, parent, side_predicates, scope)] = info

    def drop_scoped(self, keep_scope: Optional[Hashable] = None) -> int:
        """Drop every scoped (carry) entry whose scope differs from
        ``keep_scope`` — called when the leaf epoch advances."""
        doomed = [
            key for key in self._store
            if len(key) == 4 and key[3] != keep_scope
        ]
        for key in doomed:
            info = self._store.pop(key)
            self.db.drop_table(info.table, if_exists=True)
        return len(doomed)

    def invalidate_all(self, drop_tables: bool = True) -> int:
        """Clear the cache (e.g. after residual updates re-lift the fact
        table); optionally drop the backing tables."""
        count = len(self._store)
        if drop_tables:
            for info in self._store.values():
                self.db.drop_table(info.table, if_exists=True)
        self._store.clear()
        return count

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "size": len(self._store)}

    def __len__(self) -> int:
        return len(self._store)
