"""Version-stamped encoded-key cache (the PR 4 tentpole).

JoinBoost's message passing issues hundreds of near-identical aggregation
queries per tree over the *same* immutable base relations; LMFAO makes the
matching observation that static structure shared by a query batch should
be computed once.  In this engine the repeated static work is *dictionary
encoding*: every GROUP BY key and join key column was re-encoded
(``np.unique`` over the full column) on every query.

:class:`EncodingCache` memoizes :class:`~repro.engine.operators.
ColumnEncoding` objects keyed by ``(table uid, column name, version)``:

* **table uid** — minted at table construction and preserved by catalog
  renames, so entries survive renames and can never be confused across
  tables that reuse a name;
* **version** — the storage layer bumps a per-column monotonic stamp on
  every mutating path (``set_column``, masked updates, column swaps,
  drops; WAL replay and MVCC commits flow through ``set_column``), so
  staleness is *detected*, never assumed.  A lookup that finds an entry
  under an outdated version drops it and reports an invalidation.

Two classes of columns are deliberately not cached:

* columns with no provenance (query-derived arrays) — there is no
  identity to version;
* columns explicitly registered via :meth:`EncodingCache.mark_uncached`
  — the frontier's persistent leaf-membership column on the lifted fact
  (``jb_leaf_s<k>``), which is rewritten by narrow delta UPDATEs on
  every committed split; caching it would only churn the LRU (version
  stamps would keep it correct regardless).  Carried *copies* of the
  label inside immutable message temps remain cacheable.

Derived columns produced by joins and filters carry *lazy* encoding hints
(``("gather", parent, idx)`` / ``("filter", parent, mask)`` tuples on
``Column.enc``): materializing one is an O(n) integer gather of the
parent's cached codes instead of an O(n log n) re-encode of the gathered
values.  The planner attaches these in its merge/filter paths.

The cache is LRU-bounded by bytes and keeps census counters (hits,
misses, stores, invalidations, evictions, bytes) that surface in
``query_census`` and the Figure 9 encoding-cache bench.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Set, Tuple

import numpy as np

from repro.engine.operators import ColumnEncoding, encode_values
from repro.storage.column import Column

#: default cache budget: generous for laptop-scale benches, small enough
#: that a long multi-tree run cannot hoard stale-version entries forever
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

Key = Tuple[int, str]


class EncodingCache:
    """Byte-bounded LRU of column encodings keyed by table identity."""

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES, enabled: bool = True):
        self.max_bytes = max_bytes
        self.enabled = enabled
        self._entries: "OrderedDict[Key, Tuple[int, ColumnEncoding, int]]" = (
            OrderedDict()
        )
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.invalidations = 0
        self.evictions = 0
        self._uncached: Set[Key] = set()
        # Scheduler worker threads race get-or-compute on the same key
        # (every relation's fused split query touches the same join-key
        # columns).  The lock makes entry/census bookkeeping atomic, and
        # the per-key in-flight events below give *single-flight*
        # semantics: a racing key computes exactly once (the winner takes
        # the one miss and the one store, waiters block on the event and
        # then hit), while encodes of unrelated keys run concurrently —
        # the expensive encode_values sort happens outside the lock.
        self._lock = threading.RLock()
        self._inflight: Dict[Key, threading.Event] = {}

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def mark_uncached(self, uid: int, name: str) -> None:
        """Exempt one column from caching — the frontier's persistent
        ``jb_leaf`` column on the lifted fact, which is rewritten by two
        narrow UPDATEs per committed split; caching it would only churn
        the LRU (its version stamps keep correctness either way).  Carried
        copies of the label inside immutable message temps stay cacheable."""
        with self._lock:
            self._uncached.add((uid, name))
            self._evict((uid, name))

    def cacheable(self, uid: int, name: str) -> bool:
        return (uid, name) not in self._uncached

    def _evict(self, key: Key, count_invalidation: bool = True) -> bool:
        """Drop one entry, keeping the byte and invalidation census
        consistent (the single place eviction bookkeeping lives)."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self.bytes -= entry[2]
        if count_invalidation:
            self.invalidations += 1
        return True

    def lookup(self, uid: int, name: str, version: int) -> Optional[ColumnEncoding]:
        with self._lock:
            entry = self._entries.get((uid, name))
            if entry is None:
                self.misses += 1
                return None
            stored_version, encoding, nbytes = entry
            if stored_version < version:
                # Stale entry: the column mutated since this encoding was built.
                self._evict((uid, name))
                self.misses += 1
                return None
            if stored_version > version:
                # Stale *caller*: a column reference stamped before the last
                # mutation.  The entry describes newer data — keep it; evicting
                # here would let old references ping-pong the cache.
                self.misses += 1
                return None
            self._entries.move_to_end((uid, name))
            self.hits += 1
            return encoding

    def store(self, uid: int, name: str, version: int, encoding: ColumnEncoding) -> None:
        nbytes = encoding.nbytes()
        if nbytes > self.max_bytes:
            return
        with self._lock:
            if (uid, name) in self._uncached:
                # mark_uncached is sticky: a compute that was already in
                # flight when the column was exempted must not re-seed
                # the entry it just evicted.
                return
            old = self._entries.get((uid, name))
            if old is not None:
                if old[0] > version:
                    return  # never clobber newer data with an older stamp
                self._evict((uid, name), count_invalidation=False)
            self._entries[(uid, name)] = (version, encoding, nbytes)
            self.bytes += nbytes
            self.stores += 1
            while self.bytes > self.max_bytes and self._entries:
                _, (_, _, dropped) = self._entries.popitem(last=False)
                self.bytes -= dropped
                self.evictions += 1

    # ------------------------------------------------------------------
    # Column-level entry points (what the planner calls)
    # ------------------------------------------------------------------
    def encoding_for(self, col: Column) -> Optional[ColumnEncoding]:
        """The encoding of ``col``, from cache when possible.

        Resolution order: an attached encoding (or lazy gather/filter
        hint), then the provenance-keyed cache, then a fresh encode that
        is stored when the column has cacheable provenance.  Returns
        ``None`` when the cache is disabled or the column is opaque —
        callers fall back to the legacy per-query encode, so behavior
        (and the encode census) matches the pre-cache engine exactly.
        """
        if not self.enabled:
            return None
        hint = col.enc
        if isinstance(hint, ColumnEncoding):
            return hint
        if isinstance(hint, tuple):
            materialized = self._materialize(hint)
            col.enc = materialized  # memoize (None poisons nothing: retry is cheap)
            return materialized
        source = col.source
        if source is None:
            return None
        uid, name, version = source
        if not self.cacheable(uid, name):
            return None
        # Single-flight get-or-compute: N threads racing the same
        # (uid, column, version) produce exactly one encode pass and one
        # store — waiters block on the winner's in-flight event, then
        # loop back and hit its entry.  The encode itself runs outside
        # the lock, so unrelated keys compute concurrently.
        key = (uid, name)
        while True:
            with self._lock:
                event = self._inflight.get(key)
                if event is None:
                    cached = self.lookup(uid, name, version)
                    if cached is not None:
                        if len(cached.codes) != len(col):
                            # Defensive: a version collision across
                            # differently sized payloads can only mean
                            # provenance misuse — evict it so the dead
                            # entry cannot re-hit (and re-count) forever.
                            self._evict(key)
                            return None
                        col.enc = cached
                        return cached
                    event = threading.Event()
                    self._inflight[key] = event
                    break
            event.wait()
        try:
            encoding = encode_values(col.values, col.valid)
            self.store(uid, name, version, encoding)
        finally:
            with self._lock:
                self._inflight.pop(key, None)
            event.set()
        col.enc = encoding
        return encoding

    def _materialize(self, hint: tuple) -> Optional[ColumnEncoding]:
        kind, parent, index = hint
        parent_encoding = self.encoding_for(parent)
        if parent_encoding is None:
            return None
        if kind == "gather":
            return parent_encoding.take(index)
        if kind == "filter":
            return parent_encoding.filter(index)
        return None

    # ------------------------------------------------------------------
    # Lazy hints (attached by the planner's merge/filter paths)
    # ------------------------------------------------------------------
    def attach_gather(self, out: Column, parent: Column, indexes: np.ndarray) -> None:
        """Mark ``out`` as ``parent`` gathered by non-negative positions;
        its codes become a cheap int gather of the parent's codes."""
        if not self.enabled or out.enc is not None:
            return
        if isinstance(parent.enc, (ColumnEncoding, tuple)) or parent.source is not None:
            out.enc = ("gather", parent, indexes)

    def attach_filter(self, out: Column, parent: Column, mask: np.ndarray) -> None:
        if not self.enabled or out.enc is not None:
            return
        if isinstance(parent.enc, (ColumnEncoding, tuple)) or parent.source is not None:
            out.enc = ("filter", parent, mask)

    # ------------------------------------------------------------------
    # Invalidation / stats
    # ------------------------------------------------------------------
    def invalidate_table(self, uid: int) -> int:
        """Drop every entry of one table (e.g. on DROP TABLE)."""
        with self._lock:
            doomed = [key for key in self._entries if key[0] == uid]
            for key in doomed:
                self._evict(key)
            return len(doomed)

    def clear(self) -> int:
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            self.bytes = 0
            return count

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, int]:
        return {
            "enabled": int(self.enabled),
            "entries": len(self._entries),
            "bytes": int(self.bytes),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
        }
