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

:meth:`EncodingCache.encoding_for` always returns an encoding, and it is
the only way the engine's equi-joins see a key: every encoding folds the
column's validity mask into the NULL group, so a NULL that exists only
as a mask (the padded side of an outer join over an INT column) matches
nothing, as in SQL.  Two classes of columns are encoded fresh and kept
out of the cache (the encoding is memoized on ``Column.enc`` only):

* columns with no provenance (query-derived arrays) — there is no
  identity to version;
* columns explicitly registered via :meth:`EncodingCache.mark_uncached`
  — the frontier's persistent leaf-membership column on the lifted fact
  (``jb_leaf_s<k>``), which is rewritten by narrow delta UPDATEs on
  every committed split; caching it would only churn the LRU (version
  stamps would keep it correct regardless).  Carried *copies* of the
  label inside immutable message temps remain cacheable.

Derived columns carry a *lazy* encoding hint, a ``("gather", parent,
positions)`` tuple on ``Column.enc``: the planner gathers every column by
position — join indices, the selection vector a WHERE or residual join
condition becomes, and the rows a ``CASE`` branch or an ``UPDATE``'s
``SET`` is evaluated over — so materializing a hint is an O(n) integer
gather of the parent's cached codes instead of an O(n log n) re-encode of
the gathered values.  Codes also flow through the operators that keep a
key's values, so each key is encoded once per connection:

* a projected bare column reference of unchanged type takes its source's
  encoding or hint (``positions`` ``None``: the same rows), so a
  ``CREATE TABLE … AS SELECT t.k …`` (the lifted fact) stores the base
  table's codes;
* a ``GROUP BY`` key grouped through an encoding gets
  ``encoding.take(first_idx)`` in the same dictionary, so message temps
  are never encoded;
* ``COUNT(DISTINCT col)`` counts the codes of ``col``'s encoding.

A carried encoding matches a fresh ``encode_values(values, valid)`` of
its column — the same NULL rows, the same value on every other row,
codes in value order, unused dictionary entries allowed — and none is
carried onto a column whose type changed (a padded INT reads back as
FLOAT).  :attr:`EncodingCache.merges`, a byte-bounded
:class:`~repro.engine.operators.MergeMemo`, memoizes each join's
dictionary merge per pair of dictionary arrays, which ``take`` shares:
every round's ``dimension ⋈ message`` join merges the same two.

A gather hint whose parent is exempt (above) and not yet encoded is
the exception: its gathered rows are encoded directly.  The frontier's
queried leaf is a slice of a label column that every committed split
rewrites, so encoding the slice costs work proportional to the leaf
where encoding the parent would cost a pass over the whole lifted fact
once per label version.

The cache also holds the planner's **selection memo**: one entry, the
rows the last memoizable ``WHERE`` kept.  Its key is the ``WHERE``'s SQL
text, the frame's row count and the ``(uid, name, version)`` stamp of
every column the ``WHERE`` reads; its value is the selection vector
(``None`` when every row is kept) and the stamped columns the last
statement with that key gathered by it.  The next statement with the
same key reuses both (each batched frontier round sends four fact ->
dimension messages with one ``WHERE jb_leaf_s<k> IN (…)``, which share
the leaf's label, ``h`` and ``g`` rows), and the version stamps make a
write between the two a miss, never a stale answer.  A ``WHERE`` with
a subquery or one that reads an unstamped column is never stored.
Entries are immutable tuples swapped whole under the cache's lock, so
a concurrent statement sees one entry or the other, never a mix.

The cache is LRU-bounded by bytes and keeps census counters (hits,
misses, stores, invalidations, evictions, bytes, and the selection
memo's hits and misses) that surface in the Figure 9 census
(``fig09_query_census``).  An entry's size is re-read on each hit, so
a grouped row index built after the entry was stored is charged (and
may evict older entries) from then on.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Set, Tuple

import numpy as np

from repro.engine.operators import ColumnEncoding, MergeMemo, encode_values
from repro.storage.column import Column

#: default cache budget: generous for laptop-scale benches, small enough
#: that a long multi-tree run cannot hoard stale-version entries forever
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

Key = Tuple[int, str]
#: a column's ``(table uid, column name, version)`` provenance
Stamp = Tuple[int, str, int]
#: ``(WHERE text, frame rows, stamps of the columns it reads)``
SelectionKey = Tuple[str, int, Tuple[Stamp, ...]]
#: ``(key, selection or None for every row, {stamp: gathered column})``
SelectionEntry = Tuple[SelectionKey, Optional[np.ndarray], Dict[Stamp, Column]]


class EncodingCache:
    """Byte-bounded LRU of column encodings keyed by table identity."""

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES):
        self.max_bytes = max_bytes
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
        #: the connection's memo of dictionary merges (its joins pass it)
        self.merges = MergeMemo()
        #: the selection memo's one entry (see :meth:`selection`)
        self._selection: Optional[SelectionEntry] = None
        self.selection_hits = 0
        self.selection_misses = 0

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def mark_uncached(self, uid: int, name: str) -> None:
        """Exempt one column from caching — the frontier's persistent
        ``jb_leaf`` column on the lifted fact, which is rewritten by one
        narrow UPDATE per committed split; caching it would only churn
        the LRU (its version stamps keep correctness either way).  Carried
        copies of the label inside immutable message temps stay cacheable."""
        with self._lock:
            self._uncached.add((uid, name))
            self._evict((uid, name))

    def cacheable(self, uid: int, name: str) -> bool:
        """Whether the column may be stored (not exempted)."""
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

    def _shrink(self) -> None:
        """Evict least-recently-used entries until within budget."""
        while self.bytes > self.max_bytes and self._entries:
            _, (_, _, dropped) = self._entries.popitem(last=False)
            self.bytes -= dropped
            self.evictions += 1

    def _recharge(self, key: Key, encoding: ColumnEncoding) -> None:
        """Re-read the size of ``key``'s entry when it holds ``encoding``
        (its grouped row index may have been built since it was charged)
        and evict what the growth pushes over budget."""
        entry = self._entries.get(key)
        if entry is None or entry[1] is not encoding:
            return
        nbytes = encoding.nbytes()
        if nbytes != entry[2]:
            self._entries[key] = (entry[0], encoding, nbytes)
            self._entries.move_to_end(key)
            self.bytes += nbytes - entry[2]
            self._shrink()

    def lookup(self, uid: int, name: str, version: int) -> Optional[ColumnEncoding]:
        """The cached encoding at exactly ``version``, or ``None`` (a miss;
        an older stored version is evicted as stale)."""
        with self._lock:
            entry = self._entries.get((uid, name))
            if entry is None:
                self.misses += 1
                return None
            stored_version, encoding, _ = entry
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
            self._recharge((uid, name), encoding)
            self.hits += 1
            return encoding

    def store(self, uid: int, name: str, version: int, encoding: ColumnEncoding) -> None:
        """Keep ``encoding`` for ``(uid, name)`` at ``version``, unless it
        alone exceeds the budget, the column is exempt, or a newer
        version is already stored."""
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
            self._shrink()

    # ------------------------------------------------------------------
    # Column-level entry points (what the planner calls)
    # ------------------------------------------------------------------
    def encoding_for(self, col: Column) -> ColumnEncoding:
        """The encoding of ``col``, from cache when possible.

        Resolution order: an attached encoding (or lazy gather hint),
        then the provenance-keyed cache, then a fresh encode — stored
        when the column has cacheable provenance, otherwise only
        memoized on ``col.enc``.  Every path folds ``col.valid`` into
        the null group.
        """
        hint = col.enc
        if isinstance(hint, ColumnEncoding):
            with self._lock:
                self.hits += 1  # reuse through the attached encoding
                if col.source is not None:
                    self._recharge(col.source[:2], hint)
            return hint
        source = col.source
        if isinstance(hint, tuple):
            _, parent, positions = hint
            if (
                positions is not None
                and parent.enc is None
                and parent.source is not None
                and not self.cacheable(*parent.source[:2])
            ):
                # A slice of an exempt column nobody encoded yet (the
                # queried leaf of a label column): its own rows are
                # cheaper to encode than the whole parent.
                encoding = encode_values(col.values, col.valid)
            else:
                encoding = self.encoding_for(parent)
                if positions is not None:
                    encoding = encoding.take(positions)
        elif source is None or not self.cacheable(*source[:2]):
            encoding = encode_values(col.values, col.valid)
        else:
            encoding = self._cached(col, *source)
        col.enc = encoding
        return encoding

    def _cached(self, col: Column, uid: int, name: str, version: int) -> ColumnEncoding:
        """The cached encoding of a provenance-stamped column, encoded and
        stored on a miss."""
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
                    if cached is not None and len(cached.codes) != len(col):
                        # Defensive: a version collision across
                        # differently sized payloads can only mean
                        # provenance misuse — evict it so the dead
                        # entry cannot re-hit (and re-count) forever,
                        # and encode the column afresh.
                        self._evict(key)
                        cached = None
                    if cached is not None:
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
        return encoding

    # ------------------------------------------------------------------
    # Lazy hints (attached by the planner's gathers)
    # ------------------------------------------------------------------
    def attach_gather(
        self, out: Column, parent: Column, indexes: Optional[np.ndarray] = None
    ) -> None:
        """Mark ``out`` as ``parent`` gathered by non-negative positions;
        its codes become a cheap int gather of the parent's codes.

        ``indexes`` ``None`` says ``out`` holds ``parent``'s rows as they
        are (a projected column reference of the same type): ``out``
        takes the parent's encoding or hint itself."""
        if out.enc is not None:
            return
        if indexes is None and parent.enc is not None:
            out.enc = parent.enc
        elif isinstance(parent.enc, (ColumnEncoding, tuple)) or parent.source is not None:
            out.enc = ("gather", parent, indexes)

    # ------------------------------------------------------------------
    # Selection memo (the planner's WHERE)
    # ------------------------------------------------------------------
    def selection(self, key: SelectionKey) -> Optional[SelectionEntry]:
        """The memo entry stored under ``key``, or ``None`` (a miss)."""
        with self._lock:
            entry = self._selection
            if entry is not None and entry[0] == key:
                self.selection_hits += 1
                return entry
            self.selection_misses += 1
            return None

    def remember_selection(
        self,
        key: SelectionKey,
        selection: Optional[np.ndarray],
        columns: Dict[Stamp, Column],
    ) -> None:
        """Make ``(key, selection, columns)`` the memo's entry.  The
        caller hands over ``columns`` and never changes it again."""
        with self._lock:
            self._selection = (key, selection, columns)

    # ------------------------------------------------------------------
    # Invalidation / stats
    # ------------------------------------------------------------------
    def invalidate_table(self, uid: int) -> int:
        """Drop every entry of one table (e.g. on DROP TABLE)."""
        with self._lock:
            doomed = [key for key in self._entries if key[0] == uid]
            for key in doomed:
                self._evict(key)
            entry = self._selection
            if entry is not None and any(
                stamp[0] == uid for stamp in (*entry[0][2], *entry[2])
            ):
                # The uid is never minted again, so the entry could not
                # hit; dropping it releases its gathered rows.
                self._selection = None
            return len(doomed)

    def clear(self) -> int:
        """Drop every entry; returns how many there were."""
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            self.bytes = 0
            self._selection = None
        self.merges.clear()
        return count

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, int]:
        """The census: entry count, bytes charged and event counters."""
        return {
            "entries": len(self._entries),
            "bytes": int(self.bytes),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "selection_hits": self.selection_hits,
            "selection_misses": self.selection_misses,
        }
