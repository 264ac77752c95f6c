"""Vectorized physical operators: factorize, hash join, group-by, windows.

All operators work on NumPy arrays and treat NaN (numeric) / ``None``
(object) as SQL NULL: null join keys never match, nulls form a single
group in GROUP BY, and aggregates skip nulls.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ExecutionError

_NULL_SENTINEL = "\x00__null__"

# ---------------------------------------------------------------------------
# Encode census: every full pass over a key/grouping column is counted here
# (the Figure 9 "encode vs aggregate" split and the PR 4 CI gate read it).
# The encoding cache exists to make these numbers drop: a cached lookup
# performs no pass and leaves the census untouched.  The process totals
# sit behind a lock; each thread also counts its own passes, which is what
# ``Database`` diffs around a statement, so statements running on several
# worker threads never count each other's passes.
# ---------------------------------------------------------------------------
_ENCODE_CENSUS = {"passes": 0, "rows": 0, "seconds": 0.0}
_ENCODE_LOCK = threading.Lock()
_THREAD_CENSUS = threading.local()


def encode_census() -> Dict[str, float]:
    """A snapshot of the process-wide encode counters."""
    with _ENCODE_LOCK:
        return dict(_ENCODE_CENSUS)


def _thread_counts() -> Dict[str, float]:
    counts = getattr(_THREAD_CENSUS, "counts", None)
    if counts is None:
        counts = _THREAD_CENSUS.counts = {"passes": 0, "rows": 0, "seconds": 0.0}
    return counts


def thread_encode_census() -> Dict[str, float]:
    """A snapshot of this thread's encode counters (never reset: diff two
    snapshots)."""
    return dict(_thread_counts())


def reset_encode_census() -> None:
    """Zero the process-wide encode counters."""
    with _ENCODE_LOCK:
        _ENCODE_CENSUS.update(passes=0, rows=0, seconds=0.0)


def _count_pass(rows: int, seconds: float) -> None:
    with _ENCODE_LOCK:
        for census in (_thread_counts(), _ENCODE_CENSUS):
            census["passes"] += 1
            census["rows"] += int(rows)
            census["seconds"] += seconds


def _object_nulls(values: np.ndarray) -> np.ndarray:
    """Vectorized None detection for object columns (no Python loop)."""
    if not len(values):
        return np.zeros(0, dtype=bool)
    # Elementwise equality against the None singleton; ~2x faster than a
    # list comprehension and allocation-free on the hot path.
    return np.asarray(values == None, dtype=bool)  # noqa: E711


def _normalize_key(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Return (comparable array, null mask) for a key/grouping column."""
    start = time.perf_counter()
    if values.dtype == object:
        nulls = _object_nulls(values)
        if nulls.any():
            values = values.copy()
            values[nulls] = _NULL_SENTINEL
        # Size the unicode dtype from the data: a fixed-width cast (the
        # old "U64") silently truncates longer keys, merging distinct
        # join keys and groups that only differ past the cutoff.
        out = values.astype("U") if len(values) else values
        _count_pass(len(values), time.perf_counter() - start)
        return out, nulls
    if values.dtype.kind == "f":
        nulls = np.isnan(values)
        if nulls.any():
            values = np.where(nulls, 0.0, values)
        _count_pass(len(values), time.perf_counter() - start)
        return values, nulls
    _count_pass(len(values), time.perf_counter() - start)
    return values, np.zeros(len(values), dtype=bool)


class ColumnEncoding:
    """A dictionary-encoded view of one column.

    ``codes`` maps each row into ``[0, cardinality)``, value-ordered with
    the null group (when ``has_null``) coded last; ``uniques`` is the
    sorted non-null dictionary in comparable dtype (unicode for strings,
    int64/float64 for numbers).  ``group_index`` is the lazily built
    hash-join-side structure: row positions grouped by code plus per-code
    bucket offsets, so a cached join side skips its per-query sort.
    """

    __slots__ = ("codes", "cardinality", "null_mask", "uniques", "has_null",
                 "group_index", "_nbytes")

    def __init__(
        self,
        codes: np.ndarray,
        cardinality: int,
        null_mask: Optional[np.ndarray],
        uniques: np.ndarray,
        has_null: bool,
    ):
        self.codes = codes
        self.cardinality = cardinality
        self.null_mask = null_mask
        self.uniques = uniques
        self.has_null = has_null
        self.group_index: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._nbytes: Optional[int] = None

    def __len__(self) -> int:
        return len(self.codes)

    def nulls(self) -> np.ndarray:
        """The per-row null mask (all False when the column has no null)."""
        if self.null_mask is None:
            return np.zeros(len(self.codes), dtype=bool)
        return self.null_mask

    def nbytes(self) -> int:
        """Bytes held: codes, null mask, dictionary and — once
        :meth:`ensure_group_index` built it — the grouped row index.  A
        cache re-reads this on a hit, so the index is charged when it
        appears, not before; the sum is computed once per state."""
        if self._nbytes is None:
            total = int(self.codes.nbytes)
            if self.null_mask is not None:
                total += int(self.null_mask.nbytes)
            if self.uniques.dtype == object:
                total += sum(len(str(v)) for v in self.uniques) + 8 * len(self.uniques)
            else:
                total += int(self.uniques.nbytes)
            if self.group_index is not None:
                total += sum(int(part.nbytes) for part in self.group_index)
            self._nbytes = total
        return self._nbytes

    def ensure_group_index(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(order, starts, counts): row positions grouped by code."""
        if self.group_index is None:
            order = np.argsort(self.codes, kind="stable")
            counts = np.bincount(self.codes, minlength=self.cardinality)
            starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
            self.group_index = (order, starts.astype(np.int64), counts.astype(np.int64))
            self._nbytes = None
        return self.group_index

    def take(self, indexes: np.ndarray) -> "ColumnEncoding":
        """Gather rows by (non-negative) position: an O(n) int gather in
        place of a full re-encode of the gathered values."""
        null_mask = self.null_mask[indexes] if self.null_mask is not None else None
        return ColumnEncoding(
            self.codes[indexes], self.cardinality, null_mask,
            self.uniques, self.has_null,
        )

    def triple(self) -> Tuple[np.ndarray, int, np.ndarray]:
        """The (codes, cardinality, null mask) shape ``factorize`` folds."""
        return self.codes, self.cardinality, self.nulls()


def encode_values(
    values: np.ndarray, valid: Optional[np.ndarray] = None
) -> ColumnEncoding:
    """One full dictionary-encode pass over a column (census-counted).

    Unlike the historical sentinel trick, nulls are excluded from the
    dictionary entirely — ``uniques`` holds only real values — so two
    independently encoded columns can be joined by merging dictionaries.
    Group semantics are unchanged: codes are value-ordered and the null
    group, when present, is coded last.
    """
    start = time.perf_counter()
    values = np.asarray(values)
    n = len(values)
    if values.dtype == object:
        nulls = _object_nulls(values)
    elif values.dtype.kind == "f":
        nulls = np.isnan(values)
    else:
        nulls = np.zeros(n, dtype=bool)
    if valid is not None:
        nulls = nulls | ~np.asarray(valid, dtype=bool)
    has_null = bool(nulls.any())

    if values.dtype.kind in ("i", "u", "b") and n:
        comparable = values.astype(np.int64, copy=False)
        work = comparable[~nulls] if has_null else comparable
        if len(work):
            lo = int(work.min())
            hi = int(work.max())
            span = hi - lo + 1
            if 0 < span <= max(4 * n, 65_536):
                shifted = np.where(nulls, lo, comparable) - lo if has_null \
                    else comparable - lo
                present = np.zeros(span, dtype=bool)
                present[shifted[~nulls] if has_null else shifted] = True
                unique_offsets = np.flatnonzero(present)
                lookup = np.empty(span, dtype=np.int64)
                lookup[unique_offsets] = np.arange(len(unique_offsets))
                codes = lookup[shifted]
                card = len(unique_offsets)
                uniques = unique_offsets + lo
                if has_null:
                    codes[nulls] = card
                    card += 1
                _count_pass(n, time.perf_counter() - start)
                return ColumnEncoding(
                    codes, max(card, 1), nulls if has_null else None,
                    uniques, has_null,
                )

    if values.dtype == object:
        work_values = values[~nulls] if has_null else values
        hashed = _hash_encode_strings(work_values)
        if hashed is not None:
            uniques, inverse = hashed
            return _finish_encoding(uniques, inverse, nulls, has_null, start)
        comparable = work_values.astype("U") if len(work_values) else \
            np.zeros(0, dtype="U1")
    elif values.dtype.kind in ("i", "u", "b"):
        comparable = values.astype(np.int64, copy=False)
        if has_null:
            comparable = comparable[~nulls]
    else:
        comparable = values[~nulls] if has_null else values
    uniques, inverse = np.unique(comparable, return_inverse=True)
    inverse = inverse.reshape(len(comparable)).astype(np.int64)
    return _finish_encoding(uniques, inverse, nulls, has_null, start)


def _hash_encode_strings(
    values: np.ndarray,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``(uniques, inverse)`` of an object column holding only ``str``,
    by hashing: the distinct values are found once, sorted once (Python
    and numpy both order text by code point) and every row is mapped
    through a dict — the same dictionary and codes as ``np.unique`` over
    ``astype("U")``, without sorting every row.  ``None`` (use the sort
    path) for an empty column, a non-``str`` value, or a value ending in
    ``'\\x00'``, which ``astype("U")`` strips and so merges with its
    stripped twin."""
    if not len(values):
        return None
    rows = values.tolist()
    distinct = set(rows)
    if not all(type(v) is str and not v.endswith("\x00") for v in distinct):
        return None
    ordered = sorted(distinct)
    position = dict(zip(ordered, range(len(ordered))))
    inverse = np.fromiter(
        map(position.__getitem__, rows), dtype=np.int64, count=len(rows)
    )
    return np.array(ordered, dtype=str), inverse


def _finish_encoding(
    uniques: np.ndarray,
    inverse: np.ndarray,
    nulls: np.ndarray,
    has_null: bool,
    start: float,
) -> ColumnEncoding:
    """The encoding of the non-null rows' ``inverse`` codes into
    ``uniques``, the null group (when present) coded last."""
    card = len(uniques)
    if has_null:
        codes = np.empty(len(nulls), dtype=np.int64)
        codes[~nulls] = inverse
        codes[nulls] = card
        card += 1
    else:
        codes = inverse
    _count_pass(len(nulls), time.perf_counter() - start)
    return ColumnEncoding(
        codes, max(card, 1), nulls if has_null else None, uniques, has_null
    )


def _column_codes(values: np.ndarray) -> Tuple[np.ndarray, int, np.ndarray]:
    """Per-column dense codes: (codes, cardinality, null mask).

    Small-range integer keys (dictionary-encoded dimensions, the common
    case in star schemas) take a bincount-style O(n) path; everything else
    falls back to ``np.unique``'s sort.  Codes are ordered by value either
    way, with nulls coded last.
    """
    return encode_values(np.asarray(values)).triple()


def _dense_codes(combined: np.ndarray, radix: int) -> Tuple[np.ndarray, int, np.ndarray]:
    """Densify combined codes: (dense codes, num groups, first index)."""
    n = len(combined)
    if n == 0:
        return combined, 0, np.zeros(0, dtype=np.int64)
    if radix <= max(4 * n, 65_536):
        present = np.zeros(radix, dtype=bool)
        present[combined] = True
        uniques = np.flatnonzero(present)
        lookup = np.empty(radix, dtype=np.int64)
        lookup[uniques] = np.arange(len(uniques))
        codes = lookup[combined]
        first = np.full(len(uniques), n, dtype=np.int64)
        np.minimum.at(first, codes, np.arange(n))
        return codes, len(uniques), first
    uniques, first, codes = np.unique(
        combined, return_index=True, return_inverse=True
    )
    return codes.reshape(n).astype(np.int64), len(uniques), first


def factorize(arrays: Sequence[np.ndarray]) -> Tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """Dense-code composite keys.

    Returns ``(codes, num_groups, first_index, null_mask)`` where ``codes``
    maps each row to ``[0, num_groups)``, ``first_index[g]`` is a
    representative row of group ``g``, and ``null_mask`` marks rows whose
    key contains a null (they still receive a code; join callers exclude
    them, GROUP BY callers keep them as one group per the sentinel).
    """
    if not arrays:
        raise ExecutionError("factorize needs at least one key")
    return factorize_parts([_column_codes(values) for values in arrays])


def factorize_parts(
    parts: Sequence[Tuple[np.ndarray, int, np.ndarray]],
) -> Tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """:func:`factorize` over pre-encoded (codes, cardinality, null mask)
    triples — the entry point for cached encodings, which skip the
    per-column encode passes entirely."""
    if not parts:
        raise ExecutionError("factorize needs at least one key")
    n = len(parts[0][0])
    any_null = np.zeros(n, dtype=bool)
    radix = 1
    combined = parts[0][0]
    for index, (codes, card, nulls) in enumerate(parts):
        any_null |= nulls
        if index:
            # one temporary per key, not two (these are row-sized)
            combined = combined * card
            combined += codes
        radix *= card
        if radix > 2**62:
            # Re-densify to avoid overflow on very wide keys.
            combined, groups, _ = _dense_codes(combined, radix)
            radix = max(groups, 1)
    codes, num_groups, first_index = _dense_codes(combined, radix)
    return codes, num_groups, first_index, any_null


def _merge_dictionaries(
    left_enc: ColumnEncoding, right_enc: ColumnEncoding
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Merge two column dictionaries into one shared code space.

    Returns ``(left_map, right_map, size)`` where the maps re-code each
    side's per-column codes into ``[0, size)`` and ``size - 1`` is a
    shared null slot (callers mask null rows out of matching anyway).
    The merge runs over the *dictionaries* — cardinality-sized, not
    row-count-sized — which is the whole point of composing cached codes
    instead of concatenating raw key columns.  A string dictionary
    merged with a numeric one compares as text, each number rendered by
    ``astype("U")`` (``'1'`` matches ``1``).
    """
    lu, ru = left_enc.uniques, right_enc.uniques
    if (lu.dtype.kind in "USO") != (ru.dtype.kind in "USO"):
        lu, ru = lu.astype("U"), ru.astype("U")
    merged = np.concatenate([lu, ru]) if len(lu) or len(ru) else lu
    uniques, inverse = np.unique(merged, return_inverse=True)
    inverse = inverse.reshape(len(merged)).astype(np.int64)
    size = len(uniques) + 1  # trailing shared null slot
    # Initialize with the null slot: an all-null or empty side has a
    # cardinality-1 placeholder code that no dictionary entry covers, and
    # an uninitialized map slot would be used as a scatter/gather index.
    left_map = np.full(left_enc.cardinality, size - 1, dtype=np.int64)
    left_map[: len(lu)] = inverse[: len(lu)]
    right_map = np.full(right_enc.cardinality, size - 1, dtype=np.int64)
    right_map[: len(ru)] = inverse[len(lu):]
    return left_map, right_map, size


Merge = Tuple[np.ndarray, np.ndarray, int]
#: a memo entry: both dictionaries, their merge, its bytes
_MemoEntry = Tuple[np.ndarray, np.ndarray, Merge, int]

#: bytes of merge maps (and the dictionaries they pin) a memo keeps
MERGE_MEMO_BYTES = 32 * 1024 * 1024


class MergeMemo:
    """Byte-bounded LRU of :func:`_merge_dictionaries` results, one per
    pair of dictionary arrays.

    :meth:`ColumnEncoding.take` shares its parent's ``uniques``, so every
    message temp grouped off the lifted fact carries the fact key's
    dictionary object, and a round's ``dimension ⋈ message`` join merges
    the same two dictionaries as the round before.  Entries are keyed by
    the arrays' ids and cardinalities and hold the arrays themselves, so
    an id is never reused while its entry lives, and a hit also checks
    identity.  The merged maps are read-only.  One lock guards the
    entries (the task runner's workers share a connection's memo); the merge
    itself runs outside it.
    """

    def __init__(self, max_bytes: int = MERGE_MEMO_BYTES):
        self.max_bytes = max_bytes
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[Tuple[int, int, int, int], _MemoEntry]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()

    def merge(self, left_enc: ColumnEncoding, right_enc: ColumnEncoding) -> Merge:
        """:func:`_merge_dictionaries` of the two encodings, memoized."""
        lu, ru = left_enc.uniques, right_enc.uniques
        key = (id(lu), id(ru), left_enc.cardinality, right_enc.cardinality)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] is lu and entry[1] is ru:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry[2]
            self.misses += 1
        merged = _merge_dictionaries(left_enc, right_enc)
        for part in merged[:2]:
            part.flags.writeable = False
        nbytes = int(lu.nbytes + ru.nbytes + merged[0].nbytes + merged[1].nbytes)
        if nbytes > self.max_bytes:
            return merged
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.bytes -= old[3]
            self._entries[key] = (lu, ru, merged, nbytes)
            self.bytes += nbytes
            while self.bytes > self.max_bytes:
                _, (_, _, _, dropped) = self._entries.popitem(last=False)
                self.bytes -= dropped
        return merged

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._entries.clear()
            self.bytes = 0

    def __len__(self) -> int:
        return len(self._entries)


def _merge(
    left_enc: ColumnEncoding, right_enc: ColumnEncoding, merges: Optional[MergeMemo]
) -> Merge:
    if merges is None:
        return _merge_dictionaries(left_enc, right_enc)
    return merges.merge(left_enc, right_enc)


def _compose_shared(
    left_encodings: Sequence[ColumnEncoding],
    right_encodings: Sequence[ColumnEncoding],
    merges: Optional[MergeMemo] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shared codes and null masks for key tuples, composed from the
    per-column codes with no pass over the raw key columns."""
    n_left = len(left_encodings[0]) if left_encodings else 0
    n_right = len(right_encodings[0]) if right_encodings else 0
    left_nulls = np.zeros(n_left, dtype=bool)
    right_nulls = np.zeros(n_right, dtype=bool)
    combined = np.zeros(n_left + n_right, dtype=np.int64)
    radix = 1
    for left_enc, right_enc in zip(left_encodings, right_encodings):
        left_map, right_map, size = _merge(left_enc, right_enc, merges)
        left_nulls |= left_enc.nulls()
        right_nulls |= right_enc.nulls()
        shared = np.concatenate(
            [left_map[left_enc.codes], right_map[right_enc.codes]]
        )
        combined = combined * size + shared
        radix *= size
        if radix > 2**62:
            combined, groups, _ = _dense_codes(combined, radix)
            radix = max(groups, 1)
    if radix > max(4 * (n_left + n_right), 65_536):
        combined, _, _ = _dense_codes(combined, radix)
    return combined[:n_left], combined[n_left:], left_nulls, right_nulls


def _as_encoding(key: Union[ColumnEncoding, np.ndarray]) -> ColumnEncoding:
    return key if isinstance(key, ColumnEncoding) else encode_values(key)


def _indexed_join(
    left_enc: ColumnEncoding,
    right_enc: ColumnEncoding,
    how: str,
    merges: Optional[MergeMemo] = None,
) -> Tuple[np.ndarray, np.ndarray, bool]:
    """Single-key join against a cached right side's grouped row index.

    The right side's rows are already grouped by code (``group_index``),
    and the dictionary merge is monotone, so the per-query sort and
    bucket-count passes over the right side disappear: the join is one
    dictionary merge (cardinality-sized) plus O(n) gathers.
    """
    left_map, right_map, size = _merge(left_enc, right_enc, merges)
    order, starts_own, counts_own = right_enc.ensure_group_index()
    counts_shared = np.zeros(size, dtype=np.int64)
    starts_shared = np.zeros(size, dtype=np.int64)
    non_null = right_enc.cardinality - (1 if right_enc.has_null else 0)
    counts_shared[right_map[:non_null]] = counts_own[:non_null]
    starts_shared[right_map[:non_null]] = starts_own[:non_null]
    # Null keys never match: the shared null slot was never scattered to,
    # so left null rows look up zero counts.
    lcodes = left_map[left_enc.codes]
    counts = counts_shared[lcodes]
    starts = starts_shared[lcodes]
    left_idx, right_idx, in_order = _expand_matches(counts, starts, order)
    return _pad_outer(
        left_idx, right_idx, in_order, counts, len(right_enc.codes), how
    )


def _expand_matches(
    counts: np.ndarray, starts: np.ndarray, order: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, bool]:
    """Every (left, right) match: left row ``i`` pairs with the right rows
    ``order[starts[i] : starts[i] + counts[i]]``.

    Returns ``(left_idx, right_idx, in_order)``.  When no left row matches
    more than once (the N:1 fact-to-dimension join) the matched rows are
    the selection itself, so the three output-sized ``np.repeat``s of the
    fan-out case are skipped; ``in_order`` says every left row matched
    exactly once, so ``left_idx`` is the identity.
    """
    total = int(counts.sum())
    if total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, False
    if int(counts.max()) == 1:
        if total == len(counts):
            return np.arange(total), order[starts], True
        left_idx = np.flatnonzero(counts)
        return left_idx, order[starts[left_idx]], False
    left_idx = np.repeat(np.arange(len(counts)), counts)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    within = np.arange(total) - offsets
    right_idx = order[np.repeat(starts, counts) + within]
    return left_idx, right_idx, False


def _pad_outer(
    left_idx: np.ndarray,
    right_idx: np.ndarray,
    in_order: bool,
    counts: np.ndarray,
    n_right: int,
    how: str,
) -> Tuple[np.ndarray, np.ndarray, bool]:
    """Append the -1-padded rows LEFT/FULL joins owe for unmatched keys;
    ``in_order`` stays true while the left index is the identity."""
    if how in ("left", "full") and not in_order:
        unmatched_left = np.flatnonzero(counts == 0)
        left_idx = np.concatenate([left_idx, unmatched_left])
        right_idx = np.concatenate(
            [right_idx, np.full(len(unmatched_left), -1, dtype=np.int64)]
        )
    if how == "full":
        matched_right = np.zeros(n_right, dtype=bool)
        matched_right[right_idx[right_idx >= 0]] = True
        unmatched_right = np.flatnonzero(~matched_right)
        left_idx = np.concatenate(
            [left_idx, np.full(len(unmatched_right), -1, dtype=np.int64)]
        )
        right_idx = np.concatenate([right_idx, unmatched_right])
        in_order = in_order and not len(unmatched_right)
    if how not in ("inner", "left", "full"):
        raise ExecutionError(f"unsupported join type {how!r}")
    return (
        left_idx.astype(np.int64, copy=False),
        right_idx.astype(np.int64, copy=False),
        in_order,
    )


def join_indices(
    left_keys: Sequence[Union[ColumnEncoding, np.ndarray]],
    right_keys: Sequence[Union[ColumnEncoding, np.ndarray]],
    how: str = "inner",
) -> Tuple[np.ndarray, np.ndarray]:
    """Compute matching row positions for an equi-join.

    Each key is a :class:`ColumnEncoding` (the planner passes the cached
    ones, whose null group includes the column's validity mask) or a raw
    array, encoded here with NaN / ``None`` as NULL.  Returns
    ``(left_idx, right_idx)``; a position of ``-1`` marks a padded null
    row (outer joins).  Null keys never match.
    """
    left_idx, right_idx, _ = join_rows(left_keys, right_keys, how)
    return left_idx, right_idx


def join_rows(
    left_keys: Sequence[Union[ColumnEncoding, np.ndarray]],
    right_keys: Sequence[Union[ColumnEncoding, np.ndarray]],
    how: str = "inner",
    merges: Optional[MergeMemo] = None,
) -> Tuple[np.ndarray, np.ndarray, bool]:
    """:func:`join_indices` plus whether ``left_idx`` is the identity:
    every left row matched exactly once, and no padded row was appended
    (the fact-to-dimension LEFT JOIN), so the left side passes through.
    ``merges`` memoizes the dictionary merges (a connection's
    :class:`MergeMemo`)."""
    if len(left_keys) != len(right_keys) or not left_keys:
        raise ExecutionError("join_indices: key arity mismatch")
    left = [_as_encoding(key) for key in left_keys]
    right = [_as_encoding(key) for key in right_keys]
    if len(left) == 1:
        return _indexed_join(left[0], right[0], how, merges)
    lcodes, rcodes, lnull, rnull = _compose_shared(left, right, merges)
    # Null keys are excluded from matching by pushing them out of range.
    lcodes = np.where(lnull, -1, lcodes)
    rcodes = np.where(rnull, -2, rcodes)

    order = np.argsort(rcodes, kind="stable")
    span = int(max(lcodes.max(initial=0), rcodes.max(initial=0))) + 3
    if span <= max(4 * (len(lcodes) + len(rcodes)), 65_536):
        # O(n) bucket lookup: counts and start offsets per (shifted) code.
        shifted_r = rcodes + 2
        bucket_counts = np.bincount(shifted_r, minlength=span)
        bucket_starts = np.concatenate(
            [[0], np.cumsum(bucket_counts)[:-1]]
        )
        shifted_l = lcodes + 2
        counts = bucket_counts[shifted_l]
        starts = bucket_starts[shifted_l]
    else:
        sorted_r = rcodes[order]
        starts = np.searchsorted(sorted_r, lcodes, side="left")
        ends = np.searchsorted(sorted_r, lcodes, side="right")
        counts = ends - starts
    left_idx, right_idx, in_order = _expand_matches(counts, starts, order)
    return _pad_outer(left_idx, right_idx, in_order, counts, len(rcodes), how)


# ---------------------------------------------------------------------------
# Grouped aggregation
# ---------------------------------------------------------------------------
def group_sum(codes: np.ndarray, ngroups: int, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-group SUM skipping NaNs; returns (sums, non-null counts)."""
    values = np.asarray(values, dtype=np.float64)
    null = np.isnan(values)
    if null.any():
        values = np.where(null, 0.0, values)
        counts = np.bincount(codes[~null], minlength=ngroups)
    else:
        counts = np.bincount(codes, minlength=ngroups)
    # bincount returns int64 on empty input; force float for NaN marking.
    sums = np.bincount(codes, weights=values, minlength=ngroups).astype(np.float64)
    return sums, counts


def group_count_star(codes: np.ndarray, ngroups: int) -> np.ndarray:
    """Per-group COUNT(*): every row counts, nulls included."""
    return np.bincount(codes, minlength=ngroups).astype(np.int64)


def group_count(codes: np.ndarray, ngroups: int, values: np.ndarray) -> np.ndarray:
    """Per-group COUNT(x): the non-null values of each group."""
    values = np.asarray(values)
    if values.dtype == object:
        nonnull = np.array([v is not None for v in values], dtype=bool)
    elif values.dtype.kind == "f":
        nonnull = ~np.isnan(values)
    else:
        nonnull = np.ones(len(values), dtype=bool)
    return np.bincount(codes[nonnull], minlength=ngroups).astype(np.int64)


def group_count_distinct(codes: np.ndarray, ngroups: int, values: np.ndarray) -> np.ndarray:
    """Per-group COUNT(DISTINCT x), nulls skipped."""
    return group_count_distinct_encoded(codes, ngroups, encode_values(values))


def group_count_distinct_encoded(
    codes: np.ndarray, ngroups: int, encoding: ColumnEncoding
) -> np.ndarray:
    """Per-group COUNT(DISTINCT x) over x's encoding: the distinct codes
    present among each group's non-null rows.  Codes are value-ordered
    and dictionary entries distinct, so an unused entry (a gathered
    encoding's) is simply never counted."""
    keep = ~encoding.nulls()
    width = encoding.cardinality
    pair = codes[keep].astype(np.int64) * width + encoding.codes[keep]
    span = ngroups * width
    if span <= max(4 * len(pair), 65_536):
        present = np.zeros(span, dtype=bool)
        present[pair] = True
        return present.reshape(ngroups, width).sum(axis=1).astype(np.int64)
    unique_pairs = np.unique(pair)
    return np.bincount(unique_pairs // width, minlength=ngroups).astype(np.int64)


def group_min(codes: np.ndarray, ngroups: int, values: np.ndarray) -> np.ndarray:
    """Per-group MIN skipping NaNs; NaN for a group with no value."""
    values = np.asarray(values, dtype=np.float64)
    out = np.full(ngroups, np.inf)
    keep = ~np.isnan(values)
    np.minimum.at(out, codes[keep], values[keep])
    out[np.isinf(out)] = np.nan
    return out


def group_max(codes: np.ndarray, ngroups: int, values: np.ndarray) -> np.ndarray:
    """Per-group MAX skipping NaNs; NaN for a group with no value."""
    values = np.asarray(values, dtype=np.float64)
    out = np.full(ngroups, -np.inf)
    keep = ~np.isnan(values)
    np.maximum.at(out, codes[keep], values[keep])
    out[np.isinf(out)] = np.nan
    return out


def group_median(codes: np.ndarray, ngroups: int, values: np.ndarray) -> np.ndarray:
    """Per-group MEDIAN skipping NaNs, in pure array ops.

    After the lexsort, every group is a contiguous segment; its median is
    the mean of the two middle elements (which coincide for odd-sized
    segments), so a single gather at ``start + (n-1)//2`` and
    ``start + n//2`` replaces a Python-level ``np.median`` call per group.
    Halving a sum is an exact power-of-two scaling, so the result matches
    ``np.median`` bit for bit.
    """
    values = np.asarray(values, dtype=np.float64)
    keep = ~np.isnan(values)
    codes, values = codes[keep], values[keep]
    out = np.full(ngroups, np.nan)
    if len(values) == 0:
        return out
    order = np.lexsort((values, codes))
    codes_sorted, values_sorted = codes[order], values[order]
    boundaries = np.flatnonzero(np.diff(codes_sorted)) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [len(codes_sorted)]])
    counts = ends - starts
    lower = values_sorted[starts + (counts - 1) // 2]
    upper = values_sorted[starts + counts // 2]
    out[codes_sorted[starts]] = 0.5 * (lower + upper)
    return out


def group_var(codes: np.ndarray, ngroups: int, values: np.ndarray) -> np.ndarray:
    """Per-group population VARIANCE skipping NaNs; NaN for a group
    with no value."""
    sums, counts = group_sum(codes, ngroups, values)
    sq, _ = group_sum(codes, ngroups, np.asarray(values, dtype=np.float64) ** 2)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = sums / counts
        out = sq / counts - mean**2
    out[counts == 0] = np.nan
    return out


# ---------------------------------------------------------------------------
# Window functions (default RANGE frame: peers included)
# ---------------------------------------------------------------------------
def window_eval(
    func: str,
    values: Optional[np.ndarray],
    partition_codes: Optional[np.ndarray],
    order_keys: List[Tuple[np.ndarray, bool]],
    num_rows: int,
) -> np.ndarray:
    """Evaluate a running window aggregate.

    ``order_keys`` is a list of (array, ascending) pairs; the default SQL
    frame ``RANGE UNBOUNDED PRECEDING`` is used, so rows tied on the order
    key are peers and share the running value (this matches DuckDB for the
    paper's prefix-sum splits).  With no ORDER BY the whole partition is
    the frame.
    """
    if partition_codes is None:
        partition_codes = np.zeros(num_rows, dtype=np.int64)

    sort_columns: List[np.ndarray] = []
    for arr, ascending in reversed(order_keys):
        arr = np.asarray(arr)
        if arr.dtype == object:
            arr, _ = _normalize_key(arr)
            arr = np.unique(arr, return_inverse=True)[1].astype(np.float64)
        else:
            arr = arr.astype(np.float64)
        sort_columns.append(arr if ascending else -arr)
    sort_columns.append(partition_codes)
    order = np.lexsort(tuple(sort_columns)) if num_rows else np.zeros(0, dtype=np.int64)

    part_sorted = partition_codes[order]
    if func == "row_number":
        seq = np.arange(1, num_rows + 1, dtype=np.int64)
        if num_rows:
            part_start = np.concatenate([[0], np.flatnonzero(np.diff(part_sorted)) + 1])
            offsets = np.zeros(num_rows, dtype=np.int64)
            offsets[part_start] = np.concatenate([[0], part_start[1:]]) if len(part_start) else 0
            base = np.repeat(seq[part_start], np.diff(np.append(part_start, num_rows)))
            seq = seq - base + 1
        out = np.empty(num_rows, dtype=np.float64)
        out[order] = seq
        return out

    if values is None:
        raise ExecutionError(f"window {func} requires an argument")
    vals_sorted = np.asarray(values, dtype=np.float64)[order]
    nulls = np.isnan(vals_sorted)

    if func in ("sum", "avg", "count"):
        add = np.where(nulls, 0.0, vals_sorted) if func != "count" else (~nulls).astype(np.float64)
        running = np.cumsum(add)
        counts = np.cumsum((~nulls).astype(np.float64))
    elif func in ("min", "max"):
        running = _segmented_extreme(vals_sorted, part_sorted, func)
        counts = np.cumsum((~nulls).astype(np.float64))
    else:
        raise ExecutionError(f"unsupported window function {func!r}")

    if func in ("sum", "avg", "count"):
        # Reset per partition: subtract the running value before the partition.
        if num_rows:
            part_start = np.concatenate([[0], np.flatnonzero(np.diff(part_sorted)) + 1])
            start_offset = np.zeros(num_rows)
            prefix_before = np.concatenate([[0.0], running])[part_start]
            start_offset = np.repeat(
                prefix_before, np.diff(np.append(part_start, num_rows))
            )
            running = running - start_offset
            count_before = np.concatenate([[0.0], counts])[part_start]
            counts = counts - np.repeat(
                count_before, np.diff(np.append(part_start, num_rows))
            )

    if order_keys and num_rows:
        # Peers (equal partition + order key) share the frame-end value.
        peer_key = np.zeros(num_rows, dtype=bool)
        peer_key[0] = True
        for arr, _ in order_keys:
            arr = np.asarray(arr)
            comparable, _ = _normalize_key(arr)
            sorted_vals = comparable[order]
            if sorted_vals.dtype.kind in ("U", "S", "O"):
                change = sorted_vals[1:] != sorted_vals[:-1]
            else:
                change = sorted_vals[1:] != sorted_vals[:-1]
            peer_key[1:] |= np.asarray(change)
        peer_key[1:] |= part_sorted[1:] != part_sorted[:-1]
        group_ids = np.cumsum(peer_key) - 1
        last_of_group = np.concatenate([np.flatnonzero(peer_key[1:]), [num_rows - 1]])
        running = running[last_of_group][group_ids]
        counts = counts[last_of_group][group_ids]
    elif not order_keys and num_rows:
        # No ORDER BY: the frame is the whole partition.
        part_start = np.concatenate([[0], np.flatnonzero(np.diff(part_sorted)) + 1])
        part_id = np.cumsum(np.concatenate([[True], np.diff(part_sorted) != 0])) - 1
        last = np.concatenate([part_start[1:] - 1, [num_rows - 1]])
        running = running[last][part_id]
        counts = counts[last][part_id]

    if func == "avg":
        with np.errstate(invalid="ignore", divide="ignore"):
            running = running / counts
    if func == "count":
        running = counts

    out = np.empty(num_rows, dtype=np.float64)
    out[order] = running
    return out


def _segmented_extreme(values: np.ndarray, segments: np.ndarray, func: str) -> np.ndarray:
    out = np.empty_like(values)
    if not len(values):
        return out
    boundaries = np.concatenate(
        [[0], np.flatnonzero(np.diff(segments)) + 1, [len(values)]]
    )
    op = np.fmin if func == "min" else np.fmax
    for s, e in zip(boundaries[:-1], boundaries[1:]):
        out[s:e] = op.accumulate(values[s:e])
    return out


def sort_indices(keys: List[Tuple[np.ndarray, bool]], num_rows: int) -> np.ndarray:
    """Stable multi-key sort; NaNs/Nones sort last on ascending keys."""
    if not keys:
        return np.arange(num_rows)
    columns = []
    for arr, ascending in reversed(keys):
        arr = np.asarray(arr)
        if arr.dtype == object:
            comparable, nulls = _normalize_key(arr)
            codes = np.unique(comparable, return_inverse=True)[1].astype(np.float64)
            codes[nulls] = np.inf
            arr = codes
        else:
            arr = arr.astype(np.float64)
        if not ascending:
            with np.errstate(invalid="ignore"):
                arr = -arr
        # Push NaN last regardless of direction.
        arr = np.where(np.isnan(arr), np.inf, arr)
        columns.append(arr)
    return np.lexsort(tuple(columns))
