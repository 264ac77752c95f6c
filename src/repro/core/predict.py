"""Inference and evaluation over the join graph.

Training never materializes R⋈, but evaluation needs per-tuple scores.
For snowflake schemas the fact table is 1-1 with R⋈, so scoring needs only
a *narrow* join: the fact table's rows augmented with exactly the feature
columns the model references (each dimension contributes a couple of
columns, fetched with N-to-1 joins).  :func:`feature_frame` builds that
frame for every fact row; :func:`gather_frame` builds it for just the fact
rows a key predicate reaches ("score user id X") without ever touching the
rest of the fact — the per-table semi-join annotation idea of the
reference ``cjt.annotations``, run over the cached key encodings.  The
model classes route rows through their trees vectorized.
"""

from __future__ import annotations

import numbers
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import TrainingError
from repro.engine.operators import ColumnEncoding, encode_values, join_indices
from repro.joingraph.graph import JoinGraph
from repro.joingraph.hypertree import edge_between, rooted_tree


KeyValue = Union[str, int, float, None]


def _join_order(graph: JoinGraph, fact: str):
    """``(parent_map, order)``: the join tree rooted at ``fact`` and its
    relations top-down (breadth-first, the fact first)."""
    parent_map, _, bottom_up = rooted_tree(graph, fact)
    return parent_map, bottom_up[::-1]


def _owner(db, order: Sequence[str], column: str) -> str:
    """The first relation (top-down from the fact) storing ``column``."""
    for name in order:
        if column in db.table(name).column_names():
            return name
    raise TrainingError(f"no relation provides column {column!r}")


def _gather_values(col, idx: np.ndarray) -> np.ndarray:
    """``col`` at row positions ``idx`` in the frame convention: float64
    with NaN for numeric NULLs, object with ``None`` for string NULLs; a
    position of -1 (dangling join key) is NULL."""
    textual = col.ctype.name == "STR"
    if len(col.values) == 0:
        # No rows to index: every position dangles, and indexing even
        # row 0 of a zero-row column would raise.
        if textual:
            return np.full(len(idx), None, dtype=object)
        return np.full(len(idx), np.nan)
    missing = idx < 0
    safe = np.where(missing, 0, idx)
    if textual:
        values = col.values[safe].astype(object)
        values[missing] = None
        return values
    values = col.values[safe].astype(np.float64, copy=False)
    if col.valid is not None:
        values[~col.valid[safe]] = np.nan
    values[missing] = np.nan
    return values


def feature_frame(
    db,
    graph: JoinGraph,
    columns: Optional[Sequence[str]] = None,
    fact: Optional[str] = None,
    include_target: bool = True,
) -> Dict[str, np.ndarray]:
    """Fact-aligned arrays for the requested feature columns.

    Walks the join tree rooted at the fact table; for each relation owning
    a requested column, composes the N-to-1 key mappings hop by hop so the
    returned arrays all align with fact rows.  NULLs appear where a join
    key has no match (left-join semantics).
    """
    fact = fact or graph.target_relation
    wanted: List[str]
    if columns is None:
        wanted = [f for _, f in graph.all_features()]
    else:
        wanted = list(columns)
    if include_target and graph.relations[fact].target:
        target = graph.relations[fact].target
        if target not in wanted:
            wanted.append(target)

    parent_map, order = _join_order(graph, fact)
    n = db.table(fact).num_rows()

    # row_map[rel] = for each fact row, the matching row index in rel (-1
    # when missing).  Built top-down along the join tree.
    row_map: Dict[str, np.ndarray] = {fact: np.arange(n)}
    for relation in order[1:]:
        parent = parent_map[relation]
        edge = edge_between(graph, relation, parent)
        parent_table = db.table(parent)
        child_table = db.table(relation)
        parent_idx = row_map[parent]
        parent_keys = [
            _gather_values(parent_table.column(key), parent_idx)
            for key in edge.keys_for(parent)
        ]
        child_keys = [
            child_table.column(k).values for k in edge.keys_for(relation)
        ]
        l_idx, r_idx = join_indices(parent_keys, child_keys, how="left")
        # N-to-1 joins have at most one match per fact row; if the data
        # violates that, the last match wins (evaluation path only).
        first = np.full(n, -1, dtype=np.int64)
        first[l_idx] = r_idx
        row_map[relation] = first

    out: Dict[str, np.ndarray] = {}
    for column in wanted:
        owner = _owner(db, order, column)
        out[column] = _gather_values(
            db.table(owner).column(column), row_map[owner]
        )
    return out


# ---------------------------------------------------------------------------
# Key scoring: the same frame for only the fact rows a key predicate reaches
# ---------------------------------------------------------------------------
def check_key_request(
    db,
    fact: str,
    keys: Mapping[str, object],
    extra_columns: Sequence[str] = (),
) -> Dict[str, KeyValue]:
    """Validate a "score the rows where key = value" request once, for
    every scoring path, and normalize its values.

    Key and extra columns must be stored on the fact table
    (:class:`TrainingError` otherwise — a configuration error, the same
    on every path).  Values become plain ``str`` / ``int`` / ``float``;
    a value no row can equal — ``None``, NaN, a non-scalar, a string
    against a numeric column or a number against a string column —
    becomes ``None``: SQL ``= NULL`` is never true, so such a request
    matches no rows rather than raising.  Settling the str/numeric
    mismatch here, against the column's logical type, keeps a DBMS's own
    coercion rules (sqlite's column affinity makes ``'3' = 3`` true on an
    INTEGER column) out of the answer.  External connectors read that
    type off their client-side column snapshot, fetched once per data
    version.
    """
    if not keys:
        raise TrainingError("key scoring needs at least one key column")
    table = db.table(fact)
    stored = table.column_names()
    for column in [*keys, *extra_columns]:
        if column not in stored:
            raise TrainingError(f"fact table {fact!r} has no column {column!r}")
    out: Dict[str, KeyValue] = {}
    for column, value in keys.items():
        normalized: KeyValue = None
        if isinstance(value, str):
            normalized = value
        elif isinstance(value, numbers.Integral) and -(2**63) <= value < 2**63:
            normalized = int(value)
        elif isinstance(value, numbers.Real):
            as_float = float(value)
            normalized = as_float if as_float == as_float else None
        if normalized is not None:
            textual = table.column(column).ctype.name == "STR"
            if textual != isinstance(normalized, str):
                normalized = None
        out[column] = normalized
    return out


def _encoding(db, table: str, column: str) -> ColumnEncoding:
    """The key encoding of one stored column: the connector's cached,
    version-stamped one when it serves encodings, else an encode of the
    client-side column snapshot — memoized on the Column object, which
    external connectors cache per data version and no engine mutates in
    place, so it can never describe stale data."""
    encoding = db.encoding_for(table, column)
    if encoding is None:
        col = db.table(table).column(column)
        if not isinstance(col.enc, ColumnEncoding):
            col.enc = encode_values(col.values, col.valid)
        encoding = col.enc
    return encoding


def _codes(encoding: ColumnEncoding, values: np.ndarray) -> np.ndarray:
    """Dictionary code of each probe value, -1 where no stored key equals
    it.  Key equality for the gather, on request keys and join hops
    alike: numbers compare by value (``3 == 3.0``), strings by text, a
    string never equals a number, and NULL (NaN / ``None``) equals
    nothing — stored NULLs are not in the dictionary at all.  The SQL
    key path agrees because :func:`check_key_request` has already turned
    a str/numeric mismatch into NULL."""
    uniques = encoding.uniques
    none = np.full(len(values), -1, dtype=np.int64)
    textual = uniques.dtype.kind in "US"
    if not len(uniques) or not len(values) or textual != (values.dtype == object):
        return none
    comparable = None
    if textual:
        comparable = values != None  # noqa: E711 - elementwise
        probe = np.where(comparable, values, "").astype("U")
    elif values.dtype.kind == "f" and uniques.dtype.kind in "iu":
        with np.errstate(invalid="ignore"):
            probe = values.astype(np.int64)
        comparable = probe == values  # not NaN, fractional or out of range
    else:
        probe = values  # a NaN probe equals no stored float
    position = np.minimum(np.searchsorted(uniques, probe), len(uniques) - 1)
    hit = uniques[position] == probe
    if comparable is not None:
        hit &= comparable
    return np.where(hit, position, none)


def _candidates(
    encodings: Sequence[ColumnEncoding], codes: Sequence[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """``(probe, row)`` pairs: every stored row whose key tuple equals
    probe tuple ``i`` (``codes[j][i]`` per key column ``j``; a negative
    code matches nothing), probe-major with rows ascending.

    The highest-cardinality key column drives through its grouped row
    index (an O(matches) bucket read); the other columns of a composite
    key filter the candidates by code."""
    driver = max(range(len(encodings)), key=lambda j: encodings[j].cardinality)
    order, starts, counts = encodings[driver].ensure_group_index()
    matched = np.flatnonzero(np.logical_and.reduce([c >= 0 for c in codes]))
    code = codes[driver][matched]
    sizes = counts[code]
    probe = np.repeat(matched, sizes)
    within = np.arange(len(probe)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    rows = order[np.repeat(starts[code], sizes) + within]
    keep = np.ones(len(rows), dtype=bool)
    for j, encoding in enumerate(encodings):
        if j != driver:
            keep &= encoding.codes[rows] == codes[j][probe]
    return probe[keep], rows[keep]


def gather_frame(
    db,
    graph: JoinGraph,
    columns: Sequence[str],
    keys: Mapping[str, KeyValue],
    fact: Optional[str] = None,
) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """:func:`feature_frame` restricted to the fact rows matching ``keys``,
    in O(matching rows) instead of O(fact).

    Returns ``(rows, frame)``: the positions of the fact rows whose key
    columns equal ``keys`` (ascending; several key columns intersect) and
    the feature arrays aligned with them — column for column what
    ``feature_frame(...)[column][mask]`` holds, including left-join NULLs
    for dangling keys and last-match-wins on duplicate dimension keys.

    Nothing scans the fact: the rows come from the key column's grouped
    row index, and each hop looks the join keys of just those rows up in
    the next relation's key encoding, only along the paths to relations
    that own a requested column.  ``keys`` are values normalized by
    :func:`check_key_request`.
    """
    fact = fact or graph.target_relation
    encodings = [_encoding(db, fact, column) for column in keys]
    probes = [
        np.array([value], dtype=object) if isinstance(value, str)
        else np.array([np.nan if value is None else value])
        for value in keys.values()
    ]
    _, rows = _candidates(
        encodings, [_codes(e, p) for e, p in zip(encodings, probes)]
    )

    parent_map, order = _join_order(graph, fact)
    row_map: Dict[str, np.ndarray] = {fact: rows}

    def positions(relation: str) -> np.ndarray:
        if relation not in row_map:
            parent = parent_map[relation]
            edge = edge_between(graph, relation, parent)
            parent_table = db.table(parent)
            parent_idx = positions(parent)
            child_encodings = [
                _encoding(db, relation, k) for k in edge.keys_for(relation)
            ]
            child_codes = [
                _codes(e, _gather_values(parent_table.column(k), parent_idx))
                for e, k in zip(child_encodings, edge.keys_for(parent))
            ]
            probe, matches = _candidates(child_encodings, child_codes)
            # N-to-1 joins match at most one row; on duplicate dimension
            # keys the last match wins, as in feature_frame.
            last = np.ones(len(probe), dtype=bool)
            last[:-1] = probe[1:] != probe[:-1]
            row_map[relation] = np.full(len(rows), -1, dtype=np.int64)
            row_map[relation][probe[last]] = matches[last]
        return row_map[relation]

    frame: Dict[str, np.ndarray] = {}
    for column in columns:
        owner = _owner(db, order, column)
        frame[column] = _gather_values(
            db.table(owner).column(column), positions(owner)
        )
    return rows, frame


def predict_join(db, graph: JoinGraph, model, fact: Optional[str] = None) -> np.ndarray:
    """Score every fact row of the join graph with ``model``.

    ``model`` is anything exposing ``predict_arrays`` (a single tree, a
    forest, or a boosting model).
    """
    needed = getattr(model, "required_features", None)
    frame = feature_frame(db, graph, columns=needed, fact=fact)
    return model.predict_arrays(frame)


def rmse_on_join(
    db, graph: JoinGraph, model, fact: Optional[str] = None
) -> float:
    """Root-mean-square error of ``model`` against the target column."""
    fact = fact or graph.target_relation
    target = graph.relations[fact].target
    if target is None:
        raise TrainingError(f"relation {fact!r} declares no target")
    frame = feature_frame(db, graph, fact=fact)
    y = frame[target]
    scores = model.predict_arrays(frame)
    keep = ~np.isnan(y)
    return float(np.sqrt(np.mean((y[keep] - scores[keep]) ** 2)))
