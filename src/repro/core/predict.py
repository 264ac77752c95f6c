"""Inference and evaluation over the join graph.

Training never materializes R⋈, but evaluation needs per-tuple scores.
For snowflake schemas the fact table is 1-1 with R⋈, so scoring needs only
a *narrow* join: the fact table's rows augmented with exactly the feature
columns the model references (each dimension contributes a couple of
columns, fetched with N-to-1 joins).  :func:`feature_frame` builds that
frame for every fact row or for chosen ones — the rows a key predicate
reaches ("score user id X", :func:`key_rows`) without touching the rest
of the fact: the per-table semi-join annotation idea of the reference
``cjt.annotations``.  Every hop runs over the cached key encodings.  The
model classes route rows through their trees vectorized.
"""

from __future__ import annotations

import numbers
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import TrainingError
from repro.engine.operators import ColumnEncoding, encode_values
from repro.joingraph.graph import JoinEdge, JoinGraph
from repro.joingraph.hypertree import edge_between, rooted_tree


KeyValue = Union[str, int, float, None]

#: what a frame holds when no column is asked for (a model without
#: splits reads no feature): the fact row positions.  Scorers take the
#: row count from a frame's first array, so ``{}`` would score no rows.
ROW_COLUMN = "jb_row"


def _owner(db, bottom_up: Sequence[str], column: str) -> str:
    """The first relation storing ``column`` top-down from the fact (the
    join tree's ``bottom_up`` order reversed: breadth-first)."""
    for name in reversed(bottom_up):
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
    rows: Optional[np.ndarray] = None,
) -> Dict[str, np.ndarray]:
    """Arrays of the requested feature columns aligned with fact rows.

    ``rows`` are the fact row positions to build the frame for (every
    fact row by default), e.g. a key's rows from :func:`key_rows`.  Each
    relation owning a requested column is reached from the fact down the
    join tree, one N-to-1 hop (:func:`_hop`) per edge and only along the
    paths to owners, so a frame costs O(rows) per hop and never reads the
    rest of the fact.  NULLs appear where a join key has no match
    (left-join semantics).  With no column to return, the frame is
    ``{ROW_COLUMN: rows}``.
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

    parent_map, _, bottom_up = rooted_tree(graph, fact)
    if rows is None:
        rows = np.arange(db.table(fact).num_rows())
    row_map: Dict[str, np.ndarray] = {fact: rows}

    def positions(relation: str) -> np.ndarray:
        # The hops down from the nearest relation already reached; a loop,
        # not a self-referencing closure, whose reference cycle would
        # keep every hop's positions alive until the next collection.
        missing = []
        hop = relation
        while hop not in row_map:
            missing.append(hop)
            hop = parent_map[hop]
        for child in reversed(missing):
            parent = parent_map[child]
            edge = edge_between(graph, child, parent)
            row_map[child] = _hop(db, edge, parent, child, row_map[parent])
        return row_map[relation]

    out: Dict[str, np.ndarray] = {}
    for column in wanted:
        owner = _owner(db, bottom_up, column)
        out[column] = _gather_values(
            db.table(owner).column(column), positions(owner)
        )
    return out or {ROW_COLUMN: rows}


# ---------------------------------------------------------------------------
# Key encodings: the rows a key predicate reaches, and the walk's hops
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
    it.  Key equality on request keys and join hops alike: numbers
    compare by value (``3 == 3.0``), strings by text, a string never
    equals a number, and NULL (NaN / ``None``) equals nothing — stored
    NULLs are not in the dictionary at all.  Probes are request values
    (``None`` for a NULL string) or another encoding's dictionary.  The
    SQL key path agrees because :func:`check_key_request` has already
    turned a str/numeric mismatch into NULL."""
    uniques = encoding.uniques
    none = np.full(len(values), -1, dtype=np.int64)
    textual = uniques.dtype.kind in "US"
    if (
        not len(uniques)
        or not len(values)
        or textual != (values.dtype.kind in "OUS")
    ):
        return none
    comparable = None
    if values.dtype == object:
        comparable = values != None  # noqa: E711 - elementwise
        probe = np.where(comparable, values, "").astype("U")
    elif textual:
        probe = values
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


def key_rows(db, fact: str, keys: Mapping[str, KeyValue]) -> np.ndarray:
    """Positions of the fact rows whose key columns equal ``keys``
    (ascending; several key columns intersect), read off the key
    column's grouped row index without scanning the fact.  ``keys`` are
    values normalized by :func:`check_key_request`; the rows' frame is
    ``feature_frame(..., rows=key_rows(...))``."""
    encodings = [_encoding(db, fact, column) for column in keys]
    probes = [
        np.array([value], dtype=object) if isinstance(value, str)
        else np.array([np.nan if value is None else value])
        for value in keys.values()
    ]
    _, rows = _candidates(
        encodings, [_codes(e, p) for e, p in zip(encodings, probes)]
    )
    return rows


def _last_match(
    encodings: Sequence[ColumnEncoding], codes: Sequence[np.ndarray]
) -> np.ndarray:
    """For each probe tuple of :func:`_candidates`, the last stored row
    whose key tuple equals it (-1 where none does): N-to-1 joins match at
    most one row, and on duplicate dimension keys the last one wins."""
    probe, rows = _candidates(encodings, codes)
    last = np.ones(len(probe), dtype=bool)
    last[:-1] = probe[1:] != probe[:-1]
    out = np.full(len(codes[0]), -1, dtype=np.int64)
    out[probe[last]] = rows[last]
    return out


def _hop(
    db, edge: JoinEdge, parent: str, relation: str, parent_rows: np.ndarray
) -> np.ndarray:
    """The row of ``relation`` each of ``parent_rows`` joins to over
    ``edge`` (-1 where none does; a parent row of -1 joins nothing).

    Keys match by :func:`_codes`, probed with the parent key's dictionary
    entries rather than re-hashed values: when the rows are at least as
    many as the parent's distinct keys, every entry is probed once and
    each row takes its entry's match; otherwise only the rows' own
    entries are probed.  A hop so costs O(min(rows, parent keys)) probes
    plus O(rows) takes."""
    child = [_encoding(db, relation, key) for key in edge.keys_for(relation)]
    sources = [_encoding(db, parent, key) for key in edge.keys_for(parent)]
    # Each row's parent dictionary code; one past the dictionary for a
    # NULL key (the NULL group is coded last) or a row that joins nothing.
    known = parent_rows >= 0
    codes = []
    for source in sources:
        code = np.full(len(parent_rows), len(source.uniques), dtype=np.int64)
        code[known] = source.codes[parent_rows[known]]
        codes.append(code)
    if len(parent_rows) >= max(len(source.uniques) for source in sources):
        probes = [
            np.append(_codes(encoding, source.uniques), -1)
            for encoding, source in zip(child, sources)
        ]
        if len(probes) == 1:
            return _last_match(child, probes)[codes[0]]
        return _last_match(child, [p[c] for p, c in zip(probes, codes)])
    probes = []
    for encoding, source, code in zip(child, sources, codes):
        keyed = code < len(source.uniques)
        probe = np.full(len(code), -1, dtype=np.int64)
        probe[keyed] = _codes(encoding, source.uniques[code[keyed]])
        probes.append(probe)
    return _last_match(child, probes)


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
