"""Key codes carried through operators: each key is encoded once per connection.

A column derived from a key column without changing its values keeps the
key's codes instead of being encoded again: a projected bare column
reference (``CREATE TABLE … AS SELECT t.k …``), a ``GROUP BY`` key
(``encoding.take(first_idx)``), and a ``COUNT(DISTINCT k)`` reads them.
The invariant every carried encoding must meet, checked here on
generated tables, is that it describes the column exactly as a fresh
``encode_values(col.values, col.valid)`` does: the same NULL rows, the
same value on every other row, codes in value order (unused dictionary
entries allowed).  The statements' results are compared with a run whose
stored columns are stripped of every carried encoding, and with stdlib
``sqlite3`` where the key types mean the same in both engines.

Also here: the hashed encode of all-``str`` object columns against the
sort path, the connection's dictionary-merge memo, and thread parity on
string-keyed Favorita (the memo shared by task-runner workers).
"""

from __future__ import annotations

import math
import sqlite3

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.serialize import model_digest
from repro.datasets import favorita
from repro.engine import operators as ops
from repro.engine.database import Database
from repro.engine.operators import ColumnEncoding, encode_values
from repro.factorize.executor import Factorizer
from repro.semiring.variance import VarianceSemiRing


def assert_matches_fresh(encoding: ColumnEncoding, values, valid) -> None:
    """``encoding`` describes the column as a fresh encode does."""
    fresh = encode_values(values, valid)
    nulls = encoding.nulls()
    assert np.array_equal(nulls, fresh.nulls())
    assert encoding.uniques.dtype.kind == fresh.uniques.dtype.kind
    uniques = encoding.uniques
    # codes in value order: the dictionary is sorted and distinct
    assert np.all(uniques[1:] > uniques[:-1])
    live = ~nulls
    assert np.all(encoding.codes[live] < len(uniques))
    assert np.array_equal(
        uniques[encoding.codes[live]], fresh.uniques[fresh.codes[live]]
    )
    if nulls.any():
        assert encoding.has_null
        assert np.all(encoding.codes[nulls] == encoding.cardinality - 1)


def carried_columns(db: Database, table: str):
    """The stored columns of ``table`` that hold a carried encoding or
    hint (read before anything encodes them), each checked against a
    fresh encode."""
    carried = []
    for name in db.table(table).column_names():
        col = db.table(table).column(name)
        if col.enc is None:
            continue
        assert_matches_fresh(db.encodings.encoding_for(col), col.values, col.valid)
        carried.append(name)
    return carried


# ---------------------------------------------------------------------------
# Generated tables
# ---------------------------------------------------------------------------
_TEXT = ("a", "b", "", "é", "ß", "a b")
KEY_VALUES = {
    "int": st.integers(-3, 5),
    "float": st.one_of(st.integers(-3, 5).map(float), st.just(math.nan)),
    "str": st.one_of(st.sampled_from(_TEXT), st.none()),
    "mixed": st.one_of(
        st.integers(0, 3), st.sampled_from(("1", "a", "")), st.none()
    ),
}
#: kinds whose key comparisons mean the same in sqlite (no text/number mix)
SQLITE_KINDS = ("int", "float", "str")


def _array(values, kind: str) -> np.ndarray:
    if kind in ("str", "mixed"):
        return np.array(values, dtype=object)
    return np.array(values, dtype=np.int64 if kind == "int" else np.float64)


def schema(draw, kind: str):
    """``{table: {column: values}}``: a fact ``f`` over key ``k``, and a
    dimension ``d`` whose keys cover part of the fact's (pads on a LEFT
    JOIN) plus keys the fact lacks."""
    keys = st.lists(KEY_VALUES[kind], min_size=1, max_size=30)
    fact_keys = draw(keys)
    dim_keys = draw(keys)
    n = len(fact_keys)
    x = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    v = draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n))
    m = len(dim_keys)
    c = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    names = draw(st.lists(st.one_of(st.sampled_from(_TEXT), st.none()),
                          min_size=m, max_size=m))
    return {
        "f": {"k": _array(fact_keys, kind), "x": np.array(x),
              "v": np.array(v) / 4.0},
        "d": {"k": _array(dim_keys, kind), "c": np.array(c),
              "name": np.array(names, dtype=object)},
    }


#: statements whose outputs carry codes: projections, GROUP BY keys (also
#: over LEFT JOIN pads, masked INT included), a carry of a carry, and
#: COUNT(DISTINCT) over the carried and padded columns
STATEMENTS = [
    "CREATE TABLE c1 AS SELECT t.k AS k, t.x AS x, t.v FROM f AS t",
    "CREATE TABLE c2 AS SELECT t.k AS k, SUM(t.v) AS s, COUNT(*) AS n "
    "FROM f AS t WHERE t.x > 0 GROUP BY t.k",
    "CREATE TABLE c3 AS SELECT u.k AS dk, u.c AS c, u.name AS name, t.k AS k "
    "FROM f AS t LEFT JOIN d AS u ON t.k = u.k",
    "CREATE TABLE c4 AS SELECT u.name AS name, u.c AS c, COUNT(*) AS n "
    "FROM f AS t LEFT JOIN d AS u ON t.k = u.k GROUP BY u.name, u.c",
    "CREATE TABLE c5 AS SELECT m.k AS k, m.n AS n FROM c2 AS m WHERE m.n > 1",
    "CREATE TABLE c6 AS SELECT q.c AS c, q.name AS name, COUNT(*) AS n "
    "FROM c3 AS q GROUP BY q.c, q.name",
]
QUERIES = [
    "SELECT COUNT(DISTINCT k) AS a, COUNT(DISTINCT x) AS b, COUNT(*) AS n "
    "FROM c1",
    "SELECT t.x, COUNT(DISTINCT t.k) AS a FROM c1 AS t GROUP BY t.x",
    "SELECT COUNT(DISTINCT q.dk) AS a, COUNT(DISTINCT q.c) AS b, "
    "COUNT(DISTINCT q.name) AS e FROM c3 AS q",
    "SELECT q.c, COUNT(DISTINCT q.name) AS a FROM c3 AS q GROUP BY q.c",
    "SELECT m.k, m.n, u.c FROM c5 AS m INNER JOIN d AS u ON m.k = u.k",
    "SELECT m.k, m.s, u.name FROM c2 AS m LEFT JOIN d AS u ON m.k = u.k",
    "SELECT g.name, g.c, g.n, u.k FROM c6 AS g INNER JOIN d AS u "
    "ON g.name = u.name",
    "SELECT g.c, SUM(g.n) AS n FROM c4 AS g INNER JOIN d AS u "
    "ON g.c = u.c GROUP BY g.c",
]


def _plain(value):
    if value is None:
        return None
    if isinstance(value, (str, np.str_)):
        return ("s", str(value))
    value = float(value)
    return None if math.isnan(value) else ("n", value)


def _bag(rows):
    return sorted(
        (tuple(_plain(v) for v in row) for row in rows),
        key=lambda row: [(v is not None, v or ("", 0)) for v in row],
    )


def run_embedded(tables, strip: bool):
    """Every statement then every query: ``({table: carried columns},
    results)``.  ``strip`` drops the carried encodings of each created
    table, so its keys are encoded afresh."""
    db = Database()
    for name, columns in tables.items():
        db.create_table(name, columns)
    carried = {}
    for sql in STATEMENTS:
        db.execute(sql)
        created = sql.split()[2]
        carried[created] = carried_columns(db, created)
        if strip:
            for name in db.table(created).column_names():
                db.table(created).column(name).enc = None
    return carried, [_bag(db.execute(sql).rows()) for sql in QUERIES]


def run_sqlite(tables):
    conn = sqlite3.connect(":memory:")
    for name, columns in tables.items():
        cols = list(columns)
        conn.execute(f"CREATE TABLE {name} ({', '.join(cols)})")
        rows = zip(*(
            [None if v is None or (isinstance(v, float) and math.isnan(v))
             else v.item() if isinstance(v, np.generic) else v
             for v in values]
            for values in columns.values()
        ))
        conn.executemany(
            f"INSERT INTO {name} VALUES ({', '.join('?' * len(cols))})",
            list(rows),
        )
    for sql in STATEMENTS:
        conn.execute(sql)
    out = [_bag(conn.execute(sql).fetchall()) for sql in QUERIES]
    conn.close()
    return out


@pytest.mark.parametrize("kind", sorted(KEY_VALUES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_carried_encodings_match_a_fresh_encode(kind, data):
    tables = schema(data.draw, kind)
    carried, carried_results = run_embedded(tables, strip=False)
    # the fact key projects and groups with its codes (what else
    # carries depends on the pads, and was checked on the way)
    assert "k" in carried["c1"] and "k" in carried["c2"]
    assert "k" in carried["c5"]
    _, fresh_results = run_embedded(tables, strip=True)
    assert carried_results == fresh_results
    if kind in SQLITE_KINDS:
        assert carried_results == run_sqlite(tables)


def test_masked_int_group_key_carries_no_codes():
    """A padded INT key evaluates to FLOAT: its GROUP BY output and its
    projection keep no encoding of the INT column."""
    db = Database()
    db.create_table("f", {"k": np.array([0, 1, 2, 7])})
    db.create_table("d", {"k": np.array([0, 1, 2]), "c": np.array([5, 6, 5])})
    db.execute(
        "CREATE TABLE g AS SELECT u.c AS c, COUNT(*) AS n FROM f AS t "
        "LEFT JOIN d AS u ON t.k = u.k GROUP BY u.c"
    )
    db.execute(
        "CREATE TABLE p AS SELECT u.c AS c FROM f AS t "
        "LEFT JOIN d AS u ON t.k = u.k"
    )
    for table in ("g", "p"):
        col = db.table(table).column("c")
        assert col.ctype.name == "FLOAT" and col.enc is None


def test_lift_reuses_the_probed_fact_key_codes():
    """``analyze``'s COUNT(DISTINCT) probe encodes each fact key once;
    the lifted copy and every message temp then read those codes."""
    db, graph = favorita(num_fact_rows=3000, seed=7, key_dtype="str")
    ops.reset_encode_census()
    graph.analyze()
    probed = ops.encode_census()["passes"]
    assert probed == db.encodings.stores
    factorizer = Factorizer(db, graph, VarianceSemiRing())
    factorizer.lift()
    warmed = factorizer.warm_encodings()
    assert warmed > 0
    assert ops.encode_census()["passes"] == probed
    factorizer.cleanup()


def test_message_temp_keys_are_never_re_encoded():
    db, graph = favorita(num_fact_rows=3000, seed=7, key_dtype="str")
    repro.train_gradient_boosting(
        db, graph, {"num_iterations": 2, "num_leaves": 6}
    )
    messages = [
        p for p in db.profiles
        if p.tag == "message" and p.kind == "CreateTableAs"
    ]
    assert messages
    # at most the frontier's label column, once per label version: the
    # grouped key takes the lifted fact key's codes
    assert all(p.encode_passes <= 1 for p in messages)
    assert sum(p.encode_passes for p in messages) < len(messages)
    assert db.encodings.merges.hits > db.encodings.merges.misses


# ---------------------------------------------------------------------------
# The hashed string encode
# ---------------------------------------------------------------------------
def sort_path(values: np.ndarray, valid=None):
    """The reference: ``np.unique`` over ``astype("U")`` of the non-null
    rows, as ``encode_values`` did for every object column."""
    nulls = np.asarray(values == None, dtype=bool)  # noqa: E711
    if valid is not None:
        nulls |= ~valid
    work = values[~nulls]
    comparable = work.astype("U") if len(work) else np.zeros(0, dtype="U1")
    uniques, inverse = np.unique(comparable, return_inverse=True)
    return uniques, inverse.reshape(-1), nulls


_STRINGS = st.one_of(
    st.sampled_from(("", "a", "b", "é", "日本", "a\x00b", "\x00", "a\x00")),
    st.text(max_size=4),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.one_of(_STRINGS, st.none(), st.integers(-2, 2)), max_size=30),
    st.booleans(),
    st.data(),
)
def test_hashed_string_encode_equals_the_sort_path(values, masked, data):
    array = np.empty(len(values), dtype=object)
    array[:] = values
    valid = None
    if masked and len(values):
        valid = np.array(data.draw(st.lists(
            st.booleans(), min_size=len(values), max_size=len(values)
        )))
    encoding = encode_values(array, valid)
    uniques, inverse, nulls = sort_path(array, valid)
    assert encoding.uniques.dtype == uniques.dtype
    assert np.array_equal(encoding.uniques, uniques)
    assert np.array_equal(encoding.nulls(), nulls)
    assert np.array_equal(encoding.codes[~nulls], inverse)
    assert np.all(encoding.codes[nulls] == len(uniques))
    work = [v for v, null in zip(values, nulls) if not null]
    hashed = all(
        type(v) is str and not v.endswith("\x00") for v in work
    ) and bool(work)
    assert (ops._hash_encode_strings(array[~nulls]) is not None) == hashed


def test_string_encode_fallbacks():
    """A trailing NUL merges with its stripped twin and a number with its
    text, as ``astype("U")`` has them, on the sort path."""
    encoding = encode_values(np.array(["a\x00", "a", "b"], dtype=object))
    assert list(encoding.codes) == [0, 0, 1]
    mixed = encode_values(np.array([1, "1", "a", None], dtype=object))
    assert list(mixed.codes) == [0, 0, 1, 2]
    empty = encode_values(np.zeros(0, dtype=object))
    assert empty.uniques.dtype == np.dtype("U1") and len(empty.codes) == 0


# ---------------------------------------------------------------------------
# The dictionary-merge memo
# ---------------------------------------------------------------------------
def test_merge_memo_hits_on_shared_dictionaries_only():
    memo = ops.MergeMemo()
    left = encode_values(np.array(["b", "c", None], dtype=object))
    right = encode_values(np.array(["a", "c"], dtype=object))
    first = memo.merge(left, right)
    # a gathered encoding shares its parent's dictionary: a hit
    again = memo.merge(left, right.take(np.array([1, 1, 0])))
    assert again is first and (memo.hits, memo.misses) == (1, 1)
    for got, want in zip(first, ops._merge_dictionaries(left, right)):
        assert np.array_equal(got, want)
    assert not first[0].flags.writeable
    # equal values in another dictionary object: a miss
    memo.merge(left, encode_values(np.array(["a", "c"], dtype=object)))
    assert (memo.hits, memo.misses) == (1, 2)


def test_merge_memo_is_byte_bounded():
    memo = ops.MergeMemo(max_bytes=4096)
    encodings = [encode_values(np.arange(i, i + 40)) for i in range(10)]
    for left, right in zip(encodings, encodings[1:]):
        memo.merge(left, right)
    assert memo.bytes <= 4096 and 0 < len(memo) < 9
    memo.clear()
    assert memo.bytes == 0 and len(memo) == 0


def test_threads_train_the_serial_digest_on_string_keys():
    """Four task-runner workers share one connection's merge memo."""
    digests = {}
    for workers in (1, 4):
        db, graph = favorita(num_fact_rows=3000, seed=11, key_dtype="str")
        model = repro.train_gradient_boosting(
            db, graph,
            {"num_iterations": 2, "num_leaves": 8, "num_workers": workers},
        )
        digests[workers] = model_digest(model)
        assert db.encodings.merges.hits > 0
    assert digests[4] == digests[1]
