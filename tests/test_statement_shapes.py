"""Statement shapes: binding a cached shape equals parsing the text.

The embedded engine parses each statement *shape* once
(``repro.sql.shapes``) and binds the literals and ``jb_tmp_*`` names of
every later statement of that shape into the cached AST.  The contract is
``repr(bound) == repr(parse(text))`` — ``repr``, not ``==``, because
``Literal(1) == Literal(1.0)``.  It is checked here on every statement a
training logs, on a serving scan, on generated expressions, and on hand
cases for the slot scanner's edges; a threaded run checks that shapes
shared between workers bind each statement's own literals.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings

import repro
import repro.engine.database as database_module
import repro.sql.shapes as shapes_module
from repro.core.sql_score import scoring_select_sql
from repro.datasets import favorita
from repro.engine.database import Database
from repro.exceptions import SQLError
from repro.sql.parser import parse
from repro.sql.shapes import Shape, normalize

from test_sql_parser import _expr_strategy

TRAIN = {"num_iterations": 3, "num_leaves": 8}


def assert_binds_like_parse(texts):
    """Bind every text into one shared :class:`Shape` per shape key (as
    the engine does) and compare with a cold parse of the text."""
    shapes = {}
    checked = 0
    for text in texts:
        try:
            expected = repr(parse(text))
        except SQLError:
            continue  # the engine raises the parser's own error for these
        key, slots = normalize(text)
        if key not in shapes:
            shapes[key] = Shape(key, slots)
        assert repr(shapes[key].bind(text, slots)) == expected, text
        checked += 1
    return shapes, checked


@pytest.fixture
def parse_calls(monkeypatch):
    """Count calls of the parser the engine makes."""
    calls = []

    def counting(text):
        calls.append(text)
        return parse(text)

    monkeypatch.setattr(shapes_module, "parse", counting)
    monkeypatch.setattr(database_module, "parse", counting)
    return calls


def logged_training(monkeypatch, **params):
    """Train a 3 x 8 GBM on 4 000-row string-keyed Favorita; return the
    model, the database and every statement text the engine executed."""
    texts = []
    execute = Database.execute

    def logging_execute(self, sql_text, tag=None):
        texts.append(sql_text)
        return execute(self, sql_text, tag=tag)

    monkeypatch.setattr(Database, "execute", logging_execute)
    db, graph = favorita(num_fact_rows=4000, seed=3, key_dtype="str")
    model = repro.train_gradient_boosting(db, graph, {**TRAIN, **params})
    monkeypatch.setattr(Database, "execute", execute)
    return model, db, graph, texts


# ---------------------------------------------------------------------------
# Logged statements
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("params", [
    {"split_batching": "auto"},
    {"split_batching": "off"},
    {"missing": "both"},
], ids=["auto", "off", "missing-both"])
def test_every_training_statement_binds_like_parse(monkeypatch, params):
    _, db, _, texts = logged_training(monkeypatch, **params)
    shapes, checked = assert_binds_like_parse(texts)
    assert checked >= len(texts) - 3
    assert len(shapes) < len(set(texts)) / 5
    # every training shape binds through slot paths, none reparses
    assert all(shape.trie is not None for shape in db._parse_cache.values())


def test_training_parses_once_per_shape(monkeypatch, parse_calls):
    _, _, _, texts = logged_training(monkeypatch)
    # 3 trees x (7 rounds x 5 relations x (carry + fused read) + 7 label
    # updates) = 231, plus 21 set-up, totals, root-label and residual
    # statements: 252
    assert len(texts) > 250
    assert len(parse_calls) <= 50


def test_serving_scan_binds_like_parse(monkeypatch):
    model, db, graph, _ = logged_training(monkeypatch)
    fact = graph.target_relation
    scans = [
        scoring_select_sql(graph, model, fact, select_prefix=["t.item_id AS item_id"]),
        scoring_select_sql(graph, model, fact, select_prefix=["t.item_id AS item_id"],
                           where="t.item_id = 1"),
        scoring_select_sql(graph, model, fact, select_prefix=["t.item_id AS item_id"],
                           where="t.item_id = 2"),
    ]
    assert len(scans[0]) > 1000
    shapes, checked = assert_binds_like_parse(scans)
    assert checked == 3 and len(shapes) == 2
    # a verbatim repeat is served from the shape's memo
    first = db.execute(scans[0]).column("jb_score").values
    memo = db._parse_cache[normalize(scans[0])[0]].memo
    again = db.execute(scans[0]).column("jb_score").values
    assert db._parse_cache[normalize(scans[0])[0]].memo is memo
    assert np.array_equal(first, again)


def _slot_count(trie) -> int:
    return sum(
        _slot_count(child) if isinstance(child, dict) else 1
        for child in trie.values()
    )


def test_repeated_score_sql_rebinds_only_its_temp_name(monkeypatch):
    """Each ``score_sql`` scans a fresh ``jb_tmp_score_*`` copy of the
    fact, so consecutive scan texts differ in one name: the second bind
    rebuilds that one slot from the first bind's statements, not every
    split threshold of the model."""
    db, graph = favorita(num_fact_rows=2000, seed=7)
    model = repro.train_gradient_boosting(db, graph, TRAIN)
    service = repro.PredictionService(db, graph)
    service.deploy(model)
    gateway = repro.ServingGateway(service)
    rebuilt = []
    binds = []
    real_rebuild, real_bind = shapes_module._rebuild, Shape.bind

    def counting_rebuild(node, trie, values):
        rebuilt.append(_slot_count(trie))
        return real_rebuild(node, trie, values)

    def recording_bind(self, text, slots):
        statements = real_bind(self, text, slots)
        binds.append((text, slots, statements))
        return statements

    monkeypatch.setattr(shapes_module, "_rebuild", counting_rebuild)
    monkeypatch.setattr(Shape, "bind", recording_bind)
    first = gateway.score_sql()
    count = len(rebuilt)
    second = gateway.score_sql()
    assert np.array_equal(first.scores, second.scores)
    scan = max(binds, key=lambda bind: len(bind[1]))
    assert len(scan[1]) > 20
    # one rebuild per statement of the second call; the scan's rebinds
    # its one temp name (the copy's CREATE and DROP rebind theirs)
    assert rebuilt[count:] and max(rebuilt[count:]) == 1
    for text, _, statements in binds:
        assert repr(statements) == repr(parse(text))


def test_partial_rebind_binds_like_parse():
    """Consecutive binds of one shape whose slots change in some places
    (names, numbers, both, all) each equal a cold parse."""
    texts = [
        f"SELECT t.k, SUM(t.v) AS s FROM {name} AS t WHERE t.k IN ({a}, {b}) "
        f"AND t.v > {c} GROUP BY t.k"
        for name, a, b, c in [
            ("jb_tmp_x_1", 1, 2, 0.5), ("jb_tmp_x_2", 1, 2, 0.5),
            ("jb_tmp_x_2", 1, 3, 0.5), ("jb_tmp_x_3", 4, 3, 1.5),
            ("jb_tmp_x_3", 4, 3, 2), ("jb_tmp_x_4", 5, 6, 7),
            ("jb_tmp_x_1", 1, 2, 0.5),
        ]
    ]
    shapes, checked = assert_binds_like_parse(texts)
    assert checked == len(texts) and len(shapes) == 1


# ---------------------------------------------------------------------------
# Generated expressions
# ---------------------------------------------------------------------------
#: shapes shared across examples, so one example binds into a shape
#: another example parsed
_GENERATED: dict = {}


@given(_expr_strategy(), _expr_strategy())
@settings(max_examples=150, deadline=None)
def test_generated_expressions_bind_like_parse(item, condition):
    text = (
        f"SELECT {item.sql()} AS x, t.a FROM jb_tmp_a_1 AS t "
        f"WHERE {condition.sql()}"
    )
    key, slots = normalize(text)
    shape = _GENERATED.get(key)
    if shape is None:
        shape = _GENERATED[key] = Shape(key, slots)
    assert repr(shape.bind(text, slots)) == repr(parse(text))


# ---------------------------------------------------------------------------
# Hand cases
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("text,slots", [
    ("SELECT 'jb_tmp_q 12' AS s, \"jb_tmp_r 3\" FROM t WHERE v = 4",
     ("4",)),
    ("SELECT 'it''s 5' AS s FROM jb_tmp_z WHERE v = 6", ("jb_tmp_z", "6")),
    ("SELECT v -- 5 jb_tmp_x\nFROM t /* 7 jb_tmp_y\n 8 */ WHERE v > 2", ("2",)),
    ("SELECT -5 AS a, .5 AS b, 1e+16 AS c, 1.0 AS d, 1 AS e, 2E-3 AS f FROM t",
     ("5", ".5", "1e+16", "1.0", "1", "2E-3")),
    ("SELECT v FROM t ORDER BY v LIMIT 7", ()),
    ("SELECT v FROM t limit 7", ()),
    ("SELECT 1abc FROM t", ()),
    ("SELECT x_items_0, jb_leaf_s1 FROM t", ()),
    ("SELECT t.v FROM t WHERE t.k IN (1, 2.5, 3)", ("1", "2.5", "3")),
    ("UPDATE jb_tmp_a_1 SET g = jb_tmp_a_1.g + 1 WHERE jb_tmp_a_1.k IN (3, 4)",
     ("jb_tmp_a_1", "jb_tmp_a_1", "1", "jb_tmp_a_1", "3", "4")),
    ("CREATE TABLE jb_tmp_m_2 AS SELECT k FROM jb_tmp_m_1; DROP TABLE jb_tmp_m_1",
     ("jb_tmp_m_2", "jb_tmp_m_1", "jb_tmp_m_1")),
], ids=["quoted", "escaped-quote", "comments", "number-forms", "limit",
        "limit-lowercase", "glued-number", "glued-digits", "in-list", "update",
        "create-drop"])
def test_slots_and_binding(text, slots):
    assert normalize(text)[1] == slots
    shapes, checked = assert_binds_like_parse([text])
    assert checked == 1
    (shape,) = shapes.values()
    assert shape.trie is not None


def test_int_and_float_literals_share_a_shape_but_not_a_type():
    texts = ["SELECT v FROM t WHERE v = 1.0", "SELECT v FROM t WHERE v = 1",
             "SELECT v FROM t WHERE v = 1e0", "SELECT v FROM t WHERE v = 10"]
    shapes, checked = assert_binds_like_parse(texts)
    assert checked == 4 and len(shapes) == 1
    (shape,) = shapes.values()
    assert "Literal(value=1.0)" in repr(shape.bind(texts[0], normalize(texts[0])[1]))
    assert "Literal(value=1)" in repr(shape.bind(texts[1], normalize(texts[1])[1]))


def test_limit_stays_in_the_key():
    assert normalize("SELECT v FROM t LIMIT 7")[0] != normalize("SELECT v FROM t LIMIT 8")[0]


@pytest.mark.parametrize("text", [
    # a number inside a skipped ROWS clause, a temp name as a column and
    # as an alias, a user identifier that spells a sentinel
    "SELECT SUM(v) OVER (ORDER BY k ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) AS s FROM t",
    "SELECT jb_tmp_c FROM t WHERE v > 1",
    "SELECT v AS jb_tmp_c FROM t WHERE v > 1",
    "SELECT __jbp0 FROM t WHERE v > 1",
])
def test_slot_out_of_place_reparses_the_text(text):
    shapes, checked = assert_binds_like_parse([text])
    assert checked == 1
    (shape,) = shapes.values()
    assert shape.trie is None


def test_one_temp_name_as_update_target_and_qualifier():
    db = Database()
    for name in ("jb_tmp_a_1", "jb_tmp_b_2"):
        db.create_table(name, {"k": [1, 2, 3, 4], "g": [0.0, 0.0, 0.0, 0.0]})
    db.execute("UPDATE jb_tmp_a_1 SET g = jb_tmp_a_1.g + 1 WHERE jb_tmp_a_1.k IN (3, 4)")
    db.execute("UPDATE jb_tmp_b_2 SET g = jb_tmp_b_2.g + 2 WHERE jb_tmp_b_2.k IN (1, 4)")
    assert len(db._parse_cache) == 1
    assert list(db.table("jb_tmp_a_1").column("g").values) == [0.0, 0.0, 1.0, 1.0]
    assert list(db.table("jb_tmp_b_2").column("g").values) == [2.0, 0.0, 0.0, 2.0]


def test_one_shape_two_literal_sets_return_their_own_rows():
    db = Database()
    db.create_table("t", {"k": [1, 2, 3, 4, 5], "v": [10.0, 20.0, 30.0, 40.0, 50.0]})
    first = db.execute("SELECT k, v FROM t WHERE k IN (1, 2) ORDER BY k")
    second = db.execute("SELECT k, v FROM t WHERE k IN (4, 5) ORDER BY k")
    again = db.execute("SELECT k, v FROM t WHERE k IN (1, 2) ORDER BY k")
    assert len(db._parse_cache) == 1
    assert list(first.column("v").values) == [10.0, 20.0]
    assert list(second.column("v").values) == [40.0, 50.0]
    assert list(again.column("v").values) == [10.0, 20.0]


def test_statement_that_does_not_parse_raises_the_parsers_error():
    db = Database()
    db.create_table("t", {"k": [1, 2]})
    with pytest.raises(SQLError, match="statement start '2'") as raised:
        db.execute("SELECT k FROM t WHERE k > 1 2")
    assert "__jb" not in str(raised.value)
    assert len(db._parse_cache) == 0


def test_key_that_does_not_parse_falls_back_to_the_text():
    """A comment between LIMIT and its number hides the number from the
    scanner's LIMIT rule, so the key has a sentinel where the grammar
    wants a NUMBER; the text itself is valid and runs."""
    db = Database()
    db.create_table("t", {"k": [1, 2, 3]})
    result = db.execute("SELECT k FROM t LIMIT /* n */ 2")
    assert list(result.column("k").values) == [1, 2]
    assert len(db._parse_cache) == 0


# ---------------------------------------------------------------------------
# Threads sharing one shape
# ---------------------------------------------------------------------------
def test_threads_bind_their_own_literals():
    """4 threads x 500 statements of one shape with different literals on
    one Database: a memo that paired one thread's text with another's
    statements would return the wrong rows."""
    def new_database():
        keys = np.arange(200)
        db = Database()
        db.create_table("t", {"k": keys, "v": keys * 0.5})
        return db

    def statement(worker, i):
        # a few literal sets, met by every thread in a different order:
        # a memo hit must only ever return the statements of its own text
        low = (i * (worker + 1)) % 3 * 50
        return (f"SELECT COUNT(*) AS n, SUM(v) AS s FROM t "
                f"WHERE k >= {low} AND k < {low + 10 + low // 10}")

    def answer(db, text):
        result = db.execute(text)
        return int(result.column("n").values[0]), float(result.column("s").values[0])

    single = new_database()
    expected = {
        (w, i): answer(single, statement(w, i)) for w in range(4) for i in range(500)
    }
    db = new_database()
    got = {}

    def work(worker):
        for i in range(500):
            got[(worker, i)] = answer(db, statement(worker, i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == expected
    assert len(db._parse_cache) == 1
