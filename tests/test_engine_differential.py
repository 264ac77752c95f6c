"""Engine differential: the embedded engine against stdlib ``sqlite3``.

Seeded schemas (a fact ``f``, a dimension ``d`` and a second-hop table
``e``) carry NULL keys, dangling fact keys, duplicate dimension keys, a
bare column name present in both tables, and either integer or string
keys.  Every statement shape runs on both engines and the results are
compared as bags (as ordered lists when the statement fixes an order).
The shapes cover what the planner's column pruning, selection vectors
and join index expansion must keep intact: ``*`` and ``t.*``, ``USING``,
name ambiguity, ORDER BY a column that is not projected, HAVING,
windows, derived tables, IN-subqueries, statements that read no column,
outer join pads (also as the key of the next join in a chain), CROSS
joins, WHERE clauses that keep no row or every row, ``COUNT(DISTINCT)``
over pads, NULL strings and a text key joined to a numeric one, tables
whose keys carry the codes of the columns they came from, and the
carry-message and fused ``UNION ALL`` shapes training emits.
``CASE`` gets generated shapes of its own — nested, over NULL
conditions, without ``ELSE`` or with ``ELSE NULL``, with string outcomes,
over aggregates and windows, around IN-subqueries — and the predicated
``UPDATE … SET x = CASE …`` shapes, the frontier's fused label
statement among them, are compared by the rows and NULL counts they
leave behind.

Only stdlib ``sqlite3`` is needed.  Values are multiples of 0.25, so
every SUM is exact in either summation order.
"""

from __future__ import annotations

import math
import sqlite3

import numpy as np
import pytest

from repro.engine.database import Database
from repro.engine.scheduler import run_tasks
from repro.exceptions import PlanError
from repro.sql.ast_nodes import ColumnRef
from repro.storage.column import ColumnType

SEEDS = range(6)
KEY_DTYPES = ("int", "str")
FACT_ROWS = 40
DIM_ROWS = 8
HOP_ROWS = 6


def generate(seed: int, key_dtype: str):
    """``{table: {column: list of Python values (None = NULL)}}``."""
    rng = np.random.default_rng([seed, KEY_DTYPES.index(key_dtype)])

    def keys(size, high, null_share):
        raw = rng.integers(0, high, size=size)
        nulls = rng.random(size) < null_share
        return [
            None if null else (int(v) if key_dtype == "int" else f"k{v}")
            for v, null in zip(raw, nulls)
        ]

    def quarters(size, null_share=0.0):
        raw = rng.integers(-20, 40, size=size) / 4.0
        nulls = rng.random(size) < null_share
        return [None if null else float(v) for v, null in zip(raw, nulls)]

    def names(size):
        raw = rng.integers(0, 4, size=size)
        nulls = rng.random(size) < 0.15
        return [None if null else f"n{v}" for v, null in zip(raw, nulls)]

    fact = {
        "rid": list(range(FACT_ROWS)),
        # keys 6..8 dangle: the dimension only holds 0..5
        "k": keys(FACT_ROWS, 9, 0.1),
        "x": [int(v) for v in rng.integers(0, 5, size=FACT_ROWS)],
        "v": quarters(FACT_ROWS, 0.15),
        "name": names(FACT_ROWS),
        "jb_leaf_s1": [int(v) for v in rng.integers(0, 4, size=FACT_ROWS)],
        "h": [1.0] * FACT_ROWS,
        "g": quarters(FACT_ROWS),
    }
    dim = {
        "did": list(range(DIM_ROWS)),
        # 8 rows over 6 values: duplicate keys, plus NULL keys
        "k": keys(DIM_ROWS, 6, 0.15),
        "w": quarters(DIM_ROWS, 0.2),
        "name": names(DIM_ROWS),
        "c": [int(v) for v in rng.integers(0, 3, size=DIM_ROWS)],
    }
    # A second hop's table: its keys hold 0 and NULL, so an outer join's
    # pad (an INT key NULL only through its validity mask, over a stored
    # value such as 0) must still match nothing.
    hop = {
        "eid": list(range(HOP_ROWS)),
        "ek": [0, None, 1, 0, 3, 2],
        "ec": [int(v) for v in rng.integers(0, 3, size=HOP_ROWS)],
        "z": quarters(HOP_ROWS, 0.2),
    }
    return {"f": fact, "d": dim, "e": hop}


def _array(values):
    if any(isinstance(v, str) for v in values):
        return np.array(values, dtype=object)
    if any(v is None for v in values):
        return np.array([np.nan if v is None else v for v in values], dtype=float)
    return np.array(values)


def embedded(tables) -> Database:
    db = Database()
    for name, columns in tables.items():
        db.create_table(name, {col: _array(vals) for col, vals in columns.items()})
    return db


def stdlib(tables) -> sqlite3.Connection:
    conn = sqlite3.connect(":memory:")
    for name, columns in tables.items():
        cols = list(columns)
        conn.execute(f"CREATE TABLE {name} ({', '.join(cols)})")
        conn.executemany(
            f"INSERT INTO {name} VALUES ({', '.join('?' * len(cols))})",
            list(zip(*columns.values())),
        )
    return conn


def _plain(value):
    if value is None:
        return None
    if isinstance(value, (str, np.str_)):
        return str(value)
    value = float(value)
    return None if math.isnan(value) else value


def _order_key(row):
    return tuple(
        (0, 0.0, "") if v is None
        else (1, v, "") if isinstance(v, float)
        else (2, 0.0, v)
        for v in row
    )


def embedded_rows(db, sql):
    *setup, query = sql.split(";")
    for statement in setup:
        db.execute(statement)
    return [tuple(_plain(v) for v in row) for row in db.execute(query).rows()]


def sqlite_rows(conn, sql):
    *setup, query = sql.split(";")
    for statement in setup:
        conn.execute(statement)
    return [tuple(_plain(v) for v in row) for row in conn.execute(query)]


#: (id, SQL, ordered).  ``;`` separates set-up statements from the query.
SHAPES = [
    ("star", "SELECT * FROM f", False),
    ("qualified_star",
     "SELECT t.* FROM f AS t INNER JOIN d AS u ON t.k = u.k", False),
    ("star_two_sides",
     "SELECT t.*, u.* FROM f AS t INNER JOIN d AS u ON (t.k = u.k)", False),
    ("using",
     "SELECT t.rid, t.k, u.w, u.c FROM f AS t INNER JOIN d AS u USING (k)", False),
    ("order_by_unprojected",
     "SELECT t.v, t.name FROM f AS t ORDER BY t.rid DESC LIMIT 7", True),
    ("order_by_unprojected_through_join",
     "SELECT u.w FROM f AS t INNER JOIN d AS u ON t.k = u.k "
     "ORDER BY t.rid, u.did DESC", True),
    ("having",
     "SELECT t.k, SUM(t.v) AS s, COUNT(*) AS n FROM f AS t "
     "GROUP BY t.k HAVING COUNT(*) > 1", False),
    ("having_on_unprojected",
     "SELECT t.x FROM f AS t GROUP BY t.x HAVING MAX(t.g) > 2", False),
    ("window",
     "SELECT t.rid, SUM(t.g) OVER (PARTITION BY t.k ORDER BY t.x) AS cs "
     "FROM f AS t", False),
    ("window_where",
     "SELECT t.rid, SUM(t.h) OVER (PARTITION BY t.jb_leaf_s1) AS n "
     "FROM f AS t WHERE t.x < 3", False),
    ("derived_table",
     "SELECT s.k, s.tot FROM (SELECT t.k AS k, SUM(t.g) AS tot FROM f AS t "
     "WHERE t.x > 1 GROUP BY t.k) AS s WHERE s.tot > 1", False),
    ("in_subquery",
     "SELECT t.rid, t.g FROM f AS t WHERE t.k IN "
     "(SELECT k FROM d WHERE c = 1 AND k IS NOT NULL)", False),
    # literal IN items, signed / float / NULL / string; NOT IN only over
    # a column without NULLs (sqlite's NULL answer is this engine's true)
    ("in_list_literals_where",
     "SELECT t.rid FROM f AS t WHERE t.x IN (-1, 2, NULL, +4) "
     "OR t.v IN (-0.75, 2.5, NULL, 1) OR t.name IN ('n1', 'n2')", False),
    ("in_list_literals_case",
     "SELECT t.rid, CASE WHEN t.x IN (-1, 2.5, NULL) THEN 1 ELSE 0 END AS a, "
     "CASE WHEN t.g IN (-1.25, 0.5, -2) THEN 1 ELSE 0 END AS b, "
     "CASE WHEN t.name IN ('n3', NULL) THEN 1 ELSE 0 END AS c, "
     "CASE WHEN t.jb_leaf_s1 NOT IN (0, -3, 2) THEN 1 ELSE 0 END AS d "
     "FROM f AS t", False),
    ("count_star_no_live_column", "SELECT COUNT(*) AS n FROM f", False),
    ("constant_no_live_column", "SELECT 1 AS one FROM d", False),
    ("count_star_through_join",
     "SELECT COUNT(*) AS n FROM f AS t INNER JOIN d AS u ON t.k = u.k", False),
    ("left_join_pads",
     "SELECT t.rid, u.w, u.name FROM f AS t LEFT JOIN d AS u ON t.k = u.k", False),
    ("full_join_pads",
     "SELECT t.rid, t.v, u.c, u.w FROM f AS t FULL JOIN d AS u ON t.k = u.k", False),
    ("right_join_pads",
     "SELECT t.rid, u.did, u.w FROM f AS t RIGHT JOIN d AS u ON t.k = u.k", False),
    ("left_join_empty_side",
     "SELECT t.rid, s.w FROM f AS t LEFT JOIN "
     "(SELECT k, w FROM d WHERE c > 100) AS s ON t.k = s.k", False),
    ("cross_join", "SELECT t.rid, u.c FROM f AS t CROSS JOIN d AS u", False),
    ("residual_join_condition",
     "SELECT t.rid, u.w FROM f AS t INNER JOIN d AS u "
     "ON t.k = u.k AND u.w > t.g", False),
    ("where_keeps_no_row",
     "SELECT t.rid, t.v, t.name FROM f AS t WHERE t.x > 100", False),
    ("where_keeps_no_row_then_join",
     "SELECT t.rid, u.w FROM f AS t INNER JOIN d AS u ON t.k = u.k "
     "WHERE t.x > 100", False),
    ("where_keeps_every_row",
     "SELECT t.rid, t.k, t.v, t.name FROM f AS t WHERE t.x >= 0", False),
    ("where_null_aware",
     "SELECT t.rid FROM f AS t WHERE t.v IS NULL OR t.name IS NULL", False),
    ("distinct", "SELECT DISTINCT t.k, t.x FROM f AS t", False),
    # sqlite rounds halves away from zero: ROUND(-2.5) = -3, ROUND(0.5) = 1
    ("round_halves_away_from_zero",
     "SELECT t.rid, ROUND(t.g * 2) AS a, ROUND(t.v) AS b, "
     "ROUND(-t.g * 2) AS c FROM f AS t", False),
    # CAST(... AS INTEGER) is an integer, so it renders without ".0"
    ("cast_integer_renders_as_integer",
     "SELECT t.rid, CAST(t.g AS INTEGER) || '' AS s, "
     "CAST(t.v AS INTEGER) AS n FROM f AS t", False),
    # a NULL number concatenates to NULL, not to the text 'nan'
    ("concat_nullable_number",
     "SELECT t.rid, t.v || 'x' AS a, t.name || t.v AS b, u.w || '' AS c "
     "FROM f AS t LEFT JOIN d AS u ON t.k = u.k", False),
    # a LEFT JOIN chain continued on the padded INT key: pads are NULL
    ("left_chain_then_inner_on_pad",
     "SELECT t.rid, u.did, q.z FROM f AS t LEFT JOIN d AS u ON t.k = u.k "
     "INNER JOIN e AS q ON u.did = q.ek", False),
    ("left_chain_then_left_on_pad",
     "SELECT t.rid, u.c, q.eid, q.z FROM f AS t LEFT JOIN d AS u "
     "ON t.k = u.k LEFT JOIN e AS q ON u.c = q.ec", False),
    ("left_chain_three_hops",
     "SELECT t.rid, q.eid, v.did FROM f AS t LEFT JOIN d AS u ON t.k = u.k "
     "LEFT JOIN e AS q ON u.did = q.ek LEFT JOIN d AS v ON q.ec = v.c", False),
    ("left_chain_grouped_on_pad",
     "SELECT q.ek, COUNT(*) AS n, SUM(t.g) AS g FROM f AS t "
     "LEFT JOIN d AS u ON t.k = u.k INNER JOIN e AS q ON u.c = q.ec "
     "GROUP BY q.ek", False),
    ("carry_message",
     "CREATE TABLE msg AS SELECT t.k AS k, t.jb_leaf_s1 AS jb_leaf_s1, "
     "SUM(t.h) AS h, SUM(t.g) AS g FROM f AS t "
     "WHERE (t.jb_leaf_s1 IN (0, 2)) GROUP BY t.k, t.jb_leaf_s1;"
     "SELECT * FROM msg", False),
    ("fused_union_all",
     "CREATE TABLE msg AS SELECT t.k AS k, t.jb_leaf_s1 AS jb_leaf_s1, "
     "SUM(t.h) AS h, SUM(t.g) AS g FROM f AS t "
     "WHERE (t.jb_leaf_s1 IN (0, 2)) GROUP BY t.k, t.jb_leaf_s1;"
     "SELECT 0 AS jb_feature, u.c AS jb_value, m0.jb_leaf_s1 AS jb_leaf, "
     "SUM(m0.h) AS h, SUM(m0.g) AS g FROM d AS u INNER JOIN msg AS m0 "
     "ON (u.k = m0.k) WHERE (m0.jb_leaf_s1 IN (0, 2)) "
     "GROUP BY m0.jb_leaf_s1, u.c UNION ALL "
     "SELECT 1 AS jb_feature, u.w AS jb_value, m0.jb_leaf_s1 AS jb_leaf, "
     "SUM(m0.h) AS h, SUM(m0.g) AS g FROM d AS u INNER JOIN msg AS m0 "
     "ON (u.k = m0.k) WHERE (m0.jb_leaf_s1 IN (0, 2)) "
     "GROUP BY m0.jb_leaf_s1, u.w", False),
    # UNION ALL branches with one FROM/JOIN/WHERE share one frame
    ("union_shared_frame_different_projections",
     "SELECT t.rid AS a, t.v AS b FROM f AS t WHERE t.x < 3 UNION ALL "
     "SELECT t.x, t.g FROM f AS t WHERE t.x < 3", False),
    ("union_shared_frame_star_branch",
     "SELECT * FROM d AS u WHERE u.c = 1 UNION ALL "
     "SELECT u.did + 100, u.k, u.w * 2, u.name, u.c FROM d AS u WHERE u.c = 1",
     False),
    ("union_same_from_different_where",
     "SELECT t.rid, t.v FROM f AS t WHERE t.x < 2 UNION ALL "
     "SELECT t.rid, t.v FROM f AS t WHERE t.x >= 2 UNION ALL "
     "SELECT t.rid, t.g FROM f AS t WHERE t.x < 2", False),
    ("union_where_in_subquery",
     "SELECT 0 AS b, t.rid AS r FROM f AS t WHERE t.k IN "
     "(SELECT k FROM d WHERE c = 1 AND k IS NOT NULL) UNION ALL "
     "SELECT 1 AS b, SUM(t.g) AS r FROM f AS t WHERE t.k IN "
     "(SELECT k FROM d WHERE c = 1 AND k IS NOT NULL)", False),
    ("union_left_join_pads",
     "SELECT t.rid, u.w FROM f AS t LEFT JOIN d AS u ON t.k = u.k "
     "WHERE t.x < 3 UNION ALL "
     "SELECT u.c, COUNT(*) FROM f AS t LEFT JOIN d AS u ON t.k = u.k "
     "WHERE t.x < 3 GROUP BY u.c", False),
    # CASE: per-row placeholders (aggregates, windows) are gathered to
    # the rows each outcome decides
    ("case_over_aggregates",
     "SELECT t.k, CASE WHEN COUNT(*) > 4 THEN SUM(t.g) "
     "WHEN MAX(t.v) IS NULL THEN -1 ELSE MIN(t.x) END AS a, "
     "CASE WHEN SUM(t.g) > 0 THEN COUNT(t.v) END AS b "
     "FROM f AS t GROUP BY t.k", False),
    ("case_in_having",
     "SELECT t.x, COUNT(*) AS n FROM f AS t GROUP BY t.x "
     "HAVING CASE WHEN SUM(t.g) > 0 THEN COUNT(*) ELSE 0 END > 2", False),
    ("case_over_window",
     "SELECT t.rid, CASE WHEN t.x > 2 THEN SUM(t.g) OVER (PARTITION BY t.k) "
     "ELSE t.x END AS w FROM f AS t", False),
    ("case_over_in_subquery_conditions",
     "SELECT t.rid, CASE "
     "WHEN t.k IN (SELECT k FROM d WHERE c = 1 AND k IS NOT NULL) "
     "THEN t.jb_leaf_s1 + 10 "
     "WHEN t.k IN (SELECT k FROM d WHERE c = 2 AND k IS NOT NULL) THEN 20 "
     "ELSE t.jb_leaf_s1 END AS leaf FROM f AS t WHERE t.jb_leaf_s1 = 1", False),
    ("in_subquery_projecting_case",
     "SELECT t.rid FROM f AS t WHERE t.x IN "
     "(SELECT CASE WHEN u.c = 1 THEN u.did ELSE u.c + 2 END FROM d AS u)",
     False),
    ("case_decides_no_row",
     "SELECT t.rid, CASE WHEN t.x > 100 THEN t.v ELSE t.x END AS a, "
     "CASE WHEN t.x >= 0 THEN t.name END AS b FROM f AS t", False),
    ("case_over_empty_frame",
     "SELECT CASE WHEN t.x > 1 THEN 'a' ELSE t.name END AS c "
     "FROM f AS t WHERE t.x > 100", False),
    # nested CASEs in THEN and ELSE write their rows straight into the
    # top CASE's result, literal outcomes as scalars
    ("nested_case_in_arithmetic",
     "SELECT t.rid, 0.1 * (CASE WHEN t.x > 1 THEN CASE WHEN t.v IS NULL "
     "THEN 2 ELSE 0.5 END ELSE CASE WHEN t.g < 0 THEN NULL ELSE t.x END "
     "END) + 1 AS a FROM f AS t", False),
    ("nested_case_integer_outcomes",
     "SELECT t.rid, CASE WHEN t.x > 2 THEN CASE WHEN t.g > 0 THEN 1 "
     "ELSE -2 END ELSE CASE WHEN t.v IS NULL THEN t.x ELSE 3 END END AS a "
     "FROM f AS t", False),
    ("nested_case_mixed_outcomes",
     "SELECT t.rid, CASE WHEN t.x > 1 THEN CASE WHEN t.v IS NULL THEN 'a' "
     "ELSE 3 END ELSE CASE WHEN t.g < 0 THEN NULL ELSE 2.5 END END AS a "
     "FROM f AS t", False),
    ("nested_case_string_outcomes",
     "SELECT t.rid, CASE WHEN t.name IS NULL THEN CASE WHEN t.x > 1 "
     "THEN 'p' END ELSE CASE WHEN t.g > 0 THEN t.name ELSE 'q' END END AS a "
     "FROM f AS t", False),
    ("select_literal_comparison_no_from", "SELECT 1 < 2.5 AS a", False),
    # fact -> dimension LEFT JOINs: every key matches (the fact's columns
    # pass through unchanged), then a hop whose key dangles
    ("left_chain_every_row_matches",
     "SELECT t.rid, t.v, q.z, u.w FROM f AS t LEFT JOIN e AS q "
     "ON t.x = q.eid LEFT JOIN d AS u ON q.eid = u.did", False),
    ("right_join_every_row_matches",
     "SELECT t.rid, q.z, q.ec FROM e AS q RIGHT JOIN f AS t ON q.eid = t.x",
     False),
    ("left_chain_with_dangling_key",
     "SELECT t.rid, t.name, q.z, u.w FROM f AS t LEFT JOIN "
     "(SELECT eid, ec, z FROM e WHERE eid < 4) AS q ON t.x = q.eid "
     "LEFT JOIN d AS u ON q.ec = u.did", False),
    # COUNT(DISTINCT col) counts the codes of the column's encoding: over
    # a padded INT, over NULL-holding strings, and through a text key
    # joined to a numeric one (with string keys no key equals a number)
    ("count_distinct_padded_int",
     "SELECT COUNT(DISTINCT u.did) AS a, COUNT(DISTINCT u.c) AS b, "
     "COUNT(*) AS n FROM f AS t LEFT JOIN d AS u ON t.k = u.k", False),
    ("count_distinct_padded_int_grouped",
     "SELECT t.x, COUNT(DISTINCT u.c) AS a, COUNT(DISTINCT u.did) AS b "
     "FROM f AS t LEFT JOIN d AS u ON t.k = u.k GROUP BY t.x", False),
    ("count_distinct_null_strings",
     "SELECT COUNT(DISTINCT t.name) AS a, COUNT(DISTINCT t.k) AS b "
     "FROM f AS t", False),
    ("count_distinct_null_strings_grouped",
     "SELECT t.x, COUNT(DISTINCT t.name) AS a, COUNT(DISTINCT t.k) AS b "
     "FROM f AS t WHERE t.g > -2 GROUP BY t.x", False),
    ("count_distinct_text_key_joined_to_number",
     "SELECT COUNT(DISTINCT q.eid) AS a, COUNT(DISTINCT t.k) AS b "
     "FROM f AS t LEFT JOIN e AS q ON t.k = q.ek", False),
    ("count_distinct_text_key_joined_to_number_grouped",
     "SELECT q.ec, COUNT(DISTINCT t.name) AS a, COUNT(DISTINCT q.z) AS b "
     "FROM f AS t LEFT JOIN e AS q ON t.k = q.ek GROUP BY q.ec", False),
    # a projected key and GROUP BY keys keep their codes in the table
    # CREATE TABLE AS stores; the next statement joins on them
    ("carried_projection_then_join",
     "CREATE TABLE p AS SELECT t.k AS k, t.name AS name FROM f AS t "
     "WHERE t.x > 0;"
     "SELECT p.k, p.name, u.did FROM p LEFT JOIN d AS u ON p.k = u.k", False),
    ("carried_group_key_then_join",
     "CREATE TABLE m AS SELECT t.k AS k, COUNT(*) AS n FROM f AS t "
     "WHERE t.x > 0 GROUP BY t.k;"
     "SELECT m.k, m.n, u.did FROM m LEFT JOIN d AS u ON m.k = u.k", False),
    ("carried_padded_group_keys_then_join",
     "CREATE TABLE m AS SELECT u.c AS c, u.name AS name, COUNT(*) AS n "
     "FROM f AS t LEFT JOIN d AS u ON t.k = u.k GROUP BY u.c, u.name;"
     "SELECT m.c, m.name, m.n, q.eid, v.did FROM m LEFT JOIN e AS q "
     "ON m.c = q.ec LEFT JOIN d AS v ON m.name = v.name", False),
]


@pytest.fixture(params=[(s, k) for k in KEY_DTYPES for s in SEEDS],
                ids=lambda p: f"{p[1]}-seed{p[0]}")
def engines(request):
    tables = generate(*request.param)
    conn = stdlib(tables)
    yield embedded(tables), conn
    conn.close()


@pytest.mark.parametrize("sql,ordered", [s[1:] for s in SHAPES],
                         ids=[s[0] for s in SHAPES])
def test_shape_agrees_with_sqlite(engines, sql, ordered):
    db, conn = engines
    ours, theirs = embedded_rows(db, sql), sqlite_rows(conn, sql)
    if not ordered:
        ours, theirs = sorted(ours, key=_order_key), sorted(theirs, key=_order_key)
    assert ours == theirs


def test_bare_name_in_both_tables_is_ambiguous(engines):
    db, conn = engines
    sql = "SELECT name FROM f AS t INNER JOIN d AS u ON t.k = u.k"
    with pytest.raises(PlanError, match="ambiguous"):
        db.execute(sql)
    with pytest.raises(sqlite3.OperationalError, match="ambiguous"):
        conn.execute(sql)


def test_qualified_reference_falls_back_to_the_bare_name(engines):
    """A qualifier that names no binding resolves by bare name (derived
    tables whose alias was rewritten); sqlite, which has no such fallback,
    answers the unqualified spelling."""
    db, conn = engines
    ours = embedded_rows(db, "SELECT z.v, z.rid FROM f AS t WHERE z.x < 3")
    theirs = sqlite_rows(conn, "SELECT v, rid FROM f AS t WHERE x < 3")
    assert sorted(ours, key=_order_key) == sorted(theirs, key=_order_key)


# ---------------------------------------------------------------------------
# Generated CASE expressions
# ---------------------------------------------------------------------------
#: conditions over columns with NULLs (``v``, ``name``) and bare NULL; no
#: ``NOT`` over a nullable operand, whose three-valued result the engine
#: does not model
_CONDITIONS = (
    "t.x > {i}", "t.v >= {q}", "t.v IS NULL", "t.name = 'n{i}'",
    "t.name IS NOT NULL", "t.g < {q}", "NULL", "t.x = t.jb_leaf_s1",
    "(t.v > {q} OR t.name IS NULL)", "(t.x IN (1, 3) AND t.g > {q})",
    "t.x BETWEEN 1 AND 3", "NOT (t.g > {q})",
)
_NUMBERS = ("t.x", "t.v", "t.g", "t.jb_leaf_s1", "{i}", "-{i}", "{q}",
            "NULL", "t.x + t.v", "t.g * 2")
_STRINGS = ("t.name", "'s{i}'", "'n{i}'", "NULL")


def _fill(rng, template: str) -> str:
    return template.format(i=int(rng.integers(0, 4)),
                           q=float(rng.integers(-8, 16)) / 4.0)


def generated_case(rng, leaves, depth: int) -> str:
    """A random searched CASE: 1-3 WHENs, no ELSE / ELSE NULL / ELSE
    value, outcomes drawn from ``leaves`` or nested CASEs."""

    def outcome():
        if depth > 0 and rng.random() < 0.4:
            return generated_case(rng, leaves, depth - 1)
        return _fill(rng, leaves[int(rng.integers(len(leaves)))])

    whens = " ".join(
        f"WHEN {_fill(rng, _CONDITIONS[int(rng.integers(len(_CONDITIONS)))])} "
        f"THEN {outcome()}"
        for _ in range(int(rng.integers(1, 4)))
    )
    tail = ("", " ELSE NULL", f" ELSE {outcome()}")[int(rng.integers(3))]
    return f"CASE {whens}{tail} END"


def _both(db, conn, sql):
    ours = sorted(embedded_rows(db, sql), key=_order_key)
    theirs = sorted(sqlite_rows(conn, sql), key=_order_key)
    assert ours == theirs, sql


@pytest.mark.parametrize("case_seed", range(4))
def test_generated_case_agrees_with_sqlite(engines, case_seed):
    db, conn = engines
    rng = np.random.default_rng([case_seed, 17])
    for _ in range(3):
        number = generated_case(rng, _NUMBERS, depth=2)
        text = generated_case(rng, _STRINGS, depth=2)
        where = _fill(rng, "t.x < {i}")
        _both(db, conn, f"SELECT t.rid, {number} AS a, {text} AS b FROM f AS t")
        _both(db, conn,
              f"SELECT t.rid, {number} AS a FROM f AS t WHERE {where}")
        _both(db, conn, f"SELECT t.rid FROM f AS t WHERE ({number}) > 1")


# ---------------------------------------------------------------------------
# Literal operands
# ---------------------------------------------------------------------------
#: an INT column, a FLOAT one, a FLOAT one holding NULLs, and a STR one
_COLUMNS = ("t.x", "t.g", "t.v", "t.name")
_COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")
_LITERALS = ("2", "-1", "2.5", "-0.75", "0")


@pytest.mark.parametrize("column", _COLUMNS)
def test_literal_either_side_of_a_comparison(engines, column):
    """A numeric literal operand stays a scalar; it must compare as the
    column it meets, NULLs included.  Each comparison is read through
    ``CASE WHEN`` (a NULL comparison takes no row): a projected
    comparison is 0/1 here, never sqlite's NULL.  A string compares with
    a number by equality only (sqlite orders every number before every
    text; this engine does not order across types)."""
    db, conn = engines
    ops = ("=", "!=") if column == "t.name" else _COMPARISONS
    for op in ops:
        terms = []
        for literal in _LITERALS:
            terms += [f"{column} {op} {literal}", f"{literal} {op} {column}"]
        items = ", ".join(
            f"CASE WHEN {term} THEN 1 ELSE 0 END AS c{i}"
            for i, term in enumerate(terms)
        )
        _both(db, conn, f"SELECT t.rid, {items} FROM f AS t")
        _both(db, conn, f"SELECT t.rid FROM f AS t WHERE {terms[0]}")


@pytest.mark.parametrize("column", _COLUMNS[:3])
def test_literal_either_side_of_arithmetic(engines, column):
    """``+ - *`` with a literal on either side of INT, FLOAT and
    NULL-holding columns.  ``/`` and ``%`` keep to operands where the
    dialects agree: sqlite truncates INT / INT, answers NULL for a zero
    divisor and truncates ``%``'s operands to integers, while this
    engine divides as floats (DuckDB's ``/``)."""
    db, conn = engines
    terms = []
    for literal in _LITERALS:
        for op in ("+", "-", "*"):
            terms += [f"{column} {op} {literal}", f"{literal} {op} {column}"]
    terms += [f"{column} / 2.5", f"{column} / -0.5", f"1.5 * {column} / 4.0"]
    if column == "t.x":
        terms += ["t.x % 3", "t.x % 2"]
    items = ", ".join(f"{term} AS a{i}" for i, term in enumerate(terms))
    _both(db, conn, f"SELECT t.rid, {items} FROM f AS t")
    _both(db, conn, f"SELECT t.rid, 3.0 / {column} AS q FROM f AS t "
                    f"WHERE {column} <> 0")


def test_literal_operands_in_where_and_case(engines):
    db, conn = engines
    _both(db, conn, "SELECT t.rid FROM f AS t WHERE 1 < t.x AND t.v * 2 > -3")
    _both(db, conn, "SELECT t.rid, CASE WHEN 0.5 <= t.g THEN 1 - t.g "
                    "ELSE 2 * t.x END AS a FROM f AS t WHERE 1 = 1")


#: (id, UPDATE, follow-up queries); the UPDATE runs once per engine
UPDATE_SHAPES = [
    ("fused_label_update",
     "UPDATE f SET jb_leaf_s1 = CASE "
     "WHEN k IN (SELECT k FROM d WHERE c = 1 AND k IS NOT NULL) THEN 10 "
     "WHEN x > 2 THEN 11 ELSE jb_leaf_s1 END WHERE jb_leaf_s1 = 2",
     ["SELECT rid, jb_leaf_s1 FROM f",
      "SELECT jb_leaf_s1, COUNT(*) AS n FROM f GROUP BY jb_leaf_s1"]),
    ("no_else_writes_nulls",
     "UPDATE f SET v = CASE WHEN x > 2 THEN v * 2 WHEN v IS NULL THEN 7 END "
     "WHERE name IS NOT NULL",
     ["SELECT rid, v FROM f", "SELECT COUNT(*) AS n FROM f WHERE v IS NULL",
      "SELECT COUNT(v) AS n FROM f"]),
    ("string_case_else_null",
     "UPDATE f SET name = CASE WHEN x = 1 THEN 'z' WHEN x = 2 THEN name "
     "ELSE NULL END WHERE g > 0",
     ["SELECT rid, name FROM f",
      "SELECT COUNT(*) AS n FROM f WHERE name IS NULL",
      "SELECT COUNT(name) AS n FROM f"]),
    ("integer_column_gets_nulls",
     "UPDATE f SET x = CASE WHEN v > 1 THEN x + 1 ELSE NULL END "
     "WHERE jb_leaf_s1 IN (0, 3)",
     ["SELECT rid, x FROM f", "SELECT COUNT(x) AS n FROM f",
      "SELECT COUNT(*) AS n FROM f WHERE x IS NULL"]),
    ("nested_case_every_row",
     "UPDATE f SET g = CASE WHEN x > 1 THEN CASE WHEN v IS NULL THEN -1 "
     "ELSE g + v END ELSE g END",
     ["SELECT rid, g FROM f"]),
    ("swap_reads_pre_update_values",
     "UPDATE f SET x = jb_leaf_s1, jb_leaf_s1 = CASE WHEN x > 2 THEN 0 "
     "ELSE x END WHERE g > 0",
     ["SELECT rid, x, jb_leaf_s1 FROM f"]),
    ("where_matches_no_row",
     "UPDATE f SET x = CASE WHEN v > 0 THEN 1 END WHERE g > 1000",
     ["SELECT rid, x FROM f", "SELECT COUNT(x) AS n FROM f"]),
]


@pytest.mark.parametrize("update,queries", [s[1:] for s in UPDATE_SHAPES],
                         ids=[s[0] for s in UPDATE_SHAPES])
def test_update_agrees_with_sqlite(engines, update, queries):
    db, conn = engines
    db.execute(update)
    conn.execute(update)
    for sql in queries:
        _both(db, conn, sql)


class TestCaseResultTypes:
    """``CASE`` result columns carry sqlite's value types."""

    def _engines(self):
        tables = {"t": {"a": [1, 2, 3], "b": [4, 5, 6]}}
        return embedded(tables), stdlib(tables)

    def test_integer_outcomes_give_an_integer_column(self):
        db, conn = self._engines()
        sql = "SELECT CASE WHEN a = 1 THEN 10 ELSE b END AS c FROM t"
        column = db.execute(sql).column("c")
        assert column.ctype is ColumnType.INT
        assert column.values.tolist() == [10, 5, 6]
        typed = f"SELECT typeof(c) FROM ({sql})"
        assert {row[0] for row in conn.execute(typed)} == {"integer"}

    def test_fall_through_to_null_gives_a_float_column(self):
        db, _ = self._engines()
        column = db.execute(
            "SELECT CASE WHEN a = 1 THEN 10 END AS c FROM t"
        ).column("c")
        assert column.ctype is ColumnType.FLOAT
        assert column.is_null().tolist() == [False, True, True]

    def test_string_case_stores_null_as_none(self):
        db, conn = self._engines()
        create = ("CREATE TABLE u AS SELECT CASE WHEN a = 1 THEN 'x' "
                  "ELSE NULL END AS c FROM t")
        db.execute(create)
        conn.execute(create)
        assert db.table("u").column("c").values.tolist() == ["x", None, None]
        for sql, want in (
            ("SELECT COUNT(*) AS n FROM u WHERE c IS NULL", 2),
            ("SELECT COUNT(c) AS n FROM u", 1),
        ):
            assert db.execute(sql).scalar() == want
            assert conn.execute(sql).fetchone()[0] == want


class TestOrderPreservingJoin:
    """A LEFT JOIN where every left row matches exactly one right row
    keeps the left side's rows in order: its columns are bound as they
    are, not gathered through an identity index."""

    def _join(self, tables, dimension_sql: str):
        from repro.engine import planner
        from repro.sql.expressions import Frame
        from repro.sql.parser import parse

        db = embedded(tables)
        select = parse(
            f"SELECT t.rid FROM f AS t LEFT JOIN {dimension_sql} AS q "
            "ON t.x = q.eid"
        )[0]
        left = Frame.from_columns(
            [db.table("f").column(name) for name in ("rid", "x", "v")], "t"
        )
        right = planner._frame_for_table_ref(select.joins[0].table, db, None)
        merged = planner._apply_join(
            left, right, select.joins[0], db, planner._new_context(db)
        )
        return left, merged

    def test_every_row_matched_binds_the_left_columns(self):
        left, merged = self._join(generate(0, "int"), "e")
        assert merged.num_rows == left.num_rows
        for name in ("rid", "x", "v"):
            ref = ColumnRef(name, "t")
            assert merged.resolve(ref) is left.resolve(ref)

    def test_a_dangling_key_gathers(self):
        left, merged = self._join(
            generate(0, "int"), "(SELECT eid, z FROM e WHERE eid < 4)"
        )
        assert merged.resolve(ColumnRef("rid", "t")) is not left.resolve(
            ColumnRef("rid", "t")
        )


# ---------------------------------------------------------------------------
# The selection memo: one WHERE repeated around masked UPDATEs
# ---------------------------------------------------------------------------
#: reads repeated around each UPDATE: two message-shaped group-bys that
#: share one label WHERE, and WHEREs over another column, over both, and
#: over the label with a second leaf
MEMO_READS = [
    "SELECT t.k AS k, t.jb_leaf_s1 AS leaf, SUM(t.h) AS h, SUM(t.g) AS g "
    "FROM f AS t WHERE (t.jb_leaf_s1 IN ({leaf})) GROUP BY t.k, t.jb_leaf_s1",
    "SELECT t.name AS name, t.jb_leaf_s1 AS leaf, SUM(t.h) AS h, "
    "SUM(t.g) AS g FROM f AS t WHERE (t.jb_leaf_s1 IN ({leaf})) "
    "GROUP BY t.name, t.jb_leaf_s1",
    "SELECT rid, jb_leaf_s1, v FROM f WHERE x > {cut}",
    "SELECT rid, x FROM f WHERE x > {cut} AND jb_leaf_s1 <> {leaf}",
    "SELECT COUNT(*) AS n, SUM(g) AS g FROM f "
    "WHERE jb_leaf_s1 IN ({leaf}, {other})",
]


def generated_masked_update(rng, leaf: int) -> str:
    """Move some of ``leaf``'s rows to other labels, or shift ``x`` on
    them (a column the other WHEREs read)."""
    if rng.random() < 0.3:
        return (
            "UPDATE f SET x = CASE WHEN x >= 4 THEN 0 ELSE x + 1 END "
            f"WHERE jb_leaf_s1 = {leaf}"
        )
    cut = int(rng.integers(0, 5))
    return (
        f"UPDATE f SET jb_leaf_s1 = CASE WHEN x > {cut} THEN "
        f"{(leaf + 1) % 4} WHEN v IS NULL THEN {(leaf + 2) % 4} "
        f"ELSE jb_leaf_s1 END WHERE jb_leaf_s1 = {leaf}"
    )


@pytest.mark.parametrize("num_workers", [1, 4])
@pytest.mark.parametrize("seed", range(4))
def test_repeated_where_around_masked_updates(seed, num_workers):
    """Each step runs the reads twice in a shuffled order, a masked
    UPDATE, then the same reads in the reverse order, on ``num_workers``
    threads, so the first read after the UPDATE repeats the last one
    before it: a memoized selection or gathered column that outlived its
    column version would answer with the rows before the UPDATE."""
    rng = np.random.default_rng([seed, 23])
    tables = generate(seed, "int")
    db, conn = embedded(tables), stdlib(tables)
    try:
        for _ in range(20):
            leaf = int(rng.integers(0, 4))
            reads = [
                sql.format(leaf=leaf, other=(leaf + 1) % 4,
                           cut=int(rng.integers(0, 5)))
                for sql in MEMO_READS
            ] * 2
            reads = [reads[i] for i in rng.permutation(len(reads))]
            update = generated_masked_update(rng, leaf)
            for statement in (None, update, "reverse"):
                if statement == "reverse":
                    reads.reverse()
                elif statement is not None:
                    assert db.execute(statement) == conn.execute(
                        statement
                    ).rowcount
                    continue
                ours, _ = run_tasks(
                    [lambda sql=sql: embedded_rows(db, sql) for sql in reads],
                    num_workers,
                )
                for sql, rows in zip(reads, ours):
                    theirs = sqlite_rows(conn, sql)
                    assert sorted(rows, key=_order_key) == sorted(
                        theirs, key=_order_key
                    ), sql
    finally:
        conn.close()
    stats = db.encodings.stats()
    assert stats["selection_hits"] > 0 and stats["selection_misses"] > 0
