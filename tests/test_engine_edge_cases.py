"""Engine edge cases and failure injection."""

import numpy as np
import pytest

from repro.engine.database import Database
from repro.exceptions import (
    CatalogError,
    ExecutionError,
    ParseError,
    PlanError,
)


@pytest.fixture
def db():
    database = Database()
    database.create_table("t", {"k": [1, 2, 3], "v": [1.0, 2.0, 3.0]})
    return database


class TestEmptyInputs:
    def test_empty_table_queries(self, db):
        db.create_table("empty", {"k": np.zeros(0, dtype=np.int64),
                                  "v": np.zeros(0)})
        assert db.execute("SELECT * FROM empty").num_rows == 0
        assert db.execute("SELECT COUNT(*) AS n FROM empty").scalar() == 0
        assert db.execute(
            "SELECT k, SUM(v) AS s FROM empty GROUP BY k"
        ).num_rows == 0

    def test_join_with_empty_side(self, db):
        db.create_table("empty", {"k": np.zeros(0, dtype=np.int64)})
        assert db.execute(
            "SELECT t.k FROM t JOIN empty ON t.k = empty.k"
        ).num_rows == 0
        left = db.execute(
            "SELECT t.k FROM t LEFT JOIN empty ON t.k = empty.k"
        )
        assert left.num_rows == 3

    def test_window_over_empty(self, db):
        db.create_table("empty", {"k": np.zeros(0, dtype=np.int64)})
        result = db.execute(
            "SELECT SUM(k) OVER (ORDER BY k) AS rs FROM empty"
        )
        assert result.num_rows == 0

    def test_update_empty_table(self, db):
        db.create_table("empty", {"v": np.zeros(0)})
        db.execute("UPDATE empty SET v = v + 1")
        assert db.table("empty").num_rows() == 0

    def test_limit_zero(self, db):
        assert db.execute("SELECT * FROM t LIMIT 0").num_rows == 0

    def test_limit_beyond_rows(self, db):
        assert db.execute("SELECT * FROM t LIMIT 99").num_rows == 3


class TestErrorPaths:
    def test_unknown_table(self, db):
        with pytest.raises(CatalogError):
            db.execute("SELECT * FROM ghost")

    def test_unknown_column(self, db):
        with pytest.raises(PlanError):
            db.execute("SELECT ghost FROM t")

    def test_bad_sql(self, db):
        with pytest.raises(ParseError):
            db.execute("SELEC k FROM t")

    def test_unknown_function(self, db):
        with pytest.raises(ExecutionError):
            db.execute("SELECT frobnicate(k) AS x FROM t")

    def test_scalar_needs_one_cell(self, db):
        with pytest.raises(ExecutionError):
            db.execute("SELECT * FROM t").scalar()

    def test_nonaggregate_column_outside_group_by(self, db):
        with pytest.raises(PlanError):
            db.execute("SELECT v, COUNT(*) AS n FROM t GROUP BY k")

    def test_in_subquery_needs_one_column(self, db):
        with pytest.raises(PlanError):
            db.execute("SELECT k FROM t WHERE k IN (SELECT k, v FROM t)")

    def test_unsupported_window_function(self, db):
        with pytest.raises(PlanError):
            db.execute("SELECT MEDIAN(v) OVER (ORDER BY k) AS m FROM t")


class TestTypeHandling:
    def test_string_in_numeric_context(self, db):
        db.create_table("s", {"name": np.array(["a", "b"], dtype=object)})
        with pytest.raises(ExecutionError):
            db.execute("SELECT name + 1 AS x FROM s")

    def test_division_by_zero_is_inf_or_nan(self, db):
        result = db.execute("SELECT v / (k - 1) AS x FROM t")
        values = result["x"]
        assert np.isinf(values[0]) or np.isnan(values[0])

    def test_cast_string_to_float(self, db):
        db.create_table("s", {"txt": np.array(["1.5", "2.5"], dtype=object)})
        result = db.execute("SELECT CAST(txt AS FLOAT) + 1 AS x FROM s")
        assert list(result["x"]) == [2.5, 3.5]

    def test_concat_operator(self, db):
        db.create_table("s", {"a": np.array(["x"], dtype=object),
                              "b": np.array(["y"], dtype=object)})
        assert db.execute("SELECT a || b AS ab FROM s")["ab"][0] == "xy"

    def test_scalar_functions(self, db):
        row = db.execute(
            "SELECT ABS(-2) AS a, SIGN(-3) AS s, SQRT(4.0) AS q, "
            "LOG(1.0) AS l, EXP(0.0) AS e, FLOOR(1.7) AS f, CEIL(1.2) AS c, "
            "POWER(2, 3) AS p, LEAST(1, 2) AS lo, GREATEST(1, 2) AS hi, "
            "COALESCE(NULL, 5) AS co FROM t LIMIT 1"
        ).first_row()
        assert (row["a"], row["s"], row["q"]) == (2, -1, 2.0)
        assert (row["l"], row["e"]) == (0.0, 1.0)
        assert (row["f"], row["c"], row["p"]) == (1.0, 2.0, 8.0)
        assert (row["lo"], row["hi"], row["co"]) == (1.0, 2.0, 5.0)


class TestPlanCache:
    def test_repeated_statements_reuse_parse(self, db):
        db.execute("SELECT COUNT(*) AS n FROM t")
        cached = len(db._parse_cache)
        db.execute("SELECT COUNT(*) AS n FROM t")
        assert len(db._parse_cache) == cached

    def test_full_cache_evicts_oldest_entry(self, db):
        """Past its bound the cache drops the oldest shape, not all of
        them: the most recent shapes stay parsed."""
        from repro.engine.database import PARSE_CACHE_SIZE
        from repro.sql.shapes import normalize

        # digits glued to a word are part of the shape, so every alias
        # makes a shape of its own
        statements = [
            f"SELECT v AS v{i} FROM t" for i in range(PARSE_CACHE_SIZE + 2)
        ]
        for sql in statements:
            db.execute(sql)
        keys = [normalize(sql)[0] for sql in statements]
        assert len(set(keys)) == len(statements)
        assert len(db._parse_cache) == PARSE_CACHE_SIZE
        assert PARSE_CACHE_SIZE == 256
        assert all(key in db._parse_cache for key in keys[-100:])
        assert keys[0] not in db._parse_cache
        assert keys[1] not in db._parse_cache
        assert keys[2] in db._parse_cache

    def test_one_shape_many_literals_is_one_entry(self, db):
        from repro.engine.database import PARSE_CACHE_SIZE

        counts = [
            db.execute(f"SELECT COUNT(*) AS n FROM t WHERE v >= {i}").scalar()
            for i in range(PARSE_CACHE_SIZE + 2)
        ]
        assert len(db._parse_cache) == 1
        assert counts[:5] == [3, 3, 2, 1, 0]

    def test_cache_results_still_correct_after_table_change(self, db):
        first = db.execute("SELECT SUM(v) AS s FROM t").scalar()
        db.execute("UPDATE t SET v = v + 1")
        second = db.execute("SELECT SUM(v) AS s FROM t").scalar()
        assert second == first + 3


class TestFullOuterJoin:
    def test_full_join_covers_both_sides(self, db):
        db.create_table("u", {"k": [2, 9], "w": [20.0, 90.0]})
        result = db.execute(
            "SELECT t.k AS tk, u.k AS uk FROM t FULL OUTER JOIN u ON t.k = u.k"
        )
        assert result.num_rows == 4  # 1,2,3 plus unmatched 9
        tk = result.column("tk")
        uk = result.column("uk")
        assert tk.is_null().sum() == 1
        assert uk.is_null().sum() == 2

    def test_right_join(self, db):
        db.create_table("u", {"k": [2, 9], "w": [20.0, 90.0]})
        result = db.execute(
            "SELECT w FROM t RIGHT JOIN u ON t.k = u.k"
        )
        assert sorted(result["w"]) == [20.0, 90.0]


class TestDeepBoostingChain:
    """A GBM scores as ``init + lr * (CASE …) + lr * (CASE …) + …``: a
    left spine as deep as the model has trees.  Parsing, shape binding,
    planning, evaluation and rendering walk it without recursion."""

    TERMS = 1_000

    def _chain(self, rng):
        thresholds, lows, highs = rng.normal(size=(3, self.TERMS)).tolist()
        parts = ["1.0"] + [
            f"0.1 * (CASE WHEN x <= {t!r} THEN {a!r} ELSE {b!r} END)"
            for t, a, b in zip(thresholds, lows, highs)
        ]
        return " + ".join(parts), thresholds, lows, highs

    def test_thousand_terms_equal_the_left_associated_sum(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=64)
        database = Database()
        database.create_table("t", {"x": x})
        chain, thresholds, lows, highs = self._chain(rng)
        got = database.execute(f"SELECT ({chain}) AS s FROM t").column("s").values
        want = np.full(len(x), 1.0)
        for t, a, b in zip(thresholds, lows, highs):
            want = want + 0.1 * np.where(x <= t, a, b)
        assert np.array_equal(got, want)

    def test_rendering_and_walking_a_deep_chain(self):
        from repro.sql import ast_nodes as ast
        from repro.sql.parser import parse

        chain, _, _, _ = self._chain(np.random.default_rng(6))
        expr = parse(f"SELECT {chain} AS s FROM t")[0].items[0].expr
        text = expr.sql()
        assert text.startswith("(" * self.TERMS + "1.0 + (0.1 * CASE WHEN")
        assert text.count("CASE WHEN") == self.TERMS and text.endswith(" END))")
        nodes = list(ast.walk(expr))
        assert nodes[0] is expr
        assert sum(isinstance(n, ast.CaseExpr) for n in nodes) == self.TERMS
