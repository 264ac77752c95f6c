"""The connector layer: dialect translation, sqlite3 execution, parity.

The load-bearing claim (ISSUE 1 acceptance): the same join graph trained
through ``connect(backend="sqlite")`` — stdlib sqlite3 running the
Factorizer's lifted SQL through the dialect shim — grows *the same
model* as the embedded engine, leaf for leaf, and within 1e-9 rmse.
"""

import numpy as np
import pytest

import repro
from repro.backends import (
    BackendError,
    Capabilities,
    Connector,
    DuckDBConnector,
    DuckDBDialect,
    SQLiteConnector,
    SQLiteDialect,
    backend_names,
    get_backend,
    split_statements,
)
from repro.core.serialize import model_digest
from repro.datasets import favorita
from repro.engine.database import Database
from repro.exceptions import CatalogError, ExecutionError
from repro.joingraph.graph import JoinGraph
from repro.storage.table import StorageConfig

from conftest import backend_matrix, duckdb_column


# ---------------------------------------------------------------------------
# Dialect translation
# ---------------------------------------------------------------------------
class TestSQLiteDialect:
    def setup_method(self):
        self.dialect = SQLiteDialect()

    def test_sum_becomes_total(self):
        assert self.dialect.translate("SELECT SUM(c) FROM t") == \
            "SELECT TOTAL(c) FROM t"

    def test_sum_case_insensitive_and_nested(self):
        out = self.dialect.translate("SELECT sum(Sum(a) + 1) FROM t")
        assert out == "SELECT TOTAL(TOTAL(a) + 1) FROM t"

    def test_sum_in_window_position(self):
        out = self.dialect.translate(
            "SELECT SUM(c) OVER (ORDER BY f) AS cw FROM t"
        )
        assert out == "SELECT TOTAL(c) OVER (ORDER BY f) AS cw FROM t"

    def test_variance_rewrites_to_sum_sumsq(self):
        out = self.dialect.translate("SELECT VARIANCE(x) FROM t")
        assert "TOTAL((x) * (x))" in out
        assert "COUNT(x)" in out
        assert "VARIANCE" not in out

    def test_stddev_rewrites_via_power(self):
        out = self.dialect.translate("SELECT STDDEV(y + 1) FROM t")
        assert out.startswith("SELECT (POWER(")
        assert "TOTAL((y + 1) * (y + 1))" in out

    def test_string_literals_are_preserved(self):
        sql = "SELECT 'SUM(x) is TRUE; really' AS s, SUM(v) FROM t"
        out = self.dialect.translate(sql)
        assert "'SUM(x) is TRUE; really'" in out
        assert out.endswith("TOTAL(v) FROM t")

    def test_true_false_literals(self):
        out = self.dialect.translate("SELECT * FROM t WHERE TRUE AND b = FALSE")
        assert out == "SELECT * FROM t WHERE 1 AND b = 0"

    def test_identifiers_containing_keywords_untouched(self):
        out = self.dialect.translate("SELECT true_flag, summary FROM t")
        assert out == "SELECT true_flag, summary FROM t"

    def test_escaped_quotes_inside_literal(self):
        out = self.dialect.translate("SELECT 'it''s TRUE' AS s FROM t")
        assert "'it''s TRUE'" in out

    def test_split_statements_respects_strings(self):
        parts = split_statements("SELECT 'a;b' AS s; DROP TABLE t;")
        assert parts == ["SELECT 'a;b' AS s", "DROP TABLE t"]

    def test_classify(self):
        assert SQLiteDialect.classify("SELECT 1")[0] == "Select"
        assert SQLiteDialect.classify("  create table x as select 1") == \
            ("CreateTableAs", False)
        assert SQLiteDialect.classify("UPDATE t SET a = 1")[0] == "Update"
        assert SQLiteDialect.classify("DROP TABLE t")[0] == "DropTable"

    def test_scientific_notation_survives(self):
        sql = "SELECT a / 1e-09 FROM t WHERE b >= 2.5e10"
        assert self.dialect.translate(sql) == sql

    def test_double_quoted_identifiers_untouched(self):
        sql = 'SELECT "true", "sum"(x) FROM t WHERE "false" = 1'
        assert self.dialect.translate(sql) == sql


class TestDuckDBDialect:
    """The duckdb translator is pure Python — it runs with or without
    the optional package installed."""

    def setup_method(self):
        self.dialect = DuckDBDialect()

    def test_sum_passes_through(self):
        """DuckDB divides integer aggregates as REAL and returns NULL on
        empty input exactly like the emitted SQL expects — no TOTAL
        rewrite wanted."""
        sql = "SELECT SUM(c) OVER (ORDER BY f) AS cw, SUM(s) FROM t"
        assert self.dialect.translate(sql) == sql

    def test_variance_renames_to_population_spelling(self):
        out = self.dialect.translate("SELECT VARIANCE(x), VAR(y + 1) FROM t")
        assert out == "SELECT var_pop(x), var_pop(y + 1) FROM t"

    def test_stddev_renames_to_population_spelling(self):
        out = self.dialect.translate("SELECT STDDEV(x) FROM t")
        assert out == "SELECT stddev_pop(x) FROM t"

    def test_true_false_left_alone(self):
        sql = "SELECT * FROM t WHERE TRUE AND b = FALSE"
        assert self.dialect.translate(sql) == sql

    def test_string_literals_are_preserved(self):
        sql = "SELECT 'VARIANCE(x); really' AS s, VARIANCE(v) FROM t"
        out = self.dialect.translate(sql)
        assert "'VARIANCE(x); really'" in out
        assert out.endswith("var_pop(v) FROM t")

    def test_identifiers_containing_keywords_untouched(self):
        sql = "SELECT variance_estimate, stddev_col FROM t"
        assert self.dialect.translate(sql) == sql

    def test_classify_is_shared(self):
        assert DuckDBDialect.classify("SELECT 1") == ("Select", True)
        assert DuckDBDialect.classify("UPDATE t SET a = 1") == ("Update", False)
        assert DuckDBDialect.classify("  create table x as select 1") == \
            ("CreateTableAs", False)


# ---------------------------------------------------------------------------
# The SQL connector contract, run on every DB-API engine
# ---------------------------------------------------------------------------
class ConnectorContract:
    """Backend-generic connector mechanics; each engine's ``Test*``
    subclass names its registered backend."""

    backend = ""

    def connect(self):
        return get_backend(self.backend)

    def test_create_execute_roundtrip(self):
        conn = self.connect()
        conn.create_table("t", {"a": [1, 2, 3], "b": [1.5, 2.5, 3.5]})
        result = conn.execute("SELECT a, b FROM t WHERE a <= 2")
        assert result.num_rows == 2
        np.testing.assert_array_equal(result["a"], [1, 2])

    def test_integer_division_matches_embedded_semantics(self):
        conn = self.connect()
        conn.create_table("t", {"c": [1, 1, 1], "s": [1, 2, 4]})
        row = conn.execute("SELECT SUM(s) / SUM(c) AS mean FROM t").first_row()
        assert row["mean"] == pytest.approx(7 / 3)

    def test_nan_stored_as_null_and_read_back_as_nan(self):
        conn = self.connect()
        conn.create_table("t", {"x": np.array([1.0, np.nan, 3.0])})
        assert conn.execute(
            "SELECT COUNT(*) AS n FROM t WHERE x IS NULL"
        ).first_row()["n"] == 1
        col = conn.table("t").column("x")
        assert np.isnan(col.values[1])
        assert col.is_null()[1]

    def test_table_view_interface(self):
        conn = self.connect()
        conn.create_table("t", {"k": np.arange(4), "v": np.arange(4) * 0.5})
        view = conn.table("t")
        assert view.column_names() == ["k", "v"]
        assert view.num_rows() == 4
        assert "k" in view and "missing" not in view
        assert view.column("v").ctype.name == "FLOAT"

    def test_create_table_as_select_and_rename(self):
        conn = self.connect()
        conn.create_table("t", {"a": [1, 2, 3]})
        conn.execute("CREATE TABLE u AS SELECT a * 2 AS a2 FROM t")
        conn.rename_table("u", "w")
        assert conn.has_table("w") and not conn.has_table("u")
        np.testing.assert_array_equal(conn.table("w").column("a2").values,
                                      [2, 4, 6])

    def test_rename_to_existing_raises(self):
        conn = self.connect()
        conn.create_table("a", {"x": [1]})
        conn.create_table("b", {"x": [1]})
        with pytest.raises(CatalogError):
            conn.rename_table("a", "b")
        with pytest.raises(CatalogError):
            conn.rename_table("missing", "c")

    def test_ragged_create_table_raises(self):
        """Unequal column lengths fail loudly, matching the embedded
        engine, instead of zip() silently truncating."""
        from repro.exceptions import StorageError

        conn = self.connect()
        with pytest.raises(StorageError, match="unequal lengths"):
            conn.create_table("t", {"a": [1, 2, 3], "b": [1, 2]})

    def test_duplicate_create_and_missing_drop_raise(self):
        conn = self.connect()
        conn.create_table("t", {"x": [1]})
        with pytest.raises(CatalogError):
            conn.create_table("t", {"x": [2]})
        conn.create_table("t", {"x": [5]}, replace=True)
        with pytest.raises(CatalogError):
            conn.drop_table("nope")
        conn.drop_table("nope", if_exists=True)

    def test_temp_namespace_cleanup(self):
        conn = self.connect()
        keep = conn.temp_name("keepme")
        doomed = conn.temp_name("msg")
        conn.create_table(keep, {"x": [1]})
        conn.create_table(doomed, {"x": [1]})
        conn.create_table("user_data", {"x": [1]})
        assert conn.cleanup_temp(keep=[keep]) == 1
        assert conn.has_table(keep) and conn.has_table("user_data")
        assert not conn.has_table(doomed)

    def test_replace_column_preserves_row_order(self):
        conn = self.connect()
        conn.create_table("t", {"k": np.arange(5), "v": np.zeros(5)})
        conn.replace_column("t", "v", np.arange(5) * 1.5)
        np.testing.assert_allclose(conn.table("t").column("v").values,
                                   np.arange(5) * 1.5)

    def test_replace_column_length_mismatch_raises(self):
        conn = self.connect()
        conn.create_table("t", {"v": np.zeros(3)})
        with pytest.raises(ExecutionError):
            conn.replace_column("t", "v", np.zeros(2))

    def test_replace_column_rejects_unknown_strategy(self):
        """Typo'd strategies fail identically across backends."""
        from repro.exceptions import StorageError

        conn = self.connect()
        conn.create_table("t", {"v": np.zeros(3)})
        with pytest.raises(StorageError, match="unknown update strategy"):
            conn.replace_column("t", "v", np.ones(3), strategy="teleport")

    def test_profiles_record_kind_and_tag(self):
        conn = self.connect()
        conn.create_table("t", {"x": [1.0]})
        conn.reset_profiles()
        conn.execute("SELECT x FROM t", tag="feature")
        conn.execute("CREATE TABLE u AS SELECT x FROM t", tag="message")
        kinds = [(p.kind, p.tag) for p in conn.profiles]
        assert kinds == [("Select", "feature"), ("CreateTableAs", "message")]
        assert "feature" in conn.profiles_by_tag()
        # started stamps show which statements overlapped in time
        assert all(p.started is not None for p in conn.profiles)

    def test_update_profile_reports_affected_rows(self):
        """The frontier census prices narrow label updates with
        rows_out: an UPDATE's profile counts the rows it changed."""
        conn = self.connect()
        conn.create_table("t", {"a": [1, 2, 3, 4]})
        conn.reset_profiles()
        conn.execute("UPDATE t SET a = a + 1 WHERE a <= 2", tag="delta")
        (profile,) = conn.profiles
        assert profile.kind == "Update"
        assert profile.rows_out == 2

    def test_fetch_errors_are_translated(self):
        """A driver error raised while rows are fetched — not only while
        the statement starts — reaches the caller translated."""
        from repro.exceptions import BackendExecutionError

        conn = self.connect()
        raw = conn._driver_errors[0]("fetch failed")

        class FailingFetch:
            def __init__(self, inner):
                self.inner = inner

            def execute(self, *args):
                cursor = self.inner.execute(*args)
                self.description = cursor.description
                return self

            def fetchall(self):
                raise raw

        owner = conn._conn
        conn._conn = FailingFetch(owner)
        try:
            with pytest.raises(BackendExecutionError) as excinfo:
                conn.execute("SELECT 1 AS one")
        finally:
            conn._conn = owner
        assert excinfo.value.__cause__ is raw
        conn.close()

    def test_repr_runs_no_statement(self):
        """repr() is safe on any connector state, closed included: it
        reads no catalog and records no profile."""
        conn = self.connect()
        conn.create_table("t", {"a": [1]})
        conn.reset_profiles()
        shown = repr(conn)
        conn.close()
        assert repr(conn) == shown
        assert list(conn.profiles) == []


class TestSQLiteConnector(ConnectorContract):
    backend = "sqlite"

    def test_registered_functions(self):
        conn = SQLiteConnector()
        row = conn.execute(
            "SELECT GREATEST(1, 5, 3) AS g, LEAST(2, 7) AS l, "
            "SIGN(-4.0) AS s, EXP(0.0) AS e"
        ).first_row()
        assert (row["g"], row["l"], row["s"], row["e"]) == (5, 2, -1, 1.0)

    def test_median_aggregate(self):
        conn = SQLiteConnector()
        conn.create_table("t", {"x": [1.0, 9.0, 2.0]})
        assert conn.execute(
            "SELECT MEDIAN(x) AS m FROM t"
        ).first_row()["m"] == 2.0

    def test_execution_error_wraps_sqlite_errors(self):
        conn = SQLiteConnector()
        with pytest.raises(ExecutionError):
            conn.execute("SELECT * FROM missing_table")


@duckdb_column
class TestDuckDBConnector(ConnectorContract):
    backend = "duckdb"


# ---------------------------------------------------------------------------
# Registry / connect()
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_backend_names_cover_the_matrix(self):
        names = backend_names()
        for expected in ("embedded", "plain", "sqlite", "duckdb", "d-swap"):
            assert expected in names

    def test_connect_routes_presets_to_embedded(self):
        # .unwrapped sees through the chaos/retry proxies connect() may
        # stack (e.g. under a JOINBOOST_CHAOS CI leg)
        conn = repro.connect(backend="d-swap")
        assert isinstance(conn.unwrapped, Database)
        assert conn.capabilities.column_swap
        assert not repro.connect(backend="d-mem").capabilities.column_swap

    def test_connect_sqlite(self):
        conn = repro.connect(backend="sqlite", t={"a": [1, 2]})
        assert isinstance(conn.unwrapped, SQLiteConnector)
        assert conn.dialect == "sqlite"
        assert conn.has_table("t")

    def test_unknown_backend_raises_with_choices(self):
        with pytest.raises(BackendError, match="available"):
            get_backend("oracle9i")

    def test_duckdb_guides_install_when_absent(self):
        try:
            import duckdb  # noqa: F401
            pytest.skip("duckdb installed; missing-package path not reachable")
        except ImportError:
            pass
        with pytest.raises(BackendError, match="pip install"):
            DuckDBConnector()

    @pytest.mark.parametrize("preset", sorted(StorageConfig.PRESETS))
    def test_front_doors_train_one_model(self, preset):
        """A bare preset ``Database`` is the connector ``connect`` builds:
        default boosting picks the same strategy and model through both."""

        def digest(db):
            db, graph = favorita(db=db, num_fact_rows=1_000, seed=3)
            model = repro.train_gradient_boosting(db, graph, {"num_iterations": 3})
            return model_digest(model)

        bare = digest(Database(config=StorageConfig.preset(preset)))
        assert bare == digest(repro.connect(backend=preset))

    def test_embedded_connector_proxies_engine_internals(self):
        conn = repro.connect(backend="plain", t={"a": [1.0, 2.0]})
        # Storage benches reach through to the engine's catalog.
        assert conn.catalog.exists("t")
        assert isinstance(conn, Connector)
        # The plain preset allows column swap (no WAL/MVCC in the way).
        assert conn.capabilities == Capabilities(column_swap=True)


# ---------------------------------------------------------------------------
# Connector parity: embedded vs sqlite
# ---------------------------------------------------------------------------
def _build_trainset(conn, n=600, seed=11):
    rng = np.random.default_rng(seed)
    conn.create_table("sales", {
        "date_id": rng.integers(0, 40, n),
        "item_id": rng.integers(0, 25, n),
        "net_profit": rng.normal(size=n),
    })
    conn.create_table("date", {
        "date_id": np.arange(40),
        "holiday": rng.integers(0, 2, 40).astype(np.float64),
        "weekend": rng.normal(size=40),
    })
    conn.create_table("item", {
        "item_id": np.arange(25),
        "price": rng.normal(size=25),
    })
    train_set = repro.join_graph(conn)
    train_set.add_node("sales", y="net_profit")
    train_set.add_node("date", X=["holiday", "weekend"])
    train_set.add_node("item", X=["price"])
    train_set.add_edge("sales", "date", ["date_id"])
    train_set.add_edge("sales", "item", ["item_id"])
    return train_set


def _tree_shape(node):
    """Recursive (relation, column, op, value, prediction) skeleton."""
    if node is None:
        return None
    pred = None
    if node.predicate is not None:
        pred = (node.relation, node.predicate.column, node.predicate.op,
                node.predicate.value)
    return (pred, round(float(node.prediction or 0.0), 9),
            _tree_shape(node.left), _tree_shape(node.right))


class TestConnectorParity:
    """Embedded is the reference; every external backend in the matrix
    (sqlite always, duckdb when installed) must grow the same model."""

    @pytest.mark.parametrize("backend", backend_matrix("sqlite"))
    def test_single_tree_identical_structure(self, backend):
        models = {}
        for name in ("embedded", backend):
            train_set = _build_trainset(repro.connect(backend=name))
            models[name] = repro.train(
                {"model": "tree", "num_leaves": 6, "min_data_in_leaf": 2},
                train_set,
            )
        assert _tree_shape(models["embedded"].root) == \
            _tree_shape(models[backend].root)

    @pytest.mark.parametrize("backend", backend_matrix("sqlite"))
    def test_gradient_boosting_parity_within_1e9(self, backend):
        rmses = {}
        shapes = {}
        for name in ("embedded", backend):
            train_set = _build_trainset(repro.connect(backend=name))
            model = repro.train(
                {"objective": "regression", "num_iterations": 4,
                 "num_leaves": 5, "min_data_in_leaf": 2},
                train_set,
            )
            rmses[name] = repro.evaluate_rmse(model, train_set)
            shapes[name] = [_tree_shape(t.root) for t in model.trees]
        assert shapes["embedded"] == shapes[backend]
        assert rmses["embedded"] == pytest.approx(rmses[backend], abs=1e-9)

    @pytest.mark.parametrize("backend", backend_matrix("sqlite"))
    def test_predictions_align_rowwise(self, backend):
        scores = {}
        for name in ("embedded", backend):
            train_set = _build_trainset(repro.connect(backend=name))
            model = repro.train(
                {"objective": "regression", "num_iterations": 2,
                 "num_leaves": 4, "min_data_in_leaf": 2},
                train_set,
            )
            scores[name] = repro.predict(model, train_set)
        np.testing.assert_allclose(scores["embedded"], scores[backend],
                                   atol=1e-9)

    @pytest.mark.parametrize("split_batching", ("auto", "off"))
    @pytest.mark.parametrize("backend", backend_matrix("embedded", "sqlite"))
    def test_infinite_split_value_is_a_training_error(
        self, backend, split_batching
    ):
        """-inf is the best threshold here (it alone separates the two
        target levels) and has no SQL literal: every connector refuses
        it by relation, feature and value instead of crashing."""
        from repro.exceptions import TrainingError

        rng = np.random.default_rng(0)
        n = 200
        x = rng.normal(size=n)
        x[:50] = -np.inf
        conn = repro.connect(backend=backend)
        conn.create_table("f", {
            "k": rng.integers(0, 5, n),
            "x": x,
            "y": np.where(np.isinf(x), 10.0, -10.0) + rng.normal(0, 0.1, n),
        })
        conn.create_table("d", {"k": np.arange(5), "z": np.arange(5.0)})
        train_set = repro.join_graph(conn)
        train_set.add_node("f", X=["x"], y="y")
        train_set.add_node("d", X=["z"])
        train_set.add_edge("f", "d", ["k"])
        with pytest.raises(TrainingError, match=r"'x' of relation 'f' holds -inf"):
            repro.train(
                {"num_iterations": 2, "num_leaves": 4,
                 "split_batching": split_batching},
                train_set,
            )

    def test_sqlite_leaves_no_temp_tables(self):
        conn = repro.connect(backend="sqlite")
        train_set = _build_trainset(conn)
        repro.train(
            {"objective": "regression", "num_iterations": 2, "num_leaves": 4},
            train_set,
        )
        from repro.storage.catalog import TEMP_PREFIX

        leftovers = [t for t in conn.table_names()
                     if t.startswith(TEMP_PREFIX)]
        assert leftovers == []

    def test_random_forest_trains_on_sqlite(self):
        train_set = _build_trainset(repro.connect(backend="sqlite"))
        model = repro.train(
            {"boosting_type": "rf", "num_iterations": 2, "num_leaves": 4,
             "subsample": 0.5, "min_data_in_leaf": 2},
            train_set,
        )
        assert len(model.trees) == 2
        assert np.isfinite(repro.evaluate_rmse(model, train_set))

    def test_update_strategies_agree_on_sqlite(self):
        """All logical strategies collapse to the same physical write on
        sqlite; the models they produce must agree with each other."""
        rmses = []
        for strategy in ("swap", "update", "create"):
            train_set = _build_trainset(repro.connect(backend="sqlite"))
            model = repro.train(
                {"objective": "regression", "num_iterations": 3,
                 "num_leaves": 4, "update_strategy": strategy},
                train_set,
            )
            rmses.append(repro.evaluate_rmse(model, train_set))
        assert rmses[0] == pytest.approx(rmses[1], abs=1e-9)
        assert rmses[0] == pytest.approx(rmses[2], abs=1e-9)


class TestSQLiteFigure4Flow:
    def test_example_6_on_sqlite(self):
        """The paper's Example 6 verbatim, on a real second DBMS."""
        rng = np.random.default_rng(0)
        n = 400
        conn = repro.connect(
            backend="sqlite",
            sales={
                "date_id": rng.integers(0, 30, n),
                "net_profit": rng.normal(size=n),
            },
            date={
                "date_id": np.arange(30),
                "holiday": rng.integers(0, 2, 30),
                "weekend": rng.integers(0, 2, 30),
            },
        )
        train_set = repro.join_graph(conn)
        train_set.add_node("sales", Y=["net_profit"])
        train_set.add_node("date", X=["holiday", "weekend"])
        train_set.add_edge("sales", "date", ["date_id"])
        model = repro.train(
            {"objective": "regression", "num_iterations": 3, "num_leaves": 4},
            train_set,
        )
        scores = repro.predict(model, train_set)
        assert len(scores) == n
        assert np.isfinite(repro.evaluate_rmse(model, train_set))

    def test_multiclass_softmax_on_sqlite(self):
        rng = np.random.default_rng(3)
        n = 300
        conn = repro.connect(backend="sqlite")
        conn.create_table("f", {
            "k": rng.integers(0, 20, n),
            "label": rng.integers(0, 3, n),
        })
        conn.create_table("d", {"k": np.arange(20), "x": rng.normal(size=20)})
        graph = JoinGraph(conn)
        graph.add_relation("f", y="label", is_fact=True)
        graph.add_relation("d", features=["x"])
        graph.add_edge("f", "d", ["k"])
        model = repro.train_gradient_boosting(
            conn, graph,
            {"objective": "softmax", "num_class": 3, "num_iterations": 2,
             "num_leaves": 4},
        )
        frame = repro.feature_frame(conn, graph)
        proba = model.predict_proba(frame)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# Error taxonomy (ISSUE 8): raw driver errors never escape a connector
# ---------------------------------------------------------------------------
class TestErrorTaxonomy:
    """Only BackendError subclasses escape the backend execute paths."""

    def test_hierarchy(self):
        from repro.exceptions import (
            BackendError,
            BackendExecutionError,
            ReproError,
            TransientBackendError,
        )

        # BackendExecutionError stays catchable at every legacy
        # `except ExecutionError` site, and transient is a refinement.
        assert issubclass(BackendError, ReproError)
        assert issubclass(BackendExecutionError, BackendError)
        assert issubclass(BackendExecutionError, ExecutionError)
        assert issubclass(TransientBackendError, BackendExecutionError)

    def test_sqlite_bad_sql_is_translated(self):
        import sqlite3

        from repro.exceptions import BackendExecutionError

        conn = SQLiteConnector()
        conn.create_table("t", {"a": [1, 2]})
        for sql in (
            "SELECT nope FROM t",
            "SELECT FROM WHERE",
            "SELECT * FROM missing_table",
        ):
            with pytest.raises(BackendExecutionError) as excinfo:
                conn.execute(sql)
            assert not isinstance(excinfo.value, sqlite3.Error)
            # the raw driver error rides along as the cause
            assert isinstance(excinfo.value.__cause__, sqlite3.Error)

    def test_sqlite_transient_classification(self):
        import sqlite3

        from repro.backends.sqlite3_backend import _translate_sqlite_error
        from repro.exceptions import (
            BackendExecutionError,
            TransientBackendError,
        )

        locked = _translate_sqlite_error(
            sqlite3.OperationalError("database is locked"), "ctx"
        )
        busy = _translate_sqlite_error(
            sqlite3.OperationalError("database table is busy"), "ctx"
        )
        syntax = _translate_sqlite_error(
            sqlite3.OperationalError('near "FROM": syntax error'), "ctx"
        )
        integrity = _translate_sqlite_error(
            sqlite3.IntegrityError("UNIQUE constraint failed"), "ctx"
        )
        assert isinstance(locked, TransientBackendError)
        assert isinstance(busy, TransientBackendError)
        assert not isinstance(syntax, TransientBackendError)
        assert isinstance(syntax, BackendExecutionError)
        assert not isinstance(integrity, TransientBackendError)

    def test_duckdb_transient_classification(self):
        """The duckdb mapper is a pure function — testable without the
        optional package installed."""
        from repro.backends.duckdb_backend import _translate_duckdb_error
        from repro.exceptions import TransientBackendError

        class IOException(Exception):
            pass

        class BinderException(Exception):
            pass

        assert isinstance(
            _translate_duckdb_error(IOException("disk hiccup"), "ctx"),
            TransientBackendError,
        )
        assert isinstance(
            _translate_duckdb_error(
                BinderException("database is locked"), "ctx"
            ),
            TransientBackendError,
        )
        assert not isinstance(
            _translate_duckdb_error(
                BinderException("column nope not found"), "ctx"
            ),
            TransientBackendError,
        )

    def test_closed_sqlite_connector_raises_backend_error(self):
        from repro.exceptions import BackendExecutionError

        conn = SQLiteConnector()
        conn.create_table("t", {"a": [1]})
        conn.close()
        with pytest.raises(BackendExecutionError):
            conn.execute_read("SELECT * FROM t")

    def test_transient_caught_by_legacy_execution_error_sites(self):
        from repro.exceptions import TransientBackendError

        with pytest.raises(ExecutionError):
            raise TransientBackendError("still an execution error")

    def test_backend_error_importable_from_backends_package(self):
        """Compat: BackendError moved to repro.exceptions but the old
        import path keeps working."""
        from repro.backends.base import BackendError as from_base
        from repro.exceptions import BackendError as from_exceptions

        assert from_base is from_exceptions is BackendError
