"""The DuckDB tier-1 backend (ISSUE 7): mechanics, concurrency, parity.

Everything in this module needs a real ``duckdb`` package and skips
cleanly when it is absent (the CI ``backend-duckdb`` leg installs it).
The load-bearing acceptance claims: DuckDB trains tree-for-tree
identically to the embedded engine, grows **bit-identical** models
across ``num_workers`` in {1, 4} (``model_digest`` equality — the PR 5
parity contract), the scheduler actually engages on this backend
(``parallel_fallback_reason`` is None), and the PR 6 serving paths
(``sql_scores`` / ``score_by_key``) run natively.
"""

import threading

import numpy as np
import pytest

duckdb = pytest.importorskip("duckdb")

import repro
from repro.backends import DuckDBConnector
from repro.core.serialize import model_digest
from repro.datasets import favorita
from repro.exceptions import CatalogError, ExecutionError
from repro.storage.catalog import TEMP_PREFIX

from test_backends import _build_trainset, _tree_shape


# ---------------------------------------------------------------------------
# Connector mechanics
# ---------------------------------------------------------------------------
class TestDuckDBMechanics:
    def test_create_execute_roundtrip(self):
        conn = DuckDBConnector()
        conn.create_table("t", {"a": [1, 2, 3], "b": [1.5, 2.5, 3.5]})
        result = conn.execute("SELECT a, b FROM t WHERE a <= 2")
        assert result.num_rows == 2
        np.testing.assert_array_equal(result["a"], [1, 2])
        conn.close()

    def test_integer_division_matches_embedded_semantics(self):
        conn = DuckDBConnector()
        conn.create_table("t", {"c": [1, 1, 1], "s": [1, 2, 4]})
        row = conn.execute("SELECT SUM(s) / SUM(c) AS mean FROM t").first_row()
        assert row["mean"] == pytest.approx(7 / 3)
        conn.close()

    def test_nan_stored_as_null_and_read_back_as_nan(self):
        conn = DuckDBConnector()
        conn.create_table("t", {"x": np.array([1.0, np.nan, 3.0])})
        assert conn.execute(
            "SELECT COUNT(*) AS n FROM t WHERE x IS NULL"
        ).first_row()["n"] == 1
        col = conn.table("t").column("x")
        assert np.isnan(col.values[1])
        assert col.is_null()[1]
        conn.close()

    def test_create_table_as_select_and_rename(self):
        conn = DuckDBConnector()
        conn.create_table("t", {"a": [1, 2, 3]})
        conn.execute("CREATE TABLE u AS SELECT a * 2 AS a2 FROM t")
        conn.rename_table("u", "w")
        assert conn.has_table("w") and not conn.has_table("u")
        np.testing.assert_array_equal(conn.table("w").column("a2").values,
                                      [2, 4, 6])
        conn.close()

    def test_duplicate_create_and_missing_drop_raise(self):
        conn = DuckDBConnector()
        conn.create_table("t", {"x": [1]})
        with pytest.raises(CatalogError):
            conn.create_table("t", {"x": [2]})
        conn.create_table("t", {"x": [5]}, replace=True)
        with pytest.raises(CatalogError):
            conn.drop_table("nope")
        conn.drop_table("nope", if_exists=True)
        conn.close()

    def test_replace_column_preserves_row_order(self):
        conn = DuckDBConnector()
        conn.create_table("t", {"k": np.arange(5), "v": np.zeros(5)})
        conn.replace_column("t", "v", np.arange(5) * 1.5)
        np.testing.assert_allclose(conn.table("t").column("v").values,
                                   np.arange(5) * 1.5)
        conn.close()

    def test_replace_column_length_mismatch_raises(self):
        conn = DuckDBConnector()
        conn.create_table("t", {"v": np.zeros(3)})
        with pytest.raises(ExecutionError):
            conn.replace_column("t", "v", np.zeros(2))
        conn.close()

    def test_replace_column_rejects_unknown_strategy(self):
        from repro.exceptions import StorageError

        conn = DuckDBConnector()
        conn.create_table("t", {"v": np.zeros(3)})
        with pytest.raises(StorageError, match="unknown update strategy"):
            conn.replace_column("t", "v", np.ones(3), strategy="teleport")
        conn.close()

    def test_temp_namespace_cleanup(self):
        conn = DuckDBConnector()
        keep = conn.temp_name("keepme")
        doomed = conn.temp_name("msg")
        conn.create_table(keep, {"x": [1]})
        conn.create_table(doomed, {"x": [1]})
        conn.create_table("user_data", {"x": [1]})
        assert conn.cleanup_temp(keep=[keep]) == 1
        assert conn.has_table(keep) and conn.has_table("user_data")
        assert not conn.has_table(doomed)
        conn.close()

    def test_profiles_record_kind_tag_and_start_stamp(self):
        conn = DuckDBConnector()
        conn.create_table("t", {"x": [1.0]})
        conn.reset_profiles()
        conn.execute("SELECT x FROM t", tag="feature")
        conn.execute("CREATE TABLE u AS SELECT x FROM t", tag="message")
        kinds = [(p.kind, p.tag) for p in conn.profiles]
        assert kinds == [("Select", "feature"), ("CreateTableAs", "message")]
        # started stamps feed the scheduler's overlap accounting
        assert all(p.started is not None for p in conn.profiles)
        conn.close()

    def test_update_profile_reports_affected_rows(self):
        """The frontier census prices narrow label updates with
        rows_out; DuckDB reports the count as a one-row result."""
        conn = DuckDBConnector()
        conn.create_table("t", {"a": [1, 2, 3, 4]})
        conn.reset_profiles()
        conn.execute("UPDATE t SET a = a + 1 WHERE a <= 2", tag="delta")
        (profile,) = conn.profiles
        assert profile.kind == "Update"
        assert profile.rows_out == 2
        conn.close()

    def test_population_variance_semantics(self):
        """VARIANCE through the dialect is the population estimator,
        matching the embedded engine (DuckDB's bare spelling is sample)."""
        conn = DuckDBConnector()
        conn.create_table("t", {"x": [1.0, 2.0, 3.0, 4.0]})
        row = conn.execute("SELECT VARIANCE(x) AS v FROM t").first_row()
        assert row["v"] == pytest.approx(1.25)  # population, not 5/3
        conn.close()

    def test_execution_error_wraps_duckdb_errors(self):
        conn = DuckDBConnector()
        with pytest.raises(ExecutionError):
            conn.execute("SELECT * FROM missing_table")
        conn.close()


# ---------------------------------------------------------------------------
# The cursor pool (concurrent_read=True, for real)
# ---------------------------------------------------------------------------
class TestDuckDBCursorPool:
    def test_capabilities_declare_concurrent_read(self):
        conn = DuckDBConnector()
        assert conn.capabilities.concurrent_read
        conn.close()

    def test_concurrent_reads_from_many_threads(self):
        conn = DuckDBConnector()
        conn.create_table("t", {"a": np.arange(1000), "b": np.arange(1000.0)})
        results, errors = [], []
        barrier = threading.Barrier(6)

        def read(k):
            barrier.wait()
            try:
                for _ in range(10):
                    row = conn.execute_read(
                        f"SELECT SUM(a) AS s FROM t WHERE a < {100 * (k + 1)}"
                    ).first_row()
                    results.append((k, row["s"]))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=read, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for k, total in results:
            n = 100 * (k + 1)
            assert total == n * (n - 1) // 2
        # The pool is bounded by peak concurrency, not thread lifetimes.
        assert 1 <= len(conn._all_readers) <= 6
        conn.close()

    def test_cursor_pool_reuses_handles_across_rounds(self):
        conn = DuckDBConnector()
        conn.create_table("t", {"a": np.arange(100)})
        for _ in range(50):
            conn.execute_read("SELECT COUNT(*) AS n FROM t")
        assert len(conn._all_readers) == 1
        for _ in range(10):
            t = threading.Thread(
                target=lambda: conn.execute_read("SELECT MAX(a) AS m FROM t")
            )
            t.start()
            t.join()
        assert len(conn._all_readers) == 1
        conn.close()

    def test_execute_read_funnels_writes_to_owner(self):
        conn = DuckDBConnector()
        conn.create_table("t", {"a": [1, 2, 3]})
        conn.execute_read("CREATE TABLE made_by_read (x INTEGER)")
        assert "made_by_read" in conn.table_names()
        assert len(conn._all_readers) == 0
        conn.close()

    def test_reads_see_owner_writes(self):
        conn = DuckDBConnector()
        conn.create_table("t", {"a": [1, 2, 3]})
        assert conn.execute_read(
            "SELECT COUNT(*) AS n FROM t"
        ).first_row()["n"] == 3
        conn.execute("UPDATE t SET a = a + 10")
        assert conn.execute_read(
            "SELECT MIN(a) AS m FROM t"
        ).first_row()["m"] == 11
        conn.close()

    def test_close_is_idempotent(self):
        conn = DuckDBConnector()
        conn.create_table("t", {"a": [1]})
        conn.execute_read("SELECT a FROM t")
        conn.close()
        conn.close()


# ---------------------------------------------------------------------------
# Training: the PR 5 parity contract + the scheduler actually engaging
# ---------------------------------------------------------------------------
class TestDuckDBTraining:
    def test_worker_parity_bit_identical(self):
        """num_workers=4 must grow the *same bits* as num_workers=1 —
        model_digest equality, not approximate rmse."""
        digests = {}
        for workers in (1, 4):
            db, graph = favorita(
                db=DuckDBConnector(), num_fact_rows=2500, num_extra_features=3
            )
            model = repro.train_gradient_boosting(
                db, graph,
                {"num_iterations": 2, "num_leaves": 6, "min_data_in_leaf": 3,
                 "num_workers": workers},
            )
            census = model.frontier_census
            if workers == 4:
                assert census["parallel_rounds"] > 0
                assert census["parallel_fallback_reason"] is None
            else:
                assert census["parallel_rounds"] == 0
                assert "num_workers=1" in census["parallel_fallback_reason"]
            digests[workers] = model_digest(model)
            db.close()
        assert digests[1] == digests[4]

    def test_incremental_frontier_state_engages(self):
        """The narrow-update capability is real: every round is batched
        over the label column (no veto) and delta updates fire."""
        db, graph = favorita(
            db=DuckDBConnector(), num_fact_rows=2000, num_extra_features=2
        )
        model = repro.train_gradient_boosting(
            db, graph,
            {"num_iterations": 1, "num_leaves": 6, "min_data_in_leaf": 3},
        )
        census = model.frontier_census
        assert census["batched_rounds"] == census["rounds"] > 0
        assert census["batching_veto"] is None
        assert census["root_label_passes"] == 1
        assert census["delta_label_updates"] > 0
        db.close()

    def test_prepare_training_is_idempotent_and_recorded(self):
        db, graph = favorita(
            db=DuckDBConnector(), num_fact_rows=800, num_extra_features=2
        )
        first = db.prepare_training(graph)
        indexed_after_first = set(db._indexed)
        second = db.prepare_training(graph)
        assert first >= 0.0 and second >= 0.0
        assert db._indexed == indexed_after_first
        assert db.index_seconds >= first
        tags = {p.tag for p in db.profiles}
        assert "index" in tags
        db.close()

    def test_training_leaves_no_temp_tables(self):
        train_set = _build_trainset(repro.connect(backend="duckdb"))
        repro.train(
            {"objective": "regression", "num_iterations": 2, "num_leaves": 4},
            train_set,
        )
        conn = train_set.db
        leftovers = [t for t in conn.table_names()
                     if t.startswith(TEMP_PREFIX)]
        assert leftovers == []

    def test_random_forest_trains_on_duckdb(self):
        train_set = _build_trainset(repro.connect(backend="duckdb"))
        model = repro.train(
            {"boosting_type": "rf", "num_iterations": 2, "num_leaves": 4,
             "subsample": 0.5, "min_data_in_leaf": 2},
            train_set,
        )
        assert len(model.trees) == 2
        assert np.isfinite(repro.evaluate_rmse(model, train_set))


# ---------------------------------------------------------------------------
# Serving (PR 6): compiled, SQL and semi-join scoring run natively
# ---------------------------------------------------------------------------
class TestDuckDBServing:
    def _service(self):
        train_set = _build_trainset(repro.connect(backend="duckdb"))
        model = repro.train(
            {"objective": "regression", "num_iterations": 3,
             "num_leaves": 5, "min_data_in_leaf": 2},
            train_set,
        )
        service = repro.PredictionService(train_set.db, train_set.graph)
        service.deploy(model)
        return train_set, model, service

    def test_sql_scores_match_compiled_and_recursive(self):
        train_set, model, service = self._service()
        compiled = service.score_all()
        in_db = service.score_sql()
        reference = repro.predict(model, train_set)
        np.testing.assert_allclose(compiled, reference, atol=1e-9)
        np.testing.assert_allclose(in_db, reference, atol=1e-9)

    def test_score_by_key_matches_full_scan(self):
        train_set, model, service = self._service()
        full = service.score_all()
        dates = train_set.db.table("sales").column("date_id").values
        target = int(dates[0])
        rows = service.score_key({"date_id": target})
        mask = dates == target
        assert len(rows) == int(mask.sum())
        np.testing.assert_allclose(
            np.sort(np.asarray(rows, dtype=float)),
            np.sort(full[mask]), atol=1e-9,
        )
