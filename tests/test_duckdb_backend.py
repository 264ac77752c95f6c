"""The DuckDB tier-1 backend (ISSUE 7): mechanics, concurrency, parity.

Everything in this module needs a real ``duckdb`` package and skips
cleanly when it is absent (the CI ``backend-duckdb`` leg installs it).
The load-bearing acceptance claims: DuckDB trains tree-for-tree
identically to the embedded engine, grows **bit-identical** models
across ``num_workers`` in {1, 4} (``model_digest`` equality — the PR 5
parity contract), the task runner actually engages on this backend
(``parallel_fallback_reason`` is None), and the PR 6 serving paths
(``sql_scores`` / ``score_by_key``) run natively.
"""

import numpy as np
import pytest

duckdb = pytest.importorskip("duckdb")

import repro
from repro.backends import DuckDBConnector
from repro.core.serialize import model_digest
from repro.datasets import favorita
from repro.exceptions import ExecutionError
from repro.storage.catalog import TEMP_PREFIX

from test_backends import _build_trainset, _tree_shape


# ---------------------------------------------------------------------------
# Driver-specific mechanics (the shared connector and reader-pool
# contracts run on duckdb from test_backends.py / test_parallel_training.py)
# ---------------------------------------------------------------------------
class TestDuckDBMechanics:
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
# Training: the worker-count parity contract + the task runner engaging
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
            np.sort(np.asarray(rows["jb_score"], dtype=float)),
            np.sort(full[mask]), atol=1e-9,
        )
