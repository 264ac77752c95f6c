"""Real inter-query parallelism (ISSUE 5): tree-for-tree parity + wiring.

The load-bearing acceptance claim: training with ``num_workers=4`` grows
*identical* trees to ``num_workers=1`` on both the embedded and sqlite
backends — across growth policies, categorical features and
missing-value routing — because each relation's fused split query
computes exactly what the serial loop would and results merge in
relation order.  Alongside parity, these tests pin the wiring: the
scheduler actually engages (census reports parallel rounds), worker
counts resolve from params/env, the sqlite reader pool serves
concurrent threads, and unsupported backends fall back to serial.
"""

import dataclasses
import threading

import numpy as np
import pytest

import repro
from repro.backends import SQLiteConnector
from repro.backends.base import Capabilities
from repro.backends.embedded import EmbeddedConnector
from repro.core.params import NUM_WORKERS_ENV, TrainParams
from repro.datasets import favorita
from repro.engine.database import Database
from repro.exceptions import TrainingError

from test_frontier_batching import mixed_schema


def trees_of(model):
    return [tree.to_dict() for tree in model.trees]


# ---------------------------------------------------------------------------
# Tree-for-tree parity: num_workers=4 == num_workers=1
# ---------------------------------------------------------------------------
class TestParity:
    @pytest.mark.parametrize("growth", ["best-first", "depth-wise"])
    @pytest.mark.parametrize("missing", ["right", "both"])
    def test_embedded_gbm_parity(self, growth, missing):
        grown = {}
        for workers in (1, 4):
            db, graph = mixed_schema(Database())
            model = repro.train_gradient_boosting(
                db, graph,
                {"num_iterations": 2, "num_leaves": 8, "min_data_in_leaf": 2,
                 "growth": growth, "missing": missing,
                 "num_workers": workers},
            )
            grown[workers] = (
                trees_of(model), repro.rmse_on_join(db, graph, model)
            )
        assert grown[4][0] == grown[1][0]
        assert grown[4][1] == grown[1][1]

    @pytest.mark.parametrize("growth", ["best-first", "depth-wise"])
    @pytest.mark.parametrize("missing", ["right", "both"])
    def test_sqlite_gbm_parity(self, growth, missing):
        grown = {}
        for workers in (1, 4):
            db, graph = mixed_schema(SQLiteConnector())
            model = repro.train_gradient_boosting(
                db, graph,
                {"num_iterations": 2, "num_leaves": 8, "min_data_in_leaf": 2,
                 "growth": growth, "missing": missing,
                 "num_workers": workers},
            )
            grown[workers] = (
                trees_of(model), repro.rmse_on_join(db, graph, model)
            )
            db.close()
        assert grown[4][0] == grown[1][0]
        assert grown[4][1] == grown[1][1]

    def test_parity_multi_relation_snowflake(self):
        """Favorita: 5+ relations per round, the shape the worker pool
        actually fans out."""
        grown = {}
        for workers in (1, 4):
            db, graph = favorita(num_fact_rows=3000, num_extra_features=4)
            model = repro.train_gradient_boosting(
                db, graph,
                {"num_iterations": 2, "num_leaves": 8, "min_data_in_leaf": 3,
                 "num_workers": workers},
            )
            grown[workers] = trees_of(model)
        assert grown[4] == grown[1]

    def test_parity_rebuild_labels(self):
        """The rebuild-label path (per-round labeled fact copy) also
        parallelizes — its carry temps are task-owned, not cache-owned."""
        grown = {}
        for workers in (1, 4):
            db, graph = favorita(num_fact_rows=2500, num_extra_features=2)
            model = repro.train_gradient_boosting(
                db, graph,
                {"num_iterations": 1, "num_leaves": 6, "min_data_in_leaf": 3,
                 "frontier_state": "rebuild", "num_workers": workers},
            )
            grown[workers] = trees_of(model)
        assert grown[4] == grown[1]

    def test_random_forest_parity_embedded(self):
        grown = {}
        for workers in (1, 4):
            db, graph = favorita(num_fact_rows=3000, num_extra_features=2)
            forest = repro.train_random_forest(
                db, graph,
                {"num_iterations": 5, "num_leaves": 4, "subsample": 0.5,
                 "feature_fraction": 0.8, "min_data_in_leaf": 3,
                 "num_workers": workers},
            )
            grown[workers] = trees_of(forest)
            assert len(forest.history) == 5
        assert grown[4] == grown[1]

    def test_random_forest_parity_sqlite(self):
        grown = {}
        for workers in (1, 4):
            db, graph = favorita(
                db=SQLiteConnector(), num_fact_rows=2000, num_extra_features=2
            )
            forest = repro.train_random_forest(
                db, graph,
                {"num_iterations": 3, "num_leaves": 4, "subsample": 0.5,
                 "min_data_in_leaf": 3, "num_workers": workers},
            )
            grown[workers] = trees_of(forest)
            db.close()
        assert grown[4] == grown[1]


# ---------------------------------------------------------------------------
# Wiring: the pool actually engages (and disengages) where it should
# ---------------------------------------------------------------------------
class TestWiring:
    def test_census_reports_parallel_rounds(self):
        for connector in (None, SQLiteConnector()):
            db, graph = favorita(
                db=connector, num_fact_rows=2000, num_extra_features=2
            )
            model = repro.train_gradient_boosting(
                db, graph,
                {"num_iterations": 1, "num_leaves": 6, "min_data_in_leaf": 3,
                 "num_workers": 4},
            )
            census = model.frontier_census
            assert census["num_workers"] == 4
            assert census["parallel_rounds"] > 0
            assert census["parallel_wall_seconds"] > 0.0
            assert census["parallel_busy_seconds"] >= census["parallel_wall_seconds"] - 1e-9
            assert census["parallel_overlap_seconds"] >= 0.0
            # Rounds fanned out, so there is nothing to explain.
            assert census["parallel_fallback_reason"] is None
            if connector is not None:
                connector.close()

    def test_serial_census_reports_no_parallel_rounds(self):
        db, graph = favorita(num_fact_rows=2000, num_extra_features=2)
        model = repro.train_gradient_boosting(
            db, graph,
            {"num_iterations": 1, "num_leaves": 6, "min_data_in_leaf": 3,
             "num_workers": 1},
        )
        census = model.frontier_census
        assert census["parallel_rounds"] == 0
        assert "num_workers=1" in census["parallel_fallback_reason"]

    def test_backend_without_concurrent_read_stays_serial(self):
        db, graph = mixed_schema(EmbeddedConnector())
        db.capabilities = dataclasses.replace(
            db.capabilities, concurrent_read=False
        )
        model = repro.train_gradient_boosting(
            db, graph,
            {"num_iterations": 1, "num_leaves": 6, "min_data_in_leaf": 2,
             "num_workers": 4},
        )
        census = model.frontier_census
        assert census["parallel_rounds"] == 0
        # The silent-serialization bugfix: the census names the culprit.
        assert "concurrent_read" in census["parallel_fallback_reason"]
        assert model.trees  # trained fine, just serially

    def test_single_relation_round_stays_serial(self):
        """One feature-bearing relation = nothing to overlap."""
        db = Database()
        rng = np.random.default_rng(1)
        n = 600
        k = rng.integers(0, 20, n)
        db.create_table("fact", {"k": k, "yv": rng.normal(size=n)})
        db.create_table(
            "dim", {"k": np.arange(20), "d": rng.normal(size=20)}
        )
        from repro.joingraph.graph import JoinGraph

        graph = JoinGraph(db)
        graph.add_relation("fact", y="yv", is_fact=True)
        graph.add_relation("dim", features=["d"])
        graph.add_edge("fact", "dim", ["k"])
        model = repro.train_gradient_boosting(
            db, graph,
            {"num_iterations": 1, "num_leaves": 4, "min_data_in_leaf": 2,
             "num_workers": 4},
        )
        census = model.frontier_census
        assert census["parallel_rounds"] == 0
        assert (
            "single feature-bearing relation"
            in census["parallel_fallback_reason"]
        )


# ---------------------------------------------------------------------------
# num_workers parameter resolution
# ---------------------------------------------------------------------------
class TestNumWorkersParam:
    def test_aliases_accepted(self):
        for alias in ("num_workers", "workers", "num_threads", "n_jobs"):
            params = TrainParams.from_dict({alias: 3})
            assert params.num_workers == 3
            assert params.resolved_workers() == 3

    def test_auto_resolves_to_bounded_cpu_count(self):
        import os

        params = TrainParams.from_dict({})
        resolved = TrainParams(num_workers="auto").resolved_workers()
        assert 1 <= resolved <= 4
        assert resolved <= max(1, os.cpu_count() or 1)
        assert params.resolved_workers() == resolved or params.num_workers != "auto"

    def test_invalid_values_rejected(self):
        with pytest.raises(TrainingError):
            TrainParams(num_workers=0)
        with pytest.raises(TrainingError):
            TrainParams(num_workers="many")

    def test_numeric_string_accepted(self):
        assert TrainParams(num_workers="4").num_workers == 4

    def test_env_var_supplies_default(self, monkeypatch):
        monkeypatch.setenv(NUM_WORKERS_ENV, "4")
        params = TrainParams.from_dict({})
        assert params.num_workers == 4
        # An explicit parameter always wins over the environment.
        pinned = TrainParams.from_dict({"num_workers": 1})
        assert pinned.num_workers == 1
        monkeypatch.setenv(NUM_WORKERS_ENV, "auto")
        assert TrainParams.from_dict({}).num_workers == "auto"

    def test_env_var_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv(NUM_WORKERS_ENV, "lots")
        with pytest.raises(TrainingError):
            TrainParams.from_dict({})


# ---------------------------------------------------------------------------
# The sqlite reader pool
# ---------------------------------------------------------------------------
class TestSQLiteReaderPool:
    def test_concurrent_reads_from_many_threads(self):
        db = SQLiteConnector()
        db.create_table("t", {"a": np.arange(1000), "b": np.arange(1000.0)})
        results, errors = [], []
        barrier = threading.Barrier(6)

        def read(k):
            barrier.wait()
            try:
                for _ in range(10):
                    row = db.execute_read(
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
        assert 1 <= len(db._all_readers) <= 6
        db.close()

    def test_reader_pool_reuses_connections_across_rounds(self):
        """Scheduler rounds spawn fresh threads every time; the pool must
        recycle checked-in connections instead of minting one per thread
        (the fd-leak failure mode: rounds x workers connections)."""
        db = SQLiteConnector()
        db.create_table("t", {"a": np.arange(100)})
        for _ in range(50):
            db.execute_read("SELECT COUNT(*) AS n FROM t")
        assert len(db._all_readers) == 1
        # Many short-lived threads, strictly sequential: still one conn.
        for _ in range(10):
            t = threading.Thread(
                target=lambda: db.execute_read("SELECT MAX(a) AS m FROM t")
            )
            t.start()
            t.join()
        assert len(db._all_readers) == 1
        db.close()

    def test_execute_read_funnels_writes_to_owner(self):
        db = SQLiteConnector()
        db.create_table("t", {"a": [1, 2, 3]})
        # DDL through the read entry point must still work (owner path)...
        db.execute_read("CREATE TABLE made_by_read (x INTEGER)")
        assert "made_by_read" in db.table_names()
        # ...and must not have minted a reader connection for it.
        assert len(db._all_readers) == 0
        db.close()

    def test_reads_see_owner_writes(self):
        db = SQLiteConnector()
        db.create_table("t", {"a": [1, 2, 3]})
        assert db.execute_read("SELECT COUNT(*) AS n FROM t").first_row()["n"] == 3
        db.execute("UPDATE t SET a = a + 10")
        assert (
            db.execute_read("SELECT MIN(a) AS m FROM t").first_row()["m"] == 11
        )
        db.close()

    def test_capabilities_declare_concurrent_read(self):
        assert SQLiteConnector().capabilities.concurrent_read
        assert EmbeddedConnector().capabilities.concurrent_read
        assert Capabilities().concurrent_read  # permissive default

    def test_close_is_idempotent_and_cleans_up(self, tmp_path):
        import os

        db = SQLiteConnector()
        db.create_table("t", {"a": [1]})
        db.execute_read("SELECT a FROM t")
        scratch = db._tmpdir
        assert scratch is not None and os.path.isdir(scratch)
        db.close()
        db.close()
        assert not os.path.exists(scratch)

    def test_file_backed_database_is_preserved(self, tmp_path):
        path = str(tmp_path / "keep.db")
        db = SQLiteConnector(path=path)
        db.create_table("t", {"a": [1, 2]})
        db.close()
        import os

        assert os.path.exists(path)
        again = SQLiteConnector(path=path)
        assert again.execute("SELECT COUNT(*) AS n FROM t").first_row()["n"] == 2
        again.close()
