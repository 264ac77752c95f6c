"""Process-executor and sharded training parity (ISSUE 9).

The acceptance bar: ``model_digest`` is bit-identical across executors
{serial, thread, process} and, on exact-arithmetic configurations,
across shard counts {1, 4} — with and without ``worker_crash``/``stall``
faults — and chaos runs show ``tasks_redispatched > 0`` with zero
exhausted retries.  Recovery must be *observable*, not incidental.
"""

import numpy as np
import pytest

import repro
from repro.core.serialize import model_digest
from repro.distributed import ClusterConfig, SimulatedCluster
from repro.engine.database import Database
from repro.exceptions import TrainingError
from repro.joingraph.graph import JoinGraph

from conftest import backend_matrix


# --------------------------------------------------------------------------
# Single-node training across executors
# --------------------------------------------------------------------------
def _build_trainset(conn, n=500, seed=7):
    rng = np.random.default_rng(seed)
    conn.create_table("sales", {
        "date_id": rng.integers(0, 30, n),
        "item_id": rng.integers(0, 20, n),
        "net_profit": rng.normal(size=n),
    })
    conn.create_table("date", {
        "date_id": np.arange(30),
        "holiday": rng.integers(0, 2, 30).astype(np.float64),
    })
    conn.create_table("item", {
        "item_id": np.arange(20),
        "price": rng.normal(size=20),
    })
    train_set = repro.join_graph(conn)
    train_set.add_node("sales", y="net_profit")
    train_set.add_node("date", X=["holiday"])
    train_set.add_node("item", X=["price"])
    train_set.add_edge("sales", "date", ["date_id"])
    train_set.add_edge("sales", "item", ["item_id"])
    return train_set


PARAMS = {
    "objective": "regression",
    "num_iterations": 2,
    "num_leaves": 4,
    "learning_rate": 0.3,
}


def _train(backend, chaos=None, **extra):
    conn = repro.connect(backend=backend, chaos=chaos)
    train_set = _build_trainset(conn)
    model = repro.train(dict(PARAMS, **extra), train_set)
    return model


class TestExecutorParity:
    @pytest.mark.parametrize("backend", backend_matrix("plain", "sqlite"))
    def test_process_digest_matches_serial_and_thread(self, backend):
        serial = _train(backend, num_workers=1)
        thread = _train(backend, num_workers=4, executor="thread")
        process = _train(backend, num_workers=4, executor="process")
        assert model_digest(thread) == model_digest(serial)
        assert model_digest(process) == model_digest(serial)

    def test_process_executor_engages_on_sqlite(self):
        model = _train("sqlite", num_workers=4, executor="process")
        census = model.frontier_census
        assert census["executor"] == "process"
        assert census["executor_fallback_reason"] is None
        assert census["worker_crashes"] == 0
        assert census["tasks_redispatched"] == 0

    def test_raw_database_falls_back_to_threads(self):
        """A bare embedded Database has no serialized-task contract; the
        evaluator must say so rather than silently doing nothing."""
        db, graph = _int_y_star(rows=256)
        model = repro.train_gradient_boosting(
            db, graph, dict(PARAMS, num_workers=4, executor="process")
        )
        census = model.frontier_census
        assert census["executor"] == "thread"
        assert "process-safe" in census["executor_fallback_reason"]

    def test_executor_param_validated(self):
        from repro.core.params import TrainParams

        with pytest.raises(TrainingError, match="executor"):
            TrainParams.from_dict(dict(PARAMS, executor="carrier-pigeon"))

    def test_executor_env_applies_when_param_absent(self, monkeypatch):
        from repro.core.params import TrainParams

        monkeypatch.setenv("JOINBOOST_EXECUTOR", "process")
        assert TrainParams.from_dict(dict(PARAMS)).executor == "process"
        # an explicit parameter always wins
        assert TrainParams.from_dict(
            dict(PARAMS, executor="thread")
        ).executor == "thread"


class TestExecutorChaosParity:
    """Killed and stalled workers leave no trace in the digest."""

    @pytest.mark.parametrize("backend", backend_matrix("plain", "sqlite"))
    def test_worker_crash_recovers_bit_identical(self, backend):
        reference = _train(backend, num_workers=1)
        model = _train(
            backend,
            chaos="tag=feature:nth=2:times=1:kind=worker_crash",
            num_workers=4,
            executor="process",
        )
        assert model_digest(model) == model_digest(reference)
        census = model.frontier_census
        assert census["worker_crashes"] >= 1
        assert census["tasks_redispatched"] >= 1
        assert census["respawns"] >= 1
        assert census["retry_exhausted"] == 0
        assert census["chaos_injected"] >= 1

    def test_stall_recovers_bit_identical(self, monkeypatch):
        monkeypatch.setenv("JOINBOOST_TASK_DEADLINE", "2")
        reference = _train("sqlite", num_workers=1)
        model = _train(
            "sqlite",
            chaos="tag=feature:nth=3:times=1:kind=stall",
            num_workers=4,
            executor="process",
        )
        assert model_digest(model) == model_digest(reference)
        census = model.frontier_census
        assert census["deadline_timeouts"] >= 1
        assert census["tasks_redispatched"] >= 1
        assert census["retry_exhausted"] == 0

    def test_task_faults_inert_on_thread_executor(self):
        """Task-scoped kinds target process workers; a thread run must
        neither fire them nor burn their counters on statements."""
        reference = _train("sqlite", num_workers=1)
        model = _train(
            "sqlite",
            chaos="tag=feature:nth=2:times=1:kind=worker_crash",
            num_workers=4,
            executor="thread",
        )
        assert model_digest(model) == model_digest(reference)
        assert model.frontier_census["chaos_injected"] == 0


# --------------------------------------------------------------------------
# Sharded training (the cluster) across executors and shard counts
# --------------------------------------------------------------------------
def _int_y_star(rows=2048, seed=11):
    """A star schema whose target is integer-valued: per-shard partial
    sums are exact in float64, so merged aggregates — and therefore the
    trained model — are identical for ANY shard count."""
    rng = np.random.default_rng(seed)
    db = Database(name="inty")
    db.create_table("fact", {
        "k0": rng.integers(0, 40, size=rows),
        "k1": rng.integers(0, 30, size=rows),
        "y": rng.integers(-8, 9, size=rows).astype(np.float64),
    })
    db.create_table("dim0", {
        "k0": np.arange(40),
        "f0": rng.normal(size=40),
        "f1": rng.integers(0, 5, size=40).astype(np.float64),
    })
    db.create_table("dim1", {
        "k1": np.arange(30),
        "f2": rng.normal(size=30),
        "f3": rng.integers(0, 7, size=30).astype(np.float64),
    })
    graph = JoinGraph(db)
    graph.add_relation("fact", features=[], y="y", is_fact=True)
    graph.add_relation("dim0", features=["f0", "f1"])
    graph.add_relation("dim1", features=["f2", "f3"])
    graph.add_edge("fact", "dim0", ["k0"], ["k0"])
    graph.add_edge("fact", "dim1", ["k1"], ["k1"])
    return db, graph


TREE_PARAMS = {"num_leaves": 8, "min_data_in_leaf": 2}


def _sharded_tree(machines, executor="serial", chaos=None, deadline=None):
    db, graph = _int_y_star()
    cluster = SimulatedCluster(
        db, graph, "k0", ClusterConfig(num_machines=machines),
        executor=executor, chaos=chaos, task_deadline=deadline,
    )
    tree, _ = cluster.train_decision_tree(TREE_PARAMS)
    return tree, cluster


class TestShardedParity:
    def test_tree_identical_across_shard_counts_and_executors(self):
        reference, _ = _sharded_tree(machines=1)
        for machines, executor in [(4, "serial"), (4, "thread"),
                                   (4, "process"), (1, "process")]:
            tree, cluster = _sharded_tree(machines, executor=executor)
            assert tree.dump() == reference.dump(), (machines, executor)
            assert cluster.census()["tasks_redispatched"] == 0

    def test_one_round_boosting_identical_across_shards(self):
        digests = {}
        legs = [(1, "serial", None), (4, "serial", None),
                (4, "process", None),
                (4, "process", "tag=feature:nth=3:times=1:kind=worker_crash")]
        for machines, executor, chaos in legs:
            db, graph = _int_y_star()
            cluster = SimulatedCluster(
                db, graph, "k0", ClusterConfig(num_machines=machines),
                executor=executor, chaos=chaos,
            )
            model, _ = cluster.train_gradient_boosting(
                {"num_iterations": 1, "num_leaves": 8, "min_data_in_leaf": 2}
            )
            digests[machines, executor, chaos] = model_digest(model)
            census = cluster.census()
            # the shard steps really executed; a faulted one was redispatched
            assert census["measured_wall_seconds"] > 0
            assert census["retry_exhausted"] == 0
            assert (census["tasks_redispatched"] > 0) == (chaos is not None)
        assert len(set(digests.values())) == 1, digests

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_worker_crash_on_shard_recovers(self, executor):
        reference, _ = _sharded_tree(machines=4)
        tree, cluster = _sharded_tree(
            machines=4, executor=executor,
            chaos="tag=feature:nth=3:times=1:kind=worker_crash",
        )
        assert tree.dump() == reference.dump()
        census = cluster.census()
        assert census["worker_crashes"] == 1
        assert census["tasks_redispatched"] == 1
        assert census["chaos_injected"] == 1

    def test_stalled_shard_hits_deadline_and_recovers(self):
        reference, _ = _sharded_tree(machines=4)
        tree, cluster = _sharded_tree(
            machines=4, executor="process",
            chaos="tag=totals:nth=2:times=1:kind=stall", deadline=2,
        )
        assert tree.dump() == reference.dump()
        census = cluster.census()
        assert census["deadline_timeouts"] == 1
        assert census["tasks_redispatched"] == 1
        assert census["respawns"] == 1
        assert census["retry_exhausted"] == 0

    def test_gbm_digest_identical_across_executors_at_fixed_shards(self):
        digests = {}
        for executor in ("serial", "process"):
            db, graph = _int_y_star()
            cluster = SimulatedCluster(
                db, graph, "k0", ClusterConfig(num_machines=4),
                executor=executor,
            )
            model, _ = cluster.train_gradient_boosting(
                {"num_iterations": 2, "num_leaves": 4, "learning_rate": 0.5}
            )
            digests[executor] = model_digest(model)
        assert digests["serial"] == digests["process"]


class TestShardedAccounting:
    def test_measured_wall_reported_alongside_simulated(self):
        _, cluster = _sharded_tree(machines=4, executor="process")
        census = cluster.census()
        assert census["measured_wall_seconds"] > 0
        assert census["simulated_seconds"] > 0
        assert census["num_shards"] == 4
        assert census["executor"] == "process"
        assert cluster.measured_wall_seconds == pytest.approx(
            census["measured_wall_seconds"]
        )

    def test_model_carries_cluster_census(self):
        db, graph = _int_y_star()
        cluster = SimulatedCluster(
            db, graph, "k0", ClusterConfig(num_machines=2)
        )
        model, _ = cluster.train_gradient_boosting(
            {"num_iterations": 1, "num_leaves": 4}
        )
        assert model.frontier_census["num_shards"] == 2
        assert model.frontier_census["executor"] == "serial"

    def test_unknown_executor_rejected(self):
        db, graph = _int_y_star(rows=128)
        with pytest.raises(TrainingError, match="executor"):
            SimulatedCluster(
                db, graph, "k0", ClusterConfig(num_machines=2),
                executor="fax-machine",
            )
