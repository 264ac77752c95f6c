"""Distributed simulation: partitioning and multi-node training."""

import numpy as np
import pytest

import repro
from repro.backends.chaos import RetryConnector, wrap_with_chaos
from repro.bench.harness import simulated_seconds
from repro.core.predict import feature_frame
from repro.core.serialize import model_digest
from repro.datasets import star_schema
from repro.distributed import (
    SimulatedCluster,
    hash_partition_table,
    partition_database,
)
from repro.engine.database import Database
from repro.engine.retry import RetryPolicy
from repro.joingraph.graph import JoinGraph


class TestPartitioning:
    def test_partitions_cover_all_rows(self, small_star):
        db, graph = small_star
        parts = hash_partition_table(db, "fact", "k0", 4)
        total = sum(len(p["k0"]) for p in parts)
        assert total == db.table("fact").num_rows()

    def test_partitioning_is_by_key(self, small_star):
        db, graph = small_star
        parts = hash_partition_table(db, "fact", "k0", 3)
        seen = {}
        for p, part in enumerate(parts):
            for key in np.unique(part["k0"]):
                assert seen.setdefault(int(key), p) == p

    def test_dimensions_replicated(self, small_star):
        db, graph = small_star
        workers, worker_graphs = partition_database(db, graph, 2, "k0")
        for worker in workers:
            assert worker.table("dim0").num_rows() == db.table("dim0").num_rows()


class TestSimulatedCluster:
    def test_distributed_equals_single_node(self):
        db, graph = star_schema(num_fact_rows=4000, num_dims=2, seed=2)
        cluster = SimulatedCluster(db, graph, "k0", num_machines=4)
        distributed = cluster.train_gradient_boosting(
            {"num_iterations": 3, "num_leaves": 4, "learning_rate": 0.5}
        )
        single = repro.train_gradient_boosting(
            db, graph, {"num_iterations": 3, "num_leaves": 4,
                        "learning_rate": 0.5},
        )
        frame = feature_frame(db, graph)
        assert np.allclose(
            distributed.predict_arrays(frame), single.predict_arrays(frame)
        )

    def test_shuffle_bytes_accounted(self):
        db, graph = star_schema(num_fact_rows=2000, num_dims=2, seed=3)
        cluster = SimulatedCluster(db, graph, "k0", num_machines=2)
        cluster.train_gradient_boosting({"num_iterations": 1, "num_leaves": 4})
        census = cluster.census()
        assert census["shuffle_bytes"] > 0
        assert census["syncs"] > 0
        assert census["step_seconds"] > 0

    def test_slower_network_costs_more(self):
        """The figure harness's network model: one measured census costs
        more over a slower network, by exactly its bytes' extra transfer
        time."""
        db, graph = star_schema(num_fact_rows=2000, num_dims=2, seed=3)
        cluster = SimulatedCluster(db, graph, "k0", num_machines=2)
        cluster.train_gradient_boosting({"num_iterations": 1, "num_leaves": 4})
        census = cluster.census()
        fast = simulated_seconds(census, bandwidth=1e9)
        slow = simulated_seconds(census, bandwidth=1e4)
        assert slow > fast > census["step_seconds"]
        assert slow - fast == pytest.approx(
            census["shuffle_bytes"] * (1 / 1e4 - 1 / 1e9)
        )

    def test_decision_tree_distributed(self):
        db, graph = star_schema(num_fact_rows=2000, num_dims=2, seed=4)
        cluster = SimulatedCluster(db, graph, "k0", num_machines=2)
        tree = cluster.train_decision_tree({"num_leaves": 8})
        assert tree.num_leaves == 8
        single = repro.train_decision_tree(db, graph, {"num_leaves": 8})
        assert tree.dump() == single.dump()

    def test_rejects_non_rmse(self):
        db, graph = star_schema(num_fact_rows=500, num_dims=1, seed=5)
        cluster = SimulatedCluster(db, graph, "k0", num_machines=2)
        from repro.exceptions import TrainingError

        with pytest.raises(TrainingError):
            cluster.train_gradient_boosting({"objective": "l1"})


# --------------------------------------------------------------------------
# Shard-count parity, failure rules and accounting
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


def _categorical_star(rows=2048, seed=5):
    """``_int_y_star`` plus a declared categorical ``dim0.c0`` (integer
    codes) that drives the target, so the tree splits on it."""
    rng = np.random.default_rng(seed)
    db = Database(name="caty")
    k0 = rng.integers(0, 40, size=rows)
    k1 = rng.integers(0, 30, size=rows)
    c0 = rng.integers(0, 8, size=40)
    effect = np.array([3, -4, 0, 5, -2, 6, -6, 1])
    db.create_table("fact", {
        "k0": k0,
        "k1": k1,
        "y": (effect[c0[k0]] + rng.integers(-2, 3, size=rows)).astype(np.float64),
    })
    db.create_table("dim0", {"k0": np.arange(40), "c0": c0})
    db.create_table("dim1", {
        "k1": np.arange(30),
        "f2": rng.integers(0, 7, size=30).astype(np.float64),
    })
    graph = JoinGraph(db)
    graph.add_relation("fact", features=[], y="y", is_fact=True)
    graph.add_relation("dim0", features=["c0"], categorical=["c0"])
    graph.add_relation("dim1", features=["f2"])
    graph.add_edge("fact", "dim0", ["k0"], ["k0"])
    graph.add_edge("fact", "dim1", ["k1"], ["k1"])
    return db, graph


TREE_PARAMS = {"num_leaves": 8, "min_data_in_leaf": 2}


def _sharded_tree(machines):
    db, graph = _int_y_star()
    cluster = SimulatedCluster(
        db, graph, "k0", num_machines=machines
    )
    tree = cluster.train_decision_tree(TREE_PARAMS)
    return tree, cluster


class TestShardedParity:
    def test_tree_identical_across_shard_counts(self):
        reference, _ = _sharded_tree(machines=1)
        tree, _ = _sharded_tree(machines=4)
        assert tree.dump() == reference.dump()
        assert model_digest(tree) == model_digest(reference)

    def test_one_round_boosting_identical_across_shards(self):
        digests = {}
        for machines in (1, 4):
            db, graph = _int_y_star()
            cluster = SimulatedCluster(
                db, graph, "k0", num_machines=machines
            )
            model = cluster.train_gradient_boosting(
                {"num_iterations": 1, "num_leaves": 8, "min_data_in_leaf": 2}
            )
            digests[machines] = model_digest(model)
            # the shard steps really executed
            assert cluster.census()["measured_wall_seconds"] > 0
        assert digests[1] == digests[4]

    @pytest.mark.parametrize("machines", [1, 4])
    def test_categorical_tree_matches_single_node(self, machines):
        """The sharded split search is the single-node kernel: a declared
        categorical feature gets the same ``IN`` literals (``5``, not
        ``5.0``), so dump and digest both match."""
        db, graph = _categorical_star()
        single = repro.train_decision_tree(db, graph, TREE_PARAMS)
        db, graph = _categorical_star()
        tree = SimulatedCluster(
            db, graph, "k0", num_machines=machines
        ).train_decision_tree(TREE_PARAMS)
        assert " IN " in tree.dump()
        assert tree.dump() == single.dump()
        assert model_digest(tree) == model_digest(single)


    @pytest.mark.parametrize("machines", [1, 4])
    def test_depth_wise_tree_matches_single_node(self, machines):
        """Sharded growth orders its leaf heap by the same priority as
        the single-node trainer, depth-wise included."""
        params = {**TREE_PARAMS, "num_leaves": 6, "growth": "depth-wise"}
        db, graph = _int_y_star()
        single = repro.train_decision_tree(db, graph, params)
        db, graph = _int_y_star()
        tree = SimulatedCluster(
            db, graph, "k0", num_machines=machines
        ).train_decision_tree(params)
        assert tree.dump() == single.dump()
        assert model_digest(tree) == model_digest(single)


class TestShardedEqualsSingleNode:
    """Sharded boosting is the single-node round loop and trainer over
    merged aggregates: its model equals single-node
    ``split_batching="off"`` at one shard, and at any shard count on
    integer targets — node ids and feature sampling included."""

    @staticmethod
    def _digests(make, params, machines):
        db, graph = make()
        single = repro.train_gradient_boosting(
            db, graph, dict(params, split_batching="off")
        )
        db, graph = make()
        sharded = SimulatedCluster(
            db, graph, "k0", num_machines=machines
        ).train_gradient_boosting(params)
        return model_digest(sharded), model_digest(single)

    @pytest.mark.parametrize("feature_fraction", [1.0, 0.5])
    def test_star_one_shard(self, feature_fraction):
        sharded, single = self._digests(
            lambda: star_schema(num_fact_rows=2000, num_dims=3, seed=2),
            {"num_iterations": 3, "num_leaves": 4, "learning_rate": 0.5,
             "feature_fraction": feature_fraction, "seed": 5},
            machines=1,
        )
        assert sharded == single

    def test_integer_target_three_rounds_one_shard(self):
        sharded, single = self._digests(
            _int_y_star,
            {"num_iterations": 3, "num_leaves": 8, "min_data_in_leaf": 2,
             "learning_rate": 0.5},
            machines=1,
        )
        assert sharded == single

    @pytest.mark.parametrize("machines", [1, 4])
    def test_integer_target_one_round(self, machines):
        sharded, single = self._digests(
            _int_y_star, {"num_iterations": 1, "num_leaves": 8}, machines
        )
        assert sharded == single

    def test_feature_fraction_restricts_the_first_tree(self):
        """At feature_fraction 0.3 the first tree splits only on the
        features the seeded generator drew for round one."""
        from repro.core.boosting import _sample_features
        from repro.core.params import TrainParams

        params = {"num_iterations": 1, "num_leaves": 4,
                  "feature_fraction": 0.3, "seed": 5}
        db, graph = star_schema(num_fact_rows=2000, num_dims=3, seed=2)
        drawn = _sample_features(
            graph, TrainParams.from_dict(params),
            np.random.default_rng(params["seed"]),
        )
        model = SimulatedCluster(
            db, graph, "k0", num_machines=4
        ).train_gradient_boosting(params)
        assert set(model.trees[0].referenced_attributes()) <= set(drawn)


class TestShardFailure:
    def _cluster(self):
        db, graph = _int_y_star(rows=256)
        return SimulatedCluster(
            db, graph, "k0", num_machines=4
        )

    def test_permanent_error_raises_after_every_shard_runs(self):
        cluster = self._cluster()
        ran = []

        def step(i):
            ran.append(i)
            if i in (1, 3):
                raise ValueError(f"shard {i} is broken")
            return i

        with pytest.raises(ValueError, match="shard 1 is broken"):
            cluster._parallel(step)
        assert ran == [0, 1, 2, 3]

    def test_retrying_shard_connectors_train_the_fault_free_model(self):
        """Shard retries come from the one retry site: shards wrapped in
        ``RetryConnector`` over transient faults train the fault-free
        digest, and each wrapper counts its shard's retries."""
        params = {"num_iterations": 2, "num_leaves": 4}
        db, graph = _int_y_star(rows=512)
        reference = SimulatedCluster(
            db, graph, "k0", num_machines=2
        ).train_gradient_boosting(params)
        db, graph = _int_y_star(rows=512)
        cluster = SimulatedCluster(db, graph, "k0", num_machines=2)
        cluster.workers = [
            RetryConnector(
                wrap_with_chaos(w, "tag=feature:nth=2:times=2:kind=transient"),
                RetryPolicy(base_delay=0.0),
            )
            for w in cluster.workers
        ]
        for worker, shard_graph in zip(cluster.workers, cluster.worker_graphs):
            shard_graph.db = worker
        model = cluster.train_gradient_boosting(params)
        assert model_digest(model) == model_digest(reference)
        for worker in cluster.workers:
            assert worker.retry_census.snapshot() == {
                "retries": 2, "exhausted": 0, "succeeded_after_retry": 1,
            }


class TestShardedAccounting:
    def test_measured_wall_reported_alongside_simulated(self):
        _, cluster = _sharded_tree(machines=4)
        census = cluster.census()
        assert census["measured_wall_seconds"] > 0
        assert census["step_seconds"] > 0
        assert census["num_shards"] == 4
        assert cluster.measured_wall_seconds == pytest.approx(
            census["measured_wall_seconds"]
        )

    def test_model_carries_cluster_census(self):
        db, graph = _int_y_star()
        cluster = SimulatedCluster(
            db, graph, "k0", num_machines=2
        )
        model = cluster.train_gradient_boosting(
            {"num_iterations": 1, "num_leaves": 4}
        )
        assert model.frontier_census["num_shards"] == 2
        assert model.frontier_census == cluster.census()

    def test_no_executor_or_deadline_parameter(self):
        db, graph = _int_y_star(rows=128)
        for knob in ({"executor": "serial"}, {"task_deadline": 1.0}):
            with pytest.raises(TypeError):
                SimulatedCluster(
                    db, graph, "k0", num_machines=2, **knob
                )
