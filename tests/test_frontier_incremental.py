"""Incremental frontier state: parity, census, fallbacks, residual labels.

The load-bearing claim: maintaining leaf membership as a persistent
column — one root pass per tree plus one depth-1 narrow UPDATE per
committed split — grows the per-leaf path's trees
(``split_batching="off"``) split for split, with sums equal to 1e-12
relative where sibling subtraction derived a child, at depth >= 6, on
embedded and sqlite,
across growth policies, categorical features and missing-value routing,
with a non-zero carry-message cache hit rate; and when the label column
cannot be kept current (a backend without the narrow-UPDATE capability,
a failing delta UPDATE) training falls back per-leaf instead of erroring.
"""

import dataclasses

import numpy as np
import pytest

import repro
from repro.backends import SQLiteConnector
from repro.core.params import TrainParams
from repro.core.predict import feature_frame
from repro.core.split import VarianceCriterion
from repro.datasets import favorita
from repro.engine.database import Database
from repro.exceptions import ExecutionError
from repro.factorize.executor import Factorizer
from repro.joingraph.graph import JoinGraph
from repro.semiring.variance import VarianceSemiRing

from conftest import (
    frontier_trainer,
    assert_score_parity,
    assert_sibling_parity,
    same_partition_tie,
)


def deep_schema(db, n=2500, seed=11):
    """A snowflake whose signal keeps paying past depth 6: a continuous
    fact feature, a string categorical and a numeric-with-nulls dimension
    feature two hops out."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n) * 4.0
    k = rng.integers(0, 60, n)
    mid_fk = np.arange(60) % 12
    color_codes = rng.integers(0, 4, 12)
    colors = np.array(["red", "green", "blue", "teal"], dtype=object)[color_codes]
    dnum = rng.normal(size=12) * 6.0
    dnum[rng.random(12) < 0.25] = np.nan
    y = (
        np.sin(x) * 5.0
        + x * 1.5
        + np.where(np.isin(color_codes, [0, 2]), 9.0, -9.0)[mid_fk][k]
        + np.nan_to_num(dnum)[mid_fk][k]
        + rng.normal(0, 0.3, n)
    )
    db.create_table("fact", {"k": k, "x": x, "yv": y})
    db.create_table("mid", {"k": np.arange(60), "fk": mid_fk,
                            "mnum": rng.normal(size=60) * 2.0})
    db.create_table("far", {"fk": np.arange(12), "color": colors, "dnum": dnum})
    graph = JoinGraph(db)
    graph.add_relation("fact", features=["x"], y="yv", is_fact=True)
    graph.add_relation("mid", features=["mnum"])
    graph.add_relation("far", features=["color", "dnum"],
                       categorical=["color"])
    graph.add_edge("fact", "mid", ["k"])
    graph.add_edge("mid", "far", ["fk"])
    return db, graph


def trees_of(model):
    return [tree.to_dict() for tree in model.trees]


def model_depth(model):
    return max(
        leaf.depth for tree in model.trees for leaf in tree.leaves()
    )


DEEP_PARAMS = {
    "num_iterations": 2,
    "num_leaves": 72,
    "min_data_in_leaf": 1,
    "learning_rate": 0.2,
}


class TestDeepParity:
    @pytest.mark.parametrize("growth", ["best-first", "depth-wise"])
    @pytest.mark.parametrize("missing", ["right", "both"])
    def test_embedded_depth6_parity(self, growth, missing):
        grown = {}
        for mode in ("auto", "off"):
            db, graph = deep_schema(Database())
            model = repro.train_gradient_boosting(
                db, graph,
                {**DEEP_PARAMS, "growth": growth, "missing": missing,
                 "split_batching": mode},
            )
            grown[mode] = (
                trees_of(model),
                model,
                dict(model.frontier_census),
                db.table("fact").num_rows(),
            )
        assert model_depth_from_dicts(grown["auto"][0]) >= 6
        if (growth, missing) == ("best-first", "both"):
            # An exact gain tie: color and dnum both live on the 12-row
            # far relation, and for one leaf color IN ('green') and
            # dnum <= 3.017 are the same partition of its rows.  The
            # batched path's float sums pick the first, the per-leaf
            # path's the second, so past that split only scores compare.
            assert same_partition_tie(
                grown["auto"][0], grown["off"][0]
            ) == (248, "color IN ('green')", "dnum <= 3.0173952236680144")
        else:
            assert_sibling_parity(grown["auto"][0], grown["off"][0])
        assert_score_parity(grown["auto"][1], grown["off"][1], db, graph)
        census = grown["auto"][2]
        assert census["batched_rounds"] == census["rounds"]
        assert census["root_label_passes"] == DEEP_PARAMS["num_iterations"]
        assert census["delta_label_updates"] > 0
        # Carry messages shared across relations with a common routing
        # prefix (fact -> mid reused by mid's and far's split queries).
        assert census["carry_cache_hits"] > 0
        # Maintaining labels writes the rows that move: far fewer label
        # cells than one full-fact copy per batched round would.
        full_copies = census["batched_rounds"] * grown["auto"][3]
        assert full_copies >= 5 * census["label_cells_written"] > 0

    @pytest.mark.parametrize("growth", ["best-first", "depth-wise"])
    def test_sqlite_depth6_parity(self, growth):
        grown = {}
        for mode in ("auto", "off"):
            db, graph = deep_schema(SQLiteConnector(), n=1500)
            model = repro.train_gradient_boosting(
                db, graph,
                {**DEEP_PARAMS, "num_iterations": 1, "growth": growth,
                 "missing": "both", "split_batching": mode},
            )
            grown[mode] = (trees_of(model), dict(model.frontier_census), model)
        assert model_depth_from_dicts(grown["auto"][0]) >= 6
        # The embedded test's exact gain tie, on this data under both
        # growth policies: a 14-row leaf splits on color IN ('teal')
        # batched and on dnum <= -4.981 per-leaf, one partition with its
        # sides swapped, so past that split only scores compare.
        assert same_partition_tie(grown["auto"][0], grown["off"][0]) == (
            99 if growth == "best-first" else 91,
            "color IN ('teal')",
            "dnum <= -4.98139908110782",
        )
        assert_score_parity(grown["auto"][2], grown["off"][2], db, graph)
        census = grown["auto"][1]
        assert census["batched_rounds"] == census["rounds"]
        assert census["root_label_passes"] == 1
        assert census["carry_cache_hits"] > 0

    def test_cross_backend_incremental_parity(self):
        grown = {}
        for name, maker in (("embedded", Database), ("sqlite", SQLiteConnector)):
            db, graph = deep_schema(maker(), n=1200)
            model = repro.train_gradient_boosting(
                db, graph, {**DEEP_PARAMS, "num_iterations": 1},
            )
            grown[name] = trees_of(model)
        assert grown["embedded"] == grown["sqlite"]


def model_depth_from_dicts(tree_dicts):
    def depth(node):
        if "left" not in node:
            return node["depth"]
        return max(depth(node["left"]), depth(node["right"]))

    return max(depth(t["tree"]) for t in tree_dicts)


class TestResidualLabels:
    @pytest.mark.parametrize("strategy", ["swap", "update", "create"])
    def test_update_strategy_parity(self, strategy):
        """The CASE-over-jb_leaf residual fast path must shift exactly the
        rows the per-leaf semi-join scans would have (the path
        ``split_batching="off"`` takes), for every logical update strategy
        that supports it."""
        grown = {}
        for mode in ("auto", "off"):
            db, graph = favorita(num_fact_rows=2500, num_extra_features=2,
                                 seed=9)
            model = repro.train_gradient_boosting(
                db, graph,
                {"num_iterations": 3, "num_leaves": 8, "min_data_in_leaf": 3,
                 "update_strategy": strategy, "split_batching": mode},
            )
            grown[mode] = (trees_of(model), model)
        assert_sibling_parity(grown["auto"][0], grown["off"][0])
        assert_score_parity(grown["auto"][1], grown["off"][1], db, graph)

    def test_general_loss_parity(self):
        """Non-L2 losses route through apply_general: the label-driven
        prediction shift must match the semi-join path."""
        grown = {}
        for mode in ("auto", "off"):
            db, graph = favorita(num_fact_rows=2000, num_extra_features=0,
                                 seed=3)
            model = repro.train_gradient_boosting(
                db, graph,
                {"num_iterations": 2, "num_leaves": 6, "min_data_in_leaf": 3,
                 "objective": "huber", "split_batching": mode},
            )
            grown[mode] = trees_of(model)
        assert grown["auto"] == grown["off"]

    def test_labels_match_tree_routing(self):
        """Row-level check: after training, every fact row's jb_leaf agrees
        with client-side routing through the trained tree."""
        db, graph = favorita(num_fact_rows=2000, num_extra_features=0, seed=4)
        from repro.semiring.gradient import GradientSemiRing
        from repro.core.split import GradientCriterion

        ring = GradientSemiRing()
        factorizer = Factorizer(db, graph, ring)
        factorizer.lift(
            [("pred", "0.0")] + ring.lift_pair_sql("1", "(0.0 - t.unit_sales)")
        )
        trainer = frontier_trainer(
            db, graph, factorizer, GradientCriterion(),
            TrainParams.from_dict({"num_leaves": 8, "min_data_in_leaf": 3}),
        )
        model = trainer.train()
        label_column = trainer.leaf_label_column(model)
        assert label_column is not None
        fact = graph.target_relation
        labels = factorizer.storage_table(fact)
        label_values = db.table(labels).column(label_column).values
        leaf_pred = {leaf.node_id: leaf.prediction for leaf in model.leaves()}
        assert set(np.unique(label_values)) <= set(leaf_pred)
        features = feature_frame(
            db, graph, columns=[f for _, f in graph.all_features()],
            include_target=False,
        )
        routed = model.predict_arrays(features)
        labeled = np.array([leaf_pred[v] for v in label_values])
        np.testing.assert_allclose(routed, labeled)
        factorizer.cleanup()


class TestFallbacks:
    def _no_narrow_update_db(self):
        conn = Database()
        conn.capabilities = dataclasses.replace(
            conn.capabilities, narrow_update=False
        )
        return conn

    def _train_logged(self, db, graph):
        """Train while logging every statement's tag, whichever connector
        entry point issues it."""
        tags = []
        for name in ("execute", "execute_read"):
            real = getattr(db, name)

            def logged(sql, tag=None, _real=real):
                tags.append(tag)
                return _real(sql, tag=tag)

            setattr(db, name, logged)
        model = repro.train_gradient_boosting(
            db, graph,
            {"num_iterations": 2, "num_leaves": 6, "min_data_in_leaf": 3},
        )
        return model, tags

    def _per_leaf_reference(self):
        db, graph = favorita(num_fact_rows=2000, num_extra_features=0, seed=6)
        return trees_of(repro.train_gradient_boosting(
            db, graph,
            {"num_iterations": 2, "num_leaves": 6, "min_data_in_leaf": 3,
             "split_batching": "off"},
        ))

    def test_backend_without_narrow_update_goes_per_leaf(self):
        """No narrow-UPDATE capability: the label column cannot be kept
        current, so every round is per-leaf — no label statement at all,
        the reason on batching_veto, the per-leaf trees."""
        db, graph = favorita(
            db=self._no_narrow_update_db(), num_fact_rows=2000,
            num_extra_features=0, seed=6,
        )
        model, tags = self._train_logged(db, graph)
        census = model.frontier_census
        assert not any(tag and tag.startswith("frontier") for tag in tags)
        assert "narrow predicated UPDATE" in census["batching_veto"]
        assert census["batched_rounds"] == 0
        assert census["per_leaf_split_queries"] > 0
        assert trees_of(model) == self._per_leaf_reference()

    def test_delta_update_failure_degrades_mid_training(self):
        """A failing delta UPDATE mid-tree deactivates the label column:
        the remaining rounds run per-leaf (no full-fact label copy),
        training completes with the per-leaf trees, no error escapes."""
        db, graph = favorita(num_fact_rows=2000, num_extra_features=0, seed=6)
        real_execute = db.execute
        fired = {"n": 0}

        def flaky(sql, tag=None):
            if tag == "frontier_delta" and fired["n"] == 0:
                fired["n"] += 1
                raise ExecutionError("injected delta failure")
            return real_execute(sql, tag=tag)

        db.execute = flaky
        model, tags = self._train_logged(db, graph)
        census = model.frontier_census
        assert fired["n"] == 1
        assert tags.count("frontier_delta") == 1  # the failed one only
        assert "frontier" not in tags  # no per-round label table
        assert "injected delta failure" in census["batching_veto"]
        assert 0 < census["batched_rounds"] < census["rounds"]
        assert census["per_leaf_split_queries"] > 0
        assert trees_of(model) == self._per_leaf_reference()

    def test_multiclass_shares_one_fact_table(self):
        """K softmax chains adopt one lifted fact: each trainer mints its
        own label column, and batching stays active for every chain."""
        db = Database()
        rng = np.random.default_rng(2)
        n = 600
        k = rng.integers(0, 20, n)
        f = rng.normal(size=20) * 3
        label = (f[k] > 0).astype(np.int64)
        db.create_table("fact", {"k": k, "cls": label})
        db.create_table("dim", {"k": np.arange(20), "f": f})
        graph = JoinGraph(db)
        graph.add_relation("fact", y="cls", is_fact=True)
        graph.add_relation("dim", features=["f"])
        graph.add_edge("fact", "dim", ["k"])
        model = repro.train_gradient_boosting(
            db, graph,
            {"num_iterations": 2, "num_leaves": 4, "objective": "softmax",
             "num_class": 2, "min_data_in_leaf": 3},
        )
        preds = model.predict_arrays({"f": f[k]})
        assert (preds == label).mean() > 0.95


class TestTempHygiene:
    def _chain(self):
        db = Database()
        rng = np.random.default_rng(0)
        n = 300
        mid_keys = rng.integers(0, 10, n)
        db.create_table(
            "fact",
            {"mk": mid_keys, "yv": rng.normal(size=n),
             "tag_col": (mid_keys % 2).astype(np.int64)},
        )
        db.create_table("mid", {"mk": np.arange(10), "fk": np.arange(10) % 3})
        db.create_table("far", {"fk": np.arange(3), "f": np.arange(3) * 1.0})
        graph = JoinGraph(db)
        graph.add_relation("fact", y="yv", is_fact=True)
        graph.add_relation("mid")
        graph.add_relation("far", features=["f"])
        graph.add_edge("fact", "mid", ["mk"])
        graph.add_edge("mid", "far", ["fk"])
        return db, graph

    def test_multi_absorption_failure_drops_partial_temps(self):
        """A carry message failing mid-build strands nothing: the carry
        messages materialized before it are owned by the message cache,
        and cleanup drops them with the lifted fact."""
        db, graph = self._chain()
        ring = VarianceSemiRing()
        factorizer = Factorizer(db, graph, ring)
        factorizer.lift()
        before = set(db.table_names())
        real_execute = db.execute
        calls = {"n": 0}

        def failing(sql, tag=None):
            if tag == "message":
                calls["n"] += 1
                if calls["n"] == 2:
                    raise ExecutionError("injected message failure")
            return real_execute(sql, tag=tag)

        db.execute = failing
        with pytest.raises(ExecutionError, match="injected"):
            # far's absorption nests two carry messages (fact->mid inside
            # mid->far); the second one fails.
            factorizer.multi_absorption(
                "far", carry={"fact": ("tag_col",)}, carry_filters={},
                cache_scope=0,
            )
        db.execute = real_execute
        assert calls["n"] == 2
        built = set(db.table_names()) - before
        assert len(built) == 1
        assert built == {info.table for info in factorizer.cache._store.values()}
        factorizer.cleanup()
        assert db.catalog.temp_names() == []

    def test_masked_update_never_writes_through_aliases(self):
        """Columns can be buffer-aliased (``SET a = b`` stores a view):
        the narrow-UPDATE swap path must merge into a fresh buffer, not
        mutate the stored array."""
        db = Database()
        db.create_table("t", {"k": np.array([1, 2, 3]),
                              "a": np.array([7, 8, 9]),
                              "b": np.array([10, 20, 30])})
        db.execute("UPDATE t SET a = b")       # a now aliases b's buffer
        db.execute("UPDATE t SET b = 5 WHERE k = 1")
        assert db.table("t").column("a").values.tolist() == [10, 20, 30]
        assert db.table("t").column("b").values.tolist() == [5, 20, 30]
        # SQL swap semantics: assignments read pre-update values.
        db.execute("UPDATE t SET a = b, b = a WHERE k > 0")
        assert db.table("t").column("a").values.tolist() == [5, 20, 30]
        assert db.table("t").column("b").values.tolist() == [10, 20, 30]


class TestCarryCacheScoping:
    def test_scoped_entries_evicted_on_epoch_advance(self):
        """Carry messages cached under one leaf epoch are dropped (tables
        included) when the next round begins."""
        db, graph = favorita(num_fact_rows=1500, num_extra_features=0, seed=5)
        model = repro.train_gradient_boosting(
            db, graph,
            {"num_iterations": 1, "num_leaves": 6, "min_data_in_leaf": 3},
        )
        census = model.frontier_census
        assert census["carry_cache_hits"] > 0
        # After cleanup no message temps survive.
        leftovers = [n for n in db.table_names() if n.startswith("jb_tmp_msg")]
        assert leftovers == []

    def test_params_alias_and_validation(self):
        from repro.exceptions import TrainingError

        # One label strategy and one key path: the old selectors are
        # unknown parameters.
        for alias, value in (("frontier_state", "incremental"),
                             ("leaf_state", "rebuild"),
                             ("key_encoding_cache", "off"),
                             ("encoding_cache", "off"),
                             ("task_executor", "thread")):
            with pytest.raises(TrainingError, match="unknown training parameter"):
                TrainParams.from_dict({alias: value})


class TestLabelWriteCount:
    """Label cells written are counted from each ``UPDATE``'s own
    matched-row count, never from the profile log."""

    @staticmethod
    def _connector(backend):
        return SQLiteConnector() if backend == "sqlite" else Database()

    @pytest.mark.parametrize("backend", ["embedded", "sqlite"])
    def test_execute_returns_the_rows_an_update_matched(self, backend):
        db = self._connector(backend)
        db.create_table("t", {"k": np.arange(10), "v": np.zeros(10)})
        assert db.execute("UPDATE t SET v = 1 WHERE k < 4") == 4
        assert db.execute("UPDATE t SET v = 2") == 10
        assert db.execute("UPDATE t SET v = 3 WHERE k > 100") == 0
        assert db.execute("SELECT v FROM t WHERE k = 3").scalar() == 2

    @pytest.mark.parametrize("backend", ["embedded", "sqlite"])
    def test_count_holds_with_profiling_off(self, backend):
        """One root pass over every fact row per tree, plus each split
        leaf's rows (its ``h`` sum under squared loss), with or without
        the profile log."""
        n = 1500
        written = {}
        for profiling in (True, False):
            db, graph = deep_schema(self._connector(backend), n=n)
            db.profiling_enabled = profiling
            model = repro.train_gradient_boosting(
                db, graph, {**DEEP_PARAMS, "num_leaves": 12}
            )
            census = model.frontier_census
            assert census["delta_label_updates"] > 0
            written[profiling] = census["label_cells_written"]
        expected = DEEP_PARAMS["num_iterations"] * n + sum(
            round(node.aggregates["h"])
            for tree in model.trees
            for node in tree.nodes()
            if not node.is_leaf
        )
        assert written[False] == written[True] == expected
