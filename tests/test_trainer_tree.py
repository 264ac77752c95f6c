"""The paper's core claim: a factorized tree equals the single-table tree.

Besides unit tests of tree mechanics, the property test trains JoinBoost
over random star schemas and asserts the same tree as the exact reference
trained on the materialized join: every node routes the same rows and every
leaf holds the same value (a gain tie may pick a different split feature
that routes the same rows).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.baselines.exactgbm import ExactDecisionTree
from repro.baselines.export import load_feature_matrix
from repro.core.params import TrainParams
from repro.core.predict import feature_frame
from repro.core.split import VarianceCriterion
from repro.core.trainer import DecisionTreeTrainer
from repro.core.tree import _eval_predicate
from repro.datasets import star_schema
from repro.engine.database import Database
from repro.factorize.executor import Factorizer
from repro.joingraph.graph import JoinGraph
from repro.semiring.variance import VarianceSemiRing


def jb_structure(model, names):
    out = []

    def walk(node, depth):
        if node.is_leaf:
            out.append((depth, None, round(node.prediction, 9)))
            return
        out.append(
            (depth, node.left.predicate.column,
             round(float(node.left.predicate.value), 9))
        )
        walk(node.left, depth + 1)
        walk(node.right, depth + 1)

    walk(model.root, 0)
    return out


def ref_structure(tree, names):
    return [
        (d, names[f] if f is not None else None, t) for d, f, t in tree.structure()
    ]


def jb_partitions(model, X, names):
    """``(rows, leaf value, children)`` per node of a JoinBoost tree, with
    the materialized join's rows routed through each left predicate."""
    frame = {name: X[:, j] for j, name in enumerate(names)}

    def walk(node, rows):
        if node.is_leaf:
            return (frozenset(rows), round(node.prediction, 9), ())
        pred = node.left.predicate
        go_left = _eval_predicate(pred, frame[pred.column][rows])
        children = (walk(node.left, rows[go_left]), walk(node.right, rows[~go_left]))
        return (frozenset(rows), None, children)

    return walk(model.root, np.arange(len(X)))


def ref_partitions(tree):
    def walk(node):
        if node.is_leaf:
            return (frozenset(node.rows.tolist()), round(node.value, 9), ())
        return (frozenset(node.rows.tolist()), None,
                (walk(node.left), walk(node.right)))

    return walk(tree.root)


def same_partitions(a, b):
    """Tie-aware tree equality: every node routes the same rows and every
    leaf holds the same value.  Two splits on different features that route
    the same rows have equal gain, so either tree may take either one (its
    children possibly swapped) — that is a tie, not a divergence."""
    rows_a, value_a, kids_a = a
    rows_b, value_b, kids_b = b
    if rows_a != rows_b or value_a != value_b or len(kids_a) != len(kids_b):
        return False
    if kids_a and kids_a[0][0] != kids_b[0][0]:
        kids_b = kids_b[::-1]
    return all(same_partitions(x, y) for x, y in zip(kids_a, kids_b))


class TestTreeMechanics:
    def test_leaf_count_bounded(self, small_star):
        db, graph = small_star
        model = repro.train_decision_tree(db, graph, {"num_leaves": 4})
        assert model.num_leaves <= 4

    def test_max_depth_respected(self, small_star):
        db, graph = small_star
        model = repro.train_decision_tree(
            db, graph, {"num_leaves": 32, "max_depth": 2}
        )
        assert all(leaf.depth <= 2 for leaf in model.leaves())

    def test_min_child_samples(self, small_star):
        db, graph = small_star
        model = repro.train_decision_tree(
            db, graph, {"num_leaves": 16, "min_data_in_leaf": 100}
        )
        for leaf in model.leaves():
            assert leaf.aggregates["c"] >= 100

    def test_leaf_predicates_partition(self, small_star):
        """Leaf predicates must be mutually exclusive and exhaustive."""
        db, graph = small_star
        model = repro.train_decision_tree(db, graph, {"num_leaves": 8})
        frame = feature_frame(db, graph)
        n = len(next(iter(frame.values())))
        coverage = np.zeros(n, dtype=int)
        for leaf in model.leaves():
            mask = np.ones(n, dtype=bool)
            for relation, preds in leaf.path_predicates().items():
                for pred in preds:
                    mask &= _eval_predicate(pred, frame[pred.column])
            coverage += mask
        assert np.all(coverage == 1)

    def test_aggregates_consistent_with_children(self, small_star):
        db, graph = small_star
        model = repro.train_decision_tree(db, graph, {"num_leaves": 8})
        for node in model.nodes():
            if not node.is_leaf:
                assert node.aggregates["c"] == pytest.approx(
                    node.left.aggregates["c"] + node.right.aggregates["c"]
                )

    def test_dump_and_to_dict(self, small_star):
        db, graph = small_star
        model = repro.train_decision_tree(db, graph, {"num_leaves": 4})
        text = model.dump()
        assert "leaf value" in text
        as_dict = model.to_dict()
        assert "tree" in as_dict and "features" in as_dict

    def test_depth_wise_growth(self, small_star):
        db, graph = small_star
        model = repro.train_decision_tree(
            db, graph, {"num_leaves": 8, "growth": "depth-wise"}
        )
        depths = sorted(leaf.depth for leaf in model.leaves())
        assert depths[-1] - depths[0] <= 2  # balanced-ish growth

    def test_categorical_split(self):
        rng = np.random.default_rng(0)
        db = Database()
        n = 500
        color = rng.integers(0, 4, n)
        y = np.where(np.isin(color, [0, 2]), 10.0, -10.0) + rng.normal(0, 0.1, n)
        db.create_table("fact", {"k": np.arange(n), "yv": y})
        db.create_table("dim", {"k": np.arange(n), "color": color})
        graph = JoinGraph(db)
        graph.add_relation("fact", y="yv")
        graph.add_relation("dim", features=["color"], categorical=["color"])
        graph.add_edge("fact", "dim", ["k"])
        model = repro.train_decision_tree(db, graph, {"num_leaves": 2})
        pred = model.root.left.predicate
        assert pred.op in ("IN", "NOT IN")
        assert set(pred.value) in ({0, 2}, {1, 3})

    def test_referenced_attributes(self, small_star):
        db, graph = small_star
        model = repro.train_decision_tree(db, graph, {"num_leaves": 8})
        attrs = model.referenced_attributes()
        assert attrs  # trained tree references something
        for relation, column in attrs:
            assert relation in graph.relations


class TestEquivalenceWithSingleTable:
    def test_star_equivalence(self, small_star):
        db, graph = small_star
        model = repro.train_decision_tree(
            db, graph, {"num_leaves": 8, "min_data_in_leaf": 3}
        )
        X, y, names = load_feature_matrix(db, graph)
        reference = ExactDecisionTree(num_leaves=8, min_child_samples=3).fit(X, y)
        assert jb_structure(model, names) == ref_structure(reference, names)

    def test_chain_equivalence(self, paper_example_db, paper_example_graph):
        model = repro.train_decision_tree(
            paper_example_db, paper_example_graph, {"num_leaves": 3}
        )
        X, y, names = load_feature_matrix(paper_example_db, paper_example_graph)
        reference = ExactDecisionTree(num_leaves=3, min_child_samples=1).fit(X, y)
        assert jb_structure(model, names) == ref_structure(reference, names)

    @given(
        seed=st.integers(0, 5_000),
        num_dims=st.integers(1, 3),
        n=st.integers(30, 200),
        num_leaves=st.integers(2, 6),
    )
    # The pinned example is a gain tie: JoinBoost splits one node on
    # local_feat, the reference on dfeat0, and both route the same rows.
    @example(seed=4537, num_dims=3, n=30, num_leaves=6)
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_equivalence_property(self, seed, num_dims, n, num_leaves):
        db, graph = star_schema(
            num_fact_rows=n, num_dims=num_dims, dim_size=7, seed=seed
        )
        model = repro.train_decision_tree(
            db, graph, {"num_leaves": num_leaves, "min_data_in_leaf": 2}
        )
        X, y, names = load_feature_matrix(db, graph)
        reference = ExactDecisionTree(
            num_leaves=num_leaves, min_child_samples=2
        ).fit(X, y)
        assert same_partitions(
            jb_partitions(model, X, names), ref_partitions(reference)
        )

    def test_predictions_equal(self, small_star):
        db, graph = small_star
        model = repro.train_decision_tree(db, graph, {"num_leaves": 8})
        X, y, names = load_feature_matrix(db, graph)
        reference = ExactDecisionTree(num_leaves=8).fit(X, y)
        frame = feature_frame(db, graph)
        assert np.allclose(
            np.sort(model.predict_arrays(frame)), np.sort(reference.predict(X))
        )


class TestCPTRestriction:
    def test_splits_confined_to_one_cluster(self, small_imdb):
        from repro.joingraph.clusters import cluster_graph
        from repro.core.split import GradientCriterion
        from repro.semiring.gradient import GradientSemiRing

        db, graph = small_imdb
        clusters = cluster_graph(graph)
        ring = GradientSemiRing()
        factorizer = Factorizer(db, graph, ring)
        y = graph.target_column
        factorizer.lift(ring.lift_pair_sql("1", f"(0.0 - t.{y})"))
        params = TrainParams.from_dict({"num_leaves": 6})
        trainer = DecisionTreeTrainer(
            db, graph, factorizer, GradientCriterion(), params, clusters=clusters
        )
        model = trainer.train()
        split_relations = {
            node.relation for node in model.nodes() if node.relation is not None
        }
        assert any(
            split_relations <= set(cluster.members) for cluster in clusters
        )
        factorizer.cleanup()
