"""Sibling subtraction in batched frontier rounds.

When the criterion's weight is an exact row count, a round for two
siblings queries only the lighter child and derives the other's
per-(feature, value) slices as parent minus queried child.  These tests
pin the subtraction helper (value alignment, the NULL group, dropped
zero-count groups, the subset invariant), the gate (counts only: no
subtraction under non-constant hessians), and the rounds that must
query normally.
"""

import itertools

import numpy as np
import pytest

import repro
from repro.backends import SQLiteConnector
from repro.core.frontier import subtract_slice
from repro.core.params import TrainParams
from repro.core.split import VarianceCriterion
from repro.datasets import favorita, star_schema
from repro.engine.database import Database
from repro.exceptions import TrainingError
from repro.factorize.executor import Factorizer
from repro.semiring.variance import VarianceSemiRing

from conftest import (
    frontier_trainer,
    assert_score_parity,
    assert_sibling_parity,
    backend_matrix,
    same_partition_tie,
)
from test_frontier_batching import mixed_schema
from test_frontier_incremental import deep_schema, trees_of


def piece(values, counts, sums, nulls=None, dtype=None):
    values = np.asarray(values, dtype=dtype)
    if nulls is None:
        nulls = np.zeros(len(values), dtype=bool)
        if values.dtype.kind == "f":
            nulls = np.isnan(values)
    return (
        values,
        np.asarray(nulls, dtype=bool),
        {"c": np.asarray(counts, dtype=np.float64),
         "s": np.asarray(sums, dtype=np.float64)},
    )


class TestSubtractSlice:
    def test_numbers_align_by_value_in_parent_order(self):
        parent = piece([3.0, 1.0, 2.0, 5.0], [2, 3, 1, 4], [0.5, 1.5, 2.5, 4.0])
        child = piece([5.0, 1.0], [1, 1], [1.0, 0.25])
        values, nulls, aggs = subtract_slice(parent, child, "c")
        assert values.tolist() == [3.0, 1.0, 2.0, 5.0]
        assert not nulls.any()
        assert aggs["c"].tolist() == [2.0, 2.0, 1.0, 3.0]
        assert aggs["s"].tolist() == [0.5, 1.25, 2.5, 3.0]

    def test_integer_values(self):
        parent = piece([10, 20, 30], [1, 2, 3], [1.0, 2.0, 3.0], dtype=np.int64)
        child = piece([20], [1], [0.5], dtype=np.int64)
        values, _, aggs = subtract_slice(parent, child, "c")
        assert values.tolist() == [10, 20, 30]
        assert aggs["c"].tolist() == [1.0, 1.0, 3.0]

    def test_strings_align_by_exact_lookup(self):
        parent = piece(["red", "green", "blue"], [2, 2, 2], [1.0, 2.0, 3.0],
                       dtype=object)
        child = piece(["blue", "red"], [1, 2], [0.5, 1.0], dtype=object)
        values, nulls, aggs = subtract_slice(parent, child, "c")
        assert values.tolist() == ["green", "blue"]
        assert not nulls.any()
        assert aggs["c"].tolist() == [2.0, 1.0]
        assert aggs["s"].tolist() == [2.0, 2.5]

    def test_null_group_only_in_parent(self):
        parent = piece([1.0, np.nan], [2, 3], [1.0, 6.0])
        child = piece([1.0], [1], [0.25])
        values, nulls, aggs = subtract_slice(parent, child, "c")
        assert nulls.tolist() == [False, True]
        assert aggs["c"].tolist() == [1.0, 3.0]
        assert aggs["s"].tolist() == [0.75, 6.0]

    def test_null_group_in_both(self):
        parent = piece([np.nan, 1.0], [3, 2], [6.0, 1.0])
        child = piece([1.0, np.nan], [1, 1], [0.25, 2.0])
        values, nulls, aggs = subtract_slice(parent, child, "c")
        assert values[0] == 1.0 and np.isnan(values[1])
        assert nulls.tolist() == [False, True]
        assert aggs["c"].tolist() == [1.0, 2.0]
        assert aggs["s"].tolist() == [0.75, 4.0]

    def test_null_and_nan_groups_sum_into_one(self):
        """A backend may return SQL NULL and NaN as two groups; the scan
        routes both as missing, so they subtract as one group."""
        parent = piece([None, "a", None], [1, 2, 2], [1.0, 2.0, 3.0],
                       nulls=[True, False, True], dtype=object)
        child = piece([None], [2], [1.5], nulls=[True], dtype=object)
        values, nulls, aggs = subtract_slice(parent, child, "c")
        assert values.tolist() == ["a", None]
        assert nulls.tolist() == [False, True]
        assert aggs["c"].tolist() == [2.0, 1.0]
        assert aggs["s"].tolist() == [2.0, 2.5]

    def test_null_group_emptied_is_dropped(self):
        parent = piece([1.0, np.nan], [2, 3], [1.0, 6.0])
        child = piece([np.nan], [3], [6.0])
        values, nulls, aggs = subtract_slice(parent, child, "c")
        assert values.tolist() == [1.0]
        assert not nulls.any()

    def test_value_only_in_the_larger_child_is_kept(self):
        parent = piece([1.0, 2.0], [1, 4], [0.5, 2.0])
        child = piece([2.0], [1], [0.5])
        values, _, aggs = subtract_slice(parent, child, "c")
        assert values.tolist() == [1.0, 2.0]
        assert aggs["c"].tolist() == [1.0, 3.0]

    def test_count_reaching_zero_is_dropped_with_its_residue(self):
        """The sums of a value the sibling lacks cancel to a rounding
        residue, not to 0: the exact count is what drops the group."""
        parent = piece([1.0, 2.0, 3.0], [2, 2, 1], [0.1 + 0.2, 1.0, 1.0])
        child = piece([1.0, 3.0], [2, 1], [0.3, 0.5])
        values, nulls, aggs = subtract_slice(parent, child, "c")
        assert (0.1 + 0.2) - 0.3 != 0.0  # the residue the count hides
        assert values.tolist() == [2.0]
        assert nulls.tolist() == [False]
        assert aggs["c"].tolist() == [2.0]
        assert aggs["s"].tolist() == [1.0]

    def test_child_value_missing_from_parent_raises(self):
        parent = piece([1.0, 2.0], [1, 1], [1.0, 1.0])
        child = piece([1.5], [1], [1.0])
        with pytest.raises(TrainingError, match="invariant.*1.5"):
            subtract_slice(parent, child, "c")

    def test_child_value_beyond_every_parent_value_raises(self):
        parent = piece([1.0, 2.0], [1, 1], [1.0, 1.0])
        child = piece([7.0], [1], [1.0])
        with pytest.raises(TrainingError, match="invariant"):
            subtract_slice(parent, child, "c")

    def test_child_string_missing_from_parent_raises(self):
        parent = piece(["red"], [2], [1.0], dtype=object)
        child = piece(["teal"], [1], [1.0], dtype=object)
        with pytest.raises(TrainingError, match="invariant.*teal"):
            subtract_slice(parent, child, "c")

    def test_child_null_group_missing_from_parent_raises(self):
        parent = piece([1.0], [2], [1.0])
        child = piece([np.nan], [1], [1.0])
        with pytest.raises(TrainingError, match="invariant.*NULL"):
            subtract_slice(parent, child, "c")


def _feature_sql(db):
    return [p.sql for p in db.profiles if p.tag == "feature"]


class TestGate:
    def test_regression_derives_the_larger_child_of_every_split(self):
        db, graph = favorita(num_fact_rows=3000, num_extra_features=1, seed=4)
        model = repro.train_gradient_boosting(
            db, graph, {"num_iterations": 3, "num_leaves": 8,
                        "min_data_in_leaf": 3},
        )
        census = model.frontier_census
        splits = sum(len(tree.leaves()) - 1 for tree in model.trees)
        assert splits == 3 * 7
        # every split but each tree's last, whose children are never
        # evaluated (the tree is full)
        assert census["sibling_subtractions"] == 3 * 6
        assert census["batched_rounds"] == census["rounds"]

    @pytest.mark.parametrize("objective", ["fair", "poisson"])
    def test_non_constant_hessian_queries_both_children(self, objective):
        db, graph = favorita(num_fact_rows=2000, num_extra_features=0, seed=3)
        model = repro.train_gradient_boosting(
            db, graph, {"num_iterations": 2, "num_leaves": 6,
                        "min_data_in_leaf": 3, "objective": objective},
        )
        census = model.frontier_census
        assert census["batched_rounds"] == census["rounds"] > 2
        assert census["sibling_subtractions"] == 0

    def test_multiclass_queries_both_children(self):
        db, graph = favorita(num_fact_rows=2000, num_extra_features=0, seed=1)
        fact, y = graph.target_relation, graph.target_column
        labels = np.abs(db.table(fact).column(y).as_float()).astype(int) % 3
        db.replace_column(fact, y, labels.astype(np.float64))
        model = repro.train_gradient_boosting(db, graph, {
            "objective": "multiclass", "num_class": 3,
            "num_iterations": 2, "num_leaves": 4,
        })
        assert len(model.class_census) == 3
        for census in model.class_census:
            assert census["batched_rounds"] == census["rounds"] > 0
            assert census["sibling_subtractions"] == 0

    def test_lighter_child_is_the_one_queried(self):
        db, graph = star_schema(num_fact_rows=400, num_dims=2, dim_size=10,
                                seed=4)
        # three leaves: the root's children are evaluated (the second
        # split's are not)
        model = repro.train_decision_tree(
            db, graph, {"num_leaves": 3, "min_data_in_leaf": 3}
        )
        root = model.root
        lighter = min(
            (root.left, root.right),
            key=lambda node: (node.aggregates["c"], node.node_id),
        )
        child_round = [sql for sql in _feature_sql(db) if "IN (0)" not in sql]
        assert child_round
        for sql in child_round:
            assert f"IN ({lighter.node_id})" in sql
            other = ({root.left.node_id, root.right.node_id}
                     - {lighter.node_id}).pop()
            assert f"IN ({other})" not in sql


def _trainer(db, graph, **params):
    factorizer = Factorizer(db, graph, VarianceSemiRing())
    factorizer.lift()
    train_params = TrainParams.from_dict({"min_data_in_leaf": 3, **params})
    return frontier_trainer(
        db, graph, factorizer, VarianceCriterion(), train_params
    )


class TestRoundsThatQueryNormally:
    def test_sibling_without_weight_leaves_one_child_queried(self):
        """A round whose second child carries no weight evaluates one
        child, which is queried, not derived."""
        from repro.core.tree import TreeNode

        db, graph = star_schema(num_fact_rows=400, num_dims=2, dim_size=10,
                                seed=4)
        trainer = _trainer(db, graph)
        evaluator = trainer.evaluator
        features = graph.all_features()
        root = TreeNode(node_id=next(trainer._ids), depth=0,
                        aggregates=dict(trainer.evaluator.totals()))
        evaluator.begin_tree(root)
        cand = evaluator.best_splits([root], features)[root.node_id]
        trainer._apply_split(root, cand)
        evaluator.notify_split(root)
        root.right.aggregates = {"c": 0.0, "s": 0.0}
        got = evaluator.best_splits([root.left, root.right], features)
        census = evaluator.census()
        assert census["sibling_subtractions"] == 0
        assert census["batched_rounds"] == 2
        assert got[root.right.node_id] is None
        # Queried normally: bit-identical to the per-leaf search.
        want = evaluator._per_leaf([root.left], features)[root.left.node_id]
        have = got[root.left.node_id]
        assert have.predicate.render() == want.predicate.render()
        assert have.gain == want.gain
        assert have.left_aggregates == want.left_aggregates

    def test_children_at_max_depth_are_not_evaluated(self):
        db, graph = favorita(num_fact_rows=2000, num_extra_features=0, seed=3)
        trainer = _trainer(db, graph, num_leaves=16, max_depth=2)
        model = trainer.train()
        census = trainer.evaluator.census()
        # Only the root's children are evaluated (one derived from the
        # root's slices); theirs would sit at max_depth.
        assert max(leaf.depth for leaf in model.leaves()) == 2
        assert census["rounds"] == 2
        assert census["sibling_subtractions"] == 1

    def test_slices_are_freed_per_tree(self):
        db, graph = star_schema(num_fact_rows=400, num_dims=2, dim_size=10,
                                seed=4)
        trainer = _trainer(db, graph, num_leaves=6)
        trainer.train()
        open_leaves = set(trainer.evaluator._slices)
        assert open_leaves  # unsplit leaves keep theirs until the next tree
        tree = trainer.train()
        # Kept: the evaluated unsplit leaves, and the last split node,
        # whose children were never evaluated.
        last = max(tree.nodes(), key=lambda node: node.node_id).parent
        children = {last.left.node_id, last.right.node_id}
        leaves = {leaf.node_id for leaf in tree.leaves()}
        assert set(trainer.evaluator._slices) == (
            (leaves - children) | {last.node_id}
        )
        assert len(trainer.evaluator._slices) == 6 - 2 + 1
        assert not open_leaves & set(trainer.evaluator._slices)


#: (backend, growth, missing) — generated seed ``i`` runs combination
#: ``i % 8``, so 24 seeds per generator cover each one three times
COMBINATIONS = list(itertools.product(
    ("embedded", "sqlite"), ("best-first", "depth-wise"), ("right", "both"),
))

GENERATORS = {"deep": (deep_schema, 800), "mixed": (mixed_schema, 600)}


class TestGeneratedInputs:
    """Batched growth (sibling subtraction) against ``split_batching=
    "off"`` on generated snowflakes: scores always agree to 1e-12, and
    trees agree split for split except where two features give one
    partition of a leaf's rows with equal gains (an exact tie the float
    sums of either path may break either way)."""

    @pytest.mark.parametrize("seed", range(24))
    @pytest.mark.parametrize("generator", sorted(GENERATORS))
    def test_auto_matches_off(self, generator, seed):
        backend, growth, missing = COMBINATIONS[seed % len(COMBINATIONS)]
        make, rows = GENERATORS[generator]
        grown = {}
        for mode in ("auto", "off"):
            db = Database() if backend == "embedded" else SQLiteConnector()
            db, graph = make(db, n=rows, seed=100 + seed)
            model = repro.train_gradient_boosting(db, graph, {
                "num_iterations": 1, "num_leaves": 24, "min_data_in_leaf": 1,
                "growth": growth, "missing": missing, "split_batching": mode,
            })
            grown[mode] = (trees_of(model), model)
        assert grown["auto"][1].frontier_census["sibling_subtractions"] > 0
        assert_score_parity(grown["auto"][1], grown["off"][1], db, graph)
        if same_partition_tie(grown["auto"][0], grown["off"][0]) is None:
            assert_sibling_parity(grown["auto"][0], grown["off"][0])


class TestBackendMatrix:
    @pytest.mark.parametrize("backend", backend_matrix("plain", "sqlite"))
    def test_same_subtraction_on_every_backend(self, backend):
        """The subtraction runs client-side, so each backend's batched
        model is bit-identical across worker counts and matches its
        per-leaf model within the sibling tolerance."""
        grown = {}
        for mode, workers in (("auto", 1), ("auto", 4), ("off", 1)):
            conn, graph = mixed_schema(repro.connect(backend=backend))
            try:
                model = repro.train_gradient_boosting(conn, graph, {
                    "num_iterations": 2, "num_leaves": 8,
                    "min_data_in_leaf": 2, "missing": "both",
                    "split_batching": mode, "num_workers": workers,
                })
                if mode == "off":
                    assert_score_parity(grown[("auto", 1)][1], model,
                                        conn, graph)
            finally:
                conn.close()
            grown[(mode, workers)] = (trees_of(model), model)
        auto, pooled, off = (grown[key] for key in (
            ("auto", 1), ("auto", 4), ("off", 1)
        ))
        assert auto[1].frontier_census["sibling_subtractions"] == 2 * 6
        assert repro.model_digest(auto[1]) == repro.model_digest(pooled[1])
        assert_sibling_parity(auto[0], off[0])
