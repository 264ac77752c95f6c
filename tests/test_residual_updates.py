"""Residual-update correctness: every strategy produces the same state,
semi-join translation matches direct evaluation, and the naive U-join
(Section 4.2.1) agrees with the optimized paths."""

import numpy as np
import pytest

import repro
from repro.core.residual import ResidualUpdater, leaf_fact_condition
from repro.core.serialize import model_digest
from repro.datasets import favorita
from repro.storage.table import StorageConfig
from repro.core.split import GradientCriterion
from repro.core.params import TrainParams
from repro.factorize.executor import Factorizer
from repro.factorize.predicates import Predicate
from repro.semiring.gradient import GradientSemiRing
from repro.semiring.losses import get_loss

from conftest import frontier_trainer


def trained_setup(small_star):
    """Lift a gradient fact table and train one tree over it."""
    db, graph = small_star
    ring = GradientSemiRing()
    factorizer = Factorizer(db, graph, ring)
    y = graph.target_column
    factorizer.lift(ring.lift_pair_sql("1", f"(0.0 - t.{y})"))
    params = TrainParams.from_dict({"num_leaves": 4})
    trainer = frontier_trainer(
        db, graph, factorizer, GradientCriterion(), params
    )
    tree = trainer.train()
    return db, graph, factorizer, tree


class TestLeafFactCondition:
    def test_fact_local_predicate(self, small_star):
        db, graph = small_star
        condition = leaf_fact_condition(
            graph, "fact", {"fact": (Predicate("local_feat", "<=", 10),)}, "t"
        )
        assert condition == "t.local_feat <= 10"

    def test_dimension_predicate_becomes_semi_join(self, small_star):
        db, graph = small_star
        condition = leaf_fact_condition(
            graph, "fact", {"dim0": (Predicate("dfeat0", ">", 0),)}, "t"
        )
        assert "t.k0 IN (SELECT k0 FROM dim0 WHERE dfeat0 > 0" in condition

    def test_two_hop_nesting(self, small_favorita):
        db, graph = small_favorita
        condition = leaf_fact_condition(
            graph, "sales", {"oil": (Predicate("f_oil", ">", 500),)}, "t"
        )
        # oil hangs off dates: sales.date_id IN (dates ... IN (oil ...))
        assert condition.count("IN (SELECT") == 2

    def test_semi_join_selects_same_rows(self, small_star):
        db, graph = small_star
        predicate = Predicate("dfeat0", ">", 0)
        condition = leaf_fact_condition(
            graph, "fact", {"dim0": (predicate,)}, "fact"
        )
        via_semijoin = db.execute(
            f"SELECT COUNT(*) AS n FROM fact WHERE {condition}"
        ).scalar()
        via_join = db.execute(
            "SELECT COUNT(*) AS n FROM fact JOIN dim0 ON fact.k0 = dim0.k0 "
            "WHERE dfeat0 > 0"
        ).scalar()
        assert via_semijoin == via_join


class TestStrategyEquivalence:
    @pytest.mark.parametrize("strategy", ["update", "create", "swap", "naive"])
    def test_additive_strategies_agree(self, small_star, strategy):
        db, graph, factorizer, tree = trained_setup(small_star)
        fact_table = factorizer.lifted["fact"]
        baseline = db.table(fact_table).column("g").values.copy()

        updater = ResidualUpdater(
            db, graph, "fact", fact_table, get_loss("l2"), strategy=strategy
        )
        updater.apply_additive(tree, learning_rate=0.5, component="g")

        # Reference: shift each row's g by 0.5 * its leaf value, computed
        # through direct (non-semi-join) prediction.
        from repro.core.predict import feature_frame

        frame = feature_frame(db, graph)
        expected = baseline + 0.5 * tree.predict_arrays(frame)
        got = db.table(fact_table).column("g").values
        assert np.allclose(np.sort(got), np.sort(expected))
        factorizer.cleanup()

    def test_general_loss_update_recomputes_gradients(self, small_star):
        db, graph = small_star
        model = repro.train_gradient_boosting(
            db, graph,
            {"objective": "huber", "huber_delta": 5.0, "num_iterations": 3,
             "num_leaves": 4, "learning_rate": 0.3},
        )
        assert len(model.trees) == 3

    def test_update_strategy_matches_swap_through_boosting(self, small_star):
        db, graph = small_star
        swap = repro.train_gradient_boosting(
            db, graph,
            {"num_iterations": 3, "num_leaves": 4, "update_strategy": "swap"},
        )
        update = repro.train_gradient_boosting(
            db, graph,
            {"num_iterations": 3, "num_leaves": 4, "update_strategy": "update"},
        )
        from repro.core.predict import feature_frame

        frame = feature_frame(db, graph)
        assert np.allclose(
            swap.predict_arrays(frame), update.predict_arrays(frame)
        )


class TestDefaultStrategyOnEveryBackend:
    @pytest.mark.parametrize(
        "backend", list(StorageConfig.PRESETS) + ["sqlite"]
    )
    def test_default_params_train_with_one_digest(self, backend):
        """The default ``update_strategy="swap"`` runs on every stock
        preset: where the backend has no column swap it resolves to the
        in-DBMS UPDATE (x-col, x-row, d-disk and d-mem used to raise
        StorageError), and every backend grows the same model."""
        conn = repro.connect(backend=backend)
        _, graph = favorita(db=conn, num_fact_rows=2_000, seed=1)
        model = repro.train_gradient_boosting(
            conn, graph, {"num_iterations": 2, "num_leaves": 4}
        )
        conn.close()
        assert model_digest(model).startswith("74253c9c6a39d36c")


class TestBoostingMatchesSingleTableBoosting:
    def test_rmse_matches_exact_reference(self, small_star):
        """Factorized boosting == exact single-table boosting, tree by tree."""
        db, graph = small_star
        from repro.baselines.exactgbm import ExactGradientBoosting
        from repro.baselines.export import load_feature_matrix
        from repro.core.predict import feature_frame

        model = repro.train_gradient_boosting(
            db, graph,
            {"num_iterations": 5, "num_leaves": 4, "learning_rate": 0.3,
             "min_data_in_leaf": 2},
        )
        X, y, names = load_feature_matrix(db, graph)
        reference = ExactGradientBoosting(
            num_iterations=5, num_leaves=4, learning_rate=0.3,
            min_child_samples=2,
        ).fit(X, y)
        frame = feature_frame(db, graph)
        ours = model.predict_arrays(frame)
        theirs = reference.predict(X)
        assert np.allclose(np.sort(ours), np.sort(theirs), atol=1e-8)
