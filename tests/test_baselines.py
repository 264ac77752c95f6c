"""Baseline models, the export pipeline, and the Figure 16 variants."""

import numpy as np
import pytest

import repro
from repro.baselines import (
    ExactGradientBoosting,
    HistGradientBoosting,
    HistRandomForest,
    materialize_and_export,
    train_madlib_tree,
    train_tree_variant,
)
from repro.baselines.export import estimate_join_bytes, load_feature_matrix
from repro.exceptions import MemoryBudgetExceeded, TrainingError


@pytest.fixture
def xy(small_star):
    db, graph = small_star
    X, y, names = load_feature_matrix(db, graph)
    return X, y


class TestHistGBM:
    def test_fits_noise_free_signal(self, xy):
        X, y = xy
        model = HistGradientBoosting(
            num_iterations=30, num_leaves=8, learning_rate=0.3, max_bin=64
        ).fit(X, y)
        rmse = np.sqrt(np.mean((model.predict(X) - y) ** 2))
        assert rmse < 0.5 * y.std()

    def test_history_per_iteration(self, xy):
        X, y = xy
        model = HistGradientBoosting(num_iterations=5, num_leaves=4).fit(
            X, y, eval_rmse=True
        )
        assert len(model.history) == 5
        rmses = [h[2] for h in model.history]
        assert rmses[-1] < rmses[0]

    def test_update_cost_much_smaller_than_train(self, xy):
        """The red-line property of Figure 5: residual updates on a raw
        array are far cheaper than tree construction."""
        X, y = xy
        model = HistGradientBoosting(num_iterations=10, num_leaves=8).fit(X, y)
        train = sum(h[0] for h in model.history)
        update = sum(h[1] for h in model.history)
        assert update < train

    def test_unfitted_predict_raises(self):
        with pytest.raises(TrainingError):
            HistGradientBoosting().predict(np.zeros((2, 2)))

    def test_min_child_samples(self, xy):
        X, y = xy
        model = HistGradientBoosting(
            num_iterations=1, num_leaves=64, min_child_samples=len(y) // 2
        ).fit(X, y)
        # With huge min-child the tree can split at most once.
        assert len(model.trees) == 1


class TestExactModels:
    def test_exact_gbm_converges(self, xy):
        X, y = xy
        model = ExactGradientBoosting(
            num_iterations=10, num_leaves=6, learning_rate=0.3
        ).fit(X, y)
        rmse = np.sqrt(np.mean((model.predict(X) - y) ** 2))
        assert rmse < 0.6 * y.std()

    def test_rf_baseline(self, xy):
        X, y = xy
        model = HistRandomForest(
            num_iterations=10, num_leaves=8, subsample=0.5, seed=0
        ).fit(X, y)
        rmse = np.sqrt(np.mean((model.predict(X) - y) ** 2))
        assert rmse < y.std()


class TestExportPipeline:
    def test_export_produces_training_data(self, small_star):
        db, graph = small_star
        exported = materialize_and_export(db, graph)
        assert exported.features.shape[0] == db.table("fact").num_rows()
        assert exported.total_seconds > 0
        assert exported.csv_bytes > 0

    def test_memory_budget_enforced(self, small_star):
        db, graph = small_star
        with pytest.raises(MemoryBudgetExceeded):
            materialize_and_export(db, graph, memory_budget=100)

    def test_estimate_scales_with_features(self, small_star):
        db, graph = small_star
        estimate = estimate_join_bytes(db, graph)
        expected = db.table("fact").num_rows() * (len(graph.all_features()) + 1) * 8
        assert estimate == expected

    def test_exported_matches_in_memory_matrix(self, tiny_star):
        db, graph = tiny_star
        exported = materialize_and_export(db, graph)
        X, y, _ = load_feature_matrix(db, graph)
        assert np.allclose(np.sort(exported.y), np.sort(y))


def structure_signature(model):
    """Tree shape ignoring relation names (the madlib variant's splits
    name its wide table, so relations differ but splits must not)."""
    out = []

    def walk(node, depth):
        if node.is_leaf:
            out.append((depth, None, None, round(node.prediction, 9)))
            return
        pred = node.left.predicate
        out.append((depth, pred.column, pred.op, pred.value))
        walk(node.left, depth + 1)
        walk(node.right, depth + 1)

    walk(model.root, 0)
    return out


class TestFigure16Variants:
    def test_all_variants_same_tree(self, small_star):
        db, graph = small_star
        structures = []
        for variant in ("naive", "batch", "joinboost"):
            model, _ = train_tree_variant(
                db, graph, variant, {"num_leaves": 6, "min_data_in_leaf": 2}
            )
            structures.append(structure_signature(model))
        assert structures[0] == structures[1] == structures[2]

    @pytest.mark.parametrize("backend", ["plain", "sqlite"])
    def test_naive_tree_names_the_graphs_relations(self, backend):
        """The naive variant trains over a minted wide table, but each
        split names the relation of the caller's graph that owns its
        feature, as the joinboost variant's do, so its digest does not
        depend on the connection's temp counter."""
        from repro.datasets import favorita

        params = {"num_leaves": 6, "min_data_in_leaf": 3}
        models = []
        for burn in (0, 3):
            conn = repro.connect(backend)
            _, graph = favorita(db=conn, num_fact_rows=1500, seed=3)
            for _ in range(burn):
                conn.temp_name("burn")
            models.append(train_tree_variant(conn, graph, "naive", params)[0])
        joinboost, _ = train_tree_variant(conn, graph, "joinboost", params)
        naive = models[0]
        assert naive.referenced_attributes() == joinboost.referenced_attributes()
        assert naive.feature_relations == {
            feature: relation for relation, feature in graph.all_features()
        }
        assert repro.model_digest(models[1]) == repro.model_digest(naive)

    def test_unknown_variant(self, small_star):
        db, graph = small_star
        with pytest.raises(TrainingError):
            train_tree_variant(db, graph, "turbo")

    def test_madlib_trains_same_model(self, tiny_star):
        db, graph = tiny_star
        jb, _ = train_tree_variant(db, graph, "joinboost", {"num_leaves": 4})
        madlib, seconds = train_madlib_tree(db, graph, {"num_leaves": 4})
        assert structure_signature(madlib) == structure_signature(jb)
        assert seconds > 0

    @staticmethod
    def _madlib_on_favorita(burn):
        """A MADlib tree on a fresh connection after ``burn`` minted temps."""
        from repro.datasets import favorita

        conn = repro.connect("plain")
        _, graph = favorita(db=conn, num_fact_rows=1500, seed=3)
        for _ in range(burn):
            conn.temp_name("burn")
        model, _ = train_madlib_tree(
            conn, graph, {"num_leaves": 6, "min_data_in_leaf": 3}
        )
        return conn, graph, model

    def test_madlib_digest_ignores_minted_temps(self):
        """The MADlib tree trains over a minted row-store wide table, but
        its splits name the caller's relations, so two runs after
        different numbers of minted temps train one digest."""
        digests = [
            repro.model_digest(self._madlib_on_favorita(burn)[2])
            for burn in (0, 3)
        ]
        assert digests[0] == digests[1]

    def test_madlib_model_scores_in_database(self):
        conn, graph, model = self._madlib_on_favorita(0)
        assert model.feature_relations == {
            feature: relation for relation, feature in graph.all_features()
        }
        service = repro.PredictionService(conn, graph)
        service.deploy(model)
        assert np.allclose(service.score_sql(), service.score_all())

    def test_variants_clean_up(self, tiny_star):
        db, graph = tiny_star
        for variant in ("naive", "batch", "joinboost"):
            train_tree_variant(db, graph, variant, {"num_leaves": 4})
        train_madlib_tree(db, graph, {"num_leaves": 4})
        assert db.catalog.temp_names() == []
