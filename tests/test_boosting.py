"""Gradient boosting: convergence, losses, galaxy CPT, multiclass."""

import numpy as np
import pytest

import repro
from repro.core.predict import feature_frame, rmse_on_join
from repro.core.serialize import model_digest
from repro.exceptions import TrainingError
from repro.joingraph.clusters import cluster_graph
from repro.semiring.losses import get_loss
from repro.storage.column import Column


class TestSnowflakeBoosting:
    def test_rmse_decreases(self, small_star):
        db, graph = small_star
        model = repro.train_gradient_boosting(
            db, graph,
            {"num_iterations": 20, "num_leaves": 8, "learning_rate": 0.3},
            evaluate_every=5,
        )
        rmses = [r.rmse for r in model.history if r.rmse is not None]
        assert len(rmses) == 4
        assert rmses[-1] < rmses[0]

    def test_beats_constant_predictor(self, small_star):
        db, graph = small_star
        model = repro.train_gradient_boosting(
            db, graph, {"num_iterations": 25, "num_leaves": 8,
                        "learning_rate": 0.3},
        )
        y = db.table("fact").column("target").values
        assert rmse_on_join(db, graph, model) < 0.5 * y.std()

    def test_learning_rate_zero_point_one_converges_slower(self, small_star):
        db, graph = small_star
        fast = repro.train_gradient_boosting(
            db, graph, {"num_iterations": 5, "num_leaves": 4,
                        "learning_rate": 0.5},
        )
        slow = repro.train_gradient_boosting(
            db, graph, {"num_iterations": 5, "num_leaves": 4,
                        "learning_rate": 0.05},
        )
        assert rmse_on_join(db, graph, fast) < rmse_on_join(db, graph, slow)

    def test_reg_lambda_shrinks_leaves(self, small_star):
        db, graph = small_star
        plain = repro.train_gradient_boosting(
            db, graph, {"num_iterations": 1, "num_leaves": 4},
        )
        regularized = repro.train_gradient_boosting(
            db, graph, {"num_iterations": 1, "num_leaves": 4,
                        "reg_lambda": 1000.0},
        )
        plain_leaf = max(abs(l.prediction) for l in plain.trees[0].leaves())
        reg_leaf = max(abs(l.prediction) for l in regularized.trees[0].leaves())
        assert reg_leaf < plain_leaf

    @pytest.mark.parametrize(
        "objective", ["l1", "huber", "fair", "quantile", "mape"]
    )
    def test_general_losses_train(self, tiny_star, objective):
        db, graph = tiny_star
        model = repro.train_gradient_boosting(
            db, graph,
            {"objective": objective, "num_iterations": 3, "num_leaves": 4,
             "learning_rate": 0.3},
        )
        assert len(model.trees) == 3
        assert np.isfinite(rmse_on_join(db, graph, model))

    def test_poisson_on_positive_target(self):
        from repro.datasets import star_schema

        db, graph = star_schema(num_fact_rows=400, num_dims=1, seed=9)
        table = db.table("fact")
        y = np.abs(table.column("target").values) + 1.0
        table.set_column(Column("target", y))
        model = repro.train_gradient_boosting(
            db, graph,
            {"objective": "poisson", "num_iterations": 3, "num_leaves": 4,
             "learning_rate": 0.2},
        )
        frame = feature_frame(db, graph)
        assert (model.predict_arrays(frame) > 0).all()  # exp link

    def test_history_records_timings(self, tiny_star):
        db, graph = tiny_star
        model = repro.train_gradient_boosting(
            db, graph, {"num_iterations": 2, "num_leaves": 4},
        )
        assert len(model.history) == 2
        assert all(r.train_seconds >= 0 for r in model.history)
        assert all(r.update_seconds >= 0 for r in model.history)

    def test_temp_tables_cleaned(self, tiny_star):
        db, graph = tiny_star
        repro.train_gradient_boosting(db, graph, {"num_iterations": 2,
                                                  "num_leaves": 4})
        assert db.catalog.temp_names() == []

    def test_colsample(self, small_star):
        db, graph = small_star
        model = repro.train_gradient_boosting(
            db, graph, {"num_iterations": 4, "num_leaves": 4,
                        "feature_fraction": 0.5, "seed": 3},
        )
        assert len(model.trees) == 4


class TestGalaxyBoosting:
    def test_galaxy_trains_with_cpt(self, small_imdb):
        db, graph = small_imdb
        model = repro.train_gradient_boosting(
            db, graph, {"num_iterations": 4, "num_leaves": 4,
                        "learning_rate": 0.5},
        )
        assert len(model.trees) == 4
        assert db.catalog.temp_names() == []

    def test_galaxy_rejects_non_rmse(self, small_imdb):
        db, graph = small_imdb
        with pytest.raises(TrainingError):
            repro.train_gradient_boosting(
                db, graph, {"objective": "l1", "num_iterations": 2},
            )

    def test_galaxy_residuals_shrink(self, small_imdb):
        """Mean |leaf value| of later trees shrinks as residuals are
        absorbed — boosting is actually learning over the galaxy join."""
        db, graph = small_imdb
        model = repro.train_gradient_boosting(
            db, graph, {"num_iterations": 6, "num_leaves": 4,
                        "learning_rate": 0.8},
        )

        def leaf_scale(tree):
            return np.mean([abs(l.prediction) for l in tree.leaves()])

        first, last = leaf_scale(model.trees[0]), leaf_scale(model.trees[-1])
        assert last < first

    def test_explicit_clusters_accepted(self, small_imdb):
        db, graph = small_imdb
        clusters = cluster_graph(graph)
        model = repro.train_gradient_boosting(
            db, graph, {"num_iterations": 2, "num_leaves": 4},
            clusters=clusters,
        )
        assert len(model.trees) == 2


@pytest.fixture
def class_data():
    from repro.datasets import star_schema

    db, graph = star_schema(num_fact_rows=900, num_dims=2, seed=3)
    table = db.table("fact")
    y = table.column("target").values
    labels = np.digitize(y, np.quantile(y, [0.33, 0.66])).astype(np.int64)
    table.set_column(Column("target", labels))
    return db, graph, labels


class TestMulticlass:
    def test_accuracy_beats_majority(self, class_data):
        db, graph, labels = class_data
        model = repro.train_gradient_boosting(
            db, graph,
            {"objective": "multiclass", "num_class": 3, "num_iterations": 3,
             "num_leaves": 4, "learning_rate": 0.3},
        )
        frame = feature_frame(db, graph)
        accuracy = (model.predict_arrays(frame) == labels).mean()
        majority = max(np.bincount(labels)) / len(labels)
        assert accuracy > majority + 0.1

    def test_probabilities_normalized(self, class_data):
        db, graph, labels = class_data
        model = repro.train_gradient_boosting(
            db, graph,
            {"objective": "multiclass", "num_class": 3, "num_iterations": 2,
             "num_leaves": 4},
        )
        frame = feature_frame(db, graph)
        probs = model.predict_proba(frame)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert probs.shape == (len(labels), 3)

    def test_one_chain_per_class(self, class_data):
        db, graph, labels = class_data
        model = repro.train_gradient_boosting(
            db, graph,
            {"objective": "multiclass", "num_class": 3, "num_iterations": 2,
             "num_leaves": 4},
        )
        assert model.num_classes == 3
        assert all(len(chain) == 2 for chain in model.trees_per_class)


def _round_draws(graph, params, draws):
    """The feature subsets a seeded run draws, in draw order."""
    from repro.core.boosting import _sample_features
    from repro.core.params import TrainParams

    train_params = TrainParams.from_dict(params)
    rng = np.random.default_rng(train_params.seed)
    return [
        {feature for _, feature in _sample_features(graph, train_params, rng)}
        for _ in range(draws)
    ]


def _split_features(tree):
    return {column for _, column in tree.referenced_attributes()}


class TestFeatureFraction:
    """Every boosting driver grows each tree on the feature subset the
    run's seeded generator draws for it."""

    def test_multiclass_draws_one_subset_per_class_tree(self, class_data):
        db, graph, _ = class_data
        params = {"objective": "multiclass", "num_class": 3,
                  "num_iterations": 3, "num_leaves": 4,
                  "feature_fraction": 0.3, "seed": 4}
        model = repro.train_gradient_boosting(db, graph, params)
        draws = _round_draws(graph, params, 3 * 3)
        for k, chain in enumerate(model.trees_per_class):
            for i, tree in enumerate(chain):
                assert _split_features(tree) <= draws[3 * i + k]
        full = repro.train_gradient_boosting(
            db, graph, dict(params, feature_fraction=1.0)
        )
        assert model_digest(model) != model_digest(full)

    def test_cuboid_trees_split_on_their_draw(self):
        from repro.core.histogram import train_boosting_on_cuboid
        from repro.datasets import favorita

        params = {"num_iterations": 3, "num_leaves": 8, "max_bin": 10,
                  "feature_fraction": 0.3}
        db, graph = favorita(num_fact_rows=3000)
        model = train_boosting_on_cuboid(db, graph, params)
        draws = _round_draws(graph, params, 3)
        for tree, drawn in zip(model.trees, draws):
            assert _split_features(tree) <= drawn
        full = train_boosting_on_cuboid(
            db, graph, dict(params, feature_fraction=1.0)
        )
        assert model_digest(model) != model_digest(full)


class TestRowBaggingRefused:
    """No boosting driver samples rows, so a row sample is refused
    rather than silently ignored."""

    @pytest.mark.parametrize("name", ["subsample", "bagging_fraction"])
    def test_snowflake(self, small_star, name):
        db, graph = small_star
        with pytest.raises(TrainingError, match="train_random_forest"):
            repro.train_gradient_boosting(
                db, graph, {"num_iterations": 2, name: 0.5}
            )

    def test_galaxy(self, small_imdb):
        db, graph = small_imdb
        with pytest.raises(TrainingError, match="subsample"):
            repro.train_gradient_boosting(
                db, graph, {"num_iterations": 2, "subsample": 0.5}
            )

    def test_multiclass(self, class_data):
        db, graph, _ = class_data
        with pytest.raises(TrainingError, match="subsample"):
            repro.train_gradient_boosting(
                db, graph, {"objective": "multiclass", "num_class": 3,
                            "num_iterations": 2, "subsample": 0.5},
            )

    def test_cuboid(self, small_star):
        from repro.core.histogram import train_boosting_on_cuboid

        db, graph = small_star
        with pytest.raises(TrainingError, match="subsample"):
            train_boosting_on_cuboid(
                db, graph, {"num_iterations": 2, "max_bin": 4,
                            "bagging_fraction": 0.5},
            )
        assert db.catalog.temp_names() == []

    def test_sharded(self, small_star):
        from repro.distributed import SimulatedCluster

        db, graph = small_star
        cluster = SimulatedCluster(db, graph, "k0", num_machines=2)
        with pytest.raises(TrainingError, match="subsample"):
            cluster.train_gradient_boosting(
                {"num_iterations": 2, "subsample": 0.5}
            )

    def test_full_sample_still_accepted(self, small_star):
        db, graph = small_star
        model = repro.train_gradient_boosting(
            db, graph, {"num_iterations": 1, "subsample": 1.0}
        )
        assert len(model.trees) == 1


class TestMaxBinRefused:
    """Only the cuboid driver bins features, so every exact-split driver
    refuses ``max_bin`` rather than silently ignoring it."""

    def test_boosting(self, small_star):
        db, graph = small_star
        with pytest.raises(TrainingError, match="train_boosting_on_cuboid"):
            repro.train_gradient_boosting(
                db, graph, {"num_iterations": 2, "max_bin": 4}
            )

    def test_decision_tree(self, small_star):
        db, graph = small_star
        with pytest.raises(TrainingError, match="train_boosting_on_cuboid"):
            repro.train_decision_tree(db, graph, {"max_bin": 4})

    def test_random_forest(self, small_star):
        db, graph = small_star
        with pytest.raises(TrainingError, match="train_boosting_on_cuboid"):
            repro.train_random_forest(
                db, graph, {"num_iterations": 2, "max_bin": 4}
            )

    def test_sharded(self, small_star):
        from repro.distributed import SimulatedCluster

        db, graph = small_star
        cluster = SimulatedCluster(db, graph, "k0", num_machines=2)
        with pytest.raises(TrainingError, match="train_boosting_on_cuboid"):
            cluster.train_gradient_boosting({"num_iterations": 2, "max_bin": 4})
        with pytest.raises(TrainingError, match="train_boosting_on_cuboid"):
            cluster.train_decision_tree({"max_bin": 4})

    def test_cuboid_honours_max_bin(self, small_star):
        from repro.core.histogram import train_boosting_on_cuboid

        db, graph = small_star
        params = {"num_iterations": 3, "num_leaves": 6}
        digests = {
            bins: model_digest(train_boosting_on_cuboid(
                db, graph, dict(params, max_bin=bins)
            ))
            for bins in (2, 16)
        }
        assert digests[2] != digests[16]


class TestQualityParityWithLightGBMStandIn:
    def test_final_rmse_close(self, small_favorita):
        """Section 6.1: final model error is nearly identical."""
        from repro.baselines.export import load_feature_matrix
        from repro.baselines.histgbm import HistGradientBoosting

        db, graph = small_favorita
        iterations, leaves, lr = 15, 8, 0.3
        ours = repro.train_gradient_boosting(
            db, graph,
            {"num_iterations": iterations, "num_leaves": leaves,
             "learning_rate": lr, "min_data_in_leaf": 3},
        )
        X, y, _ = load_feature_matrix(db, graph)
        theirs = HistGradientBoosting(
            num_iterations=iterations, num_leaves=leaves, learning_rate=lr,
            max_bin=1000, min_child_samples=3,
        ).fit(X, y)
        ours_rmse = rmse_on_join(db, graph, ours)
        theirs_rmse = float(np.sqrt(np.mean((theirs.predict(X) - y) ** 2)))
        assert ours_rmse == pytest.approx(theirs_rmse, rel=0.15)
