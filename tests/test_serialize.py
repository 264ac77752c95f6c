"""Model serialization round-trips."""

import numpy as np
import pytest

import repro
from repro.core.predict import feature_frame
from repro.core.serialize import (
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from repro.engine.database import Database
from repro.exceptions import TrainingError
from repro.storage.column import Column


class TestSerialization:
    def test_tree_round_trip(self, small_star):
        db, graph = small_star
        model = repro.train_decision_tree(db, graph, {"num_leaves": 6})
        restored = model_from_dict(model_to_dict(model))
        frame = feature_frame(db, graph)
        assert np.allclose(
            model.predict_arrays(frame), restored.predict_arrays(frame)
        )
        assert restored.dump() == model.dump()

    def test_boosting_round_trip(self, small_star):
        db, graph = small_star
        model = repro.train_gradient_boosting(
            db, graph, {"num_iterations": 4, "num_leaves": 4,
                        "learning_rate": 0.3},
        )
        restored = model_from_dict(model_to_dict(model))
        frame = feature_frame(db, graph)
        assert np.allclose(
            model.predict_arrays(frame), restored.predict_arrays(frame)
        )
        assert restored.loss.name == "l2"

    def test_boosting_with_parameterized_loss(self, tiny_star):
        db, graph = tiny_star
        model = repro.train_gradient_boosting(
            db, graph, {"objective": "huber", "huber_delta": 2.5,
                        "num_iterations": 2, "num_leaves": 4},
        )
        restored = model_from_dict(model_to_dict(model))
        assert restored.loss.delta == 2.5

    def test_forest_round_trip(self, tiny_star):
        db, graph = tiny_star
        model = repro.train_random_forest(
            db, graph, {"num_iterations": 3, "num_leaves": 4,
                        "subsample": 0.8, "seed": 1},
        )
        restored = model_from_dict(model_to_dict(model))
        frame = feature_frame(db, graph)
        assert np.allclose(
            model.predict_arrays(frame), restored.predict_arrays(frame)
        )

    def test_multiclass_round_trip(self, tiny_star):
        db, graph = tiny_star
        table = db.table("fact")
        y = table.column("target").values
        labels = (y > np.median(y)).astype(np.int64)
        table.set_column(Column("target", labels))
        model = repro.train_gradient_boosting(
            db, graph, {"objective": "multiclass", "num_class": 2,
                        "num_iterations": 2, "num_leaves": 4},
        )
        restored = model_from_dict(model_to_dict(model))
        frame = feature_frame(db, graph)
        assert np.allclose(
            model.predict_proba(frame), restored.predict_proba(frame)
        )

    def test_save_load_file(self, tiny_star, tmp_path):
        db, graph = tiny_star
        model = repro.train_gradient_boosting(
            db, graph, {"num_iterations": 2, "num_leaves": 4},
        )
        path = str(tmp_path / "model.json")
        save_model(model, path)
        restored = load_model(path)
        frame = feature_frame(db, graph)
        assert np.allclose(
            model.predict_arrays(frame), restored.predict_arrays(frame)
        )

    def test_categorical_predicate_survives(self):
        from repro.datasets import star_schema
        from repro.joingraph.graph import JoinGraph

        rng = np.random.default_rng(0)
        db = Database()
        n = 300
        color = rng.integers(0, 4, n)
        y = np.where(np.isin(color, [0, 2]), 5.0, -5.0)
        db.create_table("fact", {"k": np.arange(n), "yv": y})
        db.create_table("dim", {"k": np.arange(n), "color": color})
        graph = JoinGraph(db)
        graph.add_relation("fact", y="yv")
        graph.add_relation("dim", features=["color"], categorical=["color"])
        graph.add_edge("fact", "dim", ["k"])
        model = repro.train_decision_tree(db, graph, {"num_leaves": 2})
        restored = model_from_dict(model_to_dict(model))
        pred = restored.root.left.predicate
        assert isinstance(pred.value, tuple)

    def test_unknown_kind_rejected(self):
        with pytest.raises(TrainingError):
            model_from_dict({"kind": "perceptron"})
