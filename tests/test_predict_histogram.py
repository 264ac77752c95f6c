"""Prediction over joins, and histogram/cuboid training (Appendix D.3)."""

import numpy as np
import pytest

import repro
from repro.core.histogram import (
    bin_column,
    bin_graph,
    build_cuboid,
    quantile_edges,
    train_boosting_on_cuboid,
)
from repro.core.predict import feature_frame, predict_join, rmse_on_join
from repro.exceptions import TrainingError
from repro.semiring.gradient import GradientSemiRing


class TestFeatureFrame:
    def test_alignment_with_fact(self, small_star):
        db, graph = small_star
        frame = feature_frame(db, graph)
        n = db.table("fact").num_rows()
        assert all(len(v) == n for v in frame.values())
        assert "target" in frame

    def test_dimension_values_correct(self, small_star):
        db, graph = small_star
        frame = feature_frame(db, graph)
        k0 = db.table("fact").column("k0").values
        dim0 = db.table("dim0").column("dfeat0").values
        assert np.allclose(frame["dfeat0"], dim0[k0])

    def test_two_hop_chain(self, small_favorita):
        db, graph = small_favorita
        frame = feature_frame(db, graph)
        date_id = db.table("sales").column("date_id").values
        oil = db.table("oil").column("f_oil").values
        assert np.allclose(frame["f_oil"], oil[date_id])

    def test_missing_key_yields_nan(self):
        from repro.engine.database import Database
        from repro.joingraph.graph import JoinGraph

        db = Database()
        db.create_table("fact", {"k": [0, 7], "yv": [1.0, 2.0]})
        db.create_table("dim", {"k": [0], "feat": [5.0]})
        graph = JoinGraph(db)
        graph.add_relation("fact", y="yv")
        graph.add_relation("dim", features=["feat"])
        graph.add_edge("fact", "dim", ["k"])
        frame = feature_frame(db, graph)
        assert np.isnan(frame["feat"][1])

    def test_predict_join_uses_required_features_only(self, small_star):
        db, graph = small_star
        model = repro.train_gradient_boosting(
            db, graph, {"num_iterations": 2, "num_leaves": 4},
        )
        scores = predict_join(db, graph, model)
        assert len(scores) == db.table("fact").num_rows()


class TestBinning:
    def test_quantile_edges_monotone(self):
        rng = np.random.default_rng(0)
        edges = quantile_edges(rng.normal(size=500), 16)
        assert np.all(np.diff(edges) > 0)

    def test_bin_column_maps_to_edges(self):
        edges = np.array([1.0, 2.0, 3.0])
        out = bin_column(np.array([0.5, 1.5, 9.0]), edges)
        assert list(out) == [1.0, 2.0, 3.0]

    def test_bin_column_preserves_nan(self):
        out = bin_column(np.array([np.nan, 1.0]), np.array([1.0]))
        assert np.isnan(out[0])

    def test_all_null_column_rejected(self):
        with pytest.raises(TrainingError):
            quantile_edges(np.array([np.nan, np.nan]), 4)

    def test_bin_graph_reduces_cardinality(self, small_star):
        db, graph = small_star
        binned = bin_graph(db, graph, max_bin=4)
        rel = next(iter(binned.graph.relations.values()))
        for name, info in binned.graph.relations.items():
            for feature in info.features:
                distinct = len(
                    np.unique(db.table(name).column(feature).values)
                )
                assert distinct <= 4 or feature not in info.features
        binned.cleanup(db)


class TestCuboid:
    def test_cuboid_smaller_than_fact(self, small_star):
        db, graph = small_star
        binned = bin_graph(db, graph, max_bin=3)
        ring = GradientSemiRing()
        cuboid, features = build_cuboid(
            db, binned.graph, ring.lift_pair_sql("1", "(0.0 - t.target)"),
            list(ring.components),
        )
        assert db.table(cuboid).num_rows() < db.table("fact").num_rows() / 5
        db.drop_table(cuboid)
        binned.cleanup(db)

    def test_cuboid_preserves_totals(self, small_star):
        db, graph = small_star
        ring = GradientSemiRing()
        cuboid, _ = build_cuboid(
            db, graph, ring.lift_pair_sql("1", "t.target"), list(ring.components)
        )
        total_h = db.execute(f"SELECT SUM(h) AS v FROM {cuboid}").scalar()
        total_g = db.execute(f"SELECT SUM(g) AS v FROM {cuboid}").scalar()
        assert total_h == db.table("fact").num_rows()
        assert total_g == pytest.approx(
            float(db.table("fact").column("target").values.sum())
        )
        db.drop_table(cuboid)

    def test_cuboid_boosting_converges(self, small_star):
        db, graph = small_star
        model = train_boosting_on_cuboid(
            db, graph,
            {"num_iterations": 10, "num_leaves": 6, "learning_rate": 0.3,
             "max_bin": 8},
        )
        y = db.table("fact").column("target").values
        assert rmse_on_join(db, graph, model) < 0.6 * y.std()
        assert db.catalog.temp_names() == []

    def test_cuboid_runs_the_batched_frontier(self, small_star):
        """The cuboid trains through the batched frontier, reports its
        census like snowflake training, and shifts each round's gradients
        by the trainer's leaf-label column."""
        db, graph = small_star
        db.reset_profiles()
        model = train_boosting_on_cuboid(
            db, graph, {"num_iterations": 3, "num_leaves": 6, "max_bin": 8},
        )
        assert model.frontier_census["batched_rounds"] > 0
        assert "factorizer" in model.frontier_census
        updates = db.profiles_by_tag()["residual_update"]
        assert len(updates) == 3
        assert all("jb_leaf" in p.sql for p in updates)

    @pytest.mark.parametrize("backend", ["embedded", "sqlite"])
    def test_cuboid_model_scores_through_sql(self, backend):
        """A cuboid's trees name each feature's relation in the caller's
        graph, so the deployed model scores in-DB exactly as compiled,
        and its digest does not depend on the minted cuboid's name."""
        from repro.datasets import favorita

        conn = repro.connect(backend=backend)
        _, graph = favorita(db=conn, num_fact_rows=1500, seed=3)
        conn.temp_name("burn")  # shift the cuboid's ordinal
        model = train_boosting_on_cuboid(
            conn, graph, {"num_iterations": 3, "num_leaves": 4, "max_bin": 6},
        )
        relations = {r for t in model.trees for r, _ in t.referenced_attributes()}
        assert relations and relations <= set(graph.relations)
        service = repro.PredictionService(conn, graph)
        service.deploy(model)
        assert np.array_equal(service.score_sql(), service.score_all())
        fresh = repro.connect(backend=backend)
        _, fresh_graph = favorita(db=fresh, num_fact_rows=1500, seed=3)
        again = train_boosting_on_cuboid(
            fresh, fresh_graph,
            {"num_iterations": 3, "num_leaves": 4, "max_bin": 6},
        )
        assert repro.model_digest(again) == repro.model_digest(model)

    def test_cuboid_requires_rmse(self, small_star):
        db, graph = small_star
        with pytest.raises(TrainingError):
            train_boosting_on_cuboid(
                db, graph, {"objective": "l1", "num_iterations": 1}
            )

    def test_more_bins_better_fit(self, small_star):
        db, graph = small_star
        coarse = train_boosting_on_cuboid(
            db, graph, {"num_iterations": 8, "num_leaves": 6,
                        "learning_rate": 0.3, "max_bin": 2},
        )
        fine = train_boosting_on_cuboid(
            db, graph, {"num_iterations": 8, "num_leaves": 6,
                        "learning_rate": 0.3, "max_bin": 16},
        )
        assert rmse_on_join(db, graph, fine) <= rmse_on_join(db, graph, coarse)
