"""Batched frontier evaluation: parity, census, and fallbacks.

The load-bearing claim (ISSUE 2 acceptance): batched mode — one fused
split query per relation per frontier round — grows *identical* trees to
the per-leaf path (and identical rmse to 1e-9) on both the embedded and
sqlite backends, across growth policies, categorical features and
missing-value routing, while issuing at most ``relations x rounds`` split
queries instead of ``nodes x features``.
"""

import numpy as np
import pytest

import repro
from repro.backends import SQLiteConnector
from repro.core.params import TrainParams
from repro.core.split import VarianceCriterion
from repro.core.trainer import DecisionTreeTrainer
from repro.datasets import favorita, star_schema
from repro.engine.database import Database
from repro.exceptions import TrainingError
from repro.factorize.executor import Factorizer
from repro.joingraph.graph import JoinGraph
from repro.semiring.variance import VarianceSemiRing


def mixed_schema(db):
    """Star schema with a string categorical, numeric nulls, and a local
    fact feature — the awkward-path sampler for parity tests."""
    rng = np.random.default_rng(3)
    n = 1200
    k = rng.integers(0, 40, n)
    color_codes = rng.integers(0, 4, 40)
    colors = np.array(["red", "green", "blue", "teal"], dtype=object)[color_codes]
    dnum = rng.normal(size=40) * 5
    dnum[rng.random(40) < 0.15] = np.nan
    local = rng.integers(0, 50, n).astype(np.float64)
    y = (
        np.where(np.isin(color_codes, [0, 2]), 8.0, -8.0)[k]
        + np.nan_to_num(dnum)[k]
        + 0.1 * local
        + rng.normal(0, 0.2, n)
    )
    db.create_table("fact", {"k": k, "local": local, "yv": y})
    db.create_table("dim", {"k": np.arange(40), "color": colors, "dnum": dnum})
    graph = JoinGraph(db)
    graph.add_relation("fact", features=["local"], y="yv", is_fact=True)
    graph.add_relation("dim", features=["color", "dnum"], categorical=["color"])
    graph.add_edge("fact", "dim", ["k"])
    return db, graph


def trees_of(model):
    return [tree.to_dict() for tree in model.trees]


class TestParity:
    @pytest.mark.parametrize("growth", ["best-first", "depth-wise"])
    @pytest.mark.parametrize("missing", ["right", "both"])
    def test_embedded_parity_mixed_features(self, growth, missing):
        grown = {}
        for mode in ("auto", "off"):
            db, graph = mixed_schema(Database())
            model = repro.train_gradient_boosting(
                db, graph,
                {"num_iterations": 2, "num_leaves": 8, "min_data_in_leaf": 2,
                 "growth": growth, "missing": missing,
                 "split_batching": mode},
            )
            grown[mode] = (trees_of(model), repro.rmse_on_join(db, graph, model))
        assert grown["auto"][0] == grown["off"][0]
        assert grown["auto"][1] == pytest.approx(grown["off"][1], abs=1e-9)

    @pytest.mark.parametrize("growth", ["best-first", "depth-wise"])
    def test_sqlite_parity_mixed_features(self, growth):
        grown = {}
        for mode in ("auto", "off"):
            db, graph = mixed_schema(SQLiteConnector())
            model = repro.train_gradient_boosting(
                db, graph,
                {"num_iterations": 2, "num_leaves": 6, "min_data_in_leaf": 2,
                 "growth": growth, "missing": "both",
                 "split_batching": mode},
            )
            grown[mode] = (trees_of(model), repro.rmse_on_join(db, graph, model))
        assert grown["auto"][0] == grown["off"][0]
        assert grown["auto"][1] == pytest.approx(grown["off"][1], abs=1e-9)

    def test_cross_backend_parity_batched(self):
        """Batched embedded == batched sqlite, tree for tree."""
        grown = {}
        for name, maker in (("embedded", Database), ("sqlite", SQLiteConnector)):
            db, graph = mixed_schema(maker())
            model = repro.train_gradient_boosting(
                db, graph,
                {"num_iterations": 2, "num_leaves": 6, "min_data_in_leaf": 2},
            )
            grown[name] = trees_of(model)
        assert grown["embedded"] == grown["sqlite"]

    def test_snowflake_chain_parity(self):
        """Favorita's oil relation sits two hops from the fact: the leaf
        label must be carried through the intermediate dates relation."""
        grown = {}
        for mode in ("auto", "off"):
            db, graph = favorita(
                num_fact_rows=3000, num_extra_features=2, seed=5
            )
            model = repro.train_gradient_boosting(
                db, graph,
                {"num_iterations": 2, "num_leaves": 6, "min_data_in_leaf": 3,
                 "split_batching": mode},
            )
            grown[mode] = trees_of(model)
        assert grown["auto"] == grown["off"]

    def test_single_tree_parity(self, small_star):
        db, graph = small_star
        on = repro.train_decision_tree(
            db, graph, {"num_leaves": 8, "min_data_in_leaf": 3}
        )
        off = repro.train_decision_tree(
            db, graph,
            {"num_leaves": 8, "min_data_in_leaf": 3, "split_batching": "off"},
        )
        assert on.to_dict() == off.to_dict()


class TestCensus:
    def test_batched_query_budget(self):
        """Batched mode issues <= relations x rounds fused split queries;
        per-leaf mode issues nodes x features.  (Pinned to rebuild labels:
        the "frontier" profile tag counts per-round label rebuilds, which
        incremental mode exists to eliminate — see
        tests/test_frontier_incremental.py for that mode's census.)"""
        db, graph = favorita(num_fact_rows=3000, num_extra_features=2, seed=5)
        db.reset_profiles()
        repro.train_gradient_boosting(
            db, graph,
            {"num_iterations": 1, "num_leaves": 6, "min_data_in_leaf": 3,
             "frontier_state": "rebuild"},
        )
        counts = {
            tag: len(profiles)
            for tag, profiles in db.profiles_by_tag().items()
        }
        rounds = counts.get("frontier", 0)
        feature_relations = {rel for rel, _ in graph.all_features()}
        assert 0 < rounds <= 6
        assert counts["feature"] <= len(feature_relations) * rounds

        db.reset_profiles()
        repro.train_gradient_boosting(
            db, graph,
            {"num_iterations": 1, "num_leaves": 6, "min_data_in_leaf": 3,
             "split_batching": "off"},
        )
        off_counts = {
            tag: len(profiles)
            for tag, profiles in db.profiles_by_tag().items()
        }
        assert off_counts["feature"] > counts["feature"]
        assert "frontier" not in off_counts

    def test_evaluator_census_surface(self, tiny_star):
        db, graph = tiny_star
        factorizer = Factorizer(db, graph, VarianceSemiRing())
        factorizer.lift()
        trainer = DecisionTreeTrainer(
            db, graph, factorizer, VarianceCriterion(),
            TrainParams.from_dict({"num_leaves": 4}),
        )
        trainer.train()
        census = trainer.evaluator.census()
        assert census["mode"] == "auto"
        assert census["frontier_state"] == "incremental"
        assert census["batched_rounds"] == census["rounds"] > 0
        assert census["incremental_rounds"] == census["batched_rounds"]
        assert census["batched_split_queries"] > 0
        assert census["per_leaf_split_queries"] == 0
        # Incremental labeling: one root pass, zero full-fact rebuilds,
        # two narrow updates per committed split (at most 4 - 1 splits).
        assert census["label_queries"] == 0
        assert census["root_label_passes"] == 1
        assert census["delta_label_updates"] % 2 == 0
        assert 0 < census["delta_label_updates"] <= 2 * (4 - 1)
        factorizer.cleanup()

    def test_rebuild_census_surface(self, tiny_star):
        db, graph = tiny_star
        factorizer = Factorizer(db, graph, VarianceSemiRing())
        factorizer.lift()
        trainer = DecisionTreeTrainer(
            db, graph, factorizer, VarianceCriterion(),
            TrainParams.from_dict(
                {"num_leaves": 4, "frontier_state": "rebuild"}
            ),
        )
        trainer.train()
        census = trainer.evaluator.census()
        assert census["frontier_state"] == "rebuild"
        assert census["batched_rounds"] == census["rounds"] > 0
        assert census["incremental_rounds"] == 0
        assert census["label_queries"] == census["batched_rounds"]
        assert census["root_label_passes"] == 0
        factorizer.cleanup()


class TestModesAndFallbacks:
    def test_off_mode_never_labels(self, tiny_star):
        db, graph = tiny_star
        db.reset_profiles()
        repro.train_decision_tree(
            db, graph, {"num_leaves": 4, "split_batching": "off"}
        )
        assert "frontier" not in db.profiles_by_tag()

    def test_galaxy_schema_falls_back(self, small_imdb):
        """CPT/galaxy trees are per-leaf (fact is not 1-1 with the join);
        auto mode must fall back without error."""
        db, graph = small_imdb
        db.reset_profiles()
        repro.train_gradient_boosting(
            db, graph, {"num_iterations": 1, "num_leaves": 4,
                        "min_data_in_leaf": 3},
        )
        assert "frontier" not in db.profiles_by_tag()

    def _composite_key_schema(self):
        db = Database()
        rng = np.random.default_rng(1)
        n = 400
        k1, k2 = rng.integers(0, 4, n), rng.integers(0, 5, n)
        db.create_table(
            "fact", {"k1": k1, "k2": k2, "yv": rng.normal(size=n)}
        )
        pairs = np.array([(a, b) for a in range(4) for b in range(5)])
        db.create_table(
            "dim",
            {"k1": pairs[:, 0], "k2": pairs[:, 1],
             "f": rng.normal(size=len(pairs))},
        )
        graph = JoinGraph(db)
        graph.add_relation("fact", y="yv", is_fact=True)
        graph.add_relation("dim", features=["f"])
        graph.add_edge("fact", "dim", ["k1", "k2"])
        return db, graph

    def test_composite_keys_fall_back_per_leaf(self):
        """Multi-column join keys defeat the semi-join rewrite: auto mode
        must fall back (recording the real reason), 'on' must raise it."""
        db, graph = self._composite_key_schema()
        model = repro.train_decision_tree(db, graph, {"num_leaves": 4})
        assert model.num_leaves > 1  # trained fine, per-leaf
        db2, graph2 = self._composite_key_schema()
        with pytest.raises(TrainingError, match="single-column"):
            repro.train_decision_tree(
                db2, graph2, {"num_leaves": 4, "split_batching": "on"}
            )

    def test_on_mode_raises_for_galaxy(self, small_imdb):
        db, graph = small_imdb
        with pytest.raises(TrainingError, match="batching"):
            repro.train_gradient_boosting(
                db, graph, {"num_iterations": 1, "num_leaves": 4,
                            "min_data_in_leaf": 3, "split_batching": "on"},
            )

    def test_on_mode_works_for_snowflake(self, tiny_star):
        db, graph = tiny_star
        on = repro.train_decision_tree(
            db, graph, {"num_leaves": 4, "split_batching": "on"}
        )
        off = repro.train_decision_tree(
            db, graph, {"num_leaves": 4, "split_batching": "off"}
        )
        assert on.to_dict() == off.to_dict()

    def test_unknown_mode_rejected(self):
        with pytest.raises(TrainingError, match="split_batching"):
            TrainParams.from_dict({"split_batching": "maybe"})

    def test_alias_accepted(self):
        """Only LightGBM-style aliases are accepted; the repo-invented
        ``batch_splits`` / ``frontier_batching`` spellings are gone."""
        params = TrainParams.from_dict({"split_batching": "off"})
        assert params.split_batching == "off"
        for alias in ("batch_splits", "frontier_batching"):
            with pytest.raises(TrainingError, match="unknown training parameter"):
                TrainParams.from_dict({alias: "off"})


class TestSatelliteFixes:
    def test_empty_components_weight_raises(self):
        from repro.core.split import Criterion

        class Broken(Criterion):
            components = ()

        with pytest.raises(TrainingError, match="no aggregate components"):
            Broken().weight({"c": 1.0})

    def test_cluster_error_lists_known_clusters(self, tiny_star):
        from repro.joingraph.clusters import Cluster

        db, graph = tiny_star
        factorizer = Factorizer(db, graph, VarianceSemiRing())
        factorizer.lift()
        clusters = [Cluster(fact="dim0", members=["dim0"])]
        trainer = DecisionTreeTrainer(
            db, graph, factorizer, VarianceCriterion(),
            TrainParams.from_dict({"num_leaves": 4}), clusters=clusters,
        )
        with pytest.raises(TrainingError) as excinfo:
            trainer._restrict_to_cluster("fact", graph.all_features())
        assert "known clusters" in str(excinfo.value)
        assert "dim0" in str(excinfo.value)
        factorizer.cleanup()


class TestMultiAbsorption:
    def test_carry_through_intermediate_relation(self):
        """jb_leaf-style carry columns propagate across a two-hop chain."""
        db = Database()
        rng = np.random.default_rng(0)
        n = 200
        mid_keys = rng.integers(0, 10, n)
        db.create_table(
            "fact",
            {"mk": mid_keys, "yv": rng.normal(size=n),
             "tag_col": (mid_keys % 2).astype(np.int64)},
        )
        db.create_table(
            "mid", {"mk": np.arange(10), "fk": np.arange(10) % 3}
        )
        db.create_table("far", {"fk": np.arange(3), "f": np.arange(3) * 1.0})
        graph = JoinGraph(db)
        graph.add_relation("fact", y="yv", is_fact=True)
        graph.add_relation("mid")
        graph.add_relation("far", features=["f"])
        graph.add_edge("fact", "mid", ["mk"])
        graph.add_edge("mid", "far", ["fk"])
        ring = VarianceSemiRing()
        factorizer = Factorizer(db, graph, ring)
        factorizer.lift()
        # Pretend the lifted fact carries a label column already.
        lifted = factorizer.lifted["fact"]
        absorption = factorizer.multi_absorption(
            "far", carry={"fact": ("tag_col",)},
            table_override={"fact": lifted},
        )
        ref = absorption.ref("fact", "tag_col")
        assert ref.endswith(".tag_col") and not ref.startswith("t.")
        agg = ", ".join(
            f"{expr} AS {comp}" for comp, expr in absorption.agg_selects
        )
        result = db.execute(
            f"SELECT {ref} AS tag_col, t.f AS f, {agg} "
            f"{absorption.from_sql} GROUP BY {ref}, t.f"
        )
        # Every (tag, far-feature) combination is aggregated in one pass.
        assert result.num_rows == 6
        total = sum(
            row[result.names.index("c")] for row in (tuple(r) for r in result.rows())
        )
        assert total == n
        for temp in absorption.temp_tables:
            db.drop_table(temp, if_exists=True)
        assert absorption.temp_tables  # carry messages were materialized
        factorizer.cleanup()
