"""Join graph, hypertree and CPT clustering tests."""

import numpy as np
import pytest

import repro
from repro.datasets.synthetic import star_schema
from repro.engine.database import Database
from repro.exceptions import JoinGraphError
from repro.joingraph.clusters import cluster_graph, cluster_index
from repro.joingraph.graph import JoinGraph
from repro.joingraph.hypertree import (
    decompose_cycles,
    find_cycle,
    is_acyclic,
    rooted_tree,
)

from conftest import backend_matrix


@pytest.fixture
def chain_db():
    db = Database()
    db.create_table("a", {"k": [1, 2], "x": [1.0, 2.0], "yv": [5.0, 6.0]})
    db.create_table("b", {"k": [1, 2], "j": [1, 1], "w": [3.0, 4.0]})
    db.create_table("c", {"j": [1], "z": [9.0]})
    return db


def chain_graph(db):
    graph = JoinGraph(db)
    graph.add_relation("a", features=["x"], y="yv")
    graph.add_relation("b", features=["w"])
    graph.add_relation("c", features=["z"])
    graph.add_edge("a", "b", ["k"])
    graph.add_edge("b", "c", ["j"])
    return graph


class TestConstruction:
    def test_unknown_table(self, chain_db):
        with pytest.raises(JoinGraphError):
            JoinGraph(chain_db).add_relation("nope")

    def test_unknown_feature(self, chain_db):
        with pytest.raises(JoinGraphError):
            JoinGraph(chain_db).add_relation("a", features=["missing"])

    def test_duplicate_relation(self, chain_db):
        graph = JoinGraph(chain_db).add_relation("a")
        with pytest.raises(JoinGraphError):
            graph.add_relation("a")

    def test_edge_requires_relations(self, chain_db):
        graph = JoinGraph(chain_db).add_relation("a")
        with pytest.raises(JoinGraphError):
            graph.add_edge("a", "b", ["k"])

    def test_edge_key_must_exist(self, chain_db):
        graph = JoinGraph(chain_db).add_relation("a").add_relation("b")
        with pytest.raises(JoinGraphError):
            graph.add_edge("a", "b", ["missing"])

    def test_target_lookup(self, chain_db):
        graph = chain_graph(chain_db)
        assert graph.target_relation == "a"
        assert graph.target_column == "yv"

    def test_no_target_raises(self, chain_db):
        graph = JoinGraph(chain_db).add_relation("b")
        with pytest.raises(JoinGraphError):
            _ = graph.target_relation

    def test_feature_ownership(self, chain_db):
        graph = chain_graph(chain_db)
        assert graph.relation_for_feature("w") == "b"
        with pytest.raises(JoinGraphError):
            graph.relation_for_feature("unknown")

    def test_string_features_auto_categorical(self, chain_db):
        chain_db.create_table(
            "s", {"k": [1, 2], "color": np.array(["red", "blue"], dtype=object)}
        )
        graph = JoinGraph(chain_db).add_relation("s", features=["color"])
        assert graph.is_categorical("s", "color")

    def test_validate_disconnected(self, chain_db):
        graph = JoinGraph(chain_db)
        graph.add_relation("a", y="yv")
        graph.add_relation("c")
        with pytest.raises(JoinGraphError):
            graph.validate()

    def test_validate_parallel_edges(self, chain_db):
        graph = JoinGraph(chain_db)
        graph.add_relation("a", y="yv").add_relation("b")
        graph.add_edge("a", "b", ["k"])
        graph.add_edge("a", "b", ["k"])
        with pytest.raises(JoinGraphError):
            graph.validate()

    def test_infer_edges(self, chain_db):
        graph = JoinGraph(chain_db)
        graph.add_relation("a", y="yv").add_relation("b").add_relation("c")
        graph.infer_edges()
        pairs = {frozenset((e.left, e.right)) for e in graph.edges}
        assert frozenset(("a", "b")) in pairs
        assert frozenset(("b", "c")) in pairs


class TestAnalysis:
    def test_multiplicities(self, chain_db):
        graph = chain_graph(chain_db)
        graph.analyze()
        ab = next(e for e in graph.edges if {e.left, e.right} == {"a", "b"})
        assert ab.multiplicity == "1-1"
        bc = next(e for e in graph.edges if {e.left, e.right} == {"b", "c"})
        assert bc.multiplicity == "n-1"

    def test_fact_detection_star(self, small_star):
        db, graph = small_star
        assert graph.detect_fact_tables() == ["fact"]


class TestHypertree:
    def test_rooted_tree_order(self, chain_db):
        graph = chain_graph(chain_db)
        parent, children, order = rooted_tree(graph, "a")
        assert parent["a"] is None and parent["c"] == "b"
        assert order[-1] == "a"  # root last (messages flow leaf -> root)

    def test_unknown_root(self, chain_db):
        with pytest.raises(JoinGraphError):
            rooted_tree(chain_graph(chain_db), "zzz")

    def test_acyclic(self, chain_db):
        assert is_acyclic(chain_graph(chain_db))

    def test_cycle_detection_and_decomposition(self):
        db = Database()
        db.create_table("r", {"a": [1], "b": [1], "yv": [1.0]})
        db.create_table("s", {"b": [1], "cx": [1]})
        db.create_table("t", {"cx": [1], "a": [1]})
        graph = JoinGraph(db)
        graph.add_relation("r", y="yv")
        graph.add_relation("s")
        graph.add_relation("t")
        graph.add_edge("r", "s", ["b"])
        graph.add_edge("s", "t", ["cx"])
        graph.add_edge("t", "r", ["a"])
        assert not is_acyclic(graph)
        assert find_cycle(graph) is not None
        decomposed = decompose_cycles(graph)
        assert is_acyclic(decomposed)
        # the cycle collapsed into one merged relation holding the target
        assert decomposed.target_relation.startswith("jb_tmp_hyper")


class TestClusters:
    def test_imdb_clusters(self, small_imdb):
        db, graph = small_imdb
        clusters = cluster_graph(graph)
        by_fact = {c.fact: set(c.members) for c in clusters}
        assert by_fact["cast_info"] == {"cast_info", "movie", "person"}
        assert by_fact["movie_comp"] == {"movie_comp", "comp", "movie"}
        assert by_fact["person_info"] == {"person_info", "person"}
        # movie is shared by four clusters
        index = cluster_index(clusters)
        assert len(index["movie"]) == 4

    def test_snowflake_single_cluster(self, small_star):
        db, graph = small_star
        clusters = cluster_graph(graph)
        assert len(clusters) == 1
        assert set(clusters[0].members) == set(graph.relations)

    def test_explicit_facts(self, small_imdb):
        db, graph = small_imdb
        facts = ["cast_info", "movie_comp", "movie_info", "movie_key",
                 "person_info"]
        clusters = cluster_graph(graph, fact_tables=facts)
        assert [c.fact for c in clusters] == facts

    def test_missing_coverage_raises(self, small_imdb):
        db, graph = small_imdb
        with pytest.raises(JoinGraphError):
            cluster_graph(graph, fact_tables=["person_info"])

    @pytest.mark.parametrize("backend", backend_matrix("embedded", "sqlite"))
    def test_duplicate_dimension_key_names_the_edge(self, backend):
        """One duplicated dimension row makes the fact's edge to it m-n:
        the refusal names that edge, its keys and its multiplicity."""
        db, graph = star_schema(
            repro.connect(backend=backend), num_fact_rows=200, num_dims=2,
            dim_size=10, seed=4,
        )
        dim = db.execute("SELECT * FROM dim0").to_dict()
        db.drop_table("dim0")
        db.create_table("dim0", {k: np.append(v, v[3]) for k, v in dim.items()})
        with pytest.raises(JoinGraphError) as excinfo:
            repro.train_gradient_boosting(
                db, graph, {"num_iterations": 2, "num_leaves": 4}
            )
        message = str(excinfo.value)
        assert "outside every CPT cluster: ['dim0']" in message
        assert "fact(k0) -> dim0(k0) is m-n (dim0's keys are not unique)" in (
            message
        )
        assert "dim1" not in message
