"""Factorizer tests: messages, caching, absorption — and the central
property that factorized aggregates equal aggregates over the
materialized join, on randomized schemas."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.database import Database
from repro.factorize.executor import Factorizer
from repro.factorize.predicates import Predicate
from repro.joingraph.graph import JoinGraph
from repro.semiring.variance import VarianceSemiRing


class TestPaperExample:
    """Figure 1 numbers, verbatim."""

    def test_totals(self, paper_example_db, paper_example_graph):
        factorizer = Factorizer(
            paper_example_db, paper_example_graph, VarianceSemiRing(include_q=True)
        )
        factorizer.lift()
        totals = factorizer.totals()
        assert (totals["c"], totals["s"], totals["q"]) == (8, 16, 36)
        # variance = Q - S²/C = 36 - 256/8 = 4
        assert totals["q"] - totals["s"] ** 2 / totals["c"] == pytest.approx(4.0)

    def test_group_by_d(self, paper_example_db, paper_example_graph):
        factorizer = Factorizer(
            paper_example_db, paper_example_graph, VarianceSemiRing(include_q=True)
        )
        factorizer.lift()
        result = factorizer.absorb("t", ["d"])
        rows = {
            int(d): (c, s, q)
            for d, c, s, q in zip(result["d"], result["c"], result["s"], result["q"])
        }
        assert rows[1] == (2, 5, 13)   # Figure 1c/1d
        assert rows[2] == (6, 11, 23)

    def test_group_by_c(self, paper_example_db, paper_example_graph):
        factorizer = Factorizer(
            paper_example_db, paper_example_graph, VarianceSemiRing(include_q=True)
        )
        factorizer.lift()
        result = factorizer.absorb("s", ["cc"])
        rows = {
            int(v): (c, s) for v, c, s in zip(result["cc"], result["c"], result["s"])
        }
        assert rows[2] == (4, 10)
        assert rows[1] == (2, 3)
        assert rows[3] == (2, 3)


class TestMessageSharing:
    def test_cache_hits_across_roots(self, paper_example_db, paper_example_graph):
        """Example 3: aggregating by C then by D reuses m_{R->S}."""
        factorizer = Factorizer(
            paper_example_db, paper_example_graph, VarianceSemiRing()
        )
        factorizer.lift()
        factorizer.absorb("s", ["cc"])
        misses_after_first = factorizer.cache.misses
        factorizer.absorb("t", ["d"])
        assert factorizer.cache.hits >= 1
        # Only the new direction was materialized.
        assert factorizer.cache.misses > misses_after_first

    def test_predicate_changes_invalidate_only_affected_side(
        self, paper_example_db, paper_example_graph
    ):
        factorizer = Factorizer(
            paper_example_db, paper_example_graph, VarianceSemiRing()
        )
        factorizer.lift()
        factorizer.absorb("t", ["d"])
        executions = factorizer.message_executions
        # Predicate on T: the R->S message (T not on its side) is reused.
        factorizer.absorb(
            "t", ["d"], predicates={"t": (Predicate("d", ">", 1),)}
        )
        assert factorizer.message_executions == executions  # all sides cached

    def test_invalidate_for_relation(self, paper_example_db, paper_example_graph):
        factorizer = Factorizer(
            paper_example_db, paper_example_graph, VarianceSemiRing()
        )
        factorizer.lift()
        factorizer.absorb("t", ["d"])
        dropped = factorizer.invalidate_for_relation("r")
        assert dropped >= 1

    def test_cleanup_drops_temporaries(self, paper_example_db, paper_example_graph):
        factorizer = Factorizer(
            paper_example_db, paper_example_graph, VarianceSemiRing()
        )
        factorizer.lift()
        factorizer.absorb("t", ["d"])
        factorizer.cleanup()
        assert paper_example_db.catalog.temp_names() == []


class TestIdentityMessages:
    def test_unfiltered_unique_dimension_message_dropped(self, small_star):
        db, graph = small_star
        factorizer = Factorizer(db, graph, VarianceSemiRing())
        factorizer.lift()
        info = factorizer.message("dim0", "fact", {})
        assert info is None  # identity message (Appendix D)

    def test_filtered_dimension_message_materializes(self, small_star):
        db, graph = small_star
        factorizer = Factorizer(db, graph, VarianceSemiRing())
        factorizer.lift()
        info = factorizer.message(
            "dim0", "fact", {"dim0": (Predicate("dfeat0", ">", 0),)}
        )
        assert info is not None and info.kind == "count"

    def test_without_ri_assumption_messages_materialize(self, small_star):
        db, graph = small_star
        factorizer = Factorizer(db, graph, VarianceSemiRing(), assume_ri=False)
        factorizer.lift()
        assert factorizer.message("dim0", "fact", {}) is not None


# ---------------------------------------------------------------------------
# Property: factorized == materialized over random star schemas
# ---------------------------------------------------------------------------
@st.composite
def random_star(draw):
    seed = draw(st.integers(0, 10_000))
    num_dims = draw(st.integers(1, 3))
    n = draw(st.integers(5, 60))
    dim_size = draw(st.integers(2, 8))
    return seed, num_dims, n, dim_size


@given(random_star())
@settings(max_examples=25, deadline=None)
def test_factorized_equals_materialized(config):
    seed, num_dims, n, dim_size = config
    rng = np.random.default_rng(seed)
    db = Database()
    fact = {"yv": rng.normal(size=n)}
    for j in range(num_dims):
        fact[f"k{j}"] = rng.integers(0, dim_size, n)
    db.create_table("fact", fact)
    graph = JoinGraph(db)
    graph.add_relation("fact", y="yv")
    join_parts = []
    for j in range(num_dims):
        db.create_table(
            f"dim{j}",
            {f"k{j}": np.arange(dim_size), f"a{j}": rng.integers(0, 3, dim_size)},
        )
        graph.add_relation(f"dim{j}", features=[f"a{j}"])
        graph.add_edge("fact", f"dim{j}", [f"k{j}"])
        join_parts.append(f"JOIN dim{j} ON fact.k{j} = dim{j}.k{j}")

    factorizer = Factorizer(db, graph, VarianceSemiRing(include_q=True))
    factorizer.lift()

    # Totals.
    totals = factorizer.totals()
    reference = db.execute(
        "SELECT COUNT(*) AS c, SUM(yv) AS s, SUM(yv * yv) AS q "
        f"FROM fact {' '.join(join_parts)}"
    ).first_row()
    assert totals["c"] == pytest.approx(float(reference["c"]))
    assert totals["s"] == pytest.approx(float(reference["s"] or 0.0), abs=1e-8)
    assert totals["q"] == pytest.approx(float(reference["q"] or 0.0), abs=1e-8)

    # Group-by each dimension attribute.
    for j in range(num_dims):
        factorized = factorizer.absorb(f"dim{j}", [f"a{j}"])
        reference = db.execute(
            f"SELECT a{j} AS g, COUNT(*) AS c, SUM(yv) AS s "
            f"FROM fact {' '.join(join_parts)} GROUP BY a{j} ORDER BY a{j}"
        )
        got = {
            int(g): (c, s)
            for g, c, s in zip(factorized[f"a{j}"], factorized["c"], factorized["s"])
        }
        for g, c, s in zip(reference["g"], reference["c"], reference["s"]):
            assert got[int(g)][0] == pytest.approx(float(c))
            assert got[int(g)][1] == pytest.approx(float(s), abs=1e-8)


def test_factorized_with_predicates_equals_materialized(small_star):
    db, graph = small_star
    factorizer = Factorizer(db, graph, VarianceSemiRing())
    factorizer.lift()
    predicates = {
        "dim0": (Predicate("dfeat0", ">", 0),),
        "fact": (Predicate("local_feat", "<=", 50),),
    }
    totals = factorizer.totals(predicates)
    reference = db.execute(
        "SELECT COUNT(*) AS c, SUM(target) AS s FROM fact "
        "JOIN dim0 ON fact.k0 = dim0.k0 "
        "JOIN dim1 ON fact.k1 = dim1.k1 "
        "JOIN dim2 ON fact.k2 = dim2.k2 "
        "WHERE dfeat0 > 0 AND local_feat <= 50"
    ).first_row()
    assert totals["c"] == pytest.approx(float(reference["c"]))
    assert totals["s"] == pytest.approx(float(reference["s"]), rel=1e-9)


def test_chain_graph_matches_materialized(paper_example_db, paper_example_graph):
    """Chain topology R - S - T with group-by at the far end."""
    factorizer = Factorizer(
        paper_example_db, paper_example_graph, VarianceSemiRing()
    )
    factorizer.lift()
    result = factorizer.absorb("t", ["d"])
    reference = paper_example_db.execute(
        "SELECT d, COUNT(*) AS c, SUM(b) AS s FROM r "
        "JOIN s ON r.a = s.a JOIN t ON s.a = t.a GROUP BY d ORDER BY d"
    )
    got = dict(zip(result["d"], zip(result["c"], result["s"])))
    for d, c, s in zip(reference["d"], reference["c"], reference["s"]):
        assert got[d][0] == pytest.approx(float(c))
        assert got[d][1] == pytest.approx(float(s))
