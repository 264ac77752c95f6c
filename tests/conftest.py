"""Shared fixtures: small databases, join graphs, the backend matrix."""

import importlib.util
import os

import numpy as np
import pytest

import repro
from repro.core.predict import feature_frame
from repro.engine.database import Database
from repro.datasets import favorita, imdb, star_schema

#: is the optional duckdb package importable on this host?
DUCKDB_INSTALLED = importlib.util.find_spec("duckdb") is not None

#: an extra backend column forced into every parametrized matrix — the
#: CI backend-duckdb leg sets JOINBOOST_BACKEND=duckdb so parity suites
#: fail loudly (not skip) if the forced backend is broken or missing
FORCED_BACKEND = os.environ.get("JOINBOOST_BACKEND", "").strip().lower()

#: mark for duckdb runs of a backend suite (a matrix column or a contract
#: class): a clean skip when the package is absent, unless
#: ``JOINBOOST_BACKEND=duckdb`` forces it, where a missing package fails
duckdb_column = pytest.mark.skipif(
    not DUCKDB_INSTALLED and FORCED_BACKEND != "duckdb",
    reason="optional 'duckdb' package not installed",
)


def backend_matrix(*base):
    """Backend ids for connector-parity parametrization.

    The given base names run unconditionally; a ``duckdb`` column rides
    along, skipping cleanly when the optional package is absent —
    unless ``JOINBOOST_BACKEND=duckdb`` forces it (the CI leg), in
    which case a missing package is a hard failure.
    """
    params = [pytest.param(name) for name in base]
    if "duckdb" not in base:
        params.append(pytest.param("duckdb", marks=duckdb_column))
    if FORCED_BACKEND and FORCED_BACKEND not in base + ("duckdb",):
        params.append(pytest.param(FORCED_BACKEND))
    return params


def reference_join(left, right, how="inner"):
    """A per-row nested-loop equi-join: the oracle for ``join_indices``.

    ``left`` and ``right`` are lists of key arrays (one per key column).
    A key tuple holding a NULL (``None`` or NaN) matches nothing.
    Returns the sorted ``(left, right)`` position pairs, ``-1`` for the
    padded side of an outer join's unmatched row.
    """
    def rows(keys):
        return list(zip(*[np.asarray(k).tolist() for k in keys]))

    def null(value):
        return value is None or (isinstance(value, float) and value != value)

    lrows, rrows = rows(left), rows(right)
    pairs = [
        (i, j)
        for i, lk in enumerate(lrows)
        for j, rk in enumerate(rrows)
        if not any(map(null, lk)) and not any(map(null, rk)) and lk == rk
    ]
    matched_left = {i for i, _ in pairs}
    matched_right = {j for _, j in pairs}
    if how in ("left", "full"):
        pairs += [(i, -1) for i in range(len(lrows)) if i not in matched_left]
    if how == "full":
        pairs += [(-1, j) for j in range(len(rrows)) if j not in matched_right]
    return sorted(pairs)


def join_pairs(indices):
    """``join_indices`` output as the sorted pair list of
    :func:`reference_join`."""
    left_idx, right_idx = indices
    return sorted(zip(left_idx.tolist(), right_idx.tolist()))


@pytest.fixture
def db():
    return Database()


@pytest.fixture
def paper_example_db():
    """The paper's Figure 1 relations R, S, T (target B on R)."""
    database = Database()
    database.create_table("r", {"a": [1, 1, 2, 2], "b": [2.0, 3.0, 1.0, 2.0]})
    database.create_table("s", {"a": [1, 2, 2], "cc": [2, 1, 3]})
    database.create_table("t", {"a": [1, 1, 2], "d": [1, 2, 2]})
    return database


@pytest.fixture
def paper_example_graph(paper_example_db):
    from repro.joingraph.graph import JoinGraph

    graph = JoinGraph(paper_example_db)
    graph.add_relation("r", y="b")
    graph.add_relation("s", features=["cc"])
    graph.add_relation("t", features=["d"])
    graph.add_edge("r", "s", ["a"])
    graph.add_edge("s", "t", ["a"])
    return graph


@pytest.fixture
def small_star():
    """A 3-dimension star schema with 2000 fact rows."""
    return star_schema(num_fact_rows=2000, num_dims=3, seed=1)


@pytest.fixture
def tiny_star():
    return star_schema(num_fact_rows=300, num_dims=2, dim_size=10, seed=4)


@pytest.fixture
def small_favorita():
    return favorita(num_fact_rows=5_000, num_extra_features=2, seed=5)


@pytest.fixture
def small_imdb():
    return imdb(rows_per_fact=1_500, num_movies=80, num_persons=120, seed=6)


def frontier_trainer(db, graph, factorizer, criterion, params, **kwargs):
    """A single-node tree trainer: FrontierEvaluator split search."""
    from repro.core.frontier import FrontierEvaluator
    from repro.core.trainer import DecisionTreeTrainer

    evaluator = FrontierEvaluator(db, graph, factorizer, criterion, params)
    return DecisionTreeTrainer(graph, criterion, params, evaluator, **kwargs)


def materialized_frame(db, graph):
    """Feature matrix + y of the materialized join (test helper)."""
    from repro.baselines.export import load_feature_matrix

    return load_feature_matrix(db, graph)


#: tolerance of batched growth against ``split_batching="off"``: a child
#: derived by sibling subtraction carries float differences of its
#: parent's and sibling's sums, so its values differ in the last bits
SIBLING_RTOL = 1e-12

#: aggregate components that are exact row counts under every criterion
#: that derives children (variance/class ``c``, constant-hessian ``h``)
COUNT_COMPONENTS = ("c", "h")


def _paired_nodes(auto, off):
    """Walk two serialized trees together, asserting identical shape:
    node ids, depths, relations, predicates and row counts."""
    assert auto["node_id"] == off["node_id"]
    assert auto["depth"] == off["depth"]
    assert auto.get("relation") == off.get("relation"), auto["node_id"]
    assert auto.get("predicate") == off.get("predicate"), auto["node_id"]
    assert set(auto["aggregates"]) == set(off["aggregates"])
    for name in COUNT_COMPONENTS:
        assert auto["aggregates"].get(name) == off["aggregates"].get(name)
    assert ("left" in auto) == ("left" in off), auto["node_id"]
    yield auto, off
    if "left" in auto:
        yield from _paired_nodes(auto["left"], off["left"])
        yield from _paired_nodes(auto["right"], off["right"])


def same_partition_tie(auto_trees, off_trees):
    """The first split, in tree then pre-order, where two growths part,
    as ``(node id, auto predicate, off predicate)`` of the differing
    child; None when every split agrees.  Asserts that the parting is an
    exact gain tie between two predicates with one partition of the
    parent's rows: equal gains and the same child row counts."""
    def fork(auto, off):
        if "left" not in auto and "left" not in off:
            return None
        if "left" not in auto or "left" not in off or (
            auto["left"].get("predicate") != off["left"].get("predicate")
        ):
            return auto, off
        return fork(auto["left"], off["left"]) or fork(
            auto["right"], off["right"]
        )

    def child_counts(node):
        count = next(c for c in COUNT_COMPONENTS if c in node["aggregates"])
        return sorted(node[side]["aggregates"][count]
                      for side in ("left", "right"))

    for auto, off in zip(auto_trees, off_trees):
        found = fork(auto["tree"], off["tree"])
        if found is not None:
            auto, off = found
            assert_close([auto["gain"]], [off["gain"]])
            assert child_counts(auto) == child_counts(off)
            return (auto["left"]["node_id"], auto["left"]["predicate"],
                    off["left"]["predicate"])
    return None


def assert_close(auto, off, rtol=SIBLING_RTOL):
    """``auto`` equals ``off`` to ``rtol`` of each value, with an absolute
    floor of ``rtol`` times the largest magnitude (a value that cancels to
    ~0 keeps the error of the terms it cancelled)."""
    auto = np.asarray(auto, dtype=np.float64)
    off = np.asarray(off, dtype=np.float64)
    floor = rtol * float(np.abs(off).max()) if off.size else 0.0
    np.testing.assert_allclose(auto, off, rtol=rtol, atol=floor)


def assert_sibling_parity(auto_trees, off_trees):
    """Batched trees (``to_dict()`` form) grow the per-leaf reference's
    trees split for split: identical structure, predicates and row
    counts, and sums, gains and leaf values within :data:`SIBLING_RTOL`."""
    assert len(auto_trees) == len(off_trees)
    for auto, off in zip(auto_trees, off_trees):
        assert auto["features"] == off["features"]
        pairs = list(_paired_nodes(auto["tree"], off["tree"]))
        for field in ("prediction", "gain"):
            assert_close([a[field] for a, _ in pairs],
                         [o[field] for _, o in pairs])
        for name in pairs[0][1]["aggregates"]:
            assert_close([a["aggregates"][name] for a, _ in pairs],
                         [o["aggregates"][name] for _, o in pairs])


def assert_score_parity(auto, off, db, graph):
    """Two models score the training frame of ``db`` alike: predictions
    within :data:`SIBLING_RTOL` of the largest score, rmse within
    :data:`SIBLING_RTOL` relative."""
    frame = feature_frame(db, graph)
    got, want = auto.predict_arrays(frame), off.predict_arrays(frame)
    assert np.abs(got - want).max() <= SIBLING_RTOL * np.abs(want).max()
    rmse_auto = repro.rmse_on_join(db, graph, auto)
    rmse_off = repro.rmse_on_join(db, graph, off)
    assert abs(rmse_auto - rmse_off) <= SIBLING_RTOL * abs(rmse_off)
