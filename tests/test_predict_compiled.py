"""Differential parity for the compiled prediction paths.

Every model class scores three ways — recursive node-walk
(``predict_arrays``, the reference), the flat-numpy compiled kernel
(:mod:`repro.core.compile`), and the SQL ``CASE WHEN`` export
(:mod:`repro.core.sql_score`) — and the contract is *bit-identity*:
``np.array_equal``, not ``allclose``.  The sweep covers every model
class x {embedded, sqlite} x {categorical splits, missing='both' NULL
routing, multiclass}, plus a seeded RNG sweep and the request-sized
subset path the serving cache exercises.  Hand-built ensembles (wide
trees, every predicate shape, NaN and +-inf values) pin both kernel
regimes at the row crossover.
"""

import numpy as np
import pytest

import repro
from repro.core.boosting import GradientBoostingModel, MulticlassBoostingModel
from repro.core.compile import (
    _BITMASK_MIN_ROWS,
    CompiledTreeBank,
    compile_model,
    compiled_node_count,
    predict_compiled,
)
from repro.core.forest import RandomForestModel
from repro.core.predict import feature_frame
from repro.core.sql_score import score_by_key, sql_scores
from repro.core.tree import DecisionTreeModel, TreeNode
from repro.factorize.predicates import Predicate
from repro.semiring.losses import L2Loss, SoftmaxLoss

from conftest import backend_matrix

BACKENDS = backend_matrix("embedded", "sqlite")


def _star(conn, n=500, seed=7, classify=False):
    """Star schema with a categorical dim feature, a NaN-bearing numeric
    dim feature, and a local fact feature — the full split-type mix."""
    rng = np.random.default_rng(seed)
    k1 = rng.integers(0, 24, n)
    k2 = rng.integers(0, 16, n)
    local = rng.normal(size=n) * 2.0

    colors = np.array(["red", "green", "blue", "teal"], dtype=object)
    color_codes = rng.integers(0, 4, 24)
    d1 = rng.normal(size=24) * 4.0
    d1[rng.random(24) < 0.15] = np.nan
    d2 = rng.normal(size=16) * 2.0

    signal = np.where(np.isin(color_codes, [0, 2]), 5.0, -5.0)
    y = (
        signal[k1]
        + np.nan_to_num(d1)[k1]
        + d2[k2]
        + 0.5 * local
        + rng.normal(0, 0.3, n)
    )
    if classify:
        y = np.digitize(y, np.quantile(y, [0.33, 0.66])).astype(np.int64)
    conn.create_table("fact", {"k1": k1, "k2": k2, "local": local, "yv": y})
    conn.create_table(
        "dim1", {"k1": np.arange(24), "color": colors[color_codes], "d1": d1}
    )
    conn.create_table("dim2", {"k2": np.arange(16), "d2": d2})

    train_set = repro.join_graph(conn)
    train_set.add_node("fact", X=["local"], y="yv", is_fact=True)
    train_set.add_node("dim1", X=["color", "d1"], categorical=["color"])
    train_set.add_node("dim2", X=["d2"])
    train_set.add_edge("fact", "dim1", ["k1"])
    train_set.add_edge("fact", "dim2", ["k2"])
    return train_set.graph


def _train(kind, conn, graph, seed=7):
    if kind == "tree":
        return repro.train_decision_tree(
            conn, graph, {"num_leaves": 8, "min_data_in_leaf": 5}
        )
    if kind == "boosting":
        return repro.train_gradient_boosting(
            conn,
            graph,
            {"num_iterations": 4, "num_leaves": 6, "min_data_in_leaf": 5,
             "missing": "both", "seed": seed},
        )
    if kind == "forest":
        return repro.train_random_forest(
            conn,
            graph,
            {"num_iterations": 3, "num_leaves": 6, "min_data_in_leaf": 5,
             "seed": seed},
        )
    if kind == "multiclass":
        return repro.train_gradient_boosting(
            conn,
            graph,
            {"objective": "multiclass", "num_class": 3, "num_iterations": 2,
             "num_leaves": 5, "min_data_in_leaf": 5, "seed": seed},
        )
    if kind == "forest-vote":
        return repro.train_random_forest(
            conn,
            graph,
            {"objective": "multiclass", "num_class": 3, "num_iterations": 3,
             "num_leaves": 5, "min_data_in_leaf": 5, "seed": seed},
        )
    raise AssertionError(kind)


MODEL_KINDS = ("tree", "boosting", "forest", "multiclass", "forest-vote")


class TestThreeWayParity:
    """recursive == compiled == SQL, bit for bit, per model x backend."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_bit_identity(self, kind, backend):
        conn = repro.connect(backend=backend)
        classify = kind in ("multiclass", "forest-vote")
        graph = _star(conn, classify=classify)
        model = _train(kind, conn, graph)

        frame = feature_frame(conn, graph, include_target=False)
        recursive = model.predict_arrays(frame)
        compiled = predict_compiled(conn, graph, model)
        via_sql = sql_scores(conn, graph, model)
        assert np.array_equal(recursive, compiled)
        assert np.array_equal(recursive, via_sql)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_compiled_kernel_direct(self, kind):
        """compile_model().predict_arrays on a hand-built frame matches
        the recursive reference (no feature_frame in the loop), on the
        500-row frame and resampled past the bitmask crossover."""
        conn = repro.connect(backend="embedded")
        classify = kind in ("multiclass", "forest-vote")
        graph = _star(conn, classify=classify)
        model = _train(kind, conn, graph)
        frame = feature_frame(conn, graph, include_target=False)
        idx = np.random.default_rng(5).integers(0, 500, 2 * _BITMASK_MIN_ROWS)
        bulk = {k: v[idx] for k, v in frame.items()}
        kernel = compile_model(model)
        for rows in (frame, bulk):
            assert np.array_equal(
                kernel.predict_arrays(rows), model.predict_arrays(rows)
            )

    def test_request_sized_subsets_match_full_frame(self):
        """The serving shape: tiny random row subsets must score exactly
        like the same rows inside a full-frame call."""
        conn = repro.connect(backend="embedded")
        graph = _star(conn)
        model = _train("boosting", conn, graph)
        frame = feature_frame(conn, graph, include_target=False)
        kernel = compile_model(model)
        full = kernel.predict_arrays(frame)
        rng = np.random.default_rng(3)
        n = len(full)
        for size in (1, 3, 64):
            idx = rng.integers(0, n, size)
            subset = {k: v[idx] for k, v in frame.items()}
            assert np.array_equal(kernel.predict_arrays(subset), full[idx])

    def test_multiclass_probabilities_match(self):
        conn = repro.connect(backend="embedded")
        graph = _star(conn, classify=True)
        model = _train("multiclass", conn, graph)
        frame = feature_frame(conn, graph, include_target=False)
        kernel = compile_model(model)
        assert np.array_equal(
            kernel.predict_proba(frame), model.predict_proba(frame)
        )


class TestSeededSweep:
    """Parity is not a lucky seed: sweep RNG seeds end to end."""

    @pytest.mark.parametrize("seed", (1, 2, 13, 29, 97))
    def test_boosting_parity_across_seeds(self, seed):
        conn = repro.connect(backend="embedded")
        graph = _star(conn, n=300, seed=seed)
        model = _train("boosting", conn, graph, seed=seed)
        frame = feature_frame(conn, graph, include_target=False)
        recursive = model.predict_arrays(frame)
        assert np.array_equal(compile_model(model).predict_arrays(frame),
                              recursive)
        assert np.array_equal(sql_scores(conn, graph, model), recursive)


class TestScoreByKey:
    """The "score user id X" semi-join path."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_key_restriction_matches_full_scores(self, backend):
        conn = repro.connect(backend=backend)
        graph = _star(conn)
        model = _train("boosting", conn, graph)
        frame = feature_frame(conn, graph, include_target=False)
        full = model.predict_arrays(frame)

        fact_k1 = np.asarray(conn.table("fact").column("k1").as_float())
        key = int(fact_k1[0])
        expected = full[fact_k1 == key]
        result = score_by_key(conn, graph, model, {"k1": key})
        scored = np.asarray(result.column("jb_score").as_float())
        assert len(scored) == (fact_k1 == key).sum()
        assert np.array_equal(np.sort(scored), np.sort(expected))

    def test_unmatched_key_returns_empty(self):
        conn = repro.connect(backend="embedded")
        graph = _star(conn)
        model = _train("tree", conn, graph)
        result = score_by_key(conn, graph, model, {"k1": 10_000})
        assert len(result.column("jb_score").values) == 0


class TestCompiledStructure:
    def test_node_count_matches_model(self):
        conn = repro.connect(backend="embedded")
        graph = _star(conn)
        model = _train("boosting", conn, graph)
        kernel = compile_model(model)
        assert compiled_node_count(kernel) == sum(
            t.num_nodes for t in kernel.trees
        )
        assert isinstance(kernel.bank, CompiledTreeBank)
        assert kernel.bank.num_trees == len(model.trees)

    def test_empty_frame_scores_empty(self):
        conn = repro.connect(backend="embedded")
        graph = _star(conn)
        model = _train("boosting", conn, graph)
        frame = feature_frame(conn, graph, include_target=False)
        empty = {k: v[:0] for k, v in frame.items()}
        assert len(compile_model(model).predict_arrays(empty)) == 0

    def test_missing_column_raises_training_error(self):
        from repro.exceptions import TrainingError

        conn = repro.connect(backend="embedded")
        graph = _star(conn)
        model = _train("boosting", conn, graph)
        kernel = compile_model(model)
        with pytest.raises(TrainingError):
            kernel.predict_arrays({"local": np.zeros(3)})


# ---------------------------------------------------------------------------
# Hand-built ensembles across the kernel crossover
# ---------------------------------------------------------------------------
_COLORS = np.array(["red", "green", "blue", "teal"], dtype=object)


def _hand_predicate(rng):
    """One left-child split of any shape the compiled kernel handles:
    every numeric opcode, ``IN`` / ``NOT IN`` / string ``=`` / ``IS
    NULL`` (the generic fallback) and numeric ops over an object column
    (rebuilt into a Predicate at score time)."""
    null = bool(rng.integers(2))
    kind = int(rng.integers(7))
    if kind == 0:
        op = ("<=", "<", ">", ">=")[rng.integers(4)]
        return Predicate("a", op, float(np.round(rng.normal(), 1)), null)
    if kind == 1:
        op = ("=", "!=")[rng.integers(2)]
        return Predicate("b", op, int(rng.integers(0, 4)), null)
    if kind == 2:
        members = tuple(sorted(rng.choice(_COLORS, 2, replace=False)))
        return Predicate("color", ("IN", "NOT IN")[rng.integers(2)], members, null)
    if kind == 3:
        return Predicate("color", "=", str(rng.choice(_COLORS)), null)
    if kind == 4:
        return Predicate("a", "IS NULL")
    op = ("<=", ">", "!=")[rng.integers(3)]
    return Predicate("obj", op, float(np.round(rng.normal(), 1)), null)


def _hand_tree(rng, num_leaves, classes=0):
    """A random-shaped tree: split a random leaf until ``num_leaves``."""
    root = TreeNode(node_id=0, depth=0)
    leaves = [root]
    while len(leaves) < num_leaves:
        node = leaves.pop(int(rng.integers(len(leaves))))
        node.left = TreeNode(
            node_id=2 * node.node_id + 1, depth=node.depth + 1,
            predicate=_hand_predicate(rng), relation="fact", parent=node,
        )
        node.right = TreeNode(
            node_id=2 * node.node_id + 2, depth=node.depth + 1,
            relation="fact", parent=node,
        )
        leaves += [node.left, node.right]
    for leaf in leaves:
        leaf.prediction = (
            float(rng.integers(classes)) if classes else float(rng.normal())
        )
    features = {c: "fact" for c in ("a", "b", "color", "obj")}
    return DecisionTreeModel(root, features)


def _hand_frame(rng, n):
    """NaN, +inf and -inf in the numeric columns, None in the strings,
    NaN / inf / plain numbers as objects in ``obj``."""
    a = np.round(rng.normal(size=n), 1)
    for value, share in ((np.nan, 0.1), (np.inf, 0.05), (-np.inf, 0.05)):
        a[rng.random(n) < share] = value
    b = rng.integers(0, 4, n).astype(np.float64)
    b[rng.random(n) < 0.1] = np.nan
    color = _COLORS[rng.integers(0, 4, n)]
    color[rng.random(n) < 0.1] = None
    obj = np.empty(n, dtype=object)
    obj[:] = [float(v) for v in np.round(rng.normal(size=n), 1)]
    obj[rng.random(n) < 0.05] = np.nan
    obj[rng.random(n) < 0.05] = np.inf
    return {"a": a, "b": b, "color": color, "obj": obj}


#: 1 leaf, one uint32 word, one uint64 word, two and three uint64 words
_LEAF_COUNTS = (1, 7, 33, 65, 130)


def _hand_model(kind, rng):
    if kind == "tree":
        return _hand_tree(rng, 70)
    if kind == "boosting":
        trees = [_hand_tree(rng, k) for k in _LEAF_COUNTS]
        return GradientBoostingModel(trees, 0.25, 0.1, L2Loss())
    if kind == "forest":
        return RandomForestModel(
            [_hand_tree(rng, k) for k in _LEAF_COUNTS], classification=False
        )
    if kind == "forest-vote":
        trees = [_hand_tree(rng, k, classes=3) for k in _LEAF_COUNTS]
        return RandomForestModel(trees, classification=True, num_classes=3)
    chains = [[_hand_tree(rng, k) for k in _LEAF_COUNTS[c:c + 3]]
              for c in range(3)]
    return MulticlassBoostingModel(
        chains, [0.1, -0.2, 0.3], 0.3, SoftmaxLoss(num_classes=3)
    )


class TestBitmaskCrossover:
    """Frames one row short of, at, and one past the crossover take
    different kernels and must all score like the recursive walk."""

    @pytest.mark.parametrize(
        "rows",
        (_BITMASK_MIN_ROWS - 1, _BITMASK_MIN_ROWS, _BITMASK_MIN_ROWS + 1),
    )
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_hand_built_parity(self, kind, rows):
        rng = np.random.default_rng(sum(map(ord, kind)))
        model = _hand_model(kind, rng)
        frame = _hand_frame(rng, rows)
        kernel = compile_model(model)
        assert np.array_equal(
            kernel.predict_arrays(frame), model.predict_arrays(frame)
        )
        if kind == "multiclass":
            assert np.array_equal(
                kernel.predict_proba(frame), model.predict_proba(frame)
            )

    def test_regimes_agree_row_for_row(self):
        """A bulk frame scores each row exactly like that row alone."""
        rng = np.random.default_rng(11)
        model = _hand_model("boosting", rng)
        frame = _hand_frame(rng, _BITMASK_MIN_ROWS + 1)
        kernel = compile_model(model)
        bulk = kernel.predict_arrays(frame)
        for i in rng.integers(0, _BITMASK_MIN_ROWS + 1, 25):
            one = {k: v[i:i + 1] for k, v in frame.items()}
            assert np.array_equal(kernel.predict_arrays(one), bulk[i:i + 1])
