"""Compiled prediction: trained trees flattened into contiguous arrays.

The seed scoring path (:meth:`DecisionTreeModel.predict_arrays`) recurses
node by node, computing a full-length boolean mask at *every* internal
node — O(nodes x rows) work per tree.  Serving "millions of users"
(ROADMAP item 1) needs each tree flattened into contiguous numpy arrays
(feature index / threshold / left-right child / leaf value, with explicit
missing-direction and categorical-set handling), evaluated two ways by
frame size:

* **request-sized frames** descend level by level, all (tree, row) pairs
  of the ensemble at once, so each row does O(depth) gathers and the
  whole model costs one level loop of numpy calls;
* **bulk frames** visit each internal node once over whole columns and
  read every row's leaf off a per-tree leaf bitmask (QuickScorer), so
  the work is one comparison and two bit operations per node and row,
  with no gathers.

Bit-identity with the recursive path is the contract (the paper's models
are "identical to LightGBM", Section 5.1; the differential-parity suite
in ``tests/test_predict_compiled.py`` enforces it).  Both evaluators
route each row the way :func:`~repro.core.tree._eval_predicate` does:

* the **numeric fast path** — numeric comparisons over float/int
  columns are one vectorized comparison, with NaN rows routed by the
  node's missing direction exactly as ``_eval_predicate`` routes them;
* the **generic fallback** — categorical / string / set-valued splits
  (``IN``, ``=`` over object arrays, ``IS NULL``, ...) evaluate the
  node's original :class:`Predicate` over the whole column via
  ``_eval_predicate`` itself, so the semantics cannot drift.

Ensemble wrappers (:class:`CompiledGradientBoosting`,
:class:`CompiledMulticlassBoosting`, :class:`CompiledRandomForest`)
replicate the seed models' accumulation order operation for operation —
same ``init + lr * tree`` sequence, same ``stack(...).mean(axis=0)``,
same first-max ``argmax`` — so ensemble scores are bit-identical too.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import TrainingError
from repro.core.boosting import GradientBoostingModel, MulticlassBoostingModel
from repro.core.forest import RandomForestModel
from repro.core.tree import DecisionTreeModel, TreeNode, _eval_predicate
from repro.factorize.predicates import Predicate
from repro.semiring.losses import SoftmaxLoss

#: opcodes for the numeric fast path; everything else takes the generic
#: per-node fallback through ``_eval_predicate``
_NUMERIC_OPS = {"<=": 0, "<": 1, ">": 2, ">=": 3, "=": 4, "!=": 5}
_GENERIC_OP = -1

#: per opcode, the left-child predicate as a comparison ufunc, and the
#: one true exactly where a non-NaN value fails it (``x <= t`` fails iff
#: ``x > t``, ...)
_GOES_LEFT: Dict[int, np.ufunc] = {
    0: np.less_equal,
    1: np.less,
    2: np.greater,
    3: np.greater_equal,
    4: np.equal,
    5: np.not_equal,
}
_GOES_RIGHT: Dict[int, np.ufunc] = {
    0: np.greater,
    1: np.greater_equal,
    2: np.less_equal,
    3: np.less,
    4: np.not_equal,
    5: np.equal,
}

#: frames of at least this many rows score by leaf bitmasks over whole
#: columns; smaller ones descend level by level.  On the 12 x 32 GBM of
#: the serving benchmark the two tie between 256 and 512 rows: below,
#: the bitmask walk's fixed cost of a few numpy calls per internal node
#: dominates; above, the descent's per-row gathers do (5x slower at
#: 4 000 rows, 8x at 100 000; the kernel-only table in
#: docs/EXPERIMENTS.md).  One-row calls descend; an embedded key request
#: scores nothing itself (it reads the score column the bitmask walk
#: built in 65 536-row chunks) and descends only over the ~200 gathered
#: rows of a fallback while that column is stale.
_BITMASK_MIN_ROWS = 512

FeatureFrame = Dict[str, np.ndarray]

#: (stacked numeric matrix, column→matrix-column map, raw arrays)
PreparedFrame = Tuple[np.ndarray, np.ndarray, List[np.ndarray]]


def _frame_columns(
    columns: Sequence[str], features: FeatureFrame
) -> List[np.ndarray]:
    """The frame's array for each of ``columns``, in order."""
    raw_cols: List[np.ndarray] = []
    for column in columns:
        if column not in features:
            raise TrainingError(f"missing feature column {column!r}")
        raw_cols.append(np.asarray(features[column]))
    return raw_cols


def _is_numeric(raw: np.ndarray) -> bool:
    return not (raw.dtype == object or raw.dtype.kind in ("U", "S"))


def prepare_frame(
    columns: Sequence[str], features: FeatureFrame
) -> PreparedFrame:
    """Stage a feature frame for the level-synchronous descent.

    Numeric columns are stacked into one (n, k) float64 matrix so the
    hot loop gathers values with a single fancy index instead of a
    per-column pass.  Object/string columns map to -1 and are only
    touched by the generic fallback, which sees the raw arrays — the
    same inputs the recursive path hands ``_eval_predicate``.
    """
    raw_cols = _frame_columns(columns, features)
    numeric_cols: List[np.ndarray] = []
    mat_col = np.full(len(columns), -1, dtype=np.int32)
    for i, raw in enumerate(raw_cols):
        if _is_numeric(raw):
            mat_col[i] = len(numeric_cols)
            numeric_cols.append(raw.astype(np.float64, copy=False))
    if numeric_cols:
        matrix = np.column_stack(numeric_cols)
    else:
        n = len(raw_cols[0]) if raw_cols else 0
        matrix = np.zeros((n, 0), dtype=np.float64)
    return matrix, mat_col, raw_cols


@dataclasses.dataclass
class _NodeTables:
    """Mutable accumulator the flattening walk appends into."""

    feature: List[int]
    opcode: List[int]
    threshold: List[float]
    default_left: List[bool]
    left: List[int]
    right: List[int]
    value: List[float]
    predicates: List[Optional[Predicate]]
    left_leaves: List[Tuple[int, int]]


class CompiledTree:
    """One decision tree as flat arrays.

    ``feature[i]`` indexes :attr:`columns` (``-1`` marks a leaf),
    ``threshold[i]``/``opcode[i]`` encode the numeric comparison of the
    *left*-child predicate, ``default_left[i]`` is the missing direction
    (NULL/NaN rows go left when set), ``left[i]``/``right[i]`` are child
    node ids and ``value[i]`` the leaf prediction.  Non-numeric splits
    keep their :class:`Predicate` in :attr:`predicates` for the generic
    fallback.  :attr:`leaf_nodes` lists the leaves left to right, and
    ``left_leaves[i]`` is the ``[lo, hi)`` range of that order the left
    subtree of internal node ``i`` covers (``(0, 0)`` at a leaf).
    """

    def __init__(
        self,
        model: DecisionTreeModel,
        interner: Optional[Tuple[Dict[str, int], List[str]]] = None,
    ):
        # Ensemble wrappers pass one shared interner so every member tree
        # indexes the same column universe and the per-call frame
        # preparation happens once, not once per tree.
        col_index, columns = interner if interner is not None else ({}, [])
        self.columns: List[str] = columns
        tables = _NodeTables([], [], [], [], [], [], [], [], [])
        leaf_nodes: List[int] = []

        def intern(column: str) -> int:
            if column not in col_index:
                col_index[column] = len(self.columns)
                self.columns.append(column)
            return col_index[column]

        def flatten(node: TreeNode) -> int:
            idx = len(tables.feature)
            tables.feature.append(-1)
            tables.opcode.append(_GENERIC_OP)
            tables.threshold.append(np.nan)
            tables.default_left.append(False)
            tables.left.append(-1)
            tables.right.append(-1)
            tables.value.append(float(node.prediction))
            tables.predicates.append(None)
            tables.left_leaves.append((0, 0))
            if node.is_leaf:
                leaf_nodes.append(idx)
                return idx
            left = node.left
            if left is None or left.predicate is None or node.right is None:
                raise TrainingError("malformed tree: internal node without split")
            pred = left.predicate
            tables.feature[idx] = intern(pred.column)
            tables.default_left[idx] = bool(pred.include_null)
            if pred.op in _NUMERIC_OPS and isinstance(
                pred.value, (int, float)
            ) and not isinstance(pred.value, bool):
                tables.opcode[idx] = _NUMERIC_OPS[pred.op]
                tables.threshold[idx] = float(pred.value)
            else:
                tables.predicates[idx] = pred
            lo = len(leaf_nodes)
            tables.left[idx] = flatten(left)
            tables.left_leaves[idx] = (lo, len(leaf_nodes))
            tables.right[idx] = flatten(node.right)
            return idx

        flatten(model.root)
        self.feature = np.asarray(tables.feature, dtype=np.int32)
        self.opcode = np.asarray(tables.opcode, dtype=np.int8)
        self.threshold = np.asarray(tables.threshold, dtype=np.float64)
        self.default_left = np.asarray(tables.default_left, dtype=bool)
        self.left = np.asarray(tables.left, dtype=np.int32)
        self.right = np.asarray(tables.right, dtype=np.int32)
        self.value = np.asarray(tables.value, dtype=np.float64)
        self.predicates = tables.predicates
        self.left_leaves = tables.left_leaves
        self.leaf_nodes = np.asarray(leaf_nodes, dtype=np.int32)

    @property
    def num_nodes(self) -> int:
        return len(self.feature)


class _Step(NamedTuple):
    """One internal node of a :class:`_LeafBits` walk."""

    node: int  # bank node id
    feature: int
    goes_right: Optional[np.ufunc]  # None: the generic fallback
    threshold: float
    nan_goes_right: bool
    clears: List[Tuple[int, np.unsignedinteger]]  # (word, bits)


@dataclasses.dataclass
class _LeafBits:
    """One bank tree's bitmask tables (QuickScorer, Lucchese et al.,
    SIGIR 2015).  Leaf ``j`` (left to right) is bit ``j % width`` of
    word ``j // width``.  A row that fails an internal node's left
    predicate cannot exit in its left subtree, so it sets the bits that
    node's step ``clears``; the row's leaf is the lowest bit left clear,
    because every leaf left of the exit leaf lies in the left subtree of
    an ancestor the row went right at, and the exit leaf is in no
    subtree the row skipped."""

    steps: List[_Step]
    values: np.ndarray
    dtype: type
    width: int
    words: int

    @classmethod
    def build(cls, tree: CompiledTree, offset: int) -> "_LeafBits":
        num_leaves = len(tree.leaf_nodes)
        dtype, width = (np.uint32, 32) if num_leaves <= 32 else (np.uint64, 64)
        steps = []
        for node in np.flatnonzero(tree.left >= 0):
            lo, hi = tree.left_leaves[node]
            clears = []
            for word in range(lo // width, (hi - 1) // width + 1):
                a = max(lo - word * width, 0)
                b = min(hi - word * width, width)
                clears.append((word, dtype(((1 << b) - 1) ^ ((1 << a) - 1))))
            steps.append(_Step(
                node=int(node) + offset,
                feature=int(tree.feature[node]),
                goes_right=_GOES_RIGHT.get(int(tree.opcode[node])),
                threshold=float(tree.threshold[node]),
                nan_goes_right=not tree.default_left[node],
                clears=clears,
            ))
        return cls(
            steps=steps,
            values=tree.value[tree.leaf_nodes],
            dtype=dtype,
            width=width,
            words=-(-num_leaves // width),
        )

    def exit_leaves(self, cleared: List[np.ndarray]) -> np.ndarray:
        """Leaf position of each row: the lowest clear bit over the words
        (an all-set word yields ``-1`` and defers to the next word)."""
        top = self.words - 1
        for word in range(top, -1, -1):
            bits = cleared[word]
            lowest = (bits + 1) & ~bits
            pos = np.frexp(lowest.astype(np.float64))[1] - 1 + word * self.width
            leaf = pos if word == top else np.where(lowest != 0, pos, leaf)
        return leaf


class CompiledTreeBank:
    """Every tree of an ensemble packed into one flat node table.

    Member trees must share one column universe (the ensemble wrappers
    compile them with a shared interner).  Child pointers are offset into
    the packed table.  :meth:`leaf_matrix` has two evaluators, chosen by
    frame size (:data:`_BITMASK_MIN_ROWS`): request-sized frames descend
    all (tree, row) pairs level by level at once, so the whole ensemble
    costs one level loop whatever its width; bulk frames visit each
    internal node once over whole columns and read every row's leaf off
    a bitmask (:class:`_LeafBits`).  Both route every row exactly as
    :func:`~repro.core.tree._eval_predicate` does, so they return the
    same bits.
    """

    def __init__(self, trees: Sequence[CompiledTree]):
        if not trees:
            raise TrainingError("tree bank needs at least one tree")
        first = trees[0].columns
        if any(t.columns is not first for t in trees):
            raise TrainingError("bank trees must share one column universe")
        self.columns = first
        self.num_trees = len(trees)
        offsets = np.cumsum([0] + [t.num_nodes for t in trees])
        self.roots = offsets[:-1].astype(np.int32)
        self.feature = np.concatenate([t.feature for t in trees])
        self.opcode = np.concatenate([t.opcode for t in trees])
        self.threshold = np.concatenate([t.threshold for t in trees])
        self.default_left = np.concatenate([t.default_left for t in trees])
        self.left = np.concatenate(
            [np.where(t.left >= 0, t.left + off, -1)
             for t, off in zip(trees, offsets)]
        ).astype(np.int32)
        self.right = np.concatenate(
            [np.where(t.right >= 0, t.right + off, -1)
             for t, off in zip(trees, offsets)]
        ).astype(np.int32)
        self.value = np.concatenate([t.value for t in trees])
        self.predicates = [p for t in trees for p in t.predicates]
        self.leaf_bits = [
            _LeafBits.build(t, int(off)) for t, off in zip(trees, offsets)
        ]

    def leaf_matrix(self, features: FeatureFrame) -> np.ndarray:
        """(num_trees, n) leaf values — row t is tree t's prediction."""
        lengths = [len(v) for v in features.values()]
        n = lengths[0] if lengths else 0
        if n == 0:
            return np.zeros((self.num_trees, 0), dtype=np.float64)
        mask_cache: Dict[Predicate, np.ndarray] = {}
        if n >= _BITMASK_MIN_ROWS:
            return self._bitmask_matrix(features, n, mask_cache)
        # Tree-major flat layout: entry t*n + r is (tree t, frame row r).
        state = np.repeat(self.roots, n)
        row_of = np.tile(np.arange(n), self.num_trees)
        prepared = prepare_frame(self.columns, features)
        leaves = self._descend(state, row_of, prepared, mask_cache)
        return self.value[leaves].reshape(self.num_trees, n)

    # ------------------------------------------------------------------
    # Bulk frames: one pass per internal node over whole columns
    # ------------------------------------------------------------------
    def _bitmask_matrix(
        self,
        features: FeatureFrame,
        n: int,
        mask_cache: Dict[Predicate, np.ndarray],
    ) -> np.ndarray:
        raw_cols = _frame_columns(self.columns, features)
        numeric = [
            raw.astype(np.float64, copy=False) if _is_numeric(raw) else None
            for raw in raw_cols
        ]
        nan_rows: Dict[int, np.ndarray] = {}
        go_right = np.empty(n, dtype=bool)
        out = np.empty((self.num_trees, n), dtype=np.float64)
        for t, bits in enumerate(self.leaf_bits):
            cleared = [np.zeros(n, dtype=bits.dtype) for _ in range(bits.words)]
            scratch = np.empty(n, dtype=bits.dtype)
            for step in bits.steps:
                column = numeric[step.feature]
                if step.goes_right is not None and column is not None:
                    step.goes_right(column, step.threshold, out=go_right)
                    nan = nan_rows.get(step.feature)
                    if nan is None:
                        nan = nan_rows[step.feature] = np.flatnonzero(
                            np.isnan(column)
                        )
                    if len(nan):
                        # NaN fails every comparison but "!="; route it
                        # by the node's missing direction.
                        go_right[nan] = step.nan_goes_right
                else:
                    left = self._generic_mask(step.node, raw_cols, mask_cache)
                    np.logical_not(left, out=go_right)
                for word, mask in step.clears:
                    np.multiply(go_right, mask, out=scratch)
                    np.bitwise_or(cleared[word], scratch, out=cleared[word])
            out[t] = bits.values[bits.exit_leaves(cleared)]
        return out

    # ------------------------------------------------------------------
    # Request-sized frames: level-synchronous descent
    # ------------------------------------------------------------------
    def _compare(
        self, ops: np.ndarray, vals: np.ndarray, thr: np.ndarray
    ) -> np.ndarray:
        """Vectorized comparison for mixed opcodes (rare: the trainer
        only emits ``<=``, so the uniform path in :meth:`_descend`
        usually short-circuits past this)."""
        result = np.zeros(len(vals), dtype=bool)
        for op_code, goes_left in _GOES_LEFT.items():
            osel = ops == op_code
            if osel.any():
                result[osel] = goes_left(vals[osel], thr[osel])
        return result

    def _descend(
        self,
        start_nodes: np.ndarray,
        frame_rows: np.ndarray,
        prepared: PreparedFrame,
        mask_cache: Dict[Predicate, np.ndarray],
    ) -> np.ndarray:
        """Route every (start node, frame row) entry to its leaf node id.

        The loop carries only the still-active entries (node id + frame
        row, compressed together as entries reach leaves), so a leaf-wise
        (deep, unbalanced) tree costs sum-of-depths, not depth × n, and
        there is no full-width state scatter per level.
        """
        matrix, mat_col, raw_cols = prepared
        final = np.asarray(start_nodes, dtype=np.int32).copy()
        rows = np.nonzero(self.left[final] >= 0)[0]
        nodes = final[rows]
        frows = np.asarray(frame_rows)[rows]
        while len(rows):
            ops = self.opcode[nodes]
            mc = mat_col[self.feature[nodes]]
            numeric_ok = (ops >= 0) & (mc >= 0)

            if numeric_ok.all():
                # Whole level is numeric splits over numeric columns —
                # one gather, one comparison; NaN routes by default_left.
                vals = matrix[frows, mc]
                thr = self.threshold[nodes]
                with np.errstate(invalid="ignore"):
                    if (ops == 0).all():  # trainer emits only "<="
                        go_left = vals <= thr
                    else:
                        go_left = self._compare(ops, vals, thr)
                nulls = np.isnan(vals)
                if nulls.any():
                    go_left[nulls] = self.default_left[nodes][nulls]
            else:
                go_left = np.zeros(len(rows), dtype=bool)
                nsel = np.nonzero(numeric_ok)[0]
                if len(nsel):
                    nnodes = nodes[nsel]
                    vals = matrix[frows[nsel], mc[nsel]]
                    thr = self.threshold[nnodes]
                    node_ops = ops[nsel]
                    with np.errstate(invalid="ignore"):
                        if (node_ops == 0).all():
                            result = vals <= thr
                        else:
                            result = self._compare(node_ops, vals, thr)
                    nulls = np.isnan(vals)
                    result[nulls] = self.default_left[nnodes][nulls]
                    go_left[nsel] = result

                # Generic fallback, one node at a time over just the
                # resident rows.
                pending = np.nonzero(~numeric_ok)[0]
                pnodes = nodes[pending]
                order = np.argsort(pnodes, kind="stable")
                pending = pending[order]
                pnodes = pnodes[order]
                boundaries = np.nonzero(np.diff(pnodes))[0] + 1
                for segment in np.split(np.arange(len(pending)), boundaries):
                    node_id = int(pnodes[segment[0]])
                    full = self._generic_mask(node_id, raw_cols, mask_cache)
                    go_left[pending[segment]] = full[frows[pending[segment]]]

            nodes = np.where(go_left, self.left[nodes], self.right[nodes])
            at_leaf = self.left[nodes] < 0
            if at_leaf.any():
                final[rows[at_leaf]] = nodes[at_leaf]
                keep = ~at_leaf
                rows = rows[keep]
                nodes = nodes[keep]
                frows = frows[keep]
        return final

    # ------------------------------------------------------------------
    def _generic_mask(
        self,
        node_id: int,
        raw_cols: List[np.ndarray],
        mask_cache: Dict[Predicate, np.ndarray],
    ) -> np.ndarray:
        """Left-child mask of a categorical / string / set-valued split
        over the whole column, via the same ``_eval_predicate`` kernel
        the recursive path uses (elementwise, so evaluating the full
        column and gathering cannot change any row's routing).
        Identical predicates recur across boosted trees (e.g. the same
        categorical root split), so the per-call mask cache dedupes
        them."""
        pred = self.predicates[node_id]
        if pred is None:
            # Numeric opcode but object-typed column values.
            pred = self._rebuild_numeric_predicate(node_id)
        full = mask_cache.get(pred)
        if full is None:
            full = _eval_predicate(pred, raw_cols[int(self.feature[node_id])])
            mask_cache[pred] = full
        return full

    def _rebuild_numeric_predicate(self, node_id: int) -> Predicate:
        op = [k for k, v in _NUMERIC_OPS.items() if v == self.opcode[node_id]][0]
        return Predicate(
            column=self.columns[int(self.feature[node_id])],
            op=op,
            value=float(self.threshold[node_id]),
            include_null=bool(self.default_left[node_id]),
        )


# ---------------------------------------------------------------------------
# Ensemble wrappers — accumulation order mirrors the seed models exactly
# ---------------------------------------------------------------------------
class CompiledDecisionTree:
    """Compiled single tree with the seed model's scoring interface."""

    kind = "decision_tree"

    def __init__(self, model: DecisionTreeModel):
        self.tree = CompiledTree(model)
        self.bank = CompiledTreeBank([self.tree])
        self.required_features = list(self.tree.columns)

    def predict_arrays(self, features: FeatureFrame) -> np.ndarray:
        return self.bank.leaf_matrix(features)[0]


class CompiledGradientBoosting:
    """Compiled boosting chain: ``init + lr * tree_k`` in tree order."""

    kind = "gradient_boosting"

    def __init__(self, model: GradientBoostingModel):
        interner: Tuple[Dict[str, int], List[str]] = ({}, [])
        self.trees = [CompiledTree(t, interner) for t in model.trees]
        self.bank = CompiledTreeBank(self.trees) if self.trees else None
        self.columns = interner[1]
        self.init_score = model.init_score
        self.learning_rate = model.learning_rate
        self.loss = model.loss
        self.required_features = list(model.required_features)

    def raw_scores(self, features: FeatureFrame) -> np.ndarray:
        n = len(next(iter(features.values()))) if features else 0
        score = np.full(n, self.init_score, dtype=np.float64)
        if self.bank is None:
            return score
        leaves = self.bank.leaf_matrix(features)
        # Same per-tree accumulation order as the seed model: the sum is
        # built tree by tree, so the float rounding matches bit for bit.
        for t in range(leaves.shape[0]):
            score += self.learning_rate * leaves[t]
        return score

    def predict_arrays(self, features: FeatureFrame) -> np.ndarray:
        return self.loss.predict_transform(self.raw_scores(features))


class CompiledMulticlassBoosting:
    """K compiled chains; softmax / first-max argmax as the seed model."""

    kind = "multiclass_boosting"

    def __init__(self, model: MulticlassBoostingModel):
        interner: Tuple[Dict[str, int], List[str]] = ({}, [])
        self.trees_per_class = [
            [CompiledTree(t, interner) for t in chain]
            for chain in model.trees_per_class
        ]
        self.columns = interner[1]
        flat = [t for chain in self.trees_per_class for t in chain]
        self.bank = CompiledTreeBank(flat) if flat else None
        # bank row range [start, stop) of each class's chain
        self._chain_slices = []
        start = 0
        for chain in self.trees_per_class:
            self._chain_slices.append((start, start + len(chain)))
            start += len(chain)
        self.init_scores = list(model.init_scores)
        self.learning_rate = model.learning_rate
        self.required_features = list(model.required_features)

    @property
    def num_classes(self) -> int:
        return len(self.trees_per_class)

    def scores(self, features: FeatureFrame) -> np.ndarray:
        n = len(next(iter(features.values()))) if features else 0
        out = np.zeros((n, self.num_classes), dtype=np.float64)
        leaves = (
            self.bank.leaf_matrix(features) if self.bank is not None else None
        )
        for k, (start, stop) in enumerate(self._chain_slices):
            out[:, k] = self.init_scores[k]
            if leaves is None:
                continue
            for t in range(start, stop):
                out[:, k] += self.learning_rate * leaves[t]
        return out

    def predict_proba(self, features: FeatureFrame) -> np.ndarray:
        return SoftmaxLoss.softmax(self.scores(features))

    def predict_arrays(self, features: FeatureFrame) -> np.ndarray:
        return np.argmax(self.scores(features), axis=1).astype(np.float64)


class CompiledRandomForest:
    """Compiled bagged trees; mean / vote reduction as the seed model."""

    kind = "random_forest"

    def __init__(self, model: RandomForestModel):
        if not model.trees:
            raise TrainingError("forest has no trees")
        interner: Tuple[Dict[str, int], List[str]] = ({}, [])
        self.trees = [CompiledTree(t, interner) for t in model.trees]
        self.bank = CompiledTreeBank(self.trees)
        self.columns = interner[1]
        self.classification = model.classification
        self.num_classes = model.num_classes
        self.required_features = list(model.required_features)

    def predict_arrays(self, features: FeatureFrame) -> np.ndarray:
        # Identical to the seed's np.stack([...tree predictions...]):
        # the bank rows are the same per-tree leaf values.
        stacked = self.bank.leaf_matrix(features)
        if not self.classification:
            return stacked.mean(axis=0)
        votes = np.zeros((stacked.shape[1], self.num_classes))
        for row in stacked:
            for k in range(self.num_classes):
                votes[:, k] += row == k
        return votes.argmax(axis=1).astype(np.float64)


CompiledModel = Union[
    CompiledDecisionTree,
    CompiledGradientBoosting,
    CompiledMulticlassBoosting,
    CompiledRandomForest,
]


def compile_model(model: object) -> CompiledModel:
    """Flatten any trained model class into its compiled evaluator."""
    if isinstance(model, DecisionTreeModel):
        return CompiledDecisionTree(model)
    if isinstance(model, GradientBoostingModel):
        return CompiledGradientBoosting(model)
    if isinstance(model, MulticlassBoostingModel):
        return CompiledMulticlassBoosting(model)
    if isinstance(model, RandomForestModel):
        return CompiledRandomForest(model)
    raise TrainingError(f"cannot compile {type(model).__name__}")


def compiled_node_count(compiled: CompiledModel) -> int:
    """Total flattened nodes (serving census / cache sizing)."""
    if isinstance(compiled, CompiledDecisionTree):
        return compiled.tree.num_nodes
    if isinstance(compiled, CompiledMulticlassBoosting):
        return sum(
            t.num_nodes for chain in compiled.trees_per_class for t in chain
        )
    return sum(t.num_nodes for t in compiled.trees)


def predict_compiled(
    db, graph, model, fact: Optional[str] = None
) -> np.ndarray:
    """Score every fact row via the compiled path (drop-in for
    :func:`~repro.core.predict.predict_join`)."""
    from repro.core.predict import feature_frame

    compiled = model if _is_compiled(model) else compile_model(model)
    needed: Optional[Sequence[str]] = getattr(
        compiled, "required_features", None
    )
    frame = feature_frame(db, graph, columns=needed, fact=fact)
    return compiled.predict_arrays(frame)


def _is_compiled(model: object) -> bool:
    return isinstance(
        model,
        (
            CompiledDecisionTree,
            CompiledGradientBoosting,
            CompiledMulticlassBoosting,
            CompiledRandomForest,
        ),
    )
