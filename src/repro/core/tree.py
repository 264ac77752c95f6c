"""Decision tree model structure.

A trained tree is a binary tree of :class:`TreeNode`; internal nodes carry
the split predicate (and the relation it applies to), leaves carry the
prediction.  Leaf predicates along a root-to-leaf path form the node's
selection σ as a per-relation :data:`PredicateMap` — the representation
both residual updates and message passing consume.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import TrainingError
from repro.factorize.predicates import Predicate, PredicateMap, add_predicate


@dataclasses.dataclass
class TreeNode:
    """One node; ``predicate``/``relation`` are None at the root."""

    node_id: int
    depth: int
    predicate: Optional[Predicate] = None
    relation: Optional[str] = None
    parent: Optional["TreeNode"] = None
    left: Optional["TreeNode"] = None   # predicate side
    right: Optional["TreeNode"] = None  # ¬predicate side
    prediction: float = 0.0
    gain: float = 0.0
    # Aggregates over the node's σ(R⋈): semi-ring components by name.
    aggregates: Dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None

    def path_predicates(self) -> PredicateMap:
        """σ of this node: conjunction of edge predicates from the root."""
        preds: PredicateMap = {}
        chain: List[TreeNode] = []
        cursor: Optional[TreeNode] = self
        while cursor is not None and cursor.predicate is not None:
            chain.append(cursor)
            cursor = cursor.parent
        for node in reversed(chain):
            preds = add_predicate(preds, node.relation, node.predicate)
        return preds



class DecisionTreeModel:
    """A trained decision tree."""

    def __init__(self, root: TreeNode, feature_relations: Dict[str, str]):
        self.root = root
        #: feature column -> owning relation (for prediction and updates)
        self.feature_relations = dict(feature_relations)
        #: training accounting a driver attaches (sharded training's census)
        self.frontier_census: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def leaves(self) -> List[TreeNode]:
        out: List[TreeNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.append(node)
            else:
                stack.extend(x for x in (node.left, node.right) if x is not None)
        return sorted(out, key=lambda n: n.node_id)

    def nodes(self) -> List[TreeNode]:
        out: List[TreeNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(x for x in (node.left, node.right) if x is not None)
        return sorted(out, key=lambda n: n.node_id)

    @property
    def num_leaves(self) -> int:
        return len(self.leaves())

    def referenced_attributes(self) -> List[Tuple[str, str]]:
        """(relation, column) pairs used by any split — the update
        relation's attribute set A (Section 4.2.1)."""
        seen = []
        for node in self.nodes():
            if node.predicate is not None:
                pair = (node.relation, node.predicate.column)
                if pair not in seen:
                    seen.append(pair)
        return seen

    # ------------------------------------------------------------------
    # Prediction over in-memory feature arrays
    # ------------------------------------------------------------------
    def predict_arrays(self, features: Dict[str, np.ndarray]) -> np.ndarray:
        """Score rows given a column -> array mapping of feature values."""
        n = len(next(iter(features.values()))) if features else 0
        out = np.zeros(n, dtype=np.float64)
        self._route(self.root, np.ones(n, dtype=bool), features, out)
        return out

    def _route(
        self,
        node: TreeNode,
        mask: np.ndarray,
        features: Dict[str, np.ndarray],
        out: np.ndarray,
    ) -> None:
        if node.is_leaf:
            out[mask] = node.prediction
            return
        left = node.left
        if left is None or left.predicate is None:
            raise TrainingError("malformed tree: internal node without split")
        column = left.predicate.column
        if column not in features:
            raise TrainingError(f"missing feature column {column!r}")
        values = np.asarray(features[column])
        matches = _eval_predicate(left.predicate, values)
        self._route(left, mask & matches, features, out)
        self._route(node.right, mask & ~matches, features, out)

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        def serialize(node: TreeNode) -> dict:
            data = {
                "node_id": node.node_id,
                "depth": node.depth,
                "prediction": node.prediction,
                "gain": node.gain,
                "aggregates": dict(node.aggregates),
            }
            if node.predicate is not None:
                data["relation"] = node.relation
                data["predicate"] = node.predicate.render()
            if not node.is_leaf:
                data["left"] = serialize(node.left)
                data["right"] = serialize(node.right)
            return data

        return {"tree": serialize(self.root), "features": self.feature_relations}

    def dump(self) -> str:
        """Readable indented text rendering (LightGBM-dump flavoured)."""
        lines: List[str] = []

        def walk(node: TreeNode, indent: int) -> None:
            pad = "  " * indent
            label = (
                f"{node.predicate.render()} [{node.relation}]"
                if node.predicate is not None
                else "root"
            )
            if node.is_leaf:
                lines.append(f"{pad}{label} -> leaf value={node.prediction:.6g}")
            else:
                lines.append(f"{pad}{label} (gain={node.gain:.6g})")
                walk(node.left, indent + 1)
                walk(node.right, indent + 1)

        walk(self.root, 0)
        return "\n".join(lines)


def _eval_predicate(pred: Predicate, values: np.ndarray) -> np.ndarray:
    """Vectorized predicate evaluation with NULL routing."""
    if values.dtype == object:
        nulls = np.array([v is None for v in values])
        comparable = values
    else:
        values = values.astype(np.float64, copy=False)
        nulls = np.isnan(values)
        comparable = values
    with np.errstate(invalid="ignore"):
        if pred.op == "<=":
            mask = comparable <= pred.value
        elif pred.op == "<":
            mask = comparable < pred.value
        elif pred.op == ">":
            mask = comparable > pred.value
        elif pred.op == ">=":
            mask = comparable >= pred.value
        elif pred.op == "=":
            mask = comparable == pred.value
        elif pred.op == "!=":
            mask = comparable != pred.value
        elif pred.op == "IN":
            mask = np.isin(comparable, np.asarray(pred.value))
        elif pred.op == "NOT IN":
            mask = ~np.isin(comparable, np.asarray(pred.value))
        elif pred.op == "IS NULL":
            return nulls
        elif pred.op == "IS NOT NULL":
            return ~nulls
        else:  # pragma: no cover - Predicate validates ops
            raise TrainingError(f"unsupported op {pred.op}")
    mask = np.asarray(mask, dtype=bool)
    mask[nulls] = pred.include_null
    return mask
