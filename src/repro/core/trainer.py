"""Decision-tree training — the paper's Algorithm 1.

Best-first growth keeps a max-heap of leaf nodes ordered by the criterion
reduction of their best split; each iteration pops the best leaf, splits
it, finds the best splits of the two children, and pushes them back —
except after the split that reaches ``num_leaves``, whose children can
never be split and so are not evaluated.
Depth-wise growth orders by (depth, node id) instead.

All heavy computation — the best-split queries (line 14) — is SQL against
the factorizer; the Python driver is bookkeeping, exactly the division of
labour of Figure 4's ML Compiler.  The split search is a constructor
argument (:class:`SplitSearch`): single-node drivers pass a
:class:`~repro.core.frontier.FrontierEvaluator`, which batches each
evaluation round into one query per relation on snowflake schemas
(``split_batching="auto"``, the default) and otherwise issues the
classic one query per (leaf, feature); sharded training passes a search
over shard aggregates merged at the coordinator.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, Iterable, List, Optional, Protocol, Sequence, Tuple

from repro.exceptions import TrainingError
from repro.core.params import TrainParams
from repro.core.split import Criterion, SplitCandidate
from repro.core.tree import DecisionTreeModel, TreeNode
from repro.joingraph.clusters import Cluster
from repro.joingraph.graph import JoinGraph


class SplitSearch(Protocol):
    """What the trainer asks of its split search."""

    def totals(self) -> Dict[str, float]:
        """The root aggregates of a new tree."""

    def begin_tree(self, root: TreeNode) -> None:
        """A new tree starts at ``root``."""

    def best_splits(
        self, nodes: Sequence[TreeNode], features: Sequence[Tuple[str, str]]
    ) -> Dict[int, Optional[SplitCandidate]]:
        """Best split per frontier node (node_id -> candidate or None)."""

    def notify_split(self, node: TreeNode) -> None:
        """``node`` was split."""

    def leaf_label_column(self, model: DecisionTreeModel) -> Optional[str]:
        """A column holding each fact row's leaf in ``model``, if current."""


def _heap_entry(growth: str, node: TreeNode, cand: SplitCandidate):
    """The leaf heap's entry for ``node`` and its best split: depth-wise
    growth pops by (depth, node id), best-first by largest gain (node id
    breaks ties)."""
    if growth == "depth-wise":
        priority = (node.depth, node.node_id)
    else:
        priority = (-cand.gain, node.node_id)
    return (priority, node.node_id, node, cand)


class DecisionTreeTrainer:
    """Trains decision trees over a join graph, one at a time; node ids
    continue from tree to tree."""

    def __init__(
        self,
        graph: JoinGraph,
        criterion: Criterion,
        params: TrainParams,
        evaluator: SplitSearch,
        clusters: Optional[Sequence[Cluster]] = None,
    ):
        self.graph = graph
        self.criterion = criterion
        self.params = params
        self.evaluator = evaluator
        self.clusters = list(clusters) if clusters else None
        self._ids = itertools.count()

    def continue_ids(self, trees: Iterable[DecisionTreeModel]) -> None:
        """Number the next tree's nodes after every node of ``trees``
        (the rounds a resumed run restored): node ids are part of the
        serialized model, hence of its digest."""
        last = max(
            (node.node_id for tree in trees for node in tree.nodes()),
            default=-1,
        )
        self._ids = itertools.count(last + 1)

    # ------------------------------------------------------------------
    def train(
        self, feature_subset: Optional[Sequence[Tuple[str, str]]] = None
    ) -> DecisionTreeModel:
        """Grow one tree; ``feature_subset`` restricts candidate features
        (feature sampling)."""
        features = list(feature_subset or self.graph.all_features())
        if not features:
            raise TrainingError("no features to split on")
        totals = self.evaluator.totals()

        root = TreeNode(node_id=next(self._ids), depth=0, aggregates=dict(totals))
        root.prediction = self.criterion.leaf_value(totals)
        model = DecisionTreeModel(
            root, {f: rel for rel, f in features}
        )
        # New tree: the incremental frontier state re-roots its persistent
        # leaf-membership column on the first batched round.
        self.evaluator.begin_tree(root)

        allowed = list(features)
        heap: List[Tuple[float, int, TreeNode, SplitCandidate]] = []
        candidate = self.evaluator.best_splits([root], allowed).get(root.node_id)
        if candidate is not None:
            heapq.heappush(heap, _heap_entry(self.params.growth, root, candidate))

        num_leaves = 1
        while heap and num_leaves < self.params.num_leaves:
            _, _, node, cand = heapq.heappop(heap)
            if cand.gain <= self.params.min_split_gain:
                break
            if self.clusters is not None and len(allowed) == len(features):
                # CPT: the first realized split pins the cluster (§4.2.2).
                allowed = self._restrict_to_cluster(cand.relation, features)
            self._apply_split(node, cand)
            # Delta label update: relabel only the split leaf's rows (the
            # residual update reads the labels of the last split too).
            self.evaluator.notify_split(node)
            num_leaves += 1
            if num_leaves >= self.params.num_leaves:
                break
            # Both children are one frontier round: batched mode turns the
            # 2 x |features| per-leaf queries into one query per relation.
            frontier = [
                child
                for child in (node.left, node.right)
                if self.params.max_depth < 0 or child.depth < self.params.max_depth
            ]
            child_candidates = self.evaluator.best_splits(frontier, allowed)
            for child in frontier:
                child_cand = child_candidates.get(child.node_id)
                if child_cand is not None and child_cand.gain > self.params.min_split_gain:
                    heapq.heappush(
                        heap, _heap_entry(self.params.growth, child, child_cand)
                    )
        return model

    def leaf_label_column(self, model: DecisionTreeModel) -> Optional[str]:
        """The persistent leaf-membership column for the tree just
        trained, or None when labels are unavailable/stale.  The boosting
        driver hands it to the residual updater's ``CASE jb_leaf`` fast
        path instead of per-leaf semi-join scans."""
        return self.evaluator.leaf_label_column(model)

    # ------------------------------------------------------------------
    def _apply_split(self, node: TreeNode, cand: SplitCandidate) -> None:
        node.gain = cand.gain
        left = TreeNode(
            node_id=next(self._ids),
            depth=node.depth + 1,
            predicate=cand.predicate,
            relation=cand.relation,
            parent=node,
            aggregates=dict(cand.left_aggregates),
        )
        right = TreeNode(
            node_id=next(self._ids),
            depth=node.depth + 1,
            predicate=cand.predicate.negate(),
            relation=cand.relation,
            parent=node,
            aggregates=dict(cand.right_aggregates),
        )
        left.prediction = self.criterion.leaf_value(left.aggregates)
        right.prediction = self.criterion.leaf_value(right.aggregates)
        node.left, node.right = left, right

    def _restrict_to_cluster(
        self, relation: str, features: Sequence[Tuple[str, str]]
    ) -> List[Tuple[str, str]]:
        """Features of the (first) cluster containing ``relation``."""
        for cluster in self.clusters or ():
            if relation in cluster:
                members = set(cluster.members)
                return [(rel, f) for rel, f in features if rel in members]
        known = ", ".join(
            f"{cluster.fact}={sorted(cluster.members)}"
            for cluster in self.clusters or ()
        ) or "none"
        raise TrainingError(
            f"relation {relation!r} is outside every CPT cluster "
            f"(known clusters: {known})"
        )
