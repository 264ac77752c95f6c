"""Batched frontier split evaluation — one split query per relation.

The naive trainer issues one best-split query per (leaf, feature): with L
open leaves and F features that is L x F queries per evaluation round,
the query blow-up the paper's batching optimization (Section 5, Figure 9)
exists to eliminate.  The :class:`FrontierEvaluator` collapses a round to
one query per relation:

1. **Label.**  Leaf membership is a persistent column on the lifted fact
   table, maintained by :class:`FrontierState`: one root pass per tree,
   then one depth-1 ``UPDATE … SET jb_leaf = CASE …`` per committed
   split relabels only the split leaf's rows (each child's one-level
   predicate rewritten fact-side by the Section 4.1 semi-join
   movement).  No per-round full-fact copy, no re-evaluation of
   ancestor sigmas; the final labels also drive the residual update
   (one ``CASE jb_leaf`` pass instead of per-leaf semi-join scans).

2. **Carry.**  For each relation R holding candidate features, a
   multi-group absorption (:meth:`Factorizer.multi_absorption`) routes
   messages from the labeled fact toward R with the label as an extra
   grouping column, restricted to the round's open leaves and cached
   under the leaf epoch; subtrees that do not contain the fact reuse the
   ordinary cached messages.

3. **Fuse.**  All of R's features become branches of a single ``UNION
   ALL`` query, each grouped by ``(jb_leaf, feature value)`` with a
   discriminator literal, so the whole frontier's aggregates for R arrive
   in one result set.

4. **Scan.**  Per (leaf, feature) slices run through the one client-side
   prefix-scan kernel (:func:`~repro.core.split.best_split_from_aggregates`)
   that also scores the per-leaf path's absorptions, and the winner per
   leaf is reduced in the caller's feature order.

5. **Subtract.**  When the criterion's weight is an exact row count
   (``Criterion.count_weight``), each leaf's slices are kept until its
   children are evaluated.  A round for two siblings then queries only
   the lighter child and derives the other's slices as parent minus
   queried child (:func:`subtract_slice`) — LightGBM's histogram
   subtraction.  The derived child's sums are float differences, so its
   gains and leaf values can differ from the per-leaf path's in the last
   bits; counts, and so every split's partition of the rows, are exact.
   Other criteria (non-constant hessians) query both children.

The fact a round labels is the factorizer's one lifted relation (a
snowflake's target, or a cuboid, which has no target column).  Batching
requires leaf membership to be a *function of that fact's rows*, i.e. a
snowflake schema (fact 1-1 with the join result), and a backend that can
keep the label column current.  Galaxy/CPT trees, outer-join
factorizers, backends without ``UNION ALL`` or predicated in-place
``UPDATE`` (``Capabilities.narrow_update``), and a delta update that
fails mid-training (e.g. a split behind a multi-column join key, which
the semi-join rewrite refuses) all record the reason on
``batching_veto`` and run the rest of training on the per-leaf path —
the parity reference; ``split_batching="off"`` forces it.  Batched and
per-leaf trees agree split for split, with sums equal to ~1e-12
relative wherever a child was derived, except where two features give
one partition of a leaf's rows with exactly equal gains.

Every batched round fans out one task per relation through
:func:`~repro.engine.scheduler.run_tasks` — the paper's Section 5.5.3
inter-query parallelism executed for real.  A task *builds* its
relation's carry messages (owned by the message cache), then per kind
group *reads* the fused query and *scans* it.  One worker runs the tasks
inline, relation by relation; with ``num_workers > 1`` (and a backend
declaring ``Capabilities.concurrent_read``) different relations' tasks
overlap on the pool's threads.  Candidates merge by (node, feature
index), and the subtraction runs client-side in the scan, so the grown
tree is bit-identical at every worker count and on every backend.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.params import TrainParams
from repro.core.residual import leaf_fact_condition
from repro.core.split import (
    Criterion,
    SplitCandidate,
    best_split_from_aggregates,
)
from repro.core.tree import TreeNode
from repro.engine.scheduler import run_tasks
from repro.exceptions import ExecutionError, ReproError, TrainingError
from repro.factorize.executor import Factorizer, MultiAbsorption
from repro.factorize.predicates import PredicateMap
from repro.joingraph.graph import JoinGraph
from repro.storage.column import Column, ColumnType

#: the leaf-membership grouping alias of the fused split queries
LEAF_COLUMN = "jb_leaf"

#: one (leaf, feature) slice of a fused result: the distinct feature
#: values, their NULL/NaN mask, and the aggregate arrays by component
Slice = Tuple[np.ndarray, np.ndarray, Dict[str, np.ndarray]]

#: one leaf's slices by ``(relation, feature)``
Slices = Dict[Tuple[str, str], Slice]

#: a child derived by subtraction, with its parent's slices
Sibling = Tuple[TreeNode, Slices]


def _state_column_name(names: Set[str]) -> str:
    """The persistent label column's name on a lifted fact holding
    ``names``: the first free ``jb_leaf_s<k>``.  Distinct from the bare
    grouping alias, and from every earlier trainer's column on a shared
    lifted fact (multiclass), yet a function of the table alone, so the
    statement text does not depend on what trained before."""
    k = 1
    while f"{LEAF_COLUMN}_s{k}" in names:
        k += 1
    return f"{LEAF_COLUMN}_s{k}"


def concurrent_read_veto(db) -> Optional[str]:
    """Why a round must NOT fan read queries out on this backend
    (``None`` = safe).  Connectors opt out via
    ``Capabilities.concurrent_read=False`` — and the reason string is
    what ``frontier_census["parallel_fallback_reason"]`` surfaces, so
    the fallback is never silent."""
    if db.capabilities.concurrent_read:
        return None
    return (
        f"backend dialect {db.dialect!r} declares "
        "Capabilities.concurrent_read=False"
    )


def subtract_slice(parent: Slice, child: Slice, weight: str) -> Slice:
    """The sibling's slice: ``parent`` minus ``child``, aligned by value.

    Numbers align by ``searchsorted``, strings by exact lookup, and the
    NULL/NaN groups of each side sum into one group matched on its own.
    The result keeps the parent's value order.  A group whose ``weight``
    (an exact row count) reaches 0 holds no sibling row and is dropped.
    A child value the parent lacks breaks the invariant that a child's
    rows are a subset of its parent's, so it raises instead of being
    skipped.
    """
    p_values, p_nulls, p_aggs = parent
    c_values, c_nulls, c_aggs = child
    present = np.flatnonzero(~p_nulls)
    rows = _align(p_values[present], c_values[~c_nulls])
    values = p_values[present]
    nulls = np.zeros(len(present), dtype=bool)
    aggs: Dict[str, np.ndarray] = {}
    for name, column in p_aggs.items():
        derived = column[present]
        derived[rows] -= c_aggs[name][~c_nulls]
        aggs[name] = derived
    null_rows = np.flatnonzero(p_nulls)
    if len(null_rows):
        values = np.concatenate([values, p_values[null_rows[:1]]])
        nulls = np.append(nulls, True)
        for name, derived in aggs.items():
            mass = p_aggs[name][p_nulls].sum() - c_aggs[name][c_nulls].sum()
            aggs[name] = np.append(derived, mass)
    elif c_nulls.any():
        raise TrainingError(
            "internal invariant violated: a child slice holds a NULL group "
            "its parent's slice lacks"
        )
    live = aggs[weight] != 0
    return values[live], nulls[live], {n: a[live] for n, a in aggs.items()}


def _align(parent_values: np.ndarray, child_values: np.ndarray) -> np.ndarray:
    """The position in ``parent_values`` of each of ``child_values``."""
    if len(child_values) == 0:
        return np.empty(0, dtype=np.intp)
    if len(parent_values) and parent_values.dtype.kind in "biuf" and (
        child_values.dtype.kind in "biuf"
    ):
        order = np.argsort(parent_values, kind="stable")
        ordered = parent_values[order]
        found = np.minimum(
            np.searchsorted(ordered, child_values), len(ordered) - 1
        )
        missing = ordered[found] != child_values
        positions = order[found]
    else:
        lookup = {value: i for i, value in enumerate(parent_values.tolist())}
        found_list = [lookup.get(value, -1) for value in child_values.tolist()]
        positions = np.asarray(found_list, dtype=np.intp)
        missing = positions < 0
    if missing.any():
        value = child_values[np.flatnonzero(missing)[0]]
        raise TrainingError(
            f"internal invariant violated: child slice value {value!r} is "
            "missing from its parent's slice"
        )
    return positions


class FrontierState:
    """Persistent, incrementally maintained leaf membership for one tree.

    Leaf membership over a snowflake join is monotone-refining state: a
    committed split only moves rows of the split leaf to one of its two
    children.  The state therefore keeps a physical label column on the
    lifted fact table and maintains it with narrow updates:

    * **root pass** (once per tree) — every row is labeled with the root
      node id (adding the column on first use);
    * **delta update** (per committed split) — one depth-1 ``UPDATE``
      relabels rows of the split leaf only, a ``CASE`` over each child's
      one-level predicate rewritten through the Section 4.1 semi-join
      movement.  Rows matching neither side (e.g. null join keys under
      an inner-join factorizer) keep the parent label and fall outside
      every ``jb_leaf IN (...)`` filter — exactly the rows no leaf's
      path predicate selects.

    ``epoch`` counts committed splits and keys the carry-message cache;
    the census counters feed the Figure 9 bench and CI label-byte gates.
    """

    def __init__(
        self,
        db,
        graph: JoinGraph,
        factorizer: Factorizer,
        fact: Optional[str],
    ):
        self.db = db
        self.graph = graph
        self.factorizer = factorizer
        self.fact = fact
        self.column: Optional[str] = None
        self.active = False
        self.epoch = 0
        self.leaf_ids: Set[int] = set()
        self._pending_root: Optional[TreeNode] = None
        # census
        self.root_label_passes = 0
        self.delta_label_updates = 0
        self.label_rows_written = 0
        self.label_bytes_written = 0

    # ------------------------------------------------------------------
    def begin_tree(self, root: TreeNode) -> None:
        """A new tree starts: previous labels are stale until re-rooted."""
        self.active = False
        self._pending_root = root
        self.epoch = 0
        self.leaf_ids = set()

    def deactivate(self) -> None:
        """The labels went stale: no round may read them again."""
        self.active = False
        self._pending_root = None

    # ------------------------------------------------------------------
    def ensure(self) -> Optional[str]:
        """The label column when its labels are current (None when they
        cannot be); runs the root pass when a tree is pending."""
        if self.active:
            return self.column
        if self._pending_root is None or self.fact is None:
            return None
        root_id = self._pending_root.node_id
        table = self.factorizer.storage_table(self.fact)
        if not self._root_pass(table, root_id):
            return None
        self._exempt_from_encoding_cache(table)
        self._pending_root = None
        self.active = True
        self.epoch = 0
        self.leaf_ids = {root_id}
        self.root_label_passes += 1
        rows = self.db.table(table).num_rows()
        self.label_rows_written += rows
        self.label_bytes_written += 8 * rows
        return self.column

    def _root_pass(self, table: str, root_id: int) -> bool:
        names = {c.lower() for c in self.db.table(table).column_names()}
        if self.column is not None and self.column in names:
            # Column survives across trees: re-rooting is one narrow pass.
            self.db.execute(
                f"UPDATE {table} SET {self.column} = {root_id}",
                tag="frontier_root",
            )
            return True
        name = _state_column_name(names)
        try:
            self.db.execute(
                f"ALTER TABLE {table} ADD COLUMN {name} INTEGER",
                tag="frontier_root",
            )
            self.db.execute(
                f"UPDATE {table} SET {name} = {root_id}", tag="frontier_root"
            )
        except ReproError:
            # The embedded engine has no ALTER: add the column through
            # the storage layer instead (pre-filled, no second pass).
            target = self.db.table(table)
            set_column = getattr(target, "set_column", None)
            if set_column is None:
                return False
            set_column(
                Column(name, np.full(len(target), root_id, dtype=np.int64))
            )
        self.column = name
        return True

    def _exempt_from_encoding_cache(self, table: str) -> None:
        """The persistent label column churns with every committed split:
        keep it out of the encoded-key cache (delta updates stay cheap,
        and the cache spends its budget on genuinely static columns)."""
        cache = getattr(self.db, "encodings", None)
        if cache is None or self.column is None:
            return
        target = self.db.table(table)
        uid = getattr(target, "uid", None)
        if uid is not None:
            cache.mark_uncached(uid, self.column)

    # ------------------------------------------------------------------
    def apply_split(self, node: TreeNode) -> None:
        """Relabel the split leaf's rows with one narrow update.

        ``UPDATE … SET label = CASE WHEN <left> THEN l WHEN <right> THEN
        r ELSE label END WHERE label = parent``: each child's predicate is
        rewritten fact-side on its own (depth 1) — ancestor sigmas are
        already encoded in ``label = parent``, so no depth-long semi-join
        chain is re-evaluated.  The left child wins a row both sides
        match, and the relabel is one statement: it applies whole or not
        at all.
        """
        if not self.active or self.fact is None:
            return
        table = self.factorizer.storage_table(self.fact)
        parent_id = node.node_id
        left, right = (
            leaf_fact_condition(
                self.graph,
                self.fact,
                {child.relation: (child.predicate,)},
                fact_alias=table,
            )
            for child in (node.left, node.right)
        )
        written = self.db.execute(
            f"UPDATE {table} SET {self.column} = CASE "
            f"WHEN {left} THEN {node.left.node_id} "
            f"WHEN {right} THEN {node.right.node_id} "
            f"ELSE {self.column} END WHERE {self.column} = {parent_id}",
            tag="frontier_delta",
        )
        self.delta_label_updates += 1
        # Label cells written: the rows the WHERE matched, i.e. every
        # row of the split leaf.
        self.label_rows_written += written
        self.label_bytes_written += 8 * written
        self.leaf_ids.discard(parent_id)
        self.leaf_ids.update((node.left.node_id, node.right.node_id))
        self.epoch += 1

    # ------------------------------------------------------------------
    def scope(self, frontier_ids: Sequence[int]):
        """Cache scope for carry messages: epoch + evaluated frontier."""
        return (self.epoch, frozenset(int(i) for i in frontier_ids))

    def covers(self, nodes: Sequence[TreeNode]) -> bool:
        """True when every one of ``nodes`` is a currently labeled leaf."""
        return all(node.node_id in self.leaf_ids for node in nodes)

    def census(self) -> Dict[str, int]:
        """Label passes, updates and cells written, for the Figure 9
        bench."""
        return {
            "root_label_passes": self.root_label_passes,
            "delta_label_updates": self.delta_label_updates,
            "label_rows_written": self.label_rows_written,
            "label_bytes_written": self.label_bytes_written,
        }


class FrontierEvaluator:
    """Finds the best split of every open-frontier leaf, batched by
    relation when the schema allows, per (leaf, feature) otherwise."""

    def __init__(
        self,
        db,
        graph: JoinGraph,
        factorizer: Factorizer,
        criterion: Criterion,
        params: TrainParams,
    ):
        self.db = db
        self.graph = graph
        self.factorizer = factorizer
        self.criterion = criterion
        self.params = params
        self.num_workers = params.resolved_workers()
        # The fact every batched round labels: the factorizer's one lifted
        # relation (None when it lifts several, e.g. a galaxy's facts).
        lifted = list(factorizer.lifted)
        self.fact = lifted[0] if len(lifted) == 1 else None
        self.state = FrontierState(db, graph, factorizer, self.fact)
        # The current tree's open leaves' slices, kept while their
        # children may still be derived by subtraction:
        # node_id -> {(relation, feature): slice}.
        self._slices: Dict[int, Slices] = {}
        # census counters (read by the Figure 9 bench and the CI gate)
        self.rounds = 0
        self.batched_rounds = 0
        self.batched_split_queries = 0
        self.per_leaf_split_queries = 0
        self.sibling_subtractions = 0
        # inter-query parallelism census (Figure 18 measured numbers)
        self.parallel_rounds = 0
        self.parallel_wall_seconds = 0.0
        self.parallel_busy_seconds = 0.0
        # why the most recent evaluation round stayed serial (None =
        # the round fanned out); census() derives a reason for rounds
        # that never reached the batched evaluator at all
        self.parallel_fallback_reason: Optional[str] = None
        self._batch_veto: Optional[str] = None
        self._veto_checked = False
        self._kind_cache: Dict[Tuple[str, str], str] = {}
        self._lifted_indexed = False

    # ------------------------------------------------------------------
    # Tree lifecycle (driven by the trainer)
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, float]:
        """The root aggregates of a new tree."""
        return self.factorizer.totals()

    def begin_tree(self, root: TreeNode) -> None:
        """Reset the incremental state for a new tree's root."""
        self.state.begin_tree(root)
        self._slices.clear()

    def notify_split(self, node: TreeNode) -> None:
        """A split committed: apply the delta label update.  A failure
        (a refused semi-join rewrite, a failed ``UPDATE``) never errors:
        the labels go stale, so the rest of training runs per-leaf."""
        if not self.state.active:
            return
        try:
            self.state.apply_split(node)
        except (TrainingError, ExecutionError) as exc:
            self.state.deactivate()
            self._batch_veto = f"delta label update failed: {exc}"

    def leaf_label_column(self, model) -> Optional[str]:
        """The persistent label column, when it is current for ``model``
        (drives the residual updater's ``CASE jb_leaf`` fast path)."""
        if not self.state.active or self.state.column is None:
            return None
        leaf_ids = {leaf.node_id for leaf in model.leaves()}
        if not leaf_ids <= self.state.leaf_ids:
            return None
        return self.state.column

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def best_splits(
        self,
        nodes: Sequence[TreeNode],
        features: Sequence[Tuple[str, str]],
    ) -> Dict[int, Optional[SplitCandidate]]:
        """Best split per frontier node (node_id -> candidate or None)."""
        if not nodes:
            return {}
        self.rounds += 1
        batching = self.params.split_batching != "off"
        if batching and self._batching_veto() is None:
            return self._batched(nodes, features)
        return self._per_leaf(nodes, features)

    def census(self) -> Dict[str, object]:
        """Query accounting for the Figure 9 reproduction and CI gates."""
        state = self.state.census()
        # Fault-tolerance counters: the connector's retry/chaos proxies
        # (connect(..., chaos=..., retry=...)) own statement retries on
        # every path, serial and fanned out alike.
        connector_retry = getattr(self.db, "retry_census", None)
        retry_snapshot = (
            connector_retry.snapshot() if connector_retry is not None
            else {"retries": 0, "exhausted": 0, "succeeded_after_retry": 0}
        )
        chaos_census = getattr(self.db, "chaos_census", None)
        return {
            "mode": self.params.split_batching,
            "rounds": self.rounds,
            "batched_rounds": self.batched_rounds,
            "root_label_passes": state["root_label_passes"],
            "delta_label_updates": state["delta_label_updates"],
            "label_cells_written": state["label_rows_written"],
            "label_bytes_written": state["label_bytes_written"],
            "carry_cache_hits": self.factorizer.carry_cache_hits,
            "carry_cache_misses": self.factorizer.carry_cache_misses,
            "batched_split_queries": self.batched_split_queries,
            "per_leaf_split_queries": self.per_leaf_split_queries,
            "sibling_subtractions": self.sibling_subtractions,
            "batching_veto": self._batching_veto(),
            "num_workers": self.num_workers,
            "parallel_rounds": self.parallel_rounds,
            "parallel_wall_seconds": self.parallel_wall_seconds,
            "parallel_busy_seconds": self.parallel_busy_seconds,
            "parallel_overlap_seconds": max(
                0.0, self.parallel_busy_seconds - self.parallel_wall_seconds
            ),
            "parallel_fallback_reason": self._fallback_reason(),
            "retries": retry_snapshot["retries"],
            "retry_exhausted": retry_snapshot["exhausted"],
            "recovered_after_retry": retry_snapshot["succeeded_after_retry"],
            "chaos_injected": (
                chaos_census.snapshot()["total"]
                if chaos_census is not None else 0
            ),
        }

    def _fallback_reason(self) -> Optional[str]:
        """Why evaluation rounds stayed serial (None = the most recent
        round fanned out to the worker pool).  Rounds that never reached
        the batched evaluator — per-leaf mode, batching vetoes — derive
        their reason here so the census never reports a silent serial
        fallback."""
        if self.parallel_fallback_reason is not None:
            return self.parallel_fallback_reason
        if self.parallel_rounds > 0:
            return None
        if self.num_workers <= 1:
            return "num_workers=1 (serial by request)"
        if self.params.split_batching == "off":
            return "split_batching='off' keeps rounds per-leaf"
        veto = self._batching_veto()
        if veto is not None:
            return f"batching unavailable: {veto}"
        return "no batched evaluation round ran"

    # ------------------------------------------------------------------
    # Eligibility
    # ------------------------------------------------------------------
    def _batching_veto(self) -> Optional[str]:
        """None when batching can run; otherwise the reason it cannot."""
        if self._veto_checked:
            return self._batch_veto
        self._veto_checked = True
        self._batch_veto = self._compute_veto()
        return self._batch_veto

    def _compute_veto(self) -> Optional[str]:
        capabilities = self.db.capabilities
        if not capabilities.union_all:
            return "backend lacks UNION ALL"
        if not capabilities.narrow_update:
            return "backend lacks narrow predicated UPDATE (leaf labels)"
        if self.factorizer.outer_joins:
            return "outer-join factorizer (missing-key tolerance mode)"
        if self.fact is None:
            return (
                f"non-snowflake schema (the factorizer lifts "
                f"{len(self.factorizer.lifted)} relations, not one fact)"
            )
        # Leaf membership must be a function of the fact row: every edge
        # directed away from the fact must be N-to-1 (snowflake).
        from repro.core.boosting import is_snowflake

        if not is_snowflake(self.graph, self.fact):
            return "non-snowflake schema (fact is not 1-1 with the join)"
        fact_columns = {
            c.lower()
            for c in self.db.table(
                self.factorizer.storage_table(self.fact)
            ).column_names()
        }
        if LEAF_COLUMN in fact_columns:
            return f"fact table already has a {LEAF_COLUMN!r} column"
        if not set(self.factorizer.semiring.components) <= fact_columns:
            return "lifted fact table lacks semi-ring components"
        return None

    # ------------------------------------------------------------------
    # Per-leaf path: one absorption per (leaf, feature)
    # ------------------------------------------------------------------
    def _per_leaf(
        self,
        nodes: Sequence[TreeNode],
        features: Sequence[Tuple[str, str]],
    ) -> Dict[int, Optional[SplitCandidate]]:
        if not self._lifted_indexed:
            # Standard messages out of the lifted fact group by its join
            # key: build that index before the first one (training setup
            # leaves it out, the batched path never reads it).
            self.db.index_lifted(self.graph, self.factorizer.lifted)
            self._lifted_indexed = True
        return {
            node.node_id: best_leaf_split(
                node, features, self._absorbed_slice,
                self.criterion, self.graph, self.params,
            )
            for node in nodes
        }

    def _absorbed_slice(
        self, relation: str, feature: str, predicates: PredicateMap
    ) -> Slice:
        """One (leaf, feature) slice read by its own absorption."""
        result = self.factorizer.absorb(
            relation, [feature], predicates, tag="feature"
        )
        self.per_leaf_split_queries += 1
        return self._slice_columns(result, feature)

    # ------------------------------------------------------------------
    # Batched path
    # ------------------------------------------------------------------
    def _batched(
        self,
        nodes: Sequence[TreeNode],
        features: Sequence[Tuple[str, str]],
    ) -> Dict[int, Optional[SplitCandidate]]:
        out: Dict[int, Optional[SplitCandidate]] = {
            node.node_id: None for node in nodes
        }
        # This round evaluates the parents' children: their slices are
        # needed by this round at most.
        held = {
            node.parent.node_id: self._slices.pop(node.parent.node_id)
            for node in nodes
            if node.parent is not None and node.parent.node_id in self._slices
        }
        eligible = [
            node for node in nodes if self.criterion.weight(node.aggregates) > 0
        ]
        if not eligible:
            return out
        fact, label_column = self.fact, self.state.ensure()
        if (
            fact is None
            or label_column is None
            or not self.state.covers(eligible)
        ):
            # The label column cannot serve this round: the rest of
            # training runs per-leaf, and the census says why.
            self._batch_veto = "lifted fact holds no current leaf labels"
            self._slices.clear()
            return self._per_leaf(nodes, features)
        self.batched_rounds += 1
        sibling = self._sibling_plan(eligible, features, held)
        queried = list(eligible)
        if sibling is not None:
            queried.remove(sibling[0])
            self.sibling_subtractions += 1
        candidates = self._evaluate_round(
            queried, features, fact, label_column, sibling
        )

        # Reduce in the caller's feature order so ties across features
        # break exactly as the per-leaf scan's first-strict-max does.
        for node in eligible:
            best: Optional[SplitCandidate] = None
            for index in range(len(features)):
                candidate = candidates.get((node.node_id, index))
                if candidate is not None and (
                    best is None or candidate.gain > best.gain
                ):
                    best = candidate
            out[node.node_id] = best
        return out

    def _sibling_plan(
        self,
        eligible: Sequence[TreeNode],
        features: Sequence[Tuple[str, str]],
        held: Dict[int, Slices],
    ) -> Optional[Sibling]:
        """``(derived child, parent's slices)`` when this round can query
        one of two siblings and derive the other; None otherwise.

        The lighter child (by weight, then node id) is queried, so the
        round aggregates the fewer rows.
        """
        if not self.criterion.count_weight or len(eligible) != 2:
            return None
        parent = eligible[0].parent
        if parent is None or eligible[1].parent is not parent:
            return None
        slices = held.get(parent.node_id)
        if slices is None or not all(key in slices for key in features):
            return None
        weight = self.criterion.weight
        _, derived = sorted(
            eligible, key=lambda node: (weight(node.aggregates), node.node_id)
        )
        return derived, slices

    # ------------------------------------------------------------------
    # The round pipeline (Section 5.5.3 inter-query parallelism)
    # ------------------------------------------------------------------
    def _pool_eligible(
        self, by_relation: Dict[str, List[Tuple[int, str]]]
    ) -> int:
        """The worker count for one round's tasks.  Fanning out needs >1
        worker, >1 relation to overlap, and a backend whose read path is
        declared concurrency-safe (``Capabilities.concurrent_read``);
        otherwise the round runs inline on one worker, and the reason is
        recorded on ``parallel_fallback_reason`` — the
        silent-serialization bug this census field exists to fix."""
        if self.num_workers <= 1:
            reason = "num_workers=1 (serial by request)"
        else:
            reason = concurrent_read_veto(self.db)
        if reason is None and len(by_relation) <= 1:
            reason = "single feature-bearing relation (nothing to overlap)"
        self.parallel_fallback_reason = reason
        return 1 if reason is not None else self.num_workers

    def _evaluate_round(
        self,
        nodes: Sequence[TreeNode],
        features: Sequence[Tuple[str, str]],
        fact: str,
        label_column: str,
        sibling: Optional[Sibling] = None,
    ) -> Dict[Tuple[int, int], SplitCandidate]:
        """One evaluation round, one task per relation; returns the split
        candidates keyed by ``(node_id, feature index)``.  With a
        ``sibling`` (derived child, parent's slices), ``nodes`` is the
        one queried child, and each scan also derives and scores the
        sibling.

        Each relation's task *builds* its carry messages (serialized
        against other builds by the factorizer's build lock, cached under
        the leaf epoch so relations whose routing paths share a prefix
        reuse them), then per kind group *reads* the fused query and
        *scans* it client-side; the read result is freed as soon as its
        scan ends.  The message cache owns every carry message, so
        nothing is left to drop when a task ends or fails.  A failed
        build or read ends its relation's task while the other relations
        still run, and the lowest relation's failure is raised — one
        worker and many issue the same statements.  Inline, the tasks
        run relation by relation; on the pool they overlap.  Candidate
        keys are disjoint across relations, so the merged map, and the
        tree, is bit-identical at every worker count.
        """
        frontier_ids = sorted(node.node_id for node in nodes)
        scope = self.state.scope(frontier_ids)
        # Evict carry messages keyed to any other leaf epoch — their
        # labels are stale the moment a split commits.
        self.factorizer.begin_carry_scope(scope)
        by_relation: Dict[str, List[Tuple[int, str]]] = {}
        for index, (relation, feature) in enumerate(features):
            by_relation.setdefault(relation, []).append((index, feature))
        if self.criterion.count_weight:
            evaluated = list(nodes) + ([sibling[0]] if sibling else [])
            for node in evaluated:
                self._slices[node.node_id] = {}
        num_workers = self._pool_eligible(by_relation)
        candidates: Dict[Tuple[int, int], SplitCandidate] = {}

        # No retry wiring here: each statement a task issues is retried by
        # the connector that runs it, so wrapping the task in a second
        # retry loop would multiply the attempts per statement.
        def chain(relation: str, groups: List[List[Tuple[int, str]]]) -> None:
            absorption = self.factorizer.multi_absorption(
                relation,
                carry={fact: (label_column,)},
                carry_filters={(fact, label_column): tuple(frontier_ids)},
                cache_scope=scope,
            )
            for group in groups:
                # A pooled per-thread connection on sqlite, the audited
                # in-process read path on the embedded engine.
                sql = self._fused_sql(
                    relation, group, fact, absorption, label_column,
                    frontier_ids,
                )
                self._scan_fused_result(
                    self.db.execute_read(sql, tag="feature"),
                    relation, group, nodes, sibling, candidates,
                )

        tasks, queries = [], 0
        for relation, indexed in by_relation.items():
            groups = self._split_by_kind(relation, indexed)
            tasks.append(partial(chain, relation, groups))
            queries += len(groups)
        wall_start = time.perf_counter()
        _, seconds = run_tasks(tasks, num_workers)
        self.batched_split_queries += queries
        if num_workers > 1:
            self.parallel_rounds += 1
            self.parallel_wall_seconds += time.perf_counter() - wall_start
            self.parallel_busy_seconds += sum(seconds)
        return candidates

    def _split_by_kind(
        self, relation: str, indexed: List[Tuple[int, str]]
    ) -> List[List[Tuple[int, str]]]:
        """Partition a relation's features into UNION-compatible groups.

        String-valued and numeric features cannot share a ``jb_value``
        column, so a relation mixing them issues one query per kind (the
        common all-numeric relation stays a single query).
        """
        groups: Dict[str, List[Tuple[int, str]]] = {}
        for index, feature in indexed:
            key = (relation, feature)
            kind = self._kind_cache.get(key)
            if kind is None:
                table = self.db.table(self.factorizer.storage_table(relation))
                column = table.column(feature)
                kind = "str" if column.ctype is ColumnType.STR else "num"
                self._kind_cache[key] = kind
            groups.setdefault(kind, []).append((index, feature))
        return list(groups.values())

    def _fused_sql(
        self,
        relation: str,
        indexed: List[Tuple[int, str]],
        fact: str,
        absorption: MultiAbsorption,
        label_column: str,
        frontier_ids: Sequence[int],
    ) -> str:
        """Render the fused ``UNION ALL`` split query for one relation's
        kind group.  Pure SQL construction."""
        leaf_ref = absorption.ref(fact, label_column)
        agg_sql = ", ".join(
            f"{expr} AS {comp}" for comp, expr in absorption.agg_selects
        )
        # The label column covers every open leaf; restrict to the round's
        # frontier.
        rendered = ", ".join(str(int(i)) for i in frontier_ids)
        branches = []
        for index, feature in indexed:
            branches.append(
                f"SELECT {index} AS jb_feature, t.{feature} AS jb_value, "
                f"{leaf_ref} AS {LEAF_COLUMN}, {agg_sql} "
                f"{absorption.from_sql} "
                f"WHERE {leaf_ref} IN ({rendered}) "
                f"GROUP BY {leaf_ref}, t.{feature}"
            )
        return " UNION ALL ".join(branches)

    def _scan_fused_result(
        self,
        result,
        relation: str,
        indexed: List[Tuple[int, str]],
        nodes: Sequence[TreeNode],
        sibling: Optional[Sibling],
        candidates: Dict[Tuple[int, int], SplitCandidate],
    ) -> None:
        """Client-side prefix scan over a fused query's aggregates,
        filling ``candidates`` keyed by ``(node_id, feature index)`` —
        identical numpy arithmetic regardless of which worker produced
        ``result``.  Each evaluated leaf with an entry in ``_slices``
        keeps its slices there; a ``sibling``'s are its parent's minus
        the queried child's."""
        columns = self._fused_columns(result)
        components = self.criterion.components
        weight = components[0]
        for index, feature in indexed:
            key = (relation, feature)
            pieces = [
                (node, _take_slice(columns, index, node.node_id, components))
                for node in nodes
            ]
            if sibling is not None:
                derived, parent_slices = sibling
                pieces.append((
                    derived,
                    subtract_slice(parent_slices[key], pieces[0][1], weight),
                ))
            for node, piece in pieces:
                kept = self._slices.get(node.node_id)
                if kept is not None:
                    kept[key] = piece
                candidate = _best_of_slice(
                    self.criterion, self.graph, self.params,
                    relation, feature, piece, node.aggregates,
                )
                if candidate is not None:
                    candidates[(node.node_id, index)] = candidate

    def _slice_columns(self, result, value_name: str) -> Slice:
        """``(values, nulls, aggregates)`` of an aggregate result: the
        ``value_name`` column with NaN folded into its nulls, and each
        criterion component as float64."""
        column = result.column(value_name)
        values = column.values
        nulls = column.is_null()
        if values.dtype.kind == "f":
            nulls = nulls | np.isnan(values)
        return values, nulls, {
            c: result.column(c).values.astype(np.float64)
            for c in self.criterion.components
        }

    def _fused_columns(self, result):
        """``(feature ids, leaf ids, values, nulls, aggregates)`` of a
        fused result; None when it holds no rows."""
        if result is None or result.num_rows == 0:
            return None
        return (
            result.column("jb_feature").values.astype(np.int64),
            np.asarray(
                result.column(LEAF_COLUMN).values, dtype=np.float64
            ).astype(np.int64),
            *self._slice_columns(result, "jb_value"),
        )


def best_leaf_split(
    node: TreeNode,
    features: Sequence[Tuple[str, str]],
    slice_of: Callable[[str, str, PredicateMap], Slice],
    criterion: Criterion,
    graph: JoinGraph,
    params: TrainParams,
) -> Optional[SplitCandidate]:
    """``node``'s best split, one feature at a time: the split kernel
    over each ``slice_of(relation, feature, predicates)``, the first
    strict maximum in feature order winning.  A node without weight has
    no split and reads nothing.  The per-leaf path and the sharded search
    both scan their leaves with it."""
    if criterion.weight(node.aggregates) <= 0:
        return None
    predicates = node.path_predicates()
    best: Optional[SplitCandidate] = None
    for relation, feature in features:
        candidate = _best_of_slice(
            criterion, graph, params, relation, feature,
            slice_of(relation, feature, predicates), node.aggregates,
        )
        if candidate is not None and (best is None or candidate.gain > best.gain):
            best = candidate
    return best


def _best_of_slice(
    criterion: Criterion,
    graph: JoinGraph,
    params: TrainParams,
    relation: str,
    feature: str,
    piece: Slice,
    totals: Dict[str, float],
) -> Optional[SplitCandidate]:
    """The split kernel over one (leaf, feature) slice."""
    values, nulls, aggs = piece
    if len(values) == 0:
        return None
    return best_split_from_aggregates(
        criterion, relation, feature, values, nulls, aggs, totals,
        categorical=graph.is_categorical(relation, feature),
        missing=params.missing, min_child_samples=params.min_child_samples,
    )


def _take_slice(
    columns, index: int, node_id: int, components: Sequence[str]
) -> Slice:
    """One (leaf, feature) slice of :meth:`FrontierEvaluator._fused_columns`
    (empty when the leaf has no row for the feature)."""
    if columns is None:
        empty = np.empty(0)
        return empty, np.empty(0, dtype=bool), {c: empty for c in components}
    feature_ids, leaf_ids, values, nulls, aggs = columns
    mask = (feature_ids == index) & (leaf_ids == node_id)
    return values[mask], nulls[mask], {c: a[mask] for c, a in aggs.items()}
