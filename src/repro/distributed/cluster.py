"""Hash-sharded multi-node training (Figures 12 and 13).

Workers are real :class:`Database` instances over real hash partitions;
every aggregate a worker contributes is computed by real queries.  The
cluster executes and measures; it models nothing.  :meth:`census`
reports what it measured:

* ``step_seconds`` — the sum over shard steps of the slowest shard's
  seconds, each shard's compute timed where its step runs;
* ``syncs`` and ``shuffle_bytes`` — how many coordinator
  synchronizations the merges made and the bytes they moved;
* ``measured_wall_seconds`` — the actual wall clock of running the
  shard steps on this machine.

The network model that turns these into the paper's simulated seconds
lives with the figures (:func:`repro.bench.harness.simulated_seconds`).

Every shard step is one :func:`~repro.engine.scheduler.run_tasks` call
with one task per shard, inline on one worker: the shards' steps run in
index order in this process, each over its shard's private
:class:`Database`, so each step's seconds are uncontended compute.
Every shard runs even when one fails, and the failure with the lowest
shard index is raised.  A step is never retried here: a caller who wants
statement retries wraps ``workers`` in
:class:`~repro.backends.chaos.RetryConnector`.

Trees are grown by the single-node
:class:`~repro.core.trainer.DecisionTreeTrainer` over a split search
that merges the shards' aggregates in shard-index order and scores each
leaf with the single-node scan (:func:`~repro.core.frontier.best_leaf_split`),
and boosting runs the single-node round loop
(:func:`~repro.core.boosting.boost_rounds`) with a per-shard update
step.  So the model equals single-node ``split_batching="off"``
training at one shard, and is bit-identical across shard counts on
exact-arithmetic data — which the tests assert via ``model_digest``.

Checkpoints are written at shard-merge granularity: after every
committed boosting round — i.e. once all shards have merged the round's
residual update — the partial model goes to the configured
:class:`~repro.core.checkpoint.CheckpointSink`.  A cluster built over
the same data resumes from the last committed round, replaying the
restored trees' residual updates through the same per-shard path.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.exceptions import TrainingError
from repro.core.frontier import Slice, best_leaf_split
from repro.core.params import TrainParams
from repro.core.residual import ResidualUpdater, check_semi_join_keys
from repro.core.split import (
    Criterion,
    GradientCriterion,
    SplitCandidate,
    VarianceCriterion,
)
from repro.core.trainer import DecisionTreeTrainer
from repro.core.tree import DecisionTreeModel, TreeNode
from repro.core.boosting import (
    GradientBoostingModel,
    boost_rounds,
    boosting_params,
)
from repro.core.checkpoint import (
    CheckpointSink,
    read_resume,
    restored_rounds,
)
from repro.engine.operators import factorize, group_sum
from repro.engine.scheduler import run_tasks
from repro.factorize.executor import Factorizer
from repro.factorize.predicates import PredicateMap
from repro.joingraph.graph import JoinGraph
from repro.distributed.partition import partition_database
from repro.semiring.gradient import GradientSemiRing
from repro.semiring.variance import VarianceSemiRing
from repro.semiring.losses import get_loss

T = TypeVar("T")


class SimulatedCluster:
    """Data-parallel factorized training over hash partitions.

    ``checkpoint`` is a :class:`CheckpointSink` that receives the
    partial model after every committed boosting round and is consulted
    for resume on the next ``train_gradient_boosting`` call.
    """

    def __init__(
        self,
        db,
        graph: JoinGraph,
        partition_key: str,
        num_machines: int = 4,
        *,
        checkpoint: Optional[CheckpointSink] = None,
    ):
        self.workers, self.worker_graphs = partition_database(
            db, graph, num_machines, partition_key
        )
        self.graph = graph
        self.checkpoint = checkpoint
        self._reset_census()

    # ------------------------------------------------------------------
    # Shard-step execution
    # ------------------------------------------------------------------
    def _reset_census(self) -> None:
        self.step_seconds = 0.0
        self.syncs = 0
        self.shuffle_bytes = 0
        self.measured_wall_seconds = 0.0

    def _parallel(self, step_fn: Callable[[int], T]) -> List[T]:
        """Run ``step_fn(i)`` for every shard ``i``; return index-ordered
        results and account the step's slowest shard and its wall.

        Every shard runs even when one fails; the failure of the lowest
        shard index is then raised, so merges downstream see only
        successful results, in shard-index order.
        """
        wall_start = time.perf_counter()
        results, seconds = run_tasks(
            [partial(step_fn, i) for i in range(len(self.workers))]
        )
        self.measured_wall_seconds += time.perf_counter() - wall_start
        self.step_seconds += max(seconds)
        return results

    def _sync(self, nbytes: int) -> None:
        """Count one coordinator synchronization moving ``nbytes``."""
        self.syncs += 1
        self.shuffle_bytes += nbytes

    def census(self) -> Dict[str, object]:
        """What the last training measured, for the figure harness."""
        return {
            "num_shards": len(self.workers),
            "step_seconds": self.step_seconds,
            "syncs": self.syncs,
            "shuffle_bytes": self.shuffle_bytes,
            "measured_wall_seconds": self.measured_wall_seconds,
        }

    # ------------------------------------------------------------------
    def train_gradient_boosting(
        self, params: Optional[dict] = None, **overrides
    ) -> GradientBoostingModel:
        """Distributed rmse boosting.

        Each tree is grown by the single-node trainer over merged shard
        aggregates and applied by the single-node round loop, whose update
        step shifts every shard's gradients.  With a ``checkpoint`` sink
        configured, every committed round is checkpointed after its
        residual update has merged on all shards, and a non-empty sink
        resumes from its last committed round (parameters must match the
        checkpoint on every model-defining field; the restored trees'
        updates are replayed per shard before training continues).
        """
        train_params = boosting_params(params, **overrides).unbinned(
            "SimulatedCluster"
        )
        payload: Optional[dict] = None
        resumed = read_resume(self.checkpoint, train_params)
        if resumed is not None:
            payload, train_params = resumed
        loss = get_loss(train_params.objective, **train_params.loss_kwargs())
        if not loss.supports_galaxy:
            raise TrainingError("distributed training supports rmse only")
        self._reset_census()

        fact = self.graph.target_relation
        y = self.graph.target_column
        check_semi_join_keys(self.graph, fact)
        workers, worker_graphs = self.workers, self.worker_graphs
        # The checkpoint's init score and trees are authoritative.
        restored, init = restored_rounds(payload)
        if init is None:
            query = f"SELECT SUM({y}) AS s, COUNT(*) AS n FROM {fact}"

            def shard_stats(i: int) -> Dict[str, Any]:
                result = workers[i].execute(query)
                if result is None:
                    raise TrainingError("shard statistics query returned no result")
                return dict(result.first_row())

            stats = self._parallel(shard_stats)
            self._sync(len(stats) * 16)
            total = sum(float(row["n"]) for row in stats)
            init = sum(float(row["s"] or 0.0) for row in stats) / max(total, 1.0)
        model = GradientBoostingModel(
            restored, init, train_params.learning_rate, loss
        )
        if len(restored) >= train_params.num_iterations:
            # The checkpoint already covers every round.
            model.frontier_census = self.census()
            return model

        ring = GradientSemiRing()
        factorizers = self._lift(
            ring, ring.lift_pair_sql("1", f"({init!r} - t.{y})")
        )
        updaters = [
            ResidualUpdater(
                worker, wgraph, fact, factorizer.lifted[fact], loss,
                strategy="swap",
            )
            for worker, wgraph, factorizer in zip(
                workers, worker_graphs, factorizers
            )
        ]

        def update(tree: DecisionTreeModel, _label_column: Optional[str]) -> None:
            def shard_update(i: int) -> None:
                updaters[i].apply_additive(
                    tree, train_params.learning_rate, component=ring.g
                )
                factorizers[i].invalidate_for_relation(fact)

            self._parallel(shard_update)

        criterion = GradientCriterion(reg_lambda=train_params.reg_lambda)
        search = _MergedSplitSearch(self, factorizers, criterion, train_params)
        trainer = DecisionTreeTrainer(self.graph, criterion, train_params, search)
        boost_rounds(
            model, trainer, train_params, update, checkpoint=self.checkpoint
        )
        for factorizer in factorizers:
            factorizer.cleanup()
        if self.checkpoint is not None:
            self.checkpoint.clear()
        model.frontier_census = self.census()
        return model

    def train_decision_tree(
        self, params: Optional[dict] = None, **overrides
    ) -> DecisionTreeModel:
        """Distributed decision tree (the Figure 13 warehouse workload)."""
        train_params = TrainParams.from_dict(params, **overrides).unbinned(
            "SimulatedCluster"
        )
        self._reset_census()
        factorizers = self._lift(VarianceSemiRing())
        criterion = VarianceCriterion()
        search = _MergedSplitSearch(self, factorizers, criterion, train_params)
        tree = DecisionTreeTrainer(self.graph, criterion, train_params, search).train()
        for factorizer in factorizers:
            factorizer.cleanup()
        tree.frontier_census = self.census()
        return tree

    # ------------------------------------------------------------------
    # Tree growth over merged aggregates
    # ------------------------------------------------------------------
    def _lift(self, ring, lift_exprs=None) -> List[Factorizer]:
        """Every shard's lifted fact; factorizers[i] is shard i's."""

        def lift(i: int) -> Factorizer:
            factorizer = Factorizer(self.workers[i], self.worker_graphs[i], ring)
            factorizer.lift(lift_exprs)
            return factorizer

        return self._parallel(lift)


class _MergedSplitSearch:
    """The :class:`~repro.core.trainer.SplitSearch` the single-node
    trainer grows sharded trees with: one leaf at a time, every
    feature's per-shard group-by merged in shard-index order, scored by
    the single-node per-leaf scan."""

    def __init__(
        self,
        cluster: SimulatedCluster,
        factorizers: List[Factorizer],
        criterion: Criterion,
        params: TrainParams,
    ):
        self.cluster = cluster
        self.factorizers = factorizers
        self.criterion = criterion
        self.params = params

    def totals(self) -> Dict[str, float]:
        """The merged root aggregates."""
        results = self.cluster._parallel(lambda i: self.factorizers[i].totals())
        self.cluster._sync(len(results) * 8 * max(len(r) for r in results))
        merged: Dict[str, float] = {}
        for result in results:
            for key, value in result.items():
                merged[key] = merged.get(key, 0.0) + value
        return merged

    def begin_tree(self, root: TreeNode) -> None:
        """No per-tree state."""

    def best_splits(
        self, nodes: Sequence[TreeNode], features: Sequence[Tuple[str, str]]
    ) -> Dict[int, Optional[SplitCandidate]]:
        """Each node's best split over the merged aggregates."""
        return {
            node.node_id: best_leaf_split(
                node, features, self._merged_slice,
                self.criterion, self.cluster.graph, self.params,
            )
            for node in nodes
        }

    def notify_split(self, node: TreeNode) -> None:
        """Shards keep no leaf labels."""

    def leaf_label_column(self, model: DecisionTreeModel) -> Optional[str]:
        """Shards keep no leaf labels."""
        return None

    def _merged_slice(
        self, relation: str, feature: str, predicates: PredicateMap
    ) -> Slice:
        """One feature's per-shard group-bys merged in shard-index order,
        as a :data:`~repro.core.frontier.Slice` sorted by value."""
        names = [feature, *self.factorizers[0].semiring.components]

        def absorb(i: int) -> List[np.ndarray]:
            result = self.factorizers[i].absorb(
                relation, [feature], predicates, tag="feature"
            )
            return [result.column(n).values.astype(np.float64) for n in names]

        values, *stacked = (
            np.concatenate(arrays)
            for arrays in zip(*self.cluster._parallel(absorb))
        )
        if len(values) == 0:
            return values, np.isnan(values), dict(zip(names[1:], stacked))
        self.cluster._sync(int(values.nbytes + sum(a.nbytes for a in stacked)))
        codes, ngroups, first_idx, _ = factorize([values])
        order = np.argsort(values[first_idx], kind="stable")
        values = values[first_idx][order]
        return values, np.isnan(values), {
            name: group_sum(codes, ngroups, arr)[0][order]
            for name, arr in zip(names[1:], stacked)
        }
