"""Hash-sharded multi-node training (Figures 12 and 13).

Workers are real :class:`Database` instances over real hash partitions;
every aggregate a worker contributes is computed by real queries.  Two
clocks are kept:

* ``simulated_seconds`` — the paper's network model: a parallel step
  costs ``max(worker times)`` — each shard's compute, timed where the
  step runs — and each synchronization costs
  ``bytes / bandwidth + latency``.  This is what Figure 12 plots.
* ``measured_wall_seconds`` — the actual wall clock of running the
  shard steps on this machine.  This is what the fig12 bench now
  *measures* rather than models.

Every shard step is one :func:`~repro.engine.scheduler.run_tasks` call
with one task per shard, inline on one worker: the shards' steps run in
index order in this process, each over its shard's private
:class:`Database`, so each step's seconds are uncontended compute.  A
shard step retries transient errors (``MAX_STEP_RETRIES``); every shard
runs even when one fails, and the failure with the lowest shard index
is raised.

Trees are grown by the single-node
:class:`~repro.core.trainer.DecisionTreeTrainer` over a split search
that merges the shards' aggregates in shard-index order, and boosting
runs the single-node round loop
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

import dataclasses
import time
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.exceptions import TrainingError, TransientBackendError
from repro.core.params import TrainParams
from repro.core.residual import ResidualUpdater, check_semi_join_keys
from repro.core.split import (
    Criterion,
    GradientCriterion,
    SplitCandidate,
    VarianceCriterion,
    best_split_from_aggregates,
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
from repro.engine.retry import RetryCensus, RetryPolicy, call_with_retry
from repro.engine.scheduler import run_tasks
from repro.factorize.executor import Factorizer
from repro.factorize.predicates import PredicateMap
from repro.joingraph.graph import JoinGraph
from repro.distributed.partition import partition_database
from repro.semiring.gradient import GradientSemiRing
from repro.semiring.variance import VarianceSemiRing
from repro.semiring.losses import get_loss

#: transient-error retries per shard step
MAX_STEP_RETRIES = 3

T = TypeVar("T")

#: a shard step's retries run back to back (no backoff sleep)
_STEP_RETRY_POLICY = RetryPolicy(max_attempts=MAX_STEP_RETRIES + 1, base_delay=0.0)


@dataclasses.dataclass
class ClusterConfig:
    """Network model: per-sync latency plus bytes over bandwidth."""

    num_machines: int = 4
    bandwidth_bytes_per_s: float = 1e9
    latency_s: float = 5e-4


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
        config: Optional[ClusterConfig] = None,
        *,
        checkpoint: Optional[CheckpointSink] = None,
    ):
        self.config = config or ClusterConfig()
        self.workers, self.worker_graphs = partition_database(
            db, graph, self.config.num_machines, partition_key
        )
        self.graph = graph
        self.checkpoint = checkpoint
        self.simulated_seconds = 0.0
        self.measured_wall_seconds = 0.0
        self.shuffle_bytes = 0
        # retries only: exhaustion is counted once per step in _parallel
        self._step_retries = RetryCensus()
        self._retry_exhausted = 0

    # ------------------------------------------------------------------
    # Shard-step execution
    # ------------------------------------------------------------------
    def _run_step(self, step_fn: Callable[[int], T], index: int) -> T:
        """One shard step, with bounded transient retries."""
        return call_with_retry(
            partial(step_fn, index), _STEP_RETRY_POLICY, self._step_retries
        )

    def _parallel(self, step_fn: Callable[[int], T]) -> List[T]:
        """Run ``step_fn(i)`` for every shard ``i``; return index-ordered
        results and account both clocks.

        Every shard runs even when one fails; the failure of the lowest
        shard index is then raised, so merges downstream see only
        successful results, in shard-index order.
        """
        wall_start = time.perf_counter()
        try:
            results, seconds = run_tasks(
                [partial(self._run_step, step_fn, i)
                 for i in range(len(self.workers))]
            )
        except TransientBackendError:
            self._retry_exhausted += 1
            raise
        self.measured_wall_seconds += time.perf_counter() - wall_start
        self.simulated_seconds += max(seconds)
        return results

    def _sync(self, nbytes: int) -> None:
        """Account one coordinator synchronization."""
        self.shuffle_bytes += nbytes
        self.simulated_seconds += (
            self.config.latency_s + nbytes / self.config.bandwidth_bytes_per_s
        )

    def census(self) -> Dict[str, object]:
        """Retry counters plus both clocks, for benches and CI."""
        return {
            "num_shards": len(self.workers),
            "task_retries": self._step_retries.retries,
            "retry_exhausted": self._retry_exhausted,
            "simulated_seconds": self.simulated_seconds,
            "measured_wall_seconds": self.measured_wall_seconds,
            "shuffle_bytes": self.shuffle_bytes,
        }

    # ------------------------------------------------------------------
    def train_gradient_boosting(
        self, params: Optional[dict] = None, **overrides
    ) -> Tuple[GradientBoostingModel, float]:
        """Distributed rmse boosting; returns (model, simulated seconds).

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
        self.simulated_seconds = 0.0
        self.measured_wall_seconds = 0.0
        self.shuffle_bytes = 0

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
            return model, self.simulated_seconds

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
        return model, self.simulated_seconds

    def train_decision_tree(
        self, params: Optional[dict] = None, **overrides
    ) -> Tuple[DecisionTreeModel, float]:
        """Distributed decision tree (the Figure 13 warehouse workload)."""
        train_params = TrainParams.from_dict(params, **overrides).unbinned(
            "SimulatedCluster"
        )
        self.simulated_seconds = 0.0
        self.measured_wall_seconds = 0.0
        self.shuffle_bytes = 0
        factorizers = self._lift(VarianceSemiRing())
        criterion = VarianceCriterion()
        search = _MergedSplitSearch(self, factorizers, criterion, train_params)
        tree = DecisionTreeTrainer(self.graph, criterion, train_params, search).train()
        for factorizer in factorizers:
            factorizer.cleanup()
        tree.frontier_census = self.census()
        return tree, self.simulated_seconds

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

    def _merged_totals(
        self, factorizers: List[Factorizer], predicates: PredicateMap
    ) -> Dict[str, float]:
        results = self._parallel(lambda i: factorizers[i].totals(predicates))
        self._sync(len(factorizers) * 8 * max(len(r) for r in results))
        merged: Dict[str, float] = {}
        for result in results:
            for key, value in result.items():
                merged[key] = merged.get(key, 0.0) + value
        return merged

    def _merged_best_split(
        self,
        factorizers: List[Factorizer],
        criterion: Criterion,
        params: TrainParams,
        predicates: PredicateMap,
        totals: Dict[str, float],
        features: Sequence[Tuple[str, str]],
    ) -> Optional[SplitCandidate]:
        best: Optional[SplitCandidate] = None
        for relation, feature in features:
            merged = self._merged_feature_aggregate(
                factorizers, relation, feature, predicates
            )
            if merged is None:
                continue
            values, aggs = merged
            cand = best_split_from_aggregates(
                criterion, relation, feature, values, np.isnan(values), aggs,
                totals,
                categorical=self.graph.is_categorical(relation, feature),
                missing=params.missing,
                min_child_samples=params.min_child_samples,
            )
            if cand is not None and (best is None or cand.gain > best.gain):
                best = cand
        return best

    def _merged_feature_aggregate(
        self,
        factorizers: List[Factorizer],
        relation: str,
        feature: str,
        predicates: PredicateMap,
    ):
        comps = list(factorizers[0].semiring.components)

        def absorb(i: int) -> Dict[str, np.ndarray]:
            # Keep plain arrays, not Relations: arrays are what the merge
            # needs.
            result = factorizers[i].absorb(
                relation, [feature], predicates, tag="feature"
            )
            payload = {feature: result.column(feature).values.astype(np.float64)}
            for comp in comps:
                payload[comp] = result.column(comp).values.astype(np.float64)
            return payload

        results = self._parallel(absorb)
        values = np.concatenate([r[feature] for r in results])
        if len(values) == 0:
            return None
        stacked = {
            comp: np.concatenate([r[comp] for r in results]) for comp in comps
        }
        self._sync(int(values.nbytes + sum(a.nbytes for a in stacked.values())))
        codes, ngroups, first_idx, _ = factorize([values])
        merged_vals = values[first_idx]
        merged_aggs = {
            comp: group_sum(codes, ngroups, arr)[0] for comp, arr in stacked.items()
        }
        order = np.argsort(merged_vals, kind="stable")
        return merged_vals[order], {c: a[order] for c, a in merged_aggs.items()}


class _MergedSplitSearch:
    """The :class:`~repro.core.trainer.SplitSearch` the single-node
    trainer grows sharded trees with: one leaf at a time, every
    feature's per-shard group-by merged in shard-index order, scored by
    the single-node kernel."""

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
        return self.cluster._merged_totals(self.factorizers, {})

    def begin_tree(self, root: TreeNode) -> None:
        """No per-tree state."""

    def best_splits(
        self, nodes: Sequence[TreeNode], features: Sequence[Tuple[str, str]]
    ) -> Dict[int, Optional[SplitCandidate]]:
        """Each node's best split over the merged aggregates."""
        return {
            node.node_id: self.cluster._merged_best_split(
                self.factorizers, self.criterion, self.params,
                node.path_predicates(), node.aggregates, features,
            )
            for node in nodes
        }

    def notify_split(self, node: TreeNode) -> None:
        """Shards keep no leaf labels."""

    def leaf_label_column(self, model: DecisionTreeModel) -> Optional[str]:
        """Shards keep no leaf labels."""
        return None
