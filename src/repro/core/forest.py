"""Random forests over joins (bagging + feature sampling, Section 5.5.2).

Each tree trains on a data sample and a feature sample.  Data sampling
uses the snowflake fast path — a uniform row sample of the fact table is a
uniform sample of R⋈ because they are 1-1 — falling back to ancestral
sampling for general acyclic graphs.  Trees are independent, which is what
the paper's inter-query parallelism exploits (~35% faster random forests,
Figure 18): one task per tree through
:func:`~repro.engine.scheduler.run_tasks` — inline on one worker for
``num_workers`` 1 or "auto", or a backend without concurrent reads.
Every random draw (row sample, feature sample) is taken *serially* up
front in iteration order, so the forest is tree-for-tree identical at
any worker count regardless of which worker trains which tree; inner
trainers run serial (the tree is the unit of parallelism — nesting pools
would oversubscribe the backend).
"""

from __future__ import annotations

import dataclasses
import time
from functools import partial
from typing import Dict, List, Optional

import numpy as np

from repro.exceptions import TrainingError
from repro.core.boosting import _sample_features, is_snowflake
from repro.core.frontier import FrontierEvaluator, concurrent_read_veto
from repro.core.params import TrainParams
from repro.core.split import ClassificationCriterion, VarianceCriterion
from repro.core.trainer import DecisionTreeTrainer
from repro.core.tree import DecisionTreeModel, split_columns
from repro.engine.scheduler import run_tasks
from repro.factorize.executor import Factorizer, prepare_training_paths
from repro.factorize.sampling import ancestral_sample, sample_fact_table
from repro.joingraph.graph import JoinGraph
from repro.semiring.classcount import ClassCountSemiRing
from repro.semiring.variance import VarianceSemiRing


class RandomForestModel:
    """Bagged trees; predictions average (regression) or vote
    (classification)."""

    def __init__(self, trees: List[DecisionTreeModel], classification: bool,
                 num_classes: int = 0, history: Optional[List[float]] = None):
        self.trees = trees
        self.classification = classification
        self.num_classes = num_classes
        #: per-tree training seconds (benches read this)
        self.history = history if history is not None else []

    @property
    def required_features(self) -> List[str]:
        """Every feature column the trees split on, in first-use order."""
        return split_columns(self.trees)

    def predict_arrays(self, features: Dict[str, np.ndarray]) -> np.ndarray:
        """Score rows given a column -> array mapping of feature values:
        the trees' mean (regression) or majority vote (classification)."""
        if not self.trees:
            raise TrainingError("forest has no trees")
        stacked = np.stack([t.predict_arrays(features) for t in self.trees])
        if not self.classification:
            return stacked.mean(axis=0)
        votes = np.zeros((stacked.shape[1], self.num_classes))
        for row in stacked:
            for k in range(self.num_classes):
                votes[:, k] += row == k
        return votes.argmax(axis=1).astype(np.float64)


def train_random_forest(
    db,
    graph: JoinGraph,
    params: Optional[dict] = None,
    **overrides,
) -> RandomForestModel:
    """Train a random forest over the join graph.

    ``objective='regression'`` (variance criterion) or
    ``objective='multiclass'``/``'gini'``-style classification via the
    class-count semi-ring.
    """
    train_params = TrainParams.from_dict(params, **overrides).unbinned(
        "train_random_forest"
    )
    graph.validate()
    classification = train_params.objective.lower() in (
        "multiclass", "softmax", "binary", "classification",
    )
    fact = graph.target_relation
    rng = np.random.default_rng(train_params.seed)
    snowflake = is_snowflake(graph, fact)
    if classification:
        ring = ClassCountSemiRing(train_params.num_class)
        criterion = ClassificationCriterion(train_params.num_class, "gini")
    else:
        ring = VarianceSemiRing()
        criterion = VarianceCriterion()
    # The tree is the unit of parallelism: inner trainers stay serial.
    tree_params = dataclasses.replace(train_params, num_workers=1)

    def train_one(indexes: Optional[np.ndarray], feature_subset):
        sampled_fact = _materialize_sample(db, fact, indexes)
        start = time.perf_counter()
        factorizer = Factorizer(db, graph, ring)
        factorizer.lift(source_table=sampled_fact)
        prepare_training_paths(db, graph, factorizer)
        trainer = DecisionTreeTrainer(
            graph, criterion, tree_params,
            FrontierEvaluator(db, graph, factorizer, criterion, tree_params),
        )
        # Not a training session guard: its failure path drops every temp
        # minted since it was entered, and with num_workers > 1 those
        # include the lifted samples and messages of trees still growing
        # on other threads.  This tree drops its own state only.
        try:
            tree = trainer.train(feature_subset=feature_subset)
        finally:
            factorizer.cleanup()
            if sampled_fact != fact:
                db.drop_table(sampled_fact, if_exists=True)
        return tree, time.perf_counter() - start

    # Every random draw happens on this thread, in iteration order; only
    # the draws (row-index arrays, feature subsets) happen up front — each
    # task materializes and drops its own sampled fact table, so peak
    # sample storage is bounded by in-flight workers, not forest size.
    workers = (
        1 if concurrent_read_veto(db) is not None
        else train_params.resolved_workers()
    )
    tasks = []
    for _ in range(train_params.num_iterations):
        indexes = _sample_indexes(db, graph, fact, train_params, rng, snowflake)
        features = _sample_features(graph, train_params, rng)
        tasks.append(partial(train_one, indexes, features))
    grown, _ = run_tasks(tasks, workers)
    return RandomForestModel(
        [tree for tree, _ in grown], classification,
        num_classes=train_params.num_class if classification else 0,
        history=[seconds for _, seconds in grown],
    )


def _sample_indexes(
    db, graph: JoinGraph, fact: str, params: TrainParams,
    rng: np.random.Generator, snowflake: bool,
) -> Optional[np.ndarray]:
    """Draw one tree's fact-row sample (None = train on the full fact).

    This is the only RNG-consuming half of sampling — the forest calls
    it serially per tree so random state is deterministic, then each
    tree's task materializes its own sample."""
    if params.subsample >= 1.0:
        return None
    if snowflake:
        return sample_fact_table(db, fact, params.subsample, rng)
    n = db.table(fact).num_rows()
    size = max(1, int(round(n * params.subsample)))
    draws = ancestral_sample(db, graph, size, rng, root=fact)
    return draws[fact]


def _materialize_sample(db, fact: str, indexes: Optional[np.ndarray]) -> str:
    """Gather the drawn rows into a temp fact table (RNG-free)."""
    if indexes is None:
        return fact
    table = db.table(fact)
    data = {
        name: table.column(name).values[indexes]
        for name in table.column_names()
    }
    sampled_name = db.temp_name(f"sample_{fact}")
    db.create_table(sampled_name, data)
    return sampled_name
