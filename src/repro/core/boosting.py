"""Factorized gradient boosting (Section 4) — the paper's headline feature.

Each iteration trains a decision tree on the (h, g) gradient annotations,
then updates those annotations in place of the residuals:

* **snowflake** schemas update the lifted fact table directly (1-1 with
  R⋈; Section 4.1), supporting every Table 3 loss;
* **galaxy** schemas use Clustered Predicate Trees (Section 4.2.2): every
  cluster fact carries an identity-initialized update annotation, each
  tree's splits are confined to one cluster, and the update multiplies
  that cluster's annotation by lift(lr·p) — valid exactly because the L2
  lift is addition-to-multiplication preserving (Definition 1).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import TrainingError
from repro.core.checkpoint import CheckpointSink, restored_rounds, write_checkpoint
from repro.core.frontier import FrontierEvaluator
from repro.core.params import TrainParams
from repro.core.session import TrainingSessionGuard
from repro.core.predict import rmse_on_join
from repro.core.residual import ResidualUpdater
from repro.core.split import GradientCriterion
from repro.core.trainer import DecisionTreeTrainer
from repro.core.tree import DecisionTreeModel
from repro.factorize.executor import (
    Factorizer,
    configure_encoding_cache,
    prepare_training_paths,
)
from repro.joingraph.clusters import Cluster, cluster_graph
from repro.joingraph.graph import JoinGraph
from repro.joingraph.hypertree import rooted_tree
from repro.semiring.gradient import GradientSemiRing
from repro.semiring.losses import Loss, SoftmaxLoss, get_loss
from repro.semiring.variance import VarianceSemiRing


@dataclasses.dataclass
class IterationRecord:
    """Per-iteration bookkeeping for the figure benches."""

    iteration: int
    train_seconds: float
    update_seconds: float
    rmse: Optional[float] = None


class GradientBoostingModel:
    """Trees + init score; identical scoring rule to LightGBM."""

    def __init__(
        self,
        trees: List[DecisionTreeModel],
        init_score: float,
        learning_rate: float,
        loss: Loss,
        history: Optional[List[IterationRecord]] = None,
    ):
        self.trees = trees
        self.init_score = init_score
        self.learning_rate = learning_rate
        self.loss = loss
        self.history = history if history is not None else []
        #: frontier/label/carry-cache accounting from the trainer (set by
        #: the training drivers; read by the Figure 9 bench and CI gates)
        self.frontier_census: Dict[str, object] = {}

    @property
    def required_features(self) -> List[str]:
        seen: List[str] = []
        for tree in self.trees:
            for _, column in tree.referenced_attributes():
                if column not in seen:
                    seen.append(column)
        return seen

    def predict_arrays(self, features: Dict[str, np.ndarray]) -> np.ndarray:
        n = len(next(iter(features.values()))) if features else 0
        score = np.full(n, self.init_score, dtype=np.float64)
        for tree in self.trees:
            score += self.learning_rate * tree.predict_arrays(features)
        return self.loss.predict_transform(score)

    def raw_scores(self, features: Dict[str, np.ndarray]) -> np.ndarray:
        n = len(next(iter(features.values()))) if features else 0
        score = np.full(n, self.init_score, dtype=np.float64)
        for tree in self.trees:
            score += self.learning_rate * tree.predict_arrays(features)
        return score


class MulticlassBoostingModel:
    """K parallel boosting chains with softmax scoring."""

    def __init__(
        self,
        trees_per_class: List[List[DecisionTreeModel]],
        init_scores: List[float],
        learning_rate: float,
        loss: SoftmaxLoss,
    ):
        self.trees_per_class = trees_per_class
        self.init_scores = init_scores
        self.learning_rate = learning_rate
        self.loss = loss
        #: one frontier census per class chain (set by the training driver)
        self.class_census: List[Dict[str, object]] = []

    @property
    def num_classes(self) -> int:
        return len(self.trees_per_class)

    @property
    def required_features(self) -> List[str]:
        seen: List[str] = []
        for chain in self.trees_per_class:
            for tree in chain:
                for _, column in tree.referenced_attributes():
                    if column not in seen:
                        seen.append(column)
        return seen

    def scores(self, features: Dict[str, np.ndarray]) -> np.ndarray:
        n = len(next(iter(features.values()))) if features else 0
        out = np.zeros((n, self.num_classes), dtype=np.float64)
        for k, chain in enumerate(self.trees_per_class):
            out[:, k] = self.init_scores[k]
            for tree in chain:
                out[:, k] += self.learning_rate * tree.predict_arrays(features)
        return out

    def predict_proba(self, features: Dict[str, np.ndarray]) -> np.ndarray:
        return SoftmaxLoss.softmax(self.scores(features))

    def predict_arrays(self, features: Dict[str, np.ndarray]) -> np.ndarray:
        return np.argmax(self.scores(features), axis=1).astype(np.float64)


# ---------------------------------------------------------------------------
# Schema classification
# ---------------------------------------------------------------------------
def is_snowflake(graph: JoinGraph, fact: str) -> bool:
    """True when every edge directed away from ``fact`` is N-to-1."""
    if any(e.multiplicity is None for e in graph.edges):
        graph.analyze()
    parent_map, children, _ = rooted_tree(graph, fact)
    for relation, kids in children.items():
        for child in kids:
            edge = next(
                e for e in graph.edges_of(relation) if e.other(relation) == child
            )
            mult = edge.multiplicity or "m-n"
            if edge.left == relation and mult not in ("n-1", "1-1"):
                return False
            if edge.right == relation and mult not in ("1-n", "1-1"):
                return False
    return True


def _init_score_sql(db, fact_table: str, y: str, loss: Loss) -> float:
    """Base prediction via one aggregate query over the fact table."""
    name = loss.name
    if name in ("l1", "mape"):
        value = db.execute(f"SELECT MEDIAN({y}) AS v FROM {fact_table}").scalar()
        return float(value)
    mean = float(db.execute(f"SELECT AVG({y}) AS v FROM {fact_table}").scalar())
    if name in ("poisson", "gamma", "tweedie"):
        return float(np.log(max(mean, 1e-9)))
    if name == "quantile":
        frame = db.execute(f"SELECT {y} FROM {fact_table}")
        return float(np.quantile(frame.column(y).as_float(), loss.alpha))
    return mean


def _join_mean(db, graph: JoinGraph) -> float:
    """Mean of Y over the non-materialized join (galaxy init score)."""
    ring = VarianceSemiRing()
    factorizer = Factorizer(db, graph, ring)
    factorizer.lift()
    totals = factorizer.totals()
    factorizer.cleanup()
    if totals.get("c", 0.0) <= 0:
        raise TrainingError("join result is empty")
    return totals["s"] / totals["c"]


# ---------------------------------------------------------------------------
# Training driver
# ---------------------------------------------------------------------------
def train_gradient_boosting(
    db,
    graph: JoinGraph,
    params: Optional[dict] = None,
    evaluate_every: int = 0,
    clusters: Optional[Sequence[Cluster]] = None,
    checkpoint: Optional[CheckpointSink] = None,
    resume_from: Optional[dict] = None,
    **overrides,
):
    """Train gradient boosting over a join graph (LightGBM-style entry).

    ``evaluate_every=k`` records training rmse every k iterations in the
    model history (used by the Figure 8c bench).  ``clusters`` forces the
    galaxy/CPT path with the given clustering.  ``checkpoint`` receives
    the partial model after every committed round (snowflake schemas
    only); ``resume_from`` is a validated checkpoint payload — use
    :func:`repro.core.checkpoint.resume_training` rather than passing it
    directly.
    """
    train_params = boosting_params(params, **overrides)
    loss = get_loss(train_params.objective, **train_params.loss_kwargs())
    if train_params.update_strategy == "naive" and not loss.supports_galaxy:
        # The U-join baseline shifts one additive component; other losses
        # must recompute g/h from the shifted prediction.
        raise TrainingError(
            "update_strategy 'naive' supports the additive rmse update "
            f"only, not objective {loss.name!r}"
        )
    graph.validate()
    configure_encoding_cache(db, train_params.encoding_cache)
    if isinstance(loss, SoftmaxLoss):
        if checkpoint is not None or resume_from is not None:
            raise TrainingError(
                "checkpoint/resume supports single-target snowflake "
                "boosting only; multiclass chains are not checkpointable"
            )
        return _train_multiclass(db, graph, train_params, loss)

    fact = graph.target_relation
    snowflake = is_snowflake(graph, fact) and clusters is None
    if not snowflake and not loss.supports_galaxy:
        raise TrainingError(
            f"objective {loss.name!r} requires a snowflake schema; galaxy "
            "schemas support rmse only (Section 5.1)"
        )
    if snowflake:
        return _train_snowflake(
            db, graph, train_params, loss, evaluate_every,
            checkpoint=checkpoint, resume_from=resume_from,
        )
    if checkpoint is not None or resume_from is not None:
        raise TrainingError(
            "checkpoint/resume supports snowflake schemas only; galaxy "
            "(CPT) training is not checkpointable yet"
        )
    return _train_galaxy(db, graph, train_params, loss, clusters)


def _train_snowflake(
    db,
    graph: JoinGraph,
    params: TrainParams,
    loss: Loss,
    evaluate_every: int,
    checkpoint: Optional[CheckpointSink] = None,
    resume_from: Optional[dict] = None,
) -> GradientBoostingModel:
    fact = graph.target_relation
    y = graph.target_column
    # Resume: the checkpoint's init score and trees are authoritative —
    # recomputing the init would re-run a query the interrupted run
    # already committed to.
    restored, init = restored_rounds(resume_from)
    if init is None:
        init = _init_score_sql(db, fact, y, loss)
    model = GradientBoostingModel(restored, init, params.learning_rate, loss)
    if len(restored) >= params.num_iterations:
        # The checkpoint already covers every round: nothing to train.
        return model

    ring = GradientSemiRing()
    factorizer = Factorizer(db, graph, ring)
    # Any failure from here on — chaos-injected or real — must leave the
    # connection re-trainable: the guard drops the lifted fact, message
    # temps and minted leaf columns before re-raising.
    with TrainingSessionGuard(db).register(factorizer):
        init_lit = repr(float(init))
        hessian_constant = loss.hessian_sql("y", "p") == "1"
        lift_exprs: List[Tuple[str, str]] = [("pred", init_lit)]
        lift_exprs += ring.lift_pair_sql(
            loss.hessian_sql(f"t.{y}", init_lit),
            loss.gradient_sql(f"t.{y}", init_lit),
        )
        fact_table = factorizer.lift(lift_exprs)
        # Training setup: factorize every join-key column once (embedded
        # encoding cache) and let external backends build physical access
        # paths — the sqlite connector indexes the lifted fact's join keys
        # and runs ANALYZE here.
        prepare_training_paths(db, graph, factorizer)
        updater = ResidualUpdater(
            db, graph, fact, fact_table, loss, strategy=params.update_strategy
        )
        criterion = GradientCriterion(
            reg_lambda=params.reg_lambda, count_weight=hessian_constant
        )
        evaluator = FrontierEvaluator.for_params(
            db, graph, factorizer, criterion, params
        )
        trainer = DecisionTreeTrainer(graph, criterion, params, evaluator)

        def update(tree: DecisionTreeModel, label_column: Optional[str]) -> None:
            # A current leaf-membership column makes the update one CASE
            # over it instead of per-leaf semi-join scans; replayed rounds
            # take the semi-join path, which is float-bit-identical.
            if loss.supports_galaxy:
                # L2: the gradient shifts additively by lr·p* — one column.
                updater.apply_additive(
                    tree, params.learning_rate, component="g",
                    label_column=label_column,
                )
            else:
                updater.apply_general(
                    tree, params.learning_rate, y_column=y,
                    hessian_constant=hessian_constant,
                    label_column=label_column,
                )
            factorizer.invalidate_for_relation(fact)

        boost_rounds(
            model, trainer, params, update,
            evaluate_every=evaluate_every, db=db, checkpoint=checkpoint,
        )
        model.frontier_census = {
            **evaluator.census(),
            "factorizer": factorizer.census(),
        }
        factorizer.cleanup()
    return model


def _train_galaxy(
    db,
    graph: JoinGraph,
    params: TrainParams,
    loss: Loss,
    clusters: Optional[Sequence[Cluster]],
) -> GradientBoostingModel:
    if clusters is None:
        clusters = cluster_graph(graph)
    target = graph.target_relation
    y = graph.target_column
    init = _join_mean(db, graph)
    ring = GradientSemiRing()
    factorizer = Factorizer(db, graph, ring)
    # Mid-training failure drops the cluster lifts and message temps.
    with TrainingSessionGuard(db).register(factorizer):
        # Target lift: g = p0 - y (the L2 gradient at the base score).
        factorizer.lift(ring.lift_pair_sql("1", f"({init!r} - t.{y})"))
        updaters: Dict[str, ResidualUpdater] = {}
        for cluster in clusters:
            table = (
                factorizer.lifted[target] if cluster.fact == target
                else factorizer.lift_identity(cluster.fact)
            )
            updaters[cluster.fact] = ResidualUpdater(
                db, graph, cluster.fact, table, loss,
                strategy=params.update_strategy,
            )
        prepare_training_paths(db, graph, factorizer)
        criterion = GradientCriterion(reg_lambda=params.reg_lambda)
        evaluator = FrontierEvaluator.for_params(
            db, graph, factorizer, criterion, params
        )
        trainer = DecisionTreeTrainer(
            graph, criterion, params, evaluator, clusters=clusters
        )

        def update(tree: DecisionTreeModel, _label_column: Optional[str]) -> None:
            cluster = _tree_cluster(tree, clusters, target)
            updaters[cluster.fact].apply_additive(
                tree, params.learning_rate, component=ring.g
            )
            factorizer.invalidate_for_relation(cluster.fact)

        model = GradientBoostingModel([], init, params.learning_rate, loss)
        # Per-iteration rmse would require materializing the galaxy join —
        # exactly what CPT exists to avoid — so galaxy history records
        # timings only (Figure 14 plots time, not accuracy).
        boost_rounds(model, trainer, params, update)
        model.frontier_census = {
            **evaluator.census(),
            "factorizer": factorizer.census(),
        }
        factorizer.cleanup()
    return model


def _tree_cluster(
    tree: DecisionTreeModel, clusters: Sequence[Cluster], target: str
) -> Cluster:
    """The cluster a trained tree's splits live in."""
    for node in tree.nodes():
        if node.relation is not None:
            for cluster in clusters:
                if node.relation in cluster:
                    return cluster
    # A stump that never split: update the target's own cluster if any,
    # else the first cluster (the delta applies to all rows uniformly).
    for cluster in clusters:
        if target in cluster:
            return cluster
    return clusters[0]


def _sample_features(
    graph: JoinGraph, params: TrainParams, rng: np.random.Generator
) -> Optional[List[Tuple[str, str]]]:
    features = graph.all_features()
    if params.colsample >= 1.0 or len(features) <= 1:
        return None
    size = max(1, int(round(len(features) * params.colsample)))
    picks = rng.choice(len(features), size=size, replace=False)
    return [features[i] for i in sorted(picks)]


def boosting_params(params: Optional[dict] = None, **overrides) -> TrainParams:
    """Parse a boosting run's parameters.  Boosting grows every tree on
    every row, so a row sample it would silently ignore is refused."""
    train_params = TrainParams.from_dict(params, **overrides)
    if train_params.subsample < 1.0:
        raise TrainingError(
            f"subsample (bagging_fraction) = {train_params.subsample} is not "
            "supported by gradient boosting, which trains every tree on "
            "every row; use train_random_forest for row bagging"
        )
    return train_params


def boost_rounds(
    model: GradientBoostingModel,
    trainer: DecisionTreeTrainer,
    params: TrainParams,
    update: Callable[[DecisionTreeModel, Optional[str]], None],
    *,
    evaluate_every: int = 0,
    db=None,
    checkpoint: Optional[CheckpointSink] = None,
) -> None:
    """The additive round loop every gradient-boosting driver runs.

    Each round samples features, grows a tree, and hands it to the
    driver's ``update`` step — which shifts the gradient state by the
    tree and invalidates the messages it staled — with the leaf-label
    column the trainer left current (or None).  ``model.trees`` may hold
    rounds restored from a checkpoint: their RNG draws are consumed and
    their updates replayed (with no label column) first, and node ids
    continue after them, so the run goes on exactly as an uninterrupted
    one would.  ``evaluate_every=k`` records the rmse over ``db`` every k
    rounds; ``checkpoint`` receives the model after every round.
    """
    rng = np.random.default_rng(params.seed)
    graph = trainer.graph
    for tree in model.trees:
        _sample_features(graph, params, rng)
        update(tree, None)
    trainer.continue_ids(model.trees)
    for iteration in range(len(model.trees), params.num_iterations):
        features = _sample_features(graph, params, rng)
        start = time.perf_counter()
        tree = trainer.train(feature_subset=features)
        train_seconds = time.perf_counter() - start
        start = time.perf_counter()
        update(tree, trainer.leaf_label_column(tree))
        update_seconds = time.perf_counter() - start
        model.trees.append(tree)
        record = IterationRecord(iteration, train_seconds, update_seconds)
        if evaluate_every and (iteration + 1) % evaluate_every == 0:
            record.rmse = rmse_on_join(db, graph, model)
        model.history.append(record)
        if checkpoint is not None:
            # The round is committed (tree appended, gradients shifted):
            # persist the partial model before starting the next one.
            write_checkpoint(checkpoint, model, params, iteration + 1)


# ---------------------------------------------------------------------------
# Multiclass (softmax) — snowflake only
# ---------------------------------------------------------------------------
def _train_multiclass(
    db, graph: JoinGraph, params: TrainParams, loss: SoftmaxLoss
) -> MulticlassBoostingModel:
    fact = graph.target_relation
    if not is_snowflake(graph, fact):
        raise TrainingError("softmax objectives require a snowflake schema")
    y = graph.target_column
    k = loss.num_classes

    # Init scores: log class priors.
    counts = db.execute(
        f"SELECT {y} AS label, COUNT(*) AS n FROM {fact} GROUP BY {y}"
    )
    total = float(counts["n"].sum())
    prior = np.full(k, 1e-9)
    for label, n in zip(counts["label"], counts["n"]):
        prior[int(label)] = n / total
    init_scores = [float(v) for v in np.log(prior)]

    # One lifted table holds every class's pred/h/g columns.
    rings = [GradientSemiRing(suffix=str(i)) for i in range(k)]
    factorizers = [Factorizer(db, graph, rings[i]) for i in range(k)]
    # Mid-training failure drops the shared lifted table and temps.
    with TrainingSessionGuard(db).register(factorizers[0]):
        return _train_multiclass_body(
            db, graph, params, loss, fact, y, k,
            init_scores, rings, factorizers,
        )


def _train_multiclass_body(
    db, graph, params, loss, fact, y, k, init_scores, rings, factorizers
) -> MulticlassBoostingModel:
    lift_exprs: List[Tuple[str, str]] = []
    prob_exprs = _softmax_exprs([repr(s) for s in init_scores])
    for i in range(k):
        lift_exprs.append((f"pred{i}", repr(init_scores[i])))
        lift_exprs += rings[i].lift_pair_sql(
            loss.hessian_sql_class(prob_exprs[i]),
            loss.gradient_sql_class(f"t.{y}", prob_exprs[i], i),
        )
    fact_table = factorizers[0].lift(lift_exprs)
    for factorizer in factorizers[1:]:
        factorizer.adopt_lifted(fact, fact_table)
    prepare_training_paths(db, graph, factorizers[0])

    evaluators = [
        FrontierEvaluator.for_params(
            db, graph, factorizers[i],
            GradientCriterion(
                reg_lambda=params.reg_lambda,
                weight_component=rings[i].h,
                sum_component=rings[i].g,
            ),
            params,
        )
        for i in range(k)
    ]
    trainers = [
        DecisionTreeTrainer(graph, evaluator.criterion, params, evaluator)
        for evaluator in evaluators
    ]
    updater = ResidualUpdater(
        db, graph, fact, fact_table, loss, strategy=params.update_strategy
    )
    alias = updater.alias
    probs = _softmax_exprs([f"{alias}.pred{i}" for i in range(k)])
    refresh: Dict[str, str] = {}
    for i in range(k):
        refresh[f"g{i}"] = loss.gradient_sql_class(f"{alias}.{y}", probs[i], i)
        refresh[f"h{i}"] = loss.hessian_sql_class(probs[i])

    rng = np.random.default_rng(params.seed)
    chains: List[List[DecisionTreeModel]] = [[] for _ in range(k)]
    for _ in range(params.num_iterations):
        # One feature sample per class tree, drawn in class order.
        new_trees = [
            trainer.train(feature_subset=_sample_features(graph, params, rng))
            for trainer in trainers
        ]
        # Shift every class's pred, then recompute all probabilities and
        # per-class gradients in one write.
        for i, (trainer, tree) in enumerate(zip(trainers, new_trees)):
            updater.write({f"pred{i}": updater.shift_expr(
                tree, params.learning_rate, f"pred{i}",
                trainer.leaf_label_column(tree),
            )})
            chains[i].append(tree)
        updater.write(refresh)
        for factorizer in factorizers:
            factorizer.invalidate_for_relation(fact)
    model = MulticlassBoostingModel(chains, init_scores, params.learning_rate, loss)
    model.class_census = [evaluator.census() for evaluator in evaluators]
    factorizers[0].cleanup()
    return model


def _softmax_exprs(pred_exprs: List[str]) -> List[str]:
    denominator = " + ".join(f"EXP({p})" for p in pred_exprs)
    return [f"(EXP({p}) / ({denominator}))" for p in pred_exprs]

