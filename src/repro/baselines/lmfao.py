"""Figure 16a's in-DB decision-tree ablation variants.

Four ways to train the same tree, isolating where JoinBoost's speedups
come from:

* ``naive``     — materialize R⋈ as a wide table, group-by per feature
  per node.  No factorization.
* ``batch``     — LMFAO's logical optimizations: factorized message
  passing with work shared *within* one node's batch of per-feature
  queries, but messages recomputed from scratch for every node.
* ``joinboost`` — batch plus the inter-node message cache (§5.5.1) plus
  batched frontier evaluation (one fused split query per relation per
  round); ``naive`` and ``batch`` pin ``split_batching="off"`` so the
  bracket isolates exactly these optimizations.

The real LMFAO adds a compiled execution engine on top of ``batch``;
running both through the same SQL engine isolates the *algorithmic*
difference, which is what Figure 16a's "benefit of message sharing among
nodes" bracket measures.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

from repro.exceptions import TrainingError
from repro.core.frontier import FrontierEvaluator
from repro.core.params import TrainParams
from repro.core.session import run_training_session
from repro.core.sql_score import join_tree_sql
from repro.core.split import VarianceCriterion
from repro.core.tree import DecisionTreeModel, name_source_relations
from repro.joingraph.graph import JoinGraph
from repro.semiring.variance import VarianceSemiRing

VARIANTS = ("naive", "batch", "joinboost")


def _per_leaf_params(params: TrainParams) -> TrainParams:
    """The ablation baselines must not enjoy frontier batching — that is
    one of the optimizations the ``joinboost`` variant demonstrates."""
    import dataclasses

    return dataclasses.replace(params, split_batching="off")


def train_tree_variant(
    db,
    graph: JoinGraph,
    variant: str,
    params: Optional[dict] = None,
    **overrides,
) -> Tuple[DecisionTreeModel, float]:
    """Train one decision tree with the chosen ablation variant.

    Returns (model, seconds).
    """
    if variant not in VARIANTS:
        raise TrainingError(f"unknown variant {variant!r}; choose {VARIANTS}")
    train_params = TrainParams.from_dict(params, **overrides)
    start = time.perf_counter()
    if variant == "naive":
        model = _train_naive(db, graph, train_params)
    else:
        model = _train_factorized(
            db, graph, train_params, share_across_nodes=(variant == "joinboost")
        )
    return model, time.perf_counter() - start


def _train_factorized(
    db, graph: JoinGraph, params: TrainParams, share_across_nodes: bool
) -> DecisionTreeModel:
    evaluator_class = FrontierEvaluator
    if not share_across_nodes:
        params, evaluator_class = _per_leaf_params(params), _PerNodeCacheEvaluator
    return run_training_session(
        db, graph, VarianceSemiRing(), VarianceCriterion(), params,
        prepare_paths=False, evaluator_class=evaluator_class,
    )


class _PerNodeCacheEvaluator(FrontierEvaluator):
    """LMFAO-style: flush the message cache before every GetBestSplit.

    Work is still shared across the per-feature queries *within* a node
    (the batch optimization), but nothing carries over between nodes —
    so the variant runs per-leaf (frontier batching would itself share
    one pass across nodes, which is the thing being ablated away).
    """

    def _per_leaf(self, nodes, features):
        out = {}
        for node in nodes:
            self.factorizer.invalidate_all()
            out.update(super()._per_leaf([node], features))
        return out


def _train_naive(db, graph: JoinGraph, params: TrainParams) -> DecisionTreeModel:
    """Materialize the wide table, then train over the single relation."""
    fact = graph.target_relation
    wide_name = db.temp_name("wide")
    sql, feature_names = _wide_table_sql(graph, fact)
    db.execute(f"CREATE TABLE {wide_name} AS {sql}", tag="materialize")

    wide_graph = JoinGraph(db)
    categorical = [
        feat
        for rel, feat in graph.all_features()
        if graph.is_categorical(rel, feat)
    ]
    wide_graph.add_relation(
        wide_name,
        features=feature_names,
        y=graph.target_column,
        categorical=categorical,
    )
    model = run_training_session(
        db, wide_graph, VarianceSemiRing(), VarianceCriterion(),
        _per_leaf_params(params), prepare_paths=False,
    )
    name_source_relations([model], graph)
    db.drop_table(wide_name, if_exists=True)
    return model


def _wide_table_sql(graph: JoinGraph, fact: str) -> Tuple[str, list]:
    """The wide (fully joined) table's SELECT and its feature names."""
    aliases, joins = join_tree_sql(graph, fact, join_kind="JOIN")
    select_parts = []
    feature_names = []
    for relation, feature in graph.all_features():
        select_parts.append(f"{aliases[relation]}.{feature} AS {feature}")
        feature_names.append(feature)
    target_rel = graph.target_relation
    select_parts.append(
        f"{aliases[target_rel]}.{graph.target_column} AS {graph.target_column}"
    )
    return (
        f"SELECT {', '.join(select_parts)} FROM {fact} AS t {' '.join(joins)}",
        feature_names,
    )
