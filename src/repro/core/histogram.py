"""Histogram binning and the data-cube optimization (Appendix D.3).

LightGBM-style histogram training replaces each feature value with its
bin; with few bins and sparse data, JoinBoost can go further and
materialize the full dimensional *cuboid* — GROUP BY all (binned) feature
attributes with semi-ring aggregation — and train on that tiny relation
instead of the factorized join.  At 5 bins on Favorita the cuboid is ~25×
smaller than the fact table and training speeds up >100× (Figure 20).

Bin ids are mapped back to each bin's upper edge so trained predicates
stay in the original value space and the models score raw features.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import TrainingError
from repro.core.boosting import (
    GradientBoostingModel,
    _boosting_session,
    _init_score_sql,
    boosting_params,
)
from repro.core.session import TrainingSessionGuard
from repro.core.sql_score import join_tree_sql
from repro.core.tree import name_source_relations
from repro.joingraph.graph import JoinGraph
from repro.semiring.gradient import GradientSemiRing
from repro.semiring.losses import get_loss


def quantile_edges(values: np.ndarray, max_bin: int) -> np.ndarray:
    """Monotone bin upper-edges from quantiles (deduplicated)."""
    clean = values[~np.isnan(values)] if values.dtype.kind == "f" else values
    if len(clean) == 0:
        raise TrainingError("cannot bin an all-null column")
    quantiles = np.linspace(0.0, 1.0, max_bin + 1)[1:]
    edges = np.unique(np.quantile(clean.astype(np.float64), quantiles))
    return edges


def bin_column(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Replace each value with its bin's upper edge (NaN passes through)."""
    values = np.asarray(values, dtype=np.float64)
    out = np.full(len(values), np.nan)
    keep = ~np.isnan(values)
    ids = np.searchsorted(edges, values[keep], side="left")
    ids = np.clip(ids, 0, len(edges) - 1)
    out[keep] = edges[ids]
    return out


@dataclasses.dataclass
class BinnedGraph:
    """A join graph whose numeric features were replaced by bin edges."""

    graph: JoinGraph
    edges: Dict[Tuple[str, str], np.ndarray]  # (relation, feature) -> edges
    tables: List[str]  # temp tables to drop on cleanup

    def cleanup(self, db) -> None:
        """Drop the binned copies."""
        for table in self.tables:
            db.drop_table(table, if_exists=True)


def bin_graph(db, graph: JoinGraph, max_bin: int) -> BinnedGraph:
    """Produce binned copies of every relation owning numeric features."""
    new_graph = JoinGraph(db)
    bin_edges: Dict[Tuple[str, str], np.ndarray] = {}
    temp_tables: List[str] = []
    renamed: Dict[str, str] = {}
    for info in graph.relations.values():
        numeric = [
            f for f in info.features if not graph.is_categorical(info.name, f)
        ]
        if not numeric:
            renamed[info.name] = info.name
            continue
        table = db.table(info.name)
        data = {
            name: table.column(name).values.copy()
            for name in table.column_names()
        }
        for feature in numeric:
            edges = quantile_edges(
                table.column(feature).as_float(), max_bin
            )
            bin_edges[(info.name, feature)] = edges
            data[feature] = bin_column(table.column(feature).as_float(), edges)
        binned_name = db.temp_name(f"binned_{info.name}")
        db.create_table(binned_name, data)
        temp_tables.append(binned_name)
        renamed[info.name] = binned_name
    for info in graph.relations.values():
        new_graph.add_relation(
            renamed[info.name],
            features=list(info.features),
            y=info.target,
            is_fact=info.is_fact,
            categorical=list(info.categorical),
        )
    for edge in graph.edges:
        new_graph.add_edge(
            renamed[edge.left], renamed[edge.right],
            list(edge.left_keys), list(edge.right_keys),
        )
    return BinnedGraph(graph=new_graph, edges=bin_edges, tables=temp_tables)


# ---------------------------------------------------------------------------
# Cuboid construction and training
# ---------------------------------------------------------------------------
def build_cuboid(
    db,
    graph: JoinGraph,
    lift_exprs: List[Tuple[str, str]],
    components: List[str],
) -> Tuple[str, List[Tuple[str, str]]]:
    """Materialize GROUP BY <all features> with semi-ring aggregation.

    Returns (cuboid table name, [(feature, source relation)] pairs).  The
    join is executed naively — with few bins the grouped result is tiny,
    which is the entire point of the optimization.
    """
    fact = graph.target_relation
    aliases, joins = join_tree_sql(graph, fact)
    features = graph.all_features()
    feature_parts = [
        f"{aliases[rel]}.{feat} AS {feat}" for rel, feat in features
    ]
    agg_parts = [
        f"SUM({expr.replace('t.', aliases[fact] + '.')}) AS {comp}"
        for comp, expr in lift_exprs
    ]
    cuboid = db.temp_name("cuboid")
    sql = (
        f"CREATE TABLE {cuboid} AS SELECT {', '.join(feature_parts + agg_parts)} "
        f"FROM {fact} AS t {' '.join(joins)} "
        f"GROUP BY {', '.join(f'{aliases[rel]}.{feat}' for rel, feat in features)}"
    )
    db.execute(sql, tag="cuboid")
    return cuboid, features


def train_boosting_on_cuboid(
    db,
    graph: JoinGraph,
    params: Optional[dict] = None,
    **overrides,
) -> GradientBoostingModel:
    """Gradient boosting over the histogram cuboid (Figure 20).

    Only the rmse objective is supported (the cuboid stores (h, g)
    aggregates, and residual updates must be additive).
    """
    train_params = boosting_params(params, **overrides)
    loss = get_loss(train_params.objective, **train_params.loss_kwargs())
    if not loss.supports_galaxy:
        raise TrainingError("cuboid training supports the rmse objective only")
    graph.validate()

    # A failure drops the binned copies and the cuboid too.
    with TrainingSessionGuard(db):
        binned = (
            bin_graph(db, graph, train_params.max_bin)
            if train_params.max_bin is not None
            else None
        )
        working_graph = binned.graph if binned is not None else graph
        fact = working_graph.target_relation
        y = working_graph.target_column
        init = _init_score_sql(db, fact, y, loss)
        ring = GradientSemiRing()
        lift_exprs = ring.lift_pair_sql("1", f"({init!r} - t.{y})")
        cuboid, features = build_cuboid(
            db, working_graph, lift_exprs, list(ring.components)
        )

        # One relation that already holds the (h, g) aggregates: the
        # session adopts it as lifted, and the additive update scales
        # lr·leaf by the group count h.
        cuboid_graph = JoinGraph(db)
        cuboid_graph.add_relation(
            cuboid,
            features=[feat for _, feat in features],
            categorical=[
                feat for rel, feat in features
                if working_graph.is_categorical(rel, feat)
            ],
        )
        model = _boosting_session(
            db, cuboid_graph, train_params, loss,
            GradientBoostingModel([], init, train_params.learning_rate, loss),
            lambda factorizer: factorizer.adopt_lifted(cuboid, cuboid),
            strategy="swap", prepare_paths=False,
        )
        name_source_relations(model.trees, graph)
        if binned is not None:
            binned.cleanup(db)
        db.drop_table(cuboid, if_exists=True)
    return model
