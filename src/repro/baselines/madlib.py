"""MADLib stand-in: non-factorized in-DB decision tree over a row store.

MADLib (a PostgreSQL extension) trains over the *materialized* join with
user-defined aggregates executing row-at-a-time on a row-oriented engine.
Both inefficiencies are reproduced mechanically:

* the wide table is stored in :class:`RowTable` layout (strided column
  scans), and
* every candidate evaluation re-scans the wide table with a fresh
  group-by — no factorization, no message reuse, no shared lifts.

Figure 16b's ~16× gap against JoinBoost comes from these two costs.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

from repro.core.params import TrainParams
from repro.core.session import run_training_session
from repro.core.split import VarianceCriterion
from repro.core.tree import DecisionTreeModel, name_source_relations
from repro.baselines.lmfao import _wide_table_sql
from repro.joingraph.graph import JoinGraph
from repro.semiring.variance import VarianceSemiRing
from repro.storage.column import Column
from repro.storage.table import RowTable, StorageConfig


def train_madlib_tree(
    db,
    graph: JoinGraph,
    params: Optional[dict] = None,
    **overrides,
) -> Tuple[DecisionTreeModel, float]:
    """Train a decision tree the MADLib way; returns (model, seconds)."""
    train_params = TrainParams.from_dict(params, **overrides)
    start = time.perf_counter()

    # Materialize the join and convert it to row-oriented storage.
    fact = graph.target_relation
    sql, feature_names = _wide_table_sql(graph, fact)
    relation = db.execute(sql, tag="materialize")
    wide_name = db.temp_name("madlib_wide")
    row_table = RowTable(
        wide_name,
        relation.columns(),
        StorageConfig(layout="row"),
    )
    db.register(row_table)

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

    def lift(factorizer) -> None:
        # The lifted copy must stay row-oriented too.
        lifted_name = factorizer.lift()
        lifted = db.table(lifted_name)
        db.catalog.drop(lifted_name)
        db.register(RowTable(
            lifted_name, list(lifted.columns()), StorageConfig(layout="row")
        ))

    # One wide relation: no messages, so every query re-scans the rows.
    model = run_training_session(
        db, wide_graph, VarianceSemiRing(), VarianceCriterion(), train_params,
        lift, prepare_paths=False,
    )
    # Splits name the caller's relations, not the minted wide table, so
    # the model scores through ``graph`` and its digest does not depend
    # on the connection's temp counter.
    name_source_relations([model], graph)
    db.drop_table(wide_name, if_exists=True)
    return model, time.perf_counter() - start
