"""Hash partitioning of fact tables across simulated workers.

The paper's multi-node experiments replicate dimension tables on every
machine and hash-partition the fact table.  Partitioning here is real
(rows are split by a hash of the partition key); only the *network* is
modelled, by the figure harness (:mod:`repro.bench.harness`).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.engine.database import Database
from repro.joingraph.graph import JoinGraph


def hash_partition_table(
    db: Database, table_name: str, key: str, num_partitions: int
) -> List[dict]:
    """Split a table's rows by ``hash(key) % num_partitions``."""
    table = db.table(table_name)
    keys = table.column(key).values.astype(np.int64)
    assignment = (keys * np.int64(2654435761)) % np.int64(2**31 - 1) % num_partitions
    partitions = []
    for p in range(num_partitions):
        mask = assignment == p
        partitions.append(
            {
                name: table.column(name).values[mask]
                for name in table.column_names()
            }
        )
    return partitions


def partition_database(
    db: Database,
    graph: JoinGraph,
    num_partitions: int,
    partition_key: str,
) -> Tuple[List[Database], List[JoinGraph]]:
    """Build one Database per worker: partitioned fact, replicated dims."""
    fact = graph.target_relation
    fact_parts = hash_partition_table(db, fact, partition_key, num_partitions)
    workers: List[Database] = []
    worker_graphs: List[JoinGraph] = []
    for p in range(num_partitions):
        worker = Database(name=f"worker{p}")
        worker.create_table(fact, fact_parts[p])
        for info in graph.relations.values():
            if info.name == fact:
                continue
            table = db.table(info.name)
            worker.create_table(
                info.name,
                {n: table.column(n).values for n in table.column_names()},
            )
        wgraph = JoinGraph(worker)
        for info in graph.relations.values():
            wgraph.add_relation(
                info.name,
                features=list(info.features),
                y=info.target,
                is_fact=info.is_fact,
                categorical=list(info.categorical),
            )
        for edge in graph.edges:
            wgraph.add_edge(
                edge.left, edge.right, list(edge.left_keys), list(edge.right_keys)
            )
        workers.append(worker)
        worker_graphs.append(wgraph)
    return workers, worker_graphs
