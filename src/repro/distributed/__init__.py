"""Hash-sharded multi-node training (Figures 12 and 13)."""

from repro.distributed.partition import hash_partition_table, partition_database
from repro.distributed.cluster import SimulatedCluster

__all__ = [
    "hash_partition_table",
    "partition_database",
    "SimulatedCluster",
]
