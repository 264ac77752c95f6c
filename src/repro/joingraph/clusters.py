"""Clustered Predicate Trees (Section 4.2.2) for galaxy schemas.

Galaxy schemas have several fact tables in M-N relationships; residual
updates over them would grow an update relation U that eventually spans
the whole join graph.  CPT sidesteps this by clustering relations so that
within each cluster one fact table has N-to-1 paths to every other member;
tree splits after the root are confined to one cluster, so every leaf
predicate can be pushed to that cluster's fact table as semi-joins and no
cycles ever form.

``cluster_graph`` reproduces the Figure 3 construction: each fact table
seeds a cluster, and dimensions reachable from it along N-to-1 edges
(never passing through another fact table) join the cluster.  A dimension
reachable from several facts belongs to several clusters.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.exceptions import JoinGraphError
from repro.joingraph.graph import JoinGraph


@dataclasses.dataclass
class Cluster:
    """One CPT cluster: a fact table plus its N-to-1 reachable dimensions."""

    fact: str
    members: List[str]

    def features(self, graph: JoinGraph) -> List[str]:
        out: List[str] = []
        for name in self.members:
            out.extend(graph.relations[name].features)
        return out

    def __contains__(self, relation: str) -> bool:
        return relation in self.members


def cluster_graph(
    graph: JoinGraph, fact_tables: Optional[Sequence[str]] = None
) -> List[Cluster]:
    """Partition the join graph into CPT clusters.

    ``fact_tables`` may be given explicitly (the paper's Figure 3 marks
    them); otherwise relations flagged ``is_fact`` are used, falling back
    to :meth:`JoinGraph.detect_fact_tables`.
    """
    if fact_tables is None:
        fact_tables = [r.name for r in graph.relations.values() if r.is_fact]
    if not fact_tables:
        fact_tables = graph.detect_fact_tables()
    if not fact_tables:
        raise JoinGraphError(
            "could not determine fact tables; pass fact_tables explicitly"
        )
    if any(e.multiplicity is None for e in graph.edges):
        graph.analyze()

    fact_set = set(fact_tables)
    clusters: List[Cluster] = []
    for fact in fact_tables:
        members = [fact]
        frontier = [fact]
        seen = {fact}
        while frontier:
            current = frontier.pop()
            for edge in graph.edges_of(current):
                neighbor = edge.other(current)
                if neighbor in seen or neighbor in fact_set:
                    continue
                # Follow only N-to-1 edges away from the fact side: the
                # neighbour's keys must be unique so predicates there can
                # be pushed back as semi-joins without fan-out.
                mult = edge.multiplicity or "m-n"
                if edge.left == current and mult in ("n-1", "1-1"):
                    reachable = True
                elif edge.right == current and mult in ("1-n", "1-1"):
                    reachable = True
                else:
                    reachable = False
                if reachable:
                    seen.add(neighbor)
                    members.append(neighbor)
                    frontier.append(neighbor)
        clusters.append(Cluster(fact=fact, members=members))

    _check_coverage(graph, clusters)
    return clusters


def _check_coverage(graph: JoinGraph, clusters: List[Cluster]) -> None:
    """Every feature-bearing relation must land in some cluster.

    The error names each edge from a cluster to a relation left outside:
    its key columns and inferred multiplicity, whose outside side is not
    key-unique (a duplicated dimension key, say)."""
    covered = set()
    for cluster in clusters:
        covered.update(cluster.members)
    missing = [
        r.name
        for r in graph.relations.values()
        if r.features and r.name not in covered
    ]
    if missing:
        failing = [
            f"{e.left}({', '.join(e.left_keys)}) -> "
            f"{e.right}({', '.join(e.right_keys)}) is {e.multiplicity} "
            f"({outside}'s keys are not unique)"
            for e in graph.edges
            for outside in (e.left, e.right)
            if outside not in covered and e.other(outside) in covered
        ]
        raise JoinGraphError(
            f"relations with features are outside every CPT cluster: "
            f"{missing}. A relation joins a cluster only over an N-to-1 "
            f"edge: " + ("; ".join(failing) or "no edge reaches them")
        )


def cluster_index(clusters: List[Cluster]) -> Dict[str, List[int]]:
    """relation name -> indexes of clusters containing it."""
    index: Dict[str, List[int]] = {}
    for i, cluster in enumerate(clusters):
        for member in cluster.members:
            index.setdefault(member, []).append(i)
    return index
