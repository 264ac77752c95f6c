"""Sampling over non-materialized joins (Section 5.5.2).

Random forests need uniform, independent samples of the join result R⋈
without materializing it.  Naively sampling each relation is neither
uniform nor join-safe, so JoinBoost uses *ancestral sampling*: treat R⋈ as
a probability table with mass 1/|R⋈| per tuple, sample the root relation
from its marginal (a COUNT semi-ring aggregation — computable factorized),
then walk the join tree sampling each child conditioned on the sampled
parent keys.

Two entry points:

* :func:`ancestral_sample` — the general algorithm over any acyclic graph;
* :func:`sample_fact_table` — the paper's snowflake fast path: when the
  fact table is 1-1 with R⋈, a uniform row sample of F is already a
  uniform sample of the join.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.engine.operators import ColumnEncoding, encode_values, join_indices
from repro.exceptions import JoinGraphError
from repro.joingraph.graph import JoinGraph
from repro.joingraph.hypertree import edge_between, rooted_tree
from repro.semiring.variance import VarianceSemiRing


def _key(col) -> ColumnEncoding:
    """A join key with its validity mask folded into NULL."""
    return encode_values(col.values, col.valid)


def _downstream_weights(db, graph: JoinGraph, relation: str, parent: Optional[str]):
    """Per-row join multiplicity of ``relation``'s subtree (away from
    ``parent``), as arrays aligned with the relation's rows.

    The weight of row t is the number of R⋈ tuples that extend t through
    the subtree below ``relation`` — exactly the COUNT message product.
    """
    from repro.factorize.executor import Factorizer

    # A COUNT-only factorizer: no target lift, so every message is a count.
    counting = Factorizer(db, graph, VarianceSemiRing(), assume_ri=False)
    table = db.table(relation)
    n = table.num_rows()
    weights = np.ones(n, dtype=np.float64)
    for neighbor in graph.neighbors(relation):
        if neighbor == parent:
            continue
        info = counting.message(neighbor, relation, predicates={})
        edge = edge_between(graph, relation, neighbor)
        own_keys = edge.keys_for(relation)
        msg = db.table(info.table)
        # Map each row's key tuple to the message count (0 when absent).
        left = [_key(table.column(k)) for k in own_keys]
        right = [_key(msg.column(k)) for k in info.key_columns]
        l_idx, r_idx = join_indices(left, right, how="left")
        counts = msg.column("c").values.astype(np.float64)
        row_counts = np.zeros(n, dtype=np.float64)
        matched = r_idx >= 0
        row_counts[l_idx[matched]] = counts[r_idx[matched]]
        weights *= row_counts
    return weights


def ancestral_sample(
    db,
    graph: JoinGraph,
    n_samples: int,
    rng: Optional[np.random.Generator] = None,
    root: Optional[str] = None,
) -> Dict[str, np.ndarray]:
    """Draw ``n_samples`` uniform tuples of R⋈.

    Returns relation -> array of row indexes (one per sample); combining
    the indexed rows of every relation reconstructs the sampled R⋈ tuples.
    """
    rng = rng or np.random.default_rng()
    graph.validate()
    if root is None:
        root = graph.target_relation
    parent_map, children, _ = rooted_tree(graph, root)

    # Root: sample by marginal probability = downstream multiplicity.
    weights = _downstream_weights(db, graph, root, None)
    total = weights.sum()
    if total <= 0:
        raise JoinGraphError("join result is empty; nothing to sample")
    chosen: Dict[str, np.ndarray] = {}
    chosen[root] = rng.choice(
        len(weights), size=n_samples, replace=True, p=weights / total
    )

    # Children: conditional sampling given the sampled parent keys.
    order: List[str] = []
    frontier = [root]
    while frontier:
        current = frontier.pop(0)
        order.append(current)
        frontier.extend(children[current])

    for relation in order[1:]:
        parent = parent_map[relation]
        edge = edge_between(graph, relation, parent)
        parent_keys = edge.keys_for(parent)
        own_keys = edge.keys_for(relation)
        parent_table = db.table(parent)
        own_table = db.table(relation)
        weights = _downstream_weights(db, graph, relation, parent)

        # Bucket candidate child rows by join-key value.
        from repro.engine.operators import factorize

        own_key_arrays = [own_table.column(k).values for k in own_keys]
        parent_key_arrays = [
            parent_table.column(k).values[chosen[parent]] for k in parent_keys
        ]
        merged = [
            np.concatenate([np.asarray(a), np.asarray(b)])
            for a, b in zip(own_key_arrays, parent_key_arrays)
        ]
        codes, _, _, _ = factorize(merged)
        own_codes = codes[: len(own_key_arrays[0])]
        want_codes = codes[len(own_key_arrays[0]):]

        buckets: Dict[int, np.ndarray] = {}
        order_idx = np.argsort(own_codes, kind="stable")
        sorted_codes = own_codes[order_idx]
        boundaries = np.flatnonzero(np.diff(sorted_codes)) + 1
        starts = np.concatenate([[0], boundaries])
        ends = np.concatenate([boundaries, [len(sorted_codes)]])
        for s, e in zip(starts, ends):
            if e > s:
                buckets[int(sorted_codes[s])] = order_idx[s:e]

        picks = np.empty(n_samples, dtype=np.int64)
        for i, code in enumerate(want_codes):
            candidates = buckets.get(int(code))
            if candidates is None or len(candidates) == 0:
                raise JoinGraphError(
                    f"sampled {parent!r} row has no matching {relation!r} row; "
                    "join keys are not referentially intact"
                )
            w = weights[candidates]
            w_total = w.sum()
            if w_total <= 0:
                raise JoinGraphError("zero-weight candidate bucket")
            picks[i] = rng.choice(candidates, p=w / w_total)
        chosen[relation] = picks
    return chosen


def sample_fact_table(
    db,
    fact: str,
    fraction: float,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Snowflake fast path: uniform row sample of the fact table.

    Because F is 1-1 with R⋈ in a snowflake schema, this is a uniform
    sample of the join result (Section 5.5.2, minor optimizations).
    Returns the sampled row indexes (without replacement).
    """
    rng = rng or np.random.default_rng()
    n = db.table(fact).num_rows()
    size = max(1, int(round(n * fraction)))
    return rng.choice(n, size=min(size, n), replace=False)
