"""Figure 9: query census of JoinBoost's first gradient-boosting iteration.

Paper shape (per-leaf mode): with 8 leaves (15 tree nodes) and 18 features
the paper counts 270 = 15 x 18 best-split queries; this implementation
never evaluates the last split's two children, so it issues 234 = 13 x 18.
There is one message request per join edge per node; split queries are
fast, message queries (join + aggregate + materialize) form the slow tail
of the latency histogram.

Batched mode (the Section 5 batching optimization): each frontier round
fuses a relation's features into one UNION ALL query with leaf membership
as a grouping column, dropping the split-query count from
O(leaves x features) to O(relations) per round — with split-for-split
parity (rmse equal to 1e-9) between the two modes.  Leaf membership itself
is a persistent column maintained incrementally (one root pass per tree
+ one narrow UPDATE per split), never rebuilt per round.
"""

import numpy as np

from repro.bench.harness import fig09_batching_comparison, fig09_query_census
from repro.bench.report import format_table

_FEATURES = 18
_LEAVES = 8
_REPEATS = 5


def test_fig09_query_census(benchmark, figure_report):
    results = benchmark.pedantic(
        fig09_batching_comparison,
        kwargs={"num_features": _FEATURES, "num_leaves": _LEAVES},
        rounds=1, iterations=1,
    )
    per_leaf = results["per_leaf"]
    batched = results["batched"]

    counts, edges = per_leaf["latency_histogram_ms"]
    rows = [
        ["feature (best-split), per-leaf", per_leaf["num_feature_queries"]],
        ["feature (best-split), batched", batched["num_feature_queries"]],
        ["message (passing), per-leaf", per_leaf["num_message_queries"]],
        ["message (passing), batched", batched["num_message_queries"]],
        ["root label passes, batched",
         batched["frontier_census"]["root_label_passes"]],
        ["delta label updates, batched",
         batched["frontier_census"]["delta_label_updates"]],
        ["expected per-leaf feature queries",
         per_leaf["expected_feature_queries"]],
        ["query drop factor", round(results["query_drop_factor"], 1)],
    ]
    text = format_table("Figure 9a — query counts, 1st iteration",
                        ["query type", "count"], rows)
    text += "\n" + format_table(
        "Figure 9b — query latency histogram (per-leaf)",
        ["bucket >= (ms)", "queries"],
        [[edges[i], counts[i]] for i in range(len(counts))],
    )
    figure_report("fig09", text)

    # 13 evaluated nodes x 18 features best-split queries: the paper's 15
    # nodes less the last split's two children, which are never evaluated.
    assert per_leaf["num_feature_queries"] == per_leaf["expected_feature_queries"]
    assert per_leaf["num_feature_queries"] == (2 * _LEAVES - 3) * _FEATURES
    # Messages exist and are far fewer than split queries (caching).
    assert 0 < per_leaf["num_message_queries"] < per_leaf["num_feature_queries"]
    # The slowest message query dominates the slowest split query
    # (join+materialize vs scan of a per-value aggregate).  Each maximum
    # is one query of a few milliseconds, so the order is asserted on
    # medians over per-leaf runs, whose two query kinds interleave.
    runs = [per_leaf] + [
        fig09_query_census(num_features=_FEATURES, num_leaves=_LEAVES)
        for _ in range(_REPEATS - 1)
    ]
    slowest_message = float(np.median([max(r["message_ms"]) for r in runs]))
    slowest_feature = float(np.median([max(r["feature_ms"]) for r in runs]))
    figure_report("fig09_slowest", format_table(
        f"Figure 9b — slowest query per kind, median of {_REPEATS} runs",
        ["query type", "ms"],
        [["message", slowest_message], ["feature", slowest_feature]],
    ))
    assert slowest_message > slowest_feature * 0.5

    # Batched mode: at most one fused split query per feature-bearing
    # relation per frontier round, and never more split queries than the
    # per-leaf mode.  The tight relations x rounds bound assumes each
    # relation's features share one value kind — true for the all-numeric Favorita schema; a relation
    # mixing string and numeric features adds one query per extra kind.
    rounds = batched["frontier_census"]["batched_rounds"]
    assert 0 < rounds <= _LEAVES
    assert batched["num_feature_queries"] <= (
        batched["num_feature_relations"] * rounds
    )
    assert batched["num_feature_queries"] < per_leaf["num_feature_queries"]
    # Tree-for-tree parity between the modes.
    assert results["rmse_delta"] < 1e-9
    # Leaf labels: exactly one root pass, one fused delta update per
    # split, carry messages shared across relations within a round.
    census = batched["frontier_census"]
    assert census["root_label_passes"] == 1
    assert census["delta_label_updates"] == _LEAVES - 1
    assert census["carry_cache_hits"] > 0


def test_fig09_encoding_cache(benchmark, figure_report):
    """The static-work-sharing principle one layer down: join/group-by
    key columns factorize once per training run, not once per query
    (string natural keys — the raw Favorita join-key dtype — are the
    workload where the per-query re-encode hurts most)."""
    results = benchmark.pedantic(
        fig09_query_census,
        kwargs={"num_features": _FEATURES, "num_leaves": _LEAVES,
                "split_batching": "auto", "key_dtype": "str"},
        rounds=1, iterations=1,
    )
    stats = results["encoding_cache_stats"]
    rows = [
        ["encode passes", results["encode_passes"]],
        ["encode seconds", round(results["encode_seconds"], 3)],
        ["cache hits / misses",
         f"{stats.get('hits', 0)} / {stats.get('misses', 0)}"],
        ["cache stores / invalidations",
         f"{stats.get('stores', 0)} / {stats.get('invalidations', 0)}"],
    ]
    figure_report("fig09_encoding", format_table(
        "Figure 9d — encoded-key cache (string-keyed Favorita)",
        ["metric", "value"], rows,
    ))

    # Encode passes are deterministic counts, so they are pinned, not a
    # ratio or a timing: each cacheable key column is encoded once per
    # version (27 stores here), plus 7 passes over the frontier's label
    # column, which the cache does not keep: it is encoded once per
    # version and its gathered subsets reuse the codes.  Lifted copies,
    # message temps and COUNT(DISTINCT) probes carry or read the codes of
    # the column they came from (114 passes / 97 stores while each of
    # them was encoded afresh).  There is no cache-off leg: every
    # equi-join key goes through an encoding (the history is in
    # docs/EXPERIMENTS.md).
    assert results["encode_passes"] == 34
    assert stats["stores"] == 27
