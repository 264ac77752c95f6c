"""Figure 16: in-DB training comparisons.

(a) The ablation Naive -> Batch (LMFAO-style per-node sharing) ->
JoinBoost (inter-node message cache): message sharing among nodes is the
~3x bracket the paper draws.  (b) The MADLib stand-in (non-factorized,
row store) is an order of magnitude slower even on reduced data.
"""

from repro.bench.harness import fig16_indb
from repro.bench.report import format_table


def test_fig16_indb(benchmark, figure_report):
    results = benchmark.pedantic(
        fig16_indb,
        kwargs={"num_fact_rows": 600_000, "num_leaves": 32},
        rounds=1, iterations=1,
    )
    figure_report(
        "fig16",
        format_table(
            "Figure 16 — decision-tree training seconds (32 leaves)",
            ["system", "seconds"],
            [[k, v] for k, v in results.items()],
        ),
    )

    # Message sharing among nodes: JoinBoost beats the per-node-batch
    # (LMFAO-style) variant, which beats naive materialization.  The
    # paper's factors (~3x / ~1.9x) compress at laptop scale but the
    # ordering is the claim (EXPERIMENTS.md).
    assert results["joinboost"] < results["batch"]
    assert results["batch"] < results["naive"]
    # MADLib-style training (row store, no factorization, no caching) is
    # slower than JoinBoost at the same scale (paper: ~16x on PostgreSQL;
    # compressed here because both run on the same vectorized engine).
    assert results["madlib"] > results["joinboost"]
