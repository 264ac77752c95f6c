"""Figure 18: inter-query parallelism — measured *and* modelled.

Paper shape: with a dependency-aware scheduler, random forests improve
~35% (whole trees are independent) and gradient boosting ~28% (feature
split queries within a node are independent, messages and iterations are
chains).  Two columns are reported side by side:

* **modelled** — the list-scheduling bound replayed over measured
  per-query durations (the deterministic quantity, independent of host
  core count);
* **measured** — the same one-iteration GBM actually *trained* through
  the :class:`QueryScheduler` worker pool on the sqlite backend
  (per-thread reader connections, GIL released in SQLite's C core),
  with the scheduler's measured per-query overlap.

On single-core CI boxes the measured column flattens to ~1x while the
model still shows the schedule's potential; EXPERIMENTS.md documents the
pairing.  No wall speedup is gated here or in CI: timing claims belong to
the bench spine (`benchmarks/spine/`), and the scheduler's engagement and
parity are tier-1 tests (`tests/test_parallel_training.py`).
"""

from repro.bench.harness import fig18_parallelism
from repro.bench.report import format_table


def test_fig18_parallelism(benchmark, figure_report):
    results = benchmark.pedantic(fig18_parallelism, rounds=1, iterations=1)
    measured = results["measured"]
    rows = []
    for workers in sorted(results["rf"]["by_workers"]):
        measured_cell = (
            f"{measured['by_workers'][workers]:.3f}"
            if workers in measured["by_workers"] else "-"
        )
        overlap_cell = (
            f"{measured['overlap_seconds'][workers]:.3f}"
            if workers in measured["overlap_seconds"] else "-"
        )
        rows.append([
            workers,
            results["rf"]["by_workers"][workers],
            results["gb"]["by_workers"][workers],
            measured_cell,
            overlap_cell,
        ])
    text = format_table(
        "Figure 18 — modelled vs measured seconds by workers "
        f"(sequential: rf={results['rf']['sequential']:.3f}s, "
        f"gb={results['gb']['sequential']:.3f}s; measured backend: "
        f"{measured['backend']})",
        ["workers", "rf (model)", "gb (model)", "gb measured s",
         "measured overlap s"],
        rows,
    )
    rf_gain = 1 - results["rf"]["by_workers"][16] / results["rf"]["sequential"]
    gb_gain = 1 - results["gb"]["by_workers"][16] / results["gb"]["sequential"]
    text += f"\nmodelled improvement at 16 workers: rf {rf_gain:.0%}, gb {gb_gain:.0%}"
    figure_report("fig18", text)

    # RF parallelizes across whole trees: large modelled gain (paper 35%).
    assert rf_gain > 0.3
    # GB's gain is smaller (messages/updates are serial; paper 28%).
    assert 0.0 < gb_gain < rf_gain + 0.35
    # Diminishing returns: most of the gain arrives by 4 workers.
    rf4 = 1 - results["rf"]["by_workers"][4] / results["rf"]["sequential"]
    assert rf4 > 0.5 * rf_gain

    # Measured columns exist for every requested worker count and the
    # pool never *costs* catastrophically — even a single-core host must
    # stay within thread-overhead noise of the serial wall.
    assert set(measured["by_workers"]) == {1, 2, 4, 8}
    assert all(v > 0 for v in measured["by_workers"].values())
    assert measured["by_workers"][4] < 1.6 * measured["by_workers"][1]
    # The scheduler engaged: the parallel legs overlapped real query time.
    assert measured["overlap_seconds"][4] > 0.0
