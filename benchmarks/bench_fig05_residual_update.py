"""Figure 5: residual-update time per method per DBMS backend.

Paper shape: Naive is slowest everywhere; CREATE-k grows with k; UPDATE is
prohibitive on the row store but fine on columnar stores; column swap
(DP / D-Swap) is orders of magnitude faster and lands near the LightGBM
raw-array reference line.
"""

import numpy as np

from repro.bench.harness import FIG5_BACKENDS, FIG5_METHODS, fig05_residual_updates
from repro.bench.report import format_table

_NUM_ROWS = 1_000_000
_STOCK = ("x-col", "d-disk", "d-mem")
_REPEATED = _STOCK + ("d-swap",)
_CLOSE = ("create-0", "create-10", "swap")
_REPEATS = 5


def _medians():
    """Median seconds of the close calls (CREATE-0 against CREATE-10 and
    against swap) over ``_REPEATS`` runs that alternate the methods'
    order; None where the backend cannot run the method."""
    runs = [
        fig05_residual_updates(num_rows=_NUM_ROWS, backends=_REPEATED,
                               methods=_CLOSE[:: 1 - 2 * (i % 2)])
        for i in range(_REPEATS)
    ]
    return {b: {m: None if runs[0][b][m] is None
                else float(np.median([r[b][m] for r in runs]))
                for m in _CLOSE}
            for b in _REPEATED}


def test_fig05_residual_updates(benchmark, figure_report):
    results = benchmark.pedantic(
        fig05_residual_updates,
        kwargs={"num_rows": _NUM_ROWS},
        rounds=1, iterations=1,
    )

    rows = [
        [b] + ["n/a" if results[b][m] is None else results[b][m]
               for m in FIG5_METHODS]
        for b in FIG5_BACKENDS
    ]
    reference = results["lightgbm-ref"]["array-write"]
    rows.append(["lightgbm-ref"] + [reference] * len(FIG5_METHODS))
    median = _medians()
    text = format_table(
        f"Figure 5 — residual update seconds ({_NUM_ROWS:,} rows)",
        ["backend"] + list(FIG5_METHODS), rows,
    ) + "\n" + format_table(
        f"Figure 5 — medians of {_REPEATS} alternating repeats",
        ["backend", *_CLOSE],
        [[b] + ["n/a" if v is None else v for v in median[b].values()]
         for b in _REPEATED],
    )
    figure_report("fig05", text)

    # Shape assertions from the paper (EXPERIMENTS.md discusses the one
    # divergence: our engine's dense-int bucket join makes the naive
    # U-join cheap at microbenchmark scale, so "naive slowest" does not
    # transfer; every other ordering does).
    # Calls within tens of milliseconds of each other flip between single
    # runs, so those orders are asserted on medians of alternating repeats.
    for backend in _STOCK:
        # CREATE cost grows with the number of extra columns k.
        assert median[backend]["create-10"] > median[backend]["create-0"]
        # UPDATE-in-place pays WAL/MVCC/compression per statement and
        # loses to CREATE on stock backends (the paper's SET result).
        assert results[backend]["update"] > results[backend]["create-0"]
        # Stock backends cannot swap.
        assert results[backend]["swap"] is None
    # Disk-resident UPDATE (synced WAL) dwarfs in-memory UPDATE.
    assert results["d-disk"]["update"] > results["d-mem"]["update"]
    # Column swap beats UPDATE on its backend and ties/bests CREATE-0.
    swap = median["d-swap"]["swap"]
    assert swap < results["d-swap"]["update"]
    assert swap <= median["d-swap"]["create-0"] * 1.4
    # Swap lands within a small factor of the raw-array reference line.
    reference = results["lightgbm-ref"]["array-write"]
    assert swap < 8 * reference
    # DP (external store) swap sidesteps the disk backends' write path.
    assert results["dp"]["swap"] < results["d-disk"]["update"]
