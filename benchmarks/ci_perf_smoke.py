"""CI perf smoke: downsized Figure 5 + Figure 9 with hard gates.

Runs in the ``perf-smoke`` CI job (see .github/workflows/ci.yml), writes
``BENCH_ci.json`` as a build artifact — the bench trajectory whose
per-PR snapshots live at the repo root (``BENCH_pr3.json``, ...) — and
exits non-zero when a gate fails:

* **census** — the batched frontier evaluator must issue no more split
  queries than the per-leaf path, and at most one fused query per
  feature-bearing relation per frontier round;
* **labels** — incremental frontier state must do zero full-fact label
  rebuilds after the one root pass per tree, at most two delta updates
  per committed split, write at least ``LABEL_BYTES_MIN_DROP`` times
  fewer label bytes than the per-round rebuild, and score carry-message
  cache hits;
* **wall** — batched training must not regress to more than
  ``WALL_RATIO`` times the per-leaf wall time, nor incremental labeling
  to more than ``WALL_RATIO`` times rebuild labeling (absolute seconds
  are machine-dependent, the ratios are not);
* **parity** — all three modes must train the same model (rmse to 1e-9);
* **encoding** — on the string-keyed Figure 9 config (embedded,
  ``split_batching="auto"``, ``frontier_state="incremental"``) the
  version-stamped encoded-key cache must cut full key-encode passes by
  at least ``ENCODING_PASS_MIN_DROP``x and end-to-end train wall by at
  least ``ENCODING_WALL_MIN_SPEEDUP``x vs ``encoding_cache="off"``,
  with tree-for-tree parity between the two;
* **parallel** — on the Figure 9 CI config lifted onto the sqlite
  backend, training with ``num_workers=4`` must engage the scheduler
  (parallel rounds > 0, measured query overlap > 0), match the serial
  model exactly (zero rmse delta), and — on multi-core hosts — beat
  ``num_workers=1`` wall time by at least ``PARALLEL_MIN_SPEEDUP``x.
  The speedup gate is *waived* (recorded, not enforced) when the host
  has a single CPU: threads cannot beat physics, but the engagement,
  overlap and parity gates still run everywhere;
* **serving** — on a downsized serving config the compiled tree-bank
  kernel must beat recursive scoring by at least
  ``SERVING_MIN_SPEEDUP``x single-row-equivalent throughput on
  request-shaped (one-row) calls; the in-harness parity asserts also
  make this leg fail if compiled or SQL scores ever drift from the
  recursive reference;
* **gateway** — the resilient serving gateway (PR 10) under concurrent
  clients: the healthy leg must serve every request with zero sheds and
  zero degradations; the overload leg (one in-flight slot, one-deep
  queue, injected ``serve_sql`` latency) must shed past the bound
  rather than queue unboundedly; the fault leg (every ``serve_sql``
  statement failing transiently) must serve every request bit-identical
  to the healthy compiled path, stamp every degradation, and trip the
  ``sql`` circuit breaker;
* **fault-tolerance** — on a downsized Favorita config (sqlite,
  ``num_workers=4``) per-round checkpointing must cost at most
  ``CKPT_MAX_OVERHEAD``x baseline wall (plus a small absolute grace for
  second-scale noise), chaos-injected transient faults must be retried
  (retries > 0, none exhausted) without changing the model digest, and
  a run killed mid-training then resumed from its checkpoint must
  reproduce the uninterrupted digest bit for bit;
* **sharded** — the hash-sharded training path must produce a
  bit-identical ``model_digest`` across shard counts {1, 4} and
  executors {serial, process}, with and without ``worker_crash`` /
  ``stall`` task faults; the chaos legs must record redispatched tasks
  (``tasks_redispatched > 0``) with nothing exhausted, and every leg
  must report a measured wall > 0 — the shard steps really executed,
  only the network is modelled;
* **duckdb** — on the Figure 9 CI config the duckdb backend must train
  the same model as the embedded engine (rmse to 1e-9), grow
  bit-identical models across ``num_workers`` in {1, 4}
  (``model_digest`` equality), engage the scheduler (parallel rounds >
  0, no fallback reason), and finish no slower than the sqlite
  dialect-translation path on the same workload.  All duckdb gates are
  *waived* (recorded as unavailable, not enforced) when the optional
  ``duckdb`` package is not installed — the CI ``perf-smoke`` job
  installs it, so the gates bind there.

Sizes are deliberately small (seconds, not minutes): this is a smoke
gate, not the paper reproduction — ``pytest benchmarks/`` is that.

Run locally:  PYTHONPATH=src python benchmarks/ci_perf_smoke.py
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

from repro.bench.harness import (
    fault_tolerance_comparison,
    fig05_residual_updates,
    fig09_duckdb_comparison,
    fig09_encoding_cache_comparison,
    fig09_parallel_comparison,
    fig09_query_census,
    fig12_sharded_comparison,
)
from repro.bench.serving import (
    gateway_concurrency_benchmark,
    serving_latency_benchmark,
)

# Sibling bench script: running `python benchmarks/ci_perf_smoke.py`
# puts benchmarks/ on sys.path, so the shared gate logic imports direct.
from bench_serving import gateway_gate_failures

#: batched wall time may be at most this multiple of per-leaf wall time
#: (and incremental labeling at most this multiple of rebuild labeling)
WALL_RATIO = 2.0

#: incremental label maintenance must write at least this many times
#: fewer label bytes than per-round full-fact rebuilds
LABEL_BYTES_MIN_DROP = 5.0

#: the encoded-key cache must cut full key-encode passes by this factor
ENCODING_PASS_MIN_DROP = 5.0

#: ... and end-to-end train wall by this factor (string-keyed config)
ENCODING_WALL_MIN_SPEEDUP = 1.3

#: sqlite num_workers=4 must beat num_workers=1 wall time by this factor
#: on multi-core hosts (single-core hosts record the ratio but waive it)
PARALLEL_MIN_SPEEDUP = 1.2

#: the worker-pool size of the parallel leg
PARALLEL_WORKERS = 4

#: compiled request-shaped scoring must beat recursive by this factor
SERVING_MIN_SPEEDUP = 5.0

#: duckdb num_workers=4 wall must be no worse than sqlite num_workers=4
#: on the same workload (factor = sqlite wall / duckdb wall)
DUCKDB_VS_SQLITE_MIN_FACTOR = 1.0

#: per-round checkpointing may cost at most this multiple of the
#: fault-free baseline wall time ...
CKPT_MAX_OVERHEAD = 1.05

#: ... plus this absolute grace: the smoke legs run in ~1s, where timer
#: noise alone can exceed 5% (the ratio gate is the real contract)
CKPT_ABS_GRACE_SECONDS = 0.75

#: fault-tolerance leg sizing (sqlite backend, the parallel workload)
FAULT_SMOKE_ROWS = 8_000
FAULT_SMOKE_ITERATIONS = 3

#: sharded leg sizing: integer-valued target so cross-shard merges are
#: exact, small enough that five cluster runs finish in seconds
SHARDED_SMOKE_ROWS = 4_096

#: per-shard-step deadline for the sharded stall leg (seconds); the
#: stall leg costs about one deadline of wall waiting the timer out
SHARDED_TASK_DEADLINE = 5.0

#: serving leg: small enough to train in seconds, deep enough that the
#: per-node dispatch cost of recursive scoring is visible per request
SERVING_ROWS = 12_000
SERVING_TREES = 10
SERVING_LEAVES = 32
SERVING_REQUESTS = 60

#: gateway leg: enough rows that a request does real work, enough
#: clients (>= 4) that admission control and the breakers are genuinely
#: exercised concurrently
GATEWAY_ROWS = 6_000
GATEWAY_CLIENTS = 4
GATEWAY_REQUESTS_PER_CLIENT = 6
GATEWAY_FAULT_REQUESTS = 4

FIG5_SMOKE_ROWS = 60_000
FIG5_SMOKE_BACKENDS = ("x-col", "d-mem", "d-swap")
FIG5_SMOKE_METHODS = ("naive", "update", "create-0", "swap")

FIG9_SMOKE_ROWS = 8_000
FIG9_SMOKE_FEATURES = 18
FIG9_SMOKE_LEAVES = 8

#: encoding-cache leg: string natural keys (the raw Favorita join-key
#: dtype) at a size where per-query re-encoding visibly dominates
FIG9_ENCODING_ROWS = 30_000


def run_smoke() -> dict:
    start = time.perf_counter()
    fig05 = fig05_residual_updates(
        num_rows=FIG5_SMOKE_ROWS,
        backends=FIG5_SMOKE_BACKENDS,
        methods=FIG5_SMOKE_METHODS,
    )
    per_leaf = fig09_query_census(
        FIG9_SMOKE_ROWS, FIG9_SMOKE_FEATURES, FIG9_SMOKE_LEAVES,
        split_batching="off",
    )
    rebuild = fig09_query_census(
        FIG9_SMOKE_ROWS, FIG9_SMOKE_FEATURES, FIG9_SMOKE_LEAVES,
        split_batching="on", frontier_state="rebuild",
    )
    incremental = fig09_query_census(
        FIG9_SMOKE_ROWS, FIG9_SMOKE_FEATURES, FIG9_SMOKE_LEAVES,
        split_batching="on", frontier_state="incremental",
    )
    encoding = fig09_encoding_cache_comparison(
        FIG9_ENCODING_ROWS, FIG9_SMOKE_FEATURES, FIG9_SMOKE_LEAVES,
        key_dtype="str",
    )
    parallel = fig09_parallel_comparison(
        FIG9_SMOKE_ROWS, FIG9_SMOKE_FEATURES, FIG9_SMOKE_LEAVES,
        workers=PARALLEL_WORKERS, backend="sqlite",
    )
    duckdb = fig09_duckdb_comparison(
        FIG9_SMOKE_ROWS, FIG9_SMOKE_FEATURES, FIG9_SMOKE_LEAVES,
        workers=PARALLEL_WORKERS,
    )
    sharded = fig12_sharded_comparison(
        rows=SHARDED_SMOKE_ROWS,
        task_deadline=SHARDED_TASK_DEADLINE,
    )
    fault = fault_tolerance_comparison(
        num_fact_rows=FAULT_SMOKE_ROWS,
        num_leaves=FIG9_SMOKE_LEAVES,
        iterations=FAULT_SMOKE_ITERATIONS,
        backend="sqlite",
        workers=PARALLEL_WORKERS,
    )
    serving = serving_latency_benchmark(
        num_rows=SERVING_ROWS,
        num_trees=SERVING_TREES,
        num_leaves=SERVING_LEAVES,
        request_count=SERVING_REQUESTS,
        bulk_reps=3,
        sql_reps=1,
        key_lookups=5,
    )
    gateway = gateway_concurrency_benchmark(
        num_rows=GATEWAY_ROWS,
        num_trees=SERVING_TREES,
        num_leaves=SERVING_LEAVES,
        num_clients=GATEWAY_CLIENTS,
        requests_per_client=GATEWAY_REQUESTS_PER_CLIENT,
        fault_requests=GATEWAY_FAULT_REQUESTS,
    )
    inc_census = incremental["frontier_census"]
    reb_census = rebuild["frontier_census"]
    cpu_count = os.cpu_count() or 1
    return {
        "schema": "bench-ci-v9",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "total_seconds": time.perf_counter() - start,
        "fig05": {
            backend: methods for backend, methods in fig05.items()
        },
        "fig09": {
            "per_leaf_feature_queries": per_leaf["num_feature_queries"],
            "batched_feature_queries": incremental["num_feature_queries"],
            "rebuild_feature_queries": rebuild["num_feature_queries"],
            "batched_rounds": inc_census.get("batched_rounds", 0),
            "rebuild_rounds": reb_census.get("batched_rounds", 0),
            "feature_relations": incremental["num_feature_relations"],
            "per_leaf_wall_seconds": per_leaf["wall_seconds"],
            "rebuild_wall_seconds": rebuild["wall_seconds"],
            "batched_wall_seconds": incremental["wall_seconds"],
            "query_drop_factor": per_leaf["num_feature_queries"]
            / max(incremental["num_feature_queries"], 1),
            "rmse_delta": abs(per_leaf["rmse"] - incremental["rmse"]),
            "rebuild_rmse_delta": abs(rebuild["rmse"] - incremental["rmse"]),
        },
        "labels": {
            "rebuild_label_queries": reb_census.get("label_queries", 0),
            "incremental_label_queries": inc_census.get("label_queries", 0),
            "root_label_passes": inc_census.get("root_label_passes", 0),
            "delta_label_updates": inc_census.get("delta_label_updates", 0),
            "rebuild_label_bytes": rebuild["label_bytes_written"],
            "incremental_label_bytes": incremental["label_bytes_written"],
            "label_bytes_drop_factor": rebuild["label_bytes_written"]
            / max(incremental["label_bytes_written"], 1),
            "carry_cache_hits": incremental["carry_cache_hits"],
        },
        "encoding": {
            "key_dtype": "str",
            "rows": FIG9_ENCODING_ROWS,
            "off_encode_passes": encoding["off"]["encode_passes"],
            "on_encode_passes": encoding["on"]["encode_passes"],
            "encode_pass_drop_factor": encoding["encode_pass_drop_factor"],
            "off_wall_seconds": encoding["off"]["wall_seconds"],
            "on_wall_seconds": encoding["on"]["wall_seconds"],
            "wall_speedup_factor": encoding["wall_speedup_factor"],
            "off_encode_seconds": encoding["encode_seconds_off"],
            "on_encode_seconds": encoding["encode_seconds_on"],
            "cache_stats": encoding["on"]["encoding_cache_stats"],
            "rmse_delta": encoding["rmse_delta"],
        },
        "parallel": {
            "backend": parallel["backend"],
            "workers": parallel["workers"],
            "cpu_count": cpu_count,
            # The measured-speedup gate only binds where parallel speedup
            # is physically possible; engagement/overlap/parity always gate.
            "speedup_gate_active": cpu_count >= 2,
            "serial_wall_seconds": parallel["serial"]["wall_seconds"],
            "parallel_wall_seconds": parallel["parallel"]["wall_seconds"],
            "wall_speedup_factor": parallel["wall_speedup_factor"],
            "parallel_rounds": parallel["parallel_rounds"],
            "parallel_overlap_seconds": parallel["parallel_overlap_seconds"],
            "rmse_delta": parallel["rmse_delta"],
        },
        "duckdb": {
            # All gates on this leg are waived when available=False: the
            # optional package cannot be measured where it isn't installed.
            "available": duckdb["available"],
            "reason": duckdb.get("reason"),
            "workers": PARALLEL_WORKERS,
            "rmse_delta_vs_embedded": duckdb.get("rmse_delta_vs_embedded"),
            "digest_match_across_workers": duckdb.get(
                "digest_match_across_workers"
            ),
            "parallel_rounds": duckdb.get("parallel_rounds"),
            "parallel_fallback_reason": duckdb.get("parallel_fallback_reason"),
            "embedded_wall_seconds": duckdb.get("embedded", {}).get(
                "wall_seconds"
            ),
            "duckdb_serial_wall_seconds": duckdb.get("duckdb_serial", {}).get(
                "wall_seconds"
            ),
            "duckdb_parallel_wall_seconds": duckdb.get(
                "duckdb_parallel", {}
            ).get("wall_seconds"),
            "sqlite_parallel_wall_seconds": duckdb.get(
                "sqlite_parallel", {}
            ).get("wall_seconds"),
            "duckdb_vs_sqlite_wall_factor": duckdb.get(
                "duckdb_vs_sqlite_wall_factor"
            ),
        },
        "fault_tolerance": {
            "backend": fault["backend"],
            "workers": fault["workers"],
            "iterations": fault["iterations"],
            "baseline_wall_seconds": fault["baseline_wall_seconds"],
            "checkpoint_wall_seconds": fault["checkpoint_wall_seconds"],
            "checkpoint_overhead_factor": fault[
                "checkpoint_overhead_factor"
            ],
            "checkpoint_saves": fault["checkpoint_saves"],
            "checkpoint_digest_match": fault["checkpoint_digest_match"],
            "chaos_wall_seconds": fault["chaos_wall_seconds"],
            "chaos_digest_match": fault["chaos_digest_match"],
            "chaos_injected": fault["chaos_injected"],
            "retries": fault["retries"],
            "retry_exhausted": fault["retry_exhausted"],
            "recovered_after_retry": fault["recovered_after_retry"],
            "resume_wall_seconds": fault["resume_wall_seconds"],
            "resumed_digest_match": fault["resumed_digest_match"],
            "resumed_from_round": fault["resumed_from_round"],
        },
        "sharded": {
            "rows": sharded["rows"],
            "digest_parity": sharded["digest_parity"],
            "chaos_tasks_redispatched": sharded["chaos_tasks_redispatched"],
            "retry_exhausted": sharded["retry_exhausted"],
            "legs": sharded["legs"],
        },
        "serving": {
            "rows": SERVING_ROWS,
            "trees": SERVING_TREES,
            "request_rows": serving["request"]["rows_per_request"],
            "recursive_request_p50_seconds": serving["request"]["recursive"][
                "p50_seconds"
            ],
            "compiled_request_p50_seconds": serving["request"]["compiled"][
                "p50_seconds"
            ],
            "request_speedup_factor": serving["compiled_speedup_factor"],
            "bulk_speedup_factor": serving["bulk"]["compiled_speedup_factor"],
            "key_lookup_p50_seconds": serving["key_lookup"]["p50_seconds"],
            "cache_stats": serving["cache_stats"],
        },
        # Raw gateway legs: gate() reads them through the same
        # gateway_gate_failures() bench_serving.py enforces standalone.
        "gateway": gateway,
    }


def gate(results: dict) -> list:
    """Return the list of failed-gate messages (empty = pass)."""
    fig09 = results["fig09"]
    labels = results["labels"]
    failures = []
    if fig09["batched_feature_queries"] > fig09["per_leaf_feature_queries"]:
        failures.append(
            "census: batched split-query count "
            f"({fig09['batched_feature_queries']}) exceeds per-leaf "
            f"({fig09['per_leaf_feature_queries']})"
        )
    # One fused query per feature-bearing relation per round.  (A relation
    # mixing string and numeric features would issue one per value kind;
    # the Favorita smoke schema is all-numeric, so the tight bound holds.)
    budget = fig09["feature_relations"] * max(fig09["batched_rounds"], 1)
    if fig09["batched_feature_queries"] > budget:
        failures.append(
            "census: batched split-query count "
            f"({fig09['batched_feature_queries']}) exceeds relations x "
            f"rounds ({budget})"
        )
    if fig09["batched_wall_seconds"] > WALL_RATIO * fig09["per_leaf_wall_seconds"]:
        failures.append(
            f"wall: batched iteration took {fig09['batched_wall_seconds']:.2f}s"
            f" vs per-leaf {fig09['per_leaf_wall_seconds']:.2f}s"
            f" (> {WALL_RATIO}x regression gate)"
        )
    if fig09["batched_wall_seconds"] > WALL_RATIO * fig09["rebuild_wall_seconds"]:
        failures.append(
            "wall: incremental labeling took "
            f"{fig09['batched_wall_seconds']:.2f}s vs rebuild "
            f"{fig09['rebuild_wall_seconds']:.2f}s"
            f" (> {WALL_RATIO}x regression gate)"
        )
    if fig09["rmse_delta"] > 1e-9:
        failures.append(
            f"parity: batched/per-leaf rmse differ by {fig09['rmse_delta']:.3e}"
        )
    if fig09["rebuild_rmse_delta"] > 1e-9:
        failures.append(
            "parity: incremental/rebuild rmse differ by "
            f"{fig09['rebuild_rmse_delta']:.3e}"
        )
    # Incremental frontier state: no full-fact relabel after the root
    # pass, bounded delta updates, and a real label-byte reduction.
    if labels["incremental_label_queries"] != 0:
        failures.append(
            "labels: incremental mode issued "
            f"{labels['incremental_label_queries']} full-fact label rebuilds"
        )
    if labels["root_label_passes"] != 1:
        failures.append(
            f"labels: expected 1 root label pass per tree, saw "
            f"{labels['root_label_passes']}"
        )
    if labels["delta_label_updates"] > 2 * (FIG9_SMOKE_LEAVES - 1):
        failures.append(
            "labels: delta update census grew past two per committed "
            f"split ({labels['delta_label_updates']})"
        )
    if labels["label_bytes_drop_factor"] < LABEL_BYTES_MIN_DROP:
        failures.append(
            "labels: label bytes written dropped only "
            f"{labels['label_bytes_drop_factor']:.2f}x vs rebuild "
            f"(gate: >= {LABEL_BYTES_MIN_DROP}x)"
        )
    if labels["carry_cache_hits"] <= 0:
        failures.append("labels: carry-message cache scored no hits")
    # Encoded-key cache: a real pass drop, a real wall win, no model drift.
    encoding = results["encoding"]
    if encoding["encode_pass_drop_factor"] < ENCODING_PASS_MIN_DROP:
        failures.append(
            "encoding: key-encode passes dropped only "
            f"{encoding['encode_pass_drop_factor']:.2f}x "
            f"(gate: >= {ENCODING_PASS_MIN_DROP}x)"
        )
    if encoding["wall_speedup_factor"] < ENCODING_WALL_MIN_SPEEDUP:
        failures.append(
            "encoding: cache sped training up only "
            f"{encoding['wall_speedup_factor']:.2f}x "
            f"(gate: >= {ENCODING_WALL_MIN_SPEEDUP}x)"
        )
    if encoding["rmse_delta"] > 1e-9:
        failures.append(
            "encoding: cache-on/cache-off rmse differ by "
            f"{encoding['rmse_delta']:.3e}"
        )
    # Inter-query parallelism: the pool must engage, overlap real query
    # time, stay tree-for-tree identical to serial, and (multi-core) win.
    parallel = results["parallel"]
    if parallel["parallel_rounds"] <= 0:
        failures.append(
            "parallel: num_workers=4 training never engaged the scheduler"
        )
    if parallel["parallel_overlap_seconds"] <= 0.0:
        failures.append(
            "parallel: scheduler rounds measured zero query overlap"
        )
    if parallel["rmse_delta"] != 0.0:
        failures.append(
            "parallel: num_workers=4 and num_workers=1 grew different "
            f"models (rmse delta {parallel['rmse_delta']:.3e})"
        )
    if (
        parallel["speedup_gate_active"]
        and parallel["wall_speedup_factor"] < PARALLEL_MIN_SPEEDUP
    ):
        failures.append(
            "parallel: sqlite num_workers=4 sped training up only "
            f"{parallel['wall_speedup_factor']:.2f}x on a "
            f"{parallel['cpu_count']}-core host "
            f"(gate: >= {PARALLEL_MIN_SPEEDUP}x)"
        )
    # DuckDB backend: embedded parity, bit-identical fan-out, an engaged
    # scheduler, and no wall regression vs the sqlite translation path.
    # Waived entirely when the optional package is absent (recorded).
    duckdb = results["duckdb"]
    if duckdb["available"]:
        if duckdb["rmse_delta_vs_embedded"] > 1e-9:
            failures.append(
                "duckdb: rmse differs from embedded by "
                f"{duckdb['rmse_delta_vs_embedded']:.3e}"
            )
        if not duckdb["digest_match_across_workers"]:
            failures.append(
                "duckdb: num_workers=4 and num_workers=1 grew models with "
                "different digests"
            )
        if duckdb["parallel_rounds"] <= 0:
            failures.append(
                "duckdb: num_workers=4 training never engaged the scheduler"
                f" (fallback: {duckdb['parallel_fallback_reason']})"
            )
        if (
            duckdb["duckdb_vs_sqlite_wall_factor"]
            < DUCKDB_VS_SQLITE_MIN_FACTOR
        ):
            failures.append(
                "duckdb: native wall "
                f"{duckdb['duckdb_parallel_wall_seconds']:.2f}s slower than "
                f"sqlite {duckdb['sqlite_parallel_wall_seconds']:.2f}s "
                f"(factor {duckdb['duckdb_vs_sqlite_wall_factor']:.2f}, "
                f"gate: >= {DUCKDB_VS_SQLITE_MIN_FACTOR}x)"
            )
    # Fault tolerance: checkpointing stays cheap, chaos faults retry to
    # the same bits, and an interrupted run resumes to the same bits.
    fault = results["fault_tolerance"]
    ckpt_budget = (
        CKPT_MAX_OVERHEAD * fault["baseline_wall_seconds"]
        + CKPT_ABS_GRACE_SECONDS
    )
    if fault["checkpoint_wall_seconds"] > ckpt_budget:
        failures.append(
            "fault: checkpointed training took "
            f"{fault['checkpoint_wall_seconds']:.2f}s vs baseline "
            f"{fault['baseline_wall_seconds']:.2f}s "
            f"(gate: <= {CKPT_MAX_OVERHEAD}x + "
            f"{CKPT_ABS_GRACE_SECONDS}s grace)"
        )
    if not fault["checkpoint_digest_match"]:
        failures.append("fault: checkpointing changed the model digest")
    if not fault["chaos_digest_match"]:
        failures.append(
            "fault: chaos-injected training grew a different model"
        )
    if fault["chaos_injected"] <= 0 or fault["retries"] <= 0:
        failures.append(
            "fault: chaos leg injected "
            f"{fault['chaos_injected']} faults but recorded "
            f"{fault['retries']} retries (both must be > 0)"
        )
    if fault["retry_exhausted"] != 0:
        failures.append(
            f"fault: {fault['retry_exhausted']} queries exhausted the "
            "retry policy on a plan the policy is sized to absorb"
        )
    if not fault["resumed_digest_match"]:
        failures.append(
            "fault: resumed run's digest differs from the uninterrupted "
            "baseline"
        )
    if fault["checkpoint_saves"] != fault["iterations"]:
        failures.append(
            "fault: expected one checkpoint per round "
            f"({fault['iterations']}), saw {fault['checkpoint_saves']}"
        )
    # Sharded training: bit-identical digests across shard counts and
    # executors, observable recovery under task faults, measured walls.
    sharded = results["sharded"]
    if not sharded["digest_parity"]:
        failures.append(
            "sharded: legs grew models with different digests "
            + ", ".join(
                f"{leg['name']}={leg['digest'][:12]}"
                for leg in sharded["legs"]
            )
        )
    if sharded["chaos_tasks_redispatched"] <= 0:
        failures.append(
            "sharded: chaos legs recorded zero redispatched tasks "
            "(faults were not injected or not recovered)"
        )
    if sharded["retry_exhausted"] != 0:
        failures.append(
            f"sharded: {sharded['retry_exhausted']} shard steps exhausted "
            "their retry budget on a plan sized to be absorbed"
        )
    for leg in sharded["legs"]:
        if leg["measured_wall_seconds"] <= 0:
            failures.append(
                f"sharded: leg {leg['name']} reported no measured wall "
                "(shard steps did not actually execute)"
            )
        if leg["chaos"] is not None and leg["tasks_redispatched"] <= 0:
            failures.append(
                f"sharded: chaos leg {leg['name']} never redispatched "
                "its faulted shard step"
            )
    # Compiled serving: request-shaped scoring must clearly beat the
    # recursive path (parity is asserted inside the harness itself).
    serving = results["serving"]
    if serving["request_speedup_factor"] < SERVING_MIN_SPEEDUP:
        failures.append(
            "serving: compiled request throughput only "
            f"{serving['request_speedup_factor']:.2f}x recursive "
            f"(gate: >= {SERVING_MIN_SPEEDUP}x)"
        )
    # Resilient gateway: healthy concurrency clean, overload sheds,
    # faults degrade with bit-parity and an open breaker.
    failures.extend(gateway_gate_failures(results["gateway"]))
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output", default="BENCH_ci.json", help="where to write the report"
    )
    args = parser.parse_args(argv)

    results = run_smoke()
    failures = gate(results)
    results["gates"] = {"passed": not failures, "failures": failures}
    with open(args.output, "w") as handle:
        json.dump(results, handle, indent=2)

    fig09 = results["fig09"]
    labels = results["labels"]
    print(
        f"fig09 split queries: per-leaf={fig09['per_leaf_feature_queries']} "
        f"batched={fig09['batched_feature_queries']} "
        f"(drop {fig09['query_drop_factor']:.1f}x, "
        f"rounds={fig09['batched_rounds']}, "
        f"relations={fig09['feature_relations']})"
    )
    print(
        f"fig09 wall: per-leaf={fig09['per_leaf_wall_seconds']:.2f}s "
        f"rebuild={fig09['rebuild_wall_seconds']:.2f}s "
        f"incremental={fig09['batched_wall_seconds']:.2f}s; "
        f"rmse delta={fig09['rmse_delta']:.2e}"
    )
    print(
        f"labels: rebuild bytes={labels['rebuild_label_bytes']} "
        f"incremental bytes={labels['incremental_label_bytes']} "
        f"(drop {labels['label_bytes_drop_factor']:.1f}x), "
        f"root passes={labels['root_label_passes']}, "
        f"delta updates={labels['delta_label_updates']}, "
        f"carry-cache hits={labels['carry_cache_hits']}"
    )
    encoding = results["encoding"]
    print(
        f"encoding: passes off={encoding['off_encode_passes']} "
        f"on={encoding['on_encode_passes']} "
        f"(drop {encoding['encode_pass_drop_factor']:.1f}x); "
        f"wall off={encoding['off_wall_seconds']:.2f}s "
        f"on={encoding['on_wall_seconds']:.2f}s "
        f"(speedup {encoding['wall_speedup_factor']:.2f}x); "
        f"rmse delta={encoding['rmse_delta']:.1e}"
    )
    parallel = results["parallel"]
    gate_note = (
        "active" if parallel["speedup_gate_active"]
        else f"waived (single core, cpu_count={parallel['cpu_count']})"
    )
    print(
        f"parallel: sqlite wall serial={parallel['serial_wall_seconds']:.2f}s "
        f"workers={parallel['workers']} -> "
        f"{parallel['parallel_wall_seconds']:.2f}s "
        f"(speedup {parallel['wall_speedup_factor']:.2f}x, gate {gate_note}); "
        f"rounds={parallel['parallel_rounds']} "
        f"overlap={parallel['parallel_overlap_seconds']:.2f}s "
        f"rmse delta={parallel['rmse_delta']:.1e}"
    )
    duckdb = results["duckdb"]
    if duckdb["available"]:
        print(
            "duckdb: rmse delta vs embedded="
            f"{duckdb['rmse_delta_vs_embedded']:.1e}, "
            f"digest match={duckdb['digest_match_across_workers']}, "
            f"rounds={duckdb['parallel_rounds']}; wall "
            f"duckdb={duckdb['duckdb_parallel_wall_seconds']:.2f}s "
            f"sqlite={duckdb['sqlite_parallel_wall_seconds']:.2f}s "
            f"(factor {duckdb['duckdb_vs_sqlite_wall_factor']:.2f}x)"
        )
    else:
        print(f"duckdb: gates waived — {duckdb['reason']}")
    fault = results["fault_tolerance"]
    print(
        "fault: ckpt overhead "
        f"{fault['checkpoint_overhead_factor']:.3f}x "
        f"({fault['baseline_wall_seconds']:.2f}s -> "
        f"{fault['checkpoint_wall_seconds']:.2f}s, "
        f"{fault['checkpoint_saves']} saves); chaos injected="
        f"{fault['chaos_injected']} retries={fault['retries']} "
        f"exhausted={fault['retry_exhausted']}; digests "
        f"ckpt={fault['checkpoint_digest_match']} "
        f"chaos={fault['chaos_digest_match']} "
        f"resumed={fault['resumed_digest_match']} "
        f"(resume from round {fault['resumed_from_round']}, "
        f"{fault['resume_wall_seconds']:.2f}s)"
    )
    sharded = results["sharded"]
    crash_leg = next(
        leg for leg in sharded["legs"]
        if leg["name"] == "sharded_process_crash"
    )
    stall_leg = next(
        leg for leg in sharded["legs"]
        if leg["name"] == "sharded_process_stall"
    )
    print(
        f"sharded: digest parity={sharded['digest_parity']} across "
        f"{len(sharded['legs'])} legs; crash leg crashes="
        f"{crash_leg['worker_crashes']} redispatched="
        f"{crash_leg['tasks_redispatched']} "
        f"wall={crash_leg['measured_wall_seconds']:.2f}s; stall leg "
        f"timeouts={stall_leg['deadline_timeouts']} "
        f"wall={stall_leg['measured_wall_seconds']:.2f}s; "
        f"exhausted={sharded['retry_exhausted']}"
    )
    serving = results["serving"]
    print(
        "serving: request p50 recursive="
        f"{serving['recursive_request_p50_seconds'] * 1e3:.2f}ms "
        f"compiled={serving['compiled_request_p50_seconds'] * 1e3:.2f}ms "
        f"(speedup {serving['request_speedup_factor']:.1f}x); "
        f"bulk speedup={serving['bulk_speedup_factor']:.2f}x; "
        f"key lookup p50={serving['key_lookup_p50_seconds'] * 1e3:.2f}ms"
    )
    gateway = results["gateway"]
    healthy = gateway["healthy"]
    fault_leg = gateway["fault"]
    print(
        f"gateway: healthy x{healthy['num_clients']} "
        f"p50={healthy['p50_seconds'] * 1e3:.2f}ms "
        f"p99={healthy['p99_seconds'] * 1e3:.2f}ms "
        f"shed={healthy['shed']} degraded={healthy['degraded']}; "
        f"overload shed={gateway['overload']['shed']}; fault leg "
        f"served={fault_leg['served']}/{fault_leg['requests']} "
        f"degraded={fault_leg['degraded']} "
        f"parity_failures={fault_leg['parity_failures']} "
        f"breaker={fault_leg['breaker_state']}"
    )
    print(f"report written to {args.output}")
    if failures:
        for failure in failures:
            print(f"PERF GATE FAILED — {failure}", file=sys.stderr)
        return 1
    print("all perf gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
