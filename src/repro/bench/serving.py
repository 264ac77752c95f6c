"""Serving-latency harness: recursive vs compiled vs SQL scoring.

The training side of Figure 8 got PRs 2–5; this is the inference side.
One synthetic star schema (categorical dim feature, NaN-bearing numeric
dim feature, local fact feature — the same mix the parity tests sweep),
one boosted model, and two workload shapes:

* **request** — the serving shape: score one fact row per call (the
  "score user id X" of ROADMAP item 1), repeated over random rows.
  Recursive scoring pays O(nodes) full numpy dispatches per call; the
  compiled tree bank pays O(depth) for the *whole ensemble*, which is
  where its 10–20x single-row-equivalent throughput win lives.  This is
  the series ``ci_perf_smoke.py`` gates at >= 5x.
* **bulk** — full-frontier batch scoring via all three paths (recursive,
  compiled, SQL ``CASE``).  At bulk sizes both in-memory paths are
  memory-bound and roughly tie; the numbers are recorded, not gated.

Each series reports p50/p99 per-call latency and rows/second.  A final
series times the :meth:`~repro.serve.PredictionService.score_key`
semi-join point lookup.  ``benchmarks/bench_serving.py`` writes the full
report to ``BENCH_pr6.json``.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List

import numpy as np

import repro
from repro.backends.embedded import EmbeddedConnector
from repro.backends.chaos import wrap_with_chaos
from repro.core.predict import feature_frame
from repro.engine.database import Database
from repro.exceptions import ServingError
from repro.joingraph.graph import JoinGraph
from repro.serve import BreakerPolicy, PredictionService, ServingGateway


def _star_schema(num_rows: int, num_dim: int = 64, seed: int = 11):
    """Fact + 2 dimensions with the full feature-type mix."""
    rng = np.random.default_rng(seed)
    db = Database()
    k1 = rng.integers(0, num_dim, num_rows)
    k2 = rng.integers(0, num_dim, num_rows)
    local = rng.normal(size=num_rows) * 3.0

    colors = np.array(["red", "green", "blue", "teal"], dtype=object)
    color_codes = rng.integers(0, 4, num_dim)
    d1_num = rng.normal(size=num_dim) * 5.0
    d1_num[rng.random(num_dim) < 0.1] = np.nan
    d2_num = rng.normal(size=num_dim) * 2.0

    signal = np.where(np.isin(color_codes, [0, 2]), 6.0, -6.0)
    y = (
        signal[k1]
        + np.nan_to_num(d1_num)[k1]
        + d2_num[k2]
        + 0.5 * local
        + rng.normal(0, 0.3, num_rows)
    )
    db.create_table("fact", {"k1": k1, "k2": k2, "local": local, "yv": y})
    db.create_table(
        "dim1", {"k1": np.arange(num_dim), "color": colors[color_codes], "d1": d1_num}
    )
    db.create_table("dim2", {"k2": np.arange(num_dim), "d2": d2_num})

    graph = JoinGraph(db)
    graph.add_relation("fact", features=["local"], y="yv", is_fact=True)
    graph.add_relation("dim1", features=["color", "d1"], categorical=["color"])
    graph.add_relation("dim2", features=["d2"])
    graph.add_edge("fact", "dim1", ["k1"])
    graph.add_edge("fact", "dim2", ["k2"])
    return db, graph


def _timed(fn, reps: int) -> List[float]:
    latencies = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        latencies.append(time.perf_counter() - start)
    return latencies


def _path_stats(latencies: List[float], rows_per_call: int) -> Dict[str, float]:
    arr = np.asarray(latencies)
    total = float(arr.sum())
    return {
        "calls": len(latencies),
        "p50_seconds": float(np.percentile(arr, 50)),
        "p99_seconds": float(np.percentile(arr, 99)),
        "total_seconds": total,
        "rows_per_second": rows_per_call * len(latencies) / total if total else 0.0,
    }


def serving_latency_benchmark(
    num_rows: int = 40_000,
    num_trees: int = 16,
    num_leaves: int = 64,
    request_count: int = 100,
    request_rows: int = 1,
    bulk_reps: int = 5,
    sql_reps: int = 2,
    key_lookups: int = 20,
    seed: int = 11,
) -> dict:
    """Time the scoring paths; see the module docstring."""
    db, graph = _star_schema(num_rows, seed=seed)
    model = repro.train_gradient_boosting(
        db,
        graph,
        {
            "num_iterations": num_trees,
            "num_leaves": num_leaves,
            "min_data_in_leaf": 5,
            "missing": "both",
            "seed": seed,
        },
    )

    service = PredictionService(db, graph)
    service.deploy(model)
    frame = feature_frame(
        db, graph, columns=list(model.required_features), include_target=False
    )

    # Warm both paths once (first-call allocs distort p99) and check the
    # parity contract while at it.
    recursive_scores = model.predict_arrays(frame)
    compiled_scores = service.score_frame(frame)
    sql_scores_out = service.score_sql()
    if not np.array_equal(recursive_scores, compiled_scores):
        raise AssertionError("compiled scores diverge from recursive")
    if not np.array_equal(recursive_scores, sql_scores_out):
        raise AssertionError("SQL scores diverge from recursive")

    # Request-shaped workload: one (or a few) rows per call.
    rng = np.random.default_rng(seed + 1)
    request_frames = []
    for _ in range(request_count):
        idx = rng.integers(0, num_rows, request_rows)
        request_frames.append({k: v[idx] for k, v in frame.items()})
    req_iter = iter(request_frames)
    rec_request = _timed(
        lambda: model.predict_arrays(next(req_iter)), request_count
    )
    req_iter = iter(request_frames)
    comp_request = _timed(
        lambda: service.score_frame(next(req_iter)), request_count
    )
    rec_req_stats = _path_stats(rec_request, request_rows)
    comp_req_stats = _path_stats(comp_request, request_rows)
    request_speedup = comp_req_stats["rows_per_second"] / max(
        rec_req_stats["rows_per_second"], 1e-12
    )

    # Bulk workload: the full frontier per call, all three paths.
    rec_bulk = _timed(lambda: model.predict_arrays(frame), bulk_reps)
    comp_bulk = _timed(lambda: service.score_frame(frame), bulk_reps)
    sql_bulk = _timed(lambda: service.score_sql(), sql_reps)
    rec_bulk_stats = _path_stats(rec_bulk, num_rows)
    comp_bulk_stats = _path_stats(comp_bulk, num_rows)

    keys = rng.integers(0, 64, key_lookups)
    key_latencies = _timed_keys(service, keys)

    return {
        "num_rows": num_rows,
        "num_trees": num_trees,
        "num_leaves": num_leaves,
        "request": {
            "rows_per_request": request_rows,
            "recursive": rec_req_stats,
            "compiled": comp_req_stats,
            "compiled_speedup_factor": request_speedup,
        },
        "bulk": {
            "recursive": rec_bulk_stats,
            "compiled": comp_bulk_stats,
            "sql": _path_stats(sql_bulk, num_rows),
            "compiled_speedup_factor": comp_bulk_stats["rows_per_second"]
            / max(rec_bulk_stats["rows_per_second"], 1e-12),
        },
        "key_lookup": _path_stats(key_latencies, 1),
        # The headline serving metric: single-row-equivalent throughput
        # of the compiled path vs recursive on request-shaped calls.
        "compiled_speedup_factor": request_speedup,
        "cache_stats": service.stats(),
    }


def _timed_keys(service: PredictionService, keys) -> List[float]:
    latencies = []
    for key in keys:
        start = time.perf_counter()
        service.score_key({"k1": int(key)})
        latencies.append(time.perf_counter() - start)
    return latencies


def _client_threads(count, fn):
    """Run ``fn(client_index)`` on ``count`` threads; re-raise the first
    uncaught error so a broken leg fails the bench instead of reporting
    fiction."""
    errors: List[BaseException] = []

    def run(i: int) -> None:
        try:
            fn(i)
        except BaseException as exc:  # noqa: BLE001 - collected, re-raised
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(i,), daemon=True)
        for i in range(count)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def gateway_concurrency_benchmark(
    num_rows: int = 8_000,
    num_trees: int = 8,
    num_leaves: int = 32,
    num_clients: int = 4,
    requests_per_client: int = 12,
    overload_clients: int = 8,
    fault_requests: int = 6,
    seed: int = 17,
) -> dict:
    """Concurrent clients against the :class:`ServingGateway` (PR 10).

    Three legs, each a census the CI gate reads directly:

    * ``healthy`` — ``num_clients`` threads each issue
      ``requests_per_client`` key-lookup requests through a generously
      bounded gateway; reports p50/p99 request latency and asserts zero
      sheds and zero degradations (nothing should fall off the primary
      path on a healthy backend).
    * ``overload`` — a gateway bound to one in-flight request and a
      one-deep queue, with injected ``serve_sql`` latency (the embedded
      key path executes no statement to slow down), takes
      ``overload_clients`` simultaneous ``score_sql`` requests: the
      bound must *shed*
      the excess immediately (``ServiceOverloadedError``), never park it
      on an unbounded queue — the leg reports shed count and the worst
      observed latency.
    * ``fault`` — every ``serve_sql`` statement fails transiently;
      each request must still be served, bit-identical to the healthy
      compiled path, with the degradation stamped in the census and the
      ``sql`` breaker tripped open.
    """
    db, graph = _star_schema(num_rows, seed=seed)
    model = repro.train_gradient_boosting(
        db,
        graph,
        {
            "num_iterations": num_trees,
            "num_leaves": num_leaves,
            "min_data_in_leaf": 5,
            "missing": "both",
            "seed": seed,
        },
    )
    healthy_service = PredictionService(db, graph)
    healthy_service.deploy(model)
    healthy_scores = healthy_service.score_all()

    # Leg 1: healthy concurrency --------------------------------------
    gateway = ServingGateway(
        healthy_service,
        max_in_flight=num_clients,
        max_queue_depth=4 * num_clients,
        deadline_seconds=30.0,
    )
    latencies: List[float] = []
    latency_lock = threading.Lock()

    def healthy_client(i: int) -> None:
        rng = np.random.default_rng(seed + 100 + i)
        for _ in range(requests_per_client):
            key = int(rng.integers(0, 64))
            start = time.perf_counter()
            response = gateway.score_key({"k1": key})
            elapsed = time.perf_counter() - start
            if response.degraded:
                raise AssertionError(
                    f"unexplained degradation on healthy backend: "
                    f"{response.degraded_reason}"
                )
            with latency_lock:
                latencies.append(elapsed)

    _client_threads(num_clients, healthy_client)
    healthy_stats = gateway.stats()
    healthy_leg = {
        "num_clients": num_clients,
        "requests_per_client": requests_per_client,
        **_path_stats(latencies, 1),
        "shed": healthy_stats["shed"],
        "degraded": healthy_stats["degraded"],
        "served": healthy_stats["served"],
    }

    # Leg 2: overload sheds, never hangs ------------------------------
    slow_conn = wrap_with_chaos(
        EmbeddedConnector(db=db),
        "tag=serve_sql:nth=1:times=1000000:kind=latency:delay=0.02",
    )
    slow_service = PredictionService(slow_conn, graph)
    slow_service.deploy(model)
    slow_gateway = ServingGateway(
        slow_service,
        max_in_flight=1,
        max_queue_depth=1,
        deadline_seconds=30.0,
    )
    overload_latencies: List[float] = []

    def overload_client(i: int) -> None:
        start = time.perf_counter()
        try:
            slow_gateway.score_sql()
        except ServingError:
            pass  # shed or deadline: the bound doing its job
        with latency_lock:
            overload_latencies.append(time.perf_counter() - start)

    _client_threads(overload_clients, overload_client)
    overload_stats = slow_gateway.stats()
    overload_leg = {
        "num_clients": overload_clients,
        "max_in_flight": 1,
        "max_queue_depth": 1,
        "shed": overload_stats["shed"],
        "served": overload_stats["served"],
        "max_latency_seconds": max(overload_latencies),
    }

    # Leg 3: chaos faults degrade with bit-parity ----------------------
    faulty_conn = wrap_with_chaos(
        EmbeddedConnector(db=db),
        "tag=serve_sql:nth=1:times=1000000:kind=transient",
    )
    faulty_service = PredictionService(faulty_conn, graph)
    faulty_service.deploy(model)
    fault_gateway = ServingGateway(
        faulty_service,
        breaker_policy=BreakerPolicy(failure_threshold=2, recovery_seconds=30.0),
        deadline_seconds=30.0,
    )
    parity_failures = 0
    for _ in range(fault_requests):
        response = fault_gateway.score_sql()
        if not np.array_equal(response.scores, healthy_scores):
            parity_failures += 1
    fault_stats = fault_gateway.stats()
    fault_leg = {
        "requests": fault_requests,
        "served": fault_stats["served"],
        "degraded": fault_stats["degraded"],
        "parity_failures": parity_failures,
        "breaker_opens": fault_stats["breakers"]["sql"]["opens"],
        "breaker_state": fault_stats["breakers"]["sql"]["state"],
        "serving_faults": fault_stats["service"]["serving_faults"],
    }

    return {
        "num_rows": num_rows,
        "num_trees": num_trees,
        "num_leaves": num_leaves,
        "healthy": healthy_leg,
        "overload": overload_leg,
        "fault": fault_leg,
    }
