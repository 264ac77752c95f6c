"""The four bench-spine workloads.

Each ``run_*`` function builds its inputs from the seed, times a fixed
amount of work (counts scale with ``--seconds`` but are fixed before the
run starts, so one commit executes the same statements at any speed and
``peak_rss_mb`` stays comparable while ``Database.profiles`` grows per
statement), verifies every output against a reference computed outside
the timed region, and returns one record in the stable schema::

    {end_to_end, tail, layers, counts, ops_attempted, ops_failed,
     model_digest, ...}

``layers`` is filled only in the traced pass (``tracer`` given), with the
layers the workload exercised; their names and units are BENCHMARK.json's
``per_layer`` list, which ``run.py`` applies.
"""

from __future__ import annotations

import collections
import resource
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro
from repro.core.predict import feature_frame
from repro.core.sql_score import scoring_select_sql
from repro.datasets import favorita
from repro.serve import PredictionService, ServingGateway
from repro.sql.parser import parse as parse_sql

from tracing import TimingConnector, Tracer, layer_totals, maybe_span

#: ``--seconds`` the per-phase counts below are sized for on the 2-core
#: reference host; other values scale every count proportionally
RUN_SECONDS = 10

#: loads per run; ``setup_s`` reports their median
SETUP_REPEATS = 5

#: the gateway's 2 s default would shed the 100 000-row SQL scan; the
#: benchmark measures the healthy path, so the budget is out of the way
GATEWAY_DEADLINE_SECONDS = 60.0

FULL = {
    "train_sqlite": dict(
        backend="sqlite", key_dtype="int", rows=50_000, warm_rows=5_000,
        params={"num_iterations": 8, "num_leaves": 8},
        # 8 trees at the default 0.1 learning rate cannot explain more
        # than 1 - 0.9**8 = 57% of the signal; 0.5 is out of reach here
        rmse_ratio=0.6, train_reps=1,
    ),
    "train_embedded_strkeys": dict(
        backend="plain", key_dtype="str", rows=200_000, warm_rows=5_000,
        params={"num_iterations": 12, "num_leaves": 16},
        rmse_ratio=0.5, train_reps=1,
    ),
    "serve_point": dict(
        backend="plain", key_dtype="int", rows=100_000,
        params={"num_iterations": 12, "num_leaves": 32},
        key_requests=200, row_calls=5_000, turns=10,
    ),
    "serve_bulk": dict(
        backend="plain", key_dtype="int", rows=100_000,
        params={"num_iterations": 12, "num_leaves": 32},
        compiled_calls=15, sql_calls=5, recursive_calls=5, turns=5,
    ),
}

_QUICK_PARAMS = {"num_iterations": 2, "num_leaves": 8}
QUICK = {
    "train_sqlite": dict(
        FULL["train_sqlite"], rows=2_000, warm_rows=500,
        params=_QUICK_PARAMS, rmse_ratio=1.0,
    ),
    "train_embedded_strkeys": dict(
        FULL["train_embedded_strkeys"], rows=2_000, warm_rows=500,
        params=_QUICK_PARAMS, rmse_ratio=1.0,
    ),
    "serve_point": dict(
        FULL["serve_point"], rows=2_000, params=_QUICK_PARAMS,
        key_requests=20, row_calls=20, turns=2,
    ),
    "serve_bulk": dict(
        FULL["serve_bulk"], rows=2_000, params=_QUICK_PARAMS,
        compiled_calls=3, sql_calls=2, recursive_calls=2, turns=2,
    ),
}

#: buckets that also report how many spans they hold
_COUNTED = ("backends.message", "backends.split", "backends.label",
            "backends.residual_update")


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


class Ops:
    """Attempted/failed ledger of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def record(self, label: str, problem: Optional[str]) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{label}: {problem}")


def timed(
    ops: Ops,
    tracer: Optional[Tracer],
    label: str,
    layer: str,
    name: str,
    call: Callable[[], object],
    check: Callable[[object], Optional[str]],
) -> Optional[float]:
    """Run one operation; returns its latency, or None if it raised.

    An operation fails when it raises, is served off its primary path,
    or returns something other than the reference; ``check`` runs after
    the clock stops.  Failures are counted, never fatal: a wrong answer
    still has a latency, and ``ops_failed`` marks the run incorrect.
    """
    problem: Optional[str]
    elapsed = None
    try:
        with maybe_span(tracer, name, layer, label):
            start = time.perf_counter()
            result = call()
            elapsed = time.perf_counter() - start
        problem = check(result)
    except Exception as exc:  # noqa: BLE001 - counted as a failed operation
        problem = f"{type(exc).__name__}: {exc}"
    ops.record(label, problem)
    return elapsed


class Phase:
    """One kind of operation issued in a closed loop by one client: the
    next call is sent only after the previous one returned.

    Accumulates the latencies of the calls that returned and the wall
    spent in the phase.
    """

    def __init__(
        self,
        ops: Ops,
        tracer: Optional[Tracer],
        phase: str,
        name: str,
        calls: Sequence[Tuple[Callable[[], object], Callable[[object], Optional[str]]]],
        layer: str = "serve",
    ):
        self.ops, self.tracer = ops, tracer
        self.phase, self.name, self.layer = phase, name, layer
        self.calls = calls
        self.samples: List[float] = []
        self.wall = 0.0

    def run(self, lo: int, hi: int) -> None:
        """Issue calls ``lo`` to ``hi``."""
        start = time.perf_counter()
        for i in range(lo, hi):
            call, check = self.calls[i]
            elapsed = timed(self.ops, self.tracer, f"{self.phase}:{i}",
                            self.layer, self.name, call, check)
            if elapsed is not None:
                self.samples.append(elapsed)
        self.wall += time.perf_counter() - start

    def p(self, q: float) -> float:
        return float(np.percentile(np.asarray(self.samples), q))


def interleave(phases: Sequence[Phase], turns: int) -> None:
    """Run the phases round-robin, a ``turns``-th of each per turn.

    The reference host's speed drifts by +-15% over seconds (a fixed
    loop shows it), so a phase measured in one short window reports the
    window, not the code; spread over the whole timed region, every
    phase sees the same mix of fast and slow stretches.
    """
    for turn in range(turns):
        for phase in phases:
            n = len(phase.calls)
            phase.run(n * turn // turns, n * (turn + 1) // turns)
    for phase in phases:
        if not phase.samples:
            raise RuntimeError(
                f"phase {phase.phase!r}: every operation raised: {phase.ops.errors}"
            )


def scaled(count: int, seconds: float) -> int:
    return max(1, round(count * seconds / RUN_SECONDS))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Set-up shared by all workloads
# ---------------------------------------------------------------------------
def load(spec: dict, seed: int, rows: int, tracer: Optional[Tracer] = None):
    """Data generation + table load + join graph on a fresh connection.

    The caller closes it: the sqlite connector keeps its database in a
    scratch directory that only ``close()`` removes."""
    conn = repro.connect(backend=spec["backend"])
    if tracer is not None:
        conn = TimingConnector(conn, tracer)
    _, graph = favorita(
        db=conn, num_fact_rows=rows, seed=seed, key_dtype=spec["key_dtype"]
    )
    return conn, graph


def timed_loads(spec: dict, seed: int, tracer: Optional[Tracer]):
    """Load ``SETUP_REPEATS`` times; keep the last connection.

    Returns (conn, graph, median load seconds)."""
    walls = []
    conn = graph = None
    for _ in range(SETUP_REPEATS):
        if conn is not None:
            conn.close()
        start = time.perf_counter()
        conn, graph = load(spec, seed, spec["rows"], tracer)
        walls.append(time.perf_counter() - start)
    return conn, graph, statistics.median(walls)


def train(conn, graph, spec: dict):
    # num_workers=1: on a 2-core host the numbers should measure the
    # program, not the scheduler (scale-out is out of scope, see README)
    return repro.train_gradient_boosting(
        conn, graph, dict(spec["params"], num_workers=1)
    )


def target_stddev(conn, graph) -> float:
    fact = graph.target_relation
    target = graph.relations[fact].target
    return float(np.std(conn.table(fact).column(target).as_float()))


def new_layers() -> Dict[str, float]:
    """Per-layer values by BENCHMARK.json name; ``run.py`` adds the units
    and reports 0 for every layer a workload did not touch."""
    return collections.defaultdict(float)


def add_span_layers(
    layers: Dict[str, float],
    tracer: Tracer,
    phases: Sequence[str],
    wall: float,
) -> None:
    """Bucket self times of the timed phases' spans into ``layers`` and
    state how much of the phases' wall they account for."""
    totals = layer_totals(tracer.spans, phases)
    for bucket, (seconds, count) in totals.items():
        layers[f"{bucket}_s"] = seconds
        if bucket in _COUNTED:
            layers[f"{bucket}_n"] = count
    layers["layer_coverage"] = sum(s for s, _ in totals.values()) / wall


def add_profile_layers(layers: Dict[str, float], conn, first: int) -> None:
    """Add, for profiles ``first`` onward: the key-encode time the engine
    reports, and a cold parse replay of the distinct statements logged."""
    profiles = list(conn.profiles)[first:]
    layers["engine.encode_s"] += sum(p.encode_seconds for p in profiles)
    layers["engine.encode_passes"] += sum(p.encode_passes for p in profiles)
    if conn.dialect != "embedded":
        return  # another DBMS parsed these; repro.sql did nothing
    statements = {p.sql for p in profiles}
    start = time.perf_counter()
    for sql in statements:
        parse_sql(sql)
    layers["sql.parse_s"] += time.perf_counter() - start
    layers["sql.parse_n"] += len(statements)


def median_seconds(call: Callable[[], object], repeats: int) -> float:
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def finish(
    end_to_end: Dict[str, dict],
    tail: Dict[str, dict],
    layers: Optional[Dict[str, float]],
    counts: Dict[str, float],
    ops: Ops,
    digest: str,
) -> Dict[str, object]:
    end_to_end["peak_rss_mb"] = metric(peak_rss_mb(), "MB")
    return {
        "end_to_end": end_to_end,
        "tail": tail,
        "layers": dict(layers) if layers is not None else {},
        "counts": counts,
        "ops_attempted": ops.attempted,
        "ops_failed": ops.failed,
        "errors": ops.errors,
        "model_digest": digest,
    }


# ---------------------------------------------------------------------------
# train_sqlite / train_embedded_strkeys
# ---------------------------------------------------------------------------
def run_train(spec: dict, seed: int, seconds: float, tracer: Optional[Tracer]):
    # Discarded warm-up: imports, lazy set-up and allocator growth are
    # paid here, not in the first timed training.
    warm_conn, warm_graph = load(spec, seed, spec["warm_rows"])
    try:
        train(warm_conn, warm_graph, spec)
    finally:
        warm_conn.close()

    ops = Ops()
    layers = new_layers() if tracer is not None else None
    walls: List[float] = []
    digests: List[str] = []
    # One boosting iteration (grow a tree + update residuals), on the
    # program's own IterationRecord clock: the per-iteration cost the
    # paper plots, apart from the one-off lift/index work in the wall.
    tree_walls: List[float] = []
    trained = {}
    reps = scaled(spec["train_reps"], seconds)
    conn, graph, load_s = timed_loads(spec, seed, tracer)
    try:
        for rep in range(reps):
            if rep:
                # every timed training gets a fresh connection
                conn.close()
                conn, graph = load(spec, seed, spec["rows"], tracer)
            first_profile = len(conn.profiles)
            limit = spec["rmse_ratio"] * target_stddev(conn, graph)

            def verify(model) -> Optional[str]:
                rmse = repro.rmse_on_join(conn, graph, model)
                trained.update(model=model, rmse=rmse)
                tree_walls.extend(
                    r.train_seconds + r.update_seconds for r in model.history
                )
                digests.append(repro.model_digest(model))
                if digests[-1] != digests[0]:
                    return f"digest {digests[-1][:12]} differs from rep 0 {digests[0][:12]}"
                if not rmse < limit:
                    return f"train rmse {rmse:.3f} not below {limit:.3f}"
                return None

            elapsed = timed(
                ops, tracer, f"train:{rep}", "core", "train_gradient_boosting",
                lambda: train(conn, graph, spec), verify,
            )
            if elapsed is not None:
                walls.append(elapsed)
            statements = len(conn.profiles) - first_profile
            if layers is not None:
                add_profile_layers(layers, conn, first_profile)
    finally:
        conn.close()
    if not walls:
        raise RuntimeError(f"every training raised: {ops.errors}")
    if layers is not None:
        layers["datasets.load_s"] = load_s
        add_span_layers(layers, tracer, ["train"], sum(walls))
        census = trained["model"].frontier_census
        lookups = census["carry_cache_hits"] + census["carry_cache_misses"]
        layers["factorize.carry_hit_ratio"] = (
            census["carry_cache_hits"] / lookups if lookups else 0.0
        )
    return finish(
        end_to_end={
            "setup_s": metric(load_s, "s"),
            "primary_p50_ms": metric(statistics.median(walls) * 1e3, "ms"),
            "secondary_p50_ms": metric(statistics.median(tree_walls) * 1e3, "ms"),
        },
        tail={
            "train_wall_min_s": metric(min(walls), "s"),
            "train_wall_max_s": metric(max(walls), "s"),
            "train_rmse": metric(trained["rmse"], "y"),
        },
        layers=layers,
        counts={
            "fact_rows": spec["rows"],
            "train_reps": reps,
            "trees_timed": len(tree_walls),
            "statements_per_training": statements,
            "measured_wall_s": sum(walls),
        },
        ops=ops,
        digest=digests[0],
    )


# ---------------------------------------------------------------------------
# serve_point / serve_bulk
# ---------------------------------------------------------------------------
class Deployment:
    """Favorita trained, deployed and wrapped in a gateway, plus the
    recursive reference every response is compared with."""

    def __init__(self, spec: dict, seed: int, tracer: Optional[Tracer]):
        self.conn, self.graph, self.load_s = timed_loads(spec, seed, tracer)
        start = time.perf_counter()
        self.model = train(self.conn, self.graph, spec)
        self.service = PredictionService(self.conn, self.graph)
        self.service.deploy(self.model)
        self.service.compiled()  # compile now: requests should hit a warm kernel
        self.gateway = ServingGateway(
            self.service,
            max_in_flight=1,
            max_queue_depth=1,
            deadline_seconds=GATEWAY_DEADLINE_SECONDS,
        )
        self.setup_s = self.load_s + time.perf_counter() - start
        self.digest = repro.model_digest(self.model)
        self.columns = list(self.model.required_features)
        self.frame = feature_frame(
            self.conn, self.graph, columns=self.columns, include_target=False
        )
        self.reference = reference_scores(self.model, self.frame)
        self.rows = len(self.reference)

    def check_response(self, path: str, expected: np.ndarray):
        def check(response) -> Optional[str]:
            if response.served_by != path or response.degraded:
                return f"served by {response.served_by} ({response.degraded_reason})"
            if not np.array_equal(response.scores, expected):
                return "scores differ from the recursive reference"
            return None
        return check

    def serving_layers(self, tracer: Tracer, phases, wall, first_profile):
        layers = new_layers()
        layers["datasets.load_s"] = self.load_s
        add_span_layers(layers, tracer, phases, wall)
        add_profile_layers(layers, self.conn, first_profile)
        layers["core.compile.compile_s"] = median_seconds(
            lambda: repro.compile_model(self.model), 3
        )
        stats = self.service.stats()
        layers["serve.cache_hit_ratio"] = stats["hits"] / (
            stats["hits"] + stats["misses"]
        )
        return layers


def reference_scores(model, frame) -> np.ndarray:
    """Recursive (uncompiled, no SQL) scores: the serving reference."""
    return np.asarray(model.predict_arrays(frame))


def zipf_keys(rng, num_keys: int, count: int, exponent: float = 1.2) -> np.ndarray:
    """``count`` keys, rank-``exponent`` skewed; the seed picks which are hot."""
    weights = np.arange(1, num_keys + 1, dtype=np.float64) ** -exponent
    hot_first = rng.permutation(num_keys)
    return hot_first[rng.choice(num_keys, size=count, p=weights / weights.sum())]


def run_serve_point(spec: dict, seed: int, seconds: float, tracer: Optional[Tracer]):
    ops = Ops()
    dep = Deployment(spec, seed, tracer)
    rng = np.random.default_rng([seed, 1])
    item_ids = dep.conn.table("sales").column("item_id").values
    num_items = dep.conn.table("items").num_rows()
    keys = [int(k) for k in zipf_keys(rng, num_items, scaled(spec["key_requests"], seconds))]
    expected = {k: dep.reference[item_ids == k] for k in set(keys)}
    row_calls = scaled(spec["row_calls"], seconds)
    row_ids = rng.integers(0, dep.rows, size=min(512, row_calls))
    row_frames = [{c: v[i:i + 1] for c, v in dep.frame.items()} for i in row_ids]

    first_profile = len(dep.conn.profiles)
    key_phase = Phase(
        ops, tracer, "key", "gateway.score_key",
        [(lambda k=k: dep.gateway.score_key({"item_id": k}),
          dep.check_response("key", expected[k])) for k in keys],
    )

    def row_check(i):
        want = dep.reference[i:i + 1]
        return lambda got: None if np.array_equal(got, want) else "row score differs"

    row_phase = Phase(
        ops, tracer, "row", "service.score_frame",
        [(lambda f=row_frames[j % len(row_frames)]: dep.service.score_frame(f),
          row_check(row_ids[j % len(row_ids)])) for j in range(row_calls)],
    )
    interleave([key_phase, row_phase], spec["turns"])

    layers = None
    if tracer is not None:
        layers = dep.serving_layers(
            tracer, ["key", "row"],
            key_phase.wall + row_phase.wall, first_profile,
        )
        # Probes outside the timed phases, on the calls a request makes.
        probe_keys = keys[:10]
        gateway_s, service_s = [], []
        for k in probe_keys:  # alternated, so drift hits both sides alike
            gateway_s.append(median_seconds(lambda: dep.gateway.score_key({"item_id": k}), 1))
            service_s.append(median_seconds(lambda: dep.service.score_key({"item_id": k}), 1))
        layers["serve.gateway_overhead_us"] = (
            statistics.median(gateway_s) - statistics.median(service_s)
        ) * 1e6
        layers["core.sql_score.render_s"] = median_seconds(
            lambda: scoring_select_sql(
                dep.graph, dep.model, "sales",
                select_prefix=["t.item_id AS item_id"], where="t.item_id = 1",
            ), 10,
        )
        kernel = dep.service.compiled()
        layers["core.compile.kernel_s"] = median_seconds(
            lambda: kernel.predict_arrays(dict(row_frames[0])), 200
        )
    dep.conn.close()
    return finish(
        end_to_end={
            "setup_s": metric(dep.setup_s, "s"),
            "primary_p50_ms": metric(key_phase.p(50) * 1e3, "ms"),
            "secondary_p50_ms": metric(row_phase.p(50) * 1e3, "ms"),
        },
        tail={
            "key_req_per_s": metric(len(key_phase.samples) / key_phase.wall, "1/s"),
            "key_p95_ms": metric(key_phase.p(95) * 1e3, "ms"),
            "row_p99_us": metric(row_phase.p(99) * 1e6, "us"),
        },
        layers=layers,
        counts={
            "fact_rows": dep.rows,
            "key_requests": len(key_phase.samples),
            "distinct_keys": len(expected),
            "rows_per_key_answer": float(np.mean([len(expected[k]) for k in keys])),
            "row_calls": len(row_phase.samples),
            "measured_wall_s": key_phase.wall + row_phase.wall,
        },
        ops=ops,
        digest=dep.digest,
    )


def run_serve_bulk(spec: dict, seed: int, seconds: float, tracer: Optional[Tracer]):
    ops = Ops()
    dep = Deployment(spec, seed, tracer)
    first_profile = len(dep.conn.profiles)
    compiled = Phase(
        ops, tracer, "compiled", "gateway.score_compiled",
        [(dep.gateway.score_compiled, dep.check_response("compiled", dep.reference))]
        * scaled(spec["compiled_calls"], seconds),
    )
    sql = Phase(
        ops, tracer, "sql", "gateway.score_sql",
        [(dep.gateway.score_sql, dep.check_response("sql", dep.reference))]
        * scaled(spec["sql_calls"], seconds),
    )
    recursive = Phase(
        ops, tracer, "recursive", "model.predict_arrays",
        [(lambda: dep.model.predict_arrays(dep.frame),
          lambda got: None if np.array_equal(got, dep.reference) else "scores differ")]
        * scaled(spec["recursive_calls"], seconds),
        layer="core",
    )
    interleave([compiled, sql, recursive], spec["turns"])

    layers = None
    if tracer is not None:
        layers = dep.serving_layers(
            tracer, ["compiled", "sql"],
            compiled.wall + sql.wall, first_profile,
        )
        layers["core.sql_score.render_s"] = median_seconds(
            lambda: scoring_select_sql(
                dep.graph, dep.model, "sales",
                select_prefix=["t.jb_sid AS jb_sid"], order_by="jb_sid",
            ), 10,
        )
        layers["core.predict.feature_frame_s"] = median_seconds(
            lambda: feature_frame(
                dep.conn, dep.graph, columns=dep.columns, include_target=False
            ), 5,
        )
        kernel = dep.service.compiled()
        layers["core.compile.kernel_s"] = median_seconds(
            lambda: kernel.predict_arrays(dict(dep.frame)), 5
        )

    def rows_per_s(phase) -> float:
        return dep.rows * len(phase.samples) / phase.wall

    dep.conn.close()
    return finish(
        end_to_end={
            "setup_s": metric(dep.setup_s, "s"),
            "primary_p50_ms": metric(compiled.p(50) * 1e3, "ms"),
            "secondary_p50_ms": metric(sql.p(50) * 1e3, "ms"),
        },
        tail={
            "compiled_rows_per_s": metric(rows_per_s(compiled), "rows/s"),
            "sql_rows_per_s": metric(rows_per_s(sql), "rows/s"),
            "recursive_rows_per_s": metric(rows_per_s(recursive), "rows/s"),
        },
        layers=layers,
        counts={
            "fact_rows": dep.rows,
            "compiled_calls": len(compiled.samples),
            "sql_calls": len(sql.samples),
            "recursive_calls": len(recursive.samples),
            "measured_wall_s": compiled.wall + sql.wall + recursive.wall,
        },
        ops=ops,
        digest=dep.digest,
    )


RUNNERS = {
    "train_sqlite": run_train,
    "train_embedded_strkeys": run_train,
    "serve_point": run_serve_point,
    "serve_bulk": run_serve_bulk,
}


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, quick: bool = False
) -> Dict[str, object]:
    """Run one workload in this process; returns its record and, when
    traced, the spans under ``"spans"``."""
    spec = (QUICK if quick else FULL)[name]
    tracer = Tracer() if traced else None
    record = RUNNERS[name](spec, seed, seconds, tracer)
    record.update(workload=name, seed=seed, seconds=seconds, traced=traced)
    if tracer is not None:
        record["spans"] = tracer.spans
    return record
