"""Inter-query parallelism: the dependency-DAG scheduler of Section 5.5.3.

JoinBoost parallelizes *across* queries — trees, leaf nodes, candidate
splits and messages — subject to their dependencies: a message depends on
its upstream messages, absorption on incoming messages, child nodes on the
parent's split, boosting iterations on preceding trees.

Each query tracks its dependents; when it finishes it decrements their
ready counts, and fully-ready queries enter a FIFO run queue consumed by a
worker pool (the paper uses 4 threads intra-query and the rest inter-query).

The scheduler is the *execution* engine behind training's ``num_workers``
parameter: every batched frontier round is one DAG — per relation a chain
of message build → fused split read → prefix scan (one read/scan pair per
kind group) → temp cleanup — and random forests submit whole trees.
``num_workers=1`` runs the DAG inline on the calling thread, depth-first
(no threads are spawned; a chain runs to its end before the next root
starts, so a round issues its statements relation by relation, as a plain
nested loop would); ``num_workers > 1`` runs a thread pool whose real wall
clock :class:`ScheduleReport` records next to the *modelled*
list-scheduling makespan — critical-path length vs. sequential sum — so
Figure 18 can show measured seconds beside the model.

Execution semantics both paths share:

* a query that raises has its error recorded; every transitive dependent
  is *skipped* (its callable never runs);
* all queries without a failed ancestor still execute;
* :meth:`QueryScheduler.run` then raises the failed query with the lowest
  id (deterministic regardless of worker count), or returns the report.

The scheduler never retries a query itself.  Transient statement faults
are retried where the statement runs — by
:class:`~repro.backends.chaos.RetryConnector` in the owner process, by
the process pool's ``task_retries`` in a worker — so a fanned-out round
attempts each statement exactly as often as a serial one.
"""

from __future__ import annotations

import dataclasses
import queue
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.engine.procpool import (
    ProcPoolCensus,
    SupervisedProcessPool,
    WorkerTask,
    default_task_deadline,
    get_shared_pool,
)

#: hard ceiling on the pool size — beyond this, thread switch overhead
#: dwarfs any overlap a DBMS connection can deliver
MAX_WORKERS = 64

#: the executor axes ``num_workers`` parallelism can run on
EXECUTORS = ("thread", "process")


@dataclasses.dataclass
class ScheduledQuery:
    """A unit of work with dependencies on other scheduled queries."""

    query_id: int
    fn: Callable[[], object]
    label: str = ""
    deps: Sequence[int] = ()
    #: optional process-task spec: a callable resolved at dispatch time
    #: returning a serialized payload dict (see
    #: :func:`repro.engine.procpool.execute_task_payload`) or ``None``
    #: to decline — in which case ``fn`` runs inline as usual
    spec: Optional[Callable[[], Optional[dict]]] = None
    # Filled in by the scheduler:
    seconds: float = 0.0
    #: start offset from the run's wall-clock origin (overlap accounting)
    started: float = 0.0
    result: object = None
    error: Optional[BaseException] = None
    #: True when an upstream query failed and this one never ran
    skipped: bool = False
    #: how many times the task ran (>1 after a process-pool re-dispatch)
    attempts: int = 1
    #: process executor: re-dispatches after a worker crash/stall
    redispatches: int = 0
    #: process executor: the task hit its per-task deadline at least once
    timed_out: bool = False


class QueryScheduler:
    """Ready-queue scheduler over a dependency DAG (FIFO on the worker
    pool, depth-first inline)."""

    def __init__(
        self,
        num_workers: int = 4,
        executor: str = "thread",
        pool: Optional[SupervisedProcessPool] = None,
        pool_census: Optional[ProcPoolCensus] = None,
        task_deadline: Optional[float] = None,
    ):
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {EXECUTORS}"
            )
        self.num_workers = max(1, min(int(num_workers), MAX_WORKERS))
        self.executor = executor
        self._pool = pool
        self._pool_census = pool_census
        self._task_deadline = task_deadline
        self._queries: Dict[int, ScheduledQuery] = {}
        self._next_id = 0

    def submit(
        self,
        fn: Callable[[], object],
        deps: Sequence[int] = (),
        label: str = "",
        spec: Optional[Callable[[], Optional[dict]]] = None,
    ) -> int:
        """Register a query; returns its id for use as a dependency.

        ``spec`` (optional) makes the query eligible for the process
        executor: it is resolved at dispatch time and must return a
        serialized task payload dict — or ``None`` to decline, in which
        case ``fn`` runs inline.  On the thread executor ``spec`` is
        ignored entirely.
        """
        for dep in deps:
            if dep not in self._queries:
                raise ValueError(f"unknown dependency {dep}")
        query_id = self._next_id
        self._next_id += 1
        self._queries[query_id] = ScheduledQuery(
            query_id=query_id, fn=fn, label=label, deps=tuple(deps), spec=spec
        )
        return query_id

    def take_result(self, query_id: int) -> object:
        """Hand a finished query's result to its consumer node and forget
        it, so a large intermediate (a fused read's result set) lives only
        until the node that consumes it has run."""
        q = self._queries[query_id]
        result, q.result = q.result, None
        return result

    # ------------------------------------------------------------------
    def _execute(self, q: ScheduledQuery, wall_start: float) -> None:
        """Run one ready query (deps all finished) or mark it skipped."""
        if any(
            self._queries[d].error is not None or self._queries[d].skipped
            for d in q.deps
        ):
            q.skipped = True
            return
        q.started = time.perf_counter() - wall_start
        start = time.perf_counter()
        try:
            q.result = q.fn()
        except BaseException as exc:  # recorded, surfaced after the run
            q.error = exc
        q.seconds = time.perf_counter() - start

    def _dag(self) -> "tuple[Dict[int, int], Dict[int, List[int]]]":
        pending: Dict[int, int] = {}
        dependents: Dict[int, List[int]] = {qid: [] for qid in self._queries}
        for qid, q in self._queries.items():
            pending[qid] = len(q.deps)
            for dep in q.deps:
                dependents[dep].append(qid)
        return pending, dependents

    def _finish(self) -> "ScheduleReport":
        failed = [q for q in self._queries.values() if q.error is not None]
        if failed:
            raise min(failed, key=lambda q: q.query_id).error  # type: ignore[misc]
        return ScheduleReport(
            list(self._queries.values()),
            max((q.started + q.seconds for q in self._queries.values()), default=0.0),
            self.num_workers,
            executor=self.executor,
        )

    def _run_serial(self) -> "ScheduleReport":
        """Inline, depth-first execution on the calling thread.

        A query's newly-ready dependents run before the next ready root
        (both in query-id order), so independent chains ``a→a'``,
        ``b→b'`` run as ``a, a', b, b'`` — the order of a plain nested
        loop.  No threads are spawned."""
        pending, dependents = self._dag()
        stack: List[int] = [
            qid for qid, count in pending.items() if count == 0
        ][::-1]
        wall_start = time.perf_counter()
        while stack:
            qid = stack.pop()
            self._execute(self._queries[qid], wall_start)
            unlocked: List[int] = []
            for child in dependents[qid]:
                pending[child] -= 1
                if pending[child] == 0:
                    unlocked.append(child)
            stack.extend(reversed(unlocked))
        return self._finish()

    def _run_process(self) -> "ScheduleReport":
        """Wave scheduling over the supervised process pool.

        Ready queries are processed in waves: spec-less queries (and
        queries whose spec declines by returning ``None``) run inline on
        the calling thread in query-id order; the wave's remaining
        specs are serialized and dispatched to the pool as one batch,
        whose outcomes are merged back *by query id* — never by
        completion order — before the next wave unlocks.  Skip/error
        semantics are identical to the inline path, so digests are too.
        """
        pool = self._pool if self._pool is not None else get_shared_pool(
            self.num_workers
        )
        pending, dependents = self._dag()
        wave: List[int] = sorted(
            qid for qid, count in pending.items() if count == 0
        )
        wall_start = time.perf_counter()

        def unlock(qid: int, next_wave: List[int]) -> None:
            for child in dependents[qid]:
                pending[child] -= 1
                if pending[child] == 0:
                    next_wave.append(child)

        while wave:
            next_wave: List[int] = []
            pooled: List[WorkerTask] = []
            for qid in wave:
                q = self._queries[qid]
                if any(
                    self._queries[d].error is not None or self._queries[d].skipped
                    for d in q.deps
                ):
                    q.skipped = True
                    unlock(qid, next_wave)
                    continue
                payload = q.spec() if q.spec is not None else None
                if payload is None:
                    self._execute(q, wall_start)
                    unlock(qid, next_wave)
                    continue
                chaos = payload.pop("chaos", None)
                q.started = time.perf_counter() - wall_start
                pooled.append(WorkerTask(
                    task_id=qid,
                    payload=payload,
                    tag=q.label,
                    chaos=chaos if isinstance(chaos, str) else None,
                ))
            if pooled:
                # Resolve the deadline per run, not per pool: the shared
                # pool outlives schedulers, and JOINBOOST_TASK_DEADLINE
                # must apply to runs started after it was set.
                deadline = (
                    self._task_deadline
                    if self._task_deadline is not None
                    else default_task_deadline()
                )
                outcomes = pool.run(
                    pooled,
                    census=self._pool_census,
                    deadline_s=deadline,
                )
                for outcome in outcomes:
                    q = self._queries[outcome.task_id]
                    q.result = outcome.result
                    q.error = outcome.error
                    q.attempts = max(1, outcome.attempts)
                    q.redispatches = outcome.redispatches
                    q.timed_out = outcome.timed_out
                    q.seconds = outcome.seconds
                    unlock(outcome.task_id, next_wave)
            wave = sorted(next_wave)
        return self._finish()

    def run(self) -> "ScheduleReport":
        """Execute all queries respecting dependencies; returns a report."""
        if self.executor == "process" and any(
            q.spec is not None for q in self._queries.values()
        ):
            return self._run_process()
        if self.num_workers == 1 or len(self._queries) <= 1:
            return self._run_serial()
        pending, dependents = self._dag()

        ready: "queue.Queue[Optional[int]]" = queue.Queue()
        for qid, count in pending.items():
            if count == 0:
                ready.put(qid)

        lock = threading.Lock()
        remaining = len(self._queries)
        done = threading.Event()
        if remaining == 0:
            done.set()
        wall_start = time.perf_counter()

        def worker() -> None:
            nonlocal remaining
            while True:
                qid = ready.get()
                if qid is None:
                    return
                self._execute(self._queries[qid], wall_start)
                with lock:
                    remaining -= 1
                    for child in dependents[qid]:
                        pending[child] -= 1
                        if pending[child] == 0:
                            ready.put(child)
                    if remaining == 0:
                        done.set()

        threads = [
            threading.Thread(target=worker, daemon=True)
            for _ in range(min(self.num_workers, len(self._queries)))
        ]
        for t in threads:
            t.start()
        done.wait()
        for _ in threads:
            ready.put(None)
        for t in threads:
            t.join()
        return self._finish()


class ScheduleReport:
    """Execution statistics: wall clock, sequential sum, critical path.

    Besides the aggregate counters, the report names *which* query did
    what: :meth:`query_outcomes` gives one record per scheduled query
    (attempts, retried, exhausted, timed out, re-dispatched), and
    :attr:`exhausted_queries` / :attr:`timed_out_queries` list the
    labels of the queries behind the matching aggregate counts — a
    chaos run that exhausts one pooled task's budget is attributable
    from the report alone, without digging through logs.
    """

    def __init__(
        self,
        queries: List[ScheduledQuery],
        wall_seconds: float,
        workers: int,
        executor: str = "thread",
    ):
        self.queries = queries
        self.wall_seconds = wall_seconds
        self.workers = workers
        self.executor = executor

    @property
    def sequential_seconds(self) -> float:
        """Time a one-query-at-a-time engine would need (the w/o bar)."""
        return sum(q.seconds for q in self.queries)

    @property
    def overlap_seconds(self) -> float:
        """Measured concurrency: query-seconds that ran while another
        query was also running (0 on a serial schedule)."""
        return max(0.0, self.sequential_seconds - self.wall_seconds)

    @property
    def skipped(self) -> int:
        return sum(1 for q in self.queries if q.skipped)

    @property
    def retries(self) -> int:
        """Extra attempts the process pool spent on re-dispatches and
        task retries (always 0 on the inline and thread paths)."""
        return sum(max(0, q.attempts - 1) for q in self.queries)

    @property
    def exhausted(self) -> int:
        """Queries that failed even after the process pool retried them."""
        return sum(
            1 for q in self.queries if q.error is not None and q.attempts > 1
        )

    @property
    def redispatched(self) -> int:
        """Tasks re-dispatched after a worker crash/stall (process path)."""
        return sum(q.redispatches for q in self.queries)

    @property
    def timed_out(self) -> int:
        """Queries whose worker hit the per-task deadline at least once."""
        return sum(1 for q in self.queries if q.timed_out)

    def _describe(self, q: ScheduledQuery) -> str:
        return q.label or f"query {q.query_id}"

    @property
    def exhausted_queries(self) -> List[str]:
        """Labels of the queries that failed after pool retries."""
        return [
            self._describe(q)
            for q in self.queries
            if q.error is not None and q.attempts > 1
        ]

    @property
    def timed_out_queries(self) -> List[str]:
        """Labels of the queries that hit their per-task deadline."""
        return [self._describe(q) for q in self.queries if q.timed_out]

    def query_outcomes(self) -> List[Dict[str, object]]:
        """Per-query outcome records, in query-id order.

        Each record carries ``query_id``, ``label``, a ``status`` of
        ``"ok"`` / ``"error"`` / ``"skipped"``, the attempt counters
        (``attempts``, ``retried``, ``exhausted``), the process-executor
        supervision fields (``timed_out``, ``redispatches``) and the
        final error's type name (or ``None``) — the record a test or an
        operator needs to say *which* scheduled query misbehaved.
        """
        records: List[Dict[str, object]] = []
        for q in sorted(self.queries, key=lambda x: x.query_id):
            if q.skipped:
                status = "skipped"
            elif q.error is not None:
                status = "error"
            else:
                status = "ok"
            records.append({
                "query_id": q.query_id,
                "label": q.label,
                "status": status,
                "attempts": q.attempts,
                "retried": q.attempts > 1,
                "exhausted": q.error is not None and q.attempts > 1,
                "timed_out": q.timed_out,
                "redispatches": q.redispatches,
                "error": type(q.error).__name__ if q.error is not None else None,
            })
        return records

    @property
    def critical_path_seconds(self) -> float:
        """Longest dependency chain — the lower bound with infinite workers."""
        finish: Dict[int, float] = {}

        def resolve(qid: int) -> float:
            if qid in finish:
                return finish[qid]
            q = next(x for x in self.queries if x.query_id == qid)
            start = max((resolve(d) for d in q.deps), default=0.0)
            finish[qid] = start + q.seconds
            return finish[qid]

        return max((resolve(q.query_id) for q in self.queries), default=0.0)

    def modelled_parallel_seconds(self) -> float:
        """List-scheduling bound with `workers` workers:
        max(critical path, total work / workers)."""
        return max(
            self.critical_path_seconds, self.sequential_seconds / max(1, self.workers)
        )

    def modelled_speedup(self) -> float:
        parallel = self.modelled_parallel_seconds()
        if parallel <= 0:
            return 1.0
        return self.sequential_seconds / parallel

    def results(self) -> List[object]:
        return [q.result for q in self.queries]
