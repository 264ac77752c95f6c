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
clock and query overlap :class:`ScheduleReport` records, the measured
columns of Figure 18.

Execution semantics both paths share:

* a query that raises has its error recorded; every transitive dependent
  is *skipped* (its callable never runs);
* all queries without a failed ancestor still execute;
* :meth:`QueryScheduler.run` then raises the failed query with the lowest
  id (deterministic regardless of worker count), or returns the report.

The scheduler never retries a query itself.  Transient statement faults
are retried where the statement runs — by
:class:`~repro.backends.chaos.RetryConnector` — so a fanned-out round
attempts each statement exactly as often as a serial one.
"""

from __future__ import annotations

import dataclasses
import queue
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

#: hard ceiling on the pool size — beyond this, thread switch overhead
#: dwarfs any overlap a DBMS connection can deliver
MAX_WORKERS = 64


@dataclasses.dataclass
class ScheduledQuery:
    """A unit of work with dependencies on other scheduled queries."""

    query_id: int
    fn: Callable[[], object]
    label: str = ""
    deps: Sequence[int] = ()
    # Filled in by the scheduler:
    seconds: float = 0.0
    #: start offset from the run's wall-clock origin (overlap accounting)
    started: float = 0.0
    result: object = None
    error: Optional[BaseException] = None
    #: True when an upstream query failed and this one never ran
    skipped: bool = False


class QueryScheduler:
    """Ready-queue scheduler over a dependency DAG (FIFO on the worker
    pool, depth-first inline)."""

    def __init__(self, num_workers: int = 4):
        self.num_workers = max(1, min(int(num_workers), MAX_WORKERS))
        self._queries: Dict[int, ScheduledQuery] = {}
        self._next_id = 0

    def submit(
        self,
        fn: Callable[[], object],
        deps: Sequence[int] = (),
        label: str = "",
    ) -> int:
        """Register a query; returns its id for use as a dependency."""
        for dep in deps:
            if dep not in self._queries:
                raise ValueError(f"unknown dependency {dep}")
        query_id = self._next_id
        self._next_id += 1
        self._queries[query_id] = ScheduledQuery(
            query_id=query_id, fn=fn, label=label, deps=tuple(deps)
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

    def run(self) -> "ScheduleReport":
        """Execute all queries respecting dependencies; returns a report."""
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
    """Execution statistics: wall clock, sequential sum, overlap."""

    def __init__(
        self,
        queries: List[ScheduledQuery],
        wall_seconds: float,
        workers: int,
    ):
        self.queries = queries
        self.wall_seconds = wall_seconds
        self.workers = workers

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

    def results(self) -> List[object]:
        return [q.result for q in self.queries]
