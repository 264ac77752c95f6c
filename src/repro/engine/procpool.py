"""Supervised process-pool executor for read-only training tasks.

The thread scheduler (:mod:`repro.engine.scheduler`) escapes the GIL
only as far as the backend's C core releases it; this module is the
``executor="process"`` axis — real OS processes behind the same
scheduler interface, plus the *supervision* the new failure domain
demands.  A worker process can crash mid-task (nonzero exitcode), hang
forever, or die holding in-flight work; none of those are visible to
the statement-level retry layer, so the pool runs its own control loop:

* **heartbeats** — every worker acknowledges each task with a ``start``
  message before running it, and the supervisor stamps the ack time;
* **per-task deadlines** — a task that neither completes nor errors
  within its deadline of the last heartbeat (the ``start`` ack,
  initially the dispatch stamp) is presumed stalled, its worker killed;
* **crash detection** — a worker whose process exits while a task is in
  flight is detected via ``Process.is_alive()``/``exitcode``;
* **bounded re-dispatch** — the in-flight task of a crashed/stalled
  worker is re-dispatched to a healthy worker (each task carries a
  bounded re-dispatch budget), and the dead worker is respawned under a
  pool-wide respawn budget.

The pool has two clients, both driving it through
:class:`~repro.engine.scheduler.QueryScheduler`: the frontier
evaluator's fused split reads (on the shared pool, one per worker
count) and the sharded trainer's read-only shard steps
(:mod:`repro.distributed.cluster`, on a pool forked per step so its
workers see the in-memory shards as they stand).  Recovery is *safe*
because every task either submits is a read-only, idempotent unit — a
fused split query against a WAL snapshot or pickled immutable base
relations, or a shard's totals/feature aggregate over its forked
catalogs — so re-running it on a respawned worker cannot corrupt
anything, and it is *deterministic* because task results are merged by
task id (submission order), never by completion order: the model digest
of a process-pool run is bit-identical to the serial run even when
workers are killed underneath it.

Tasks are serialized specs (plain dicts), not closures: the child
process rebuilds its own database handle from the spec (sqlite WAL file
path, or pickled embedded base relations) and ships back a
:class:`~repro.engine.result.Relation`, or — the ``callable`` kind —
calls a module-level function by reference, whose state a forked worker
inherits.  Chaos directives
(``worker_crash`` / ``stall`` from :mod:`repro.backends.chaos`) are
resolved by the submitting client in submission order
(:func:`~repro.backends.chaos.task_fault_directive`) and stamped onto
the task — and stripped on re-dispatch to a respawned worker, so the Nth
matching task faults exactly once and then recovers.
"""

from __future__ import annotations

import atexit
import dataclasses
import multiprocessing
import multiprocessing.connection
import os
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import (
    BackendError,
    BackendExecutionError,
    TransientBackendError,
)

#: exitcode a chaos-crashed worker dies with (distinguishable from a
#: Python traceback's exit 1 and from signal deaths, which are negative)
CRASH_EXIT_CODE = 87

#: how long a chaos-stalled worker sleeps; far past any sane deadline,
#: so the supervisor's deadline detection is what ends the task
STALL_SLEEP_SECONDS = 3600.0

#: environment variable supplying the default per-task deadline
TASK_DEADLINE_ENV = "JOINBOOST_TASK_DEADLINE"

#: default per-task deadline in seconds (generous: a deadline kill on an
#: honest task would waste work, so only genuine stalls should trip it)
DEFAULT_TASK_DEADLINE = 30.0


def default_task_deadline() -> float:
    """The per-task deadline: ``JOINBOOST_TASK_DEADLINE`` or 30s."""
    raw = os.environ.get(TASK_DEADLINE_ENV, "")
    if raw:
        try:
            value = float(raw)
            if value > 0:
                return value
        except ValueError:
            pass
    return DEFAULT_TASK_DEADLINE


def fork_available() -> bool:
    """Whether workers can be forked (and so inherit parent memory)."""
    return "fork" in multiprocessing.get_all_start_methods()


@dataclasses.dataclass
class WorkerTask:
    """One serialized unit of work for a worker process.

    ``payload`` is a plain-data spec executed by
    :func:`execute_task_payload`; ``chaos`` is a task-scoped fault
    directive (``"worker_crash"`` / ``"stall"`` / ``None``) stamped by
    the supervisor at dispatch time and honoured by the child *before*
    running the payload — and stripped on re-dispatch, so a faulted
    task recovers on its next attempt.
    """

    task_id: int
    payload: Dict[str, object]
    tag: str = ""
    chaos: Optional[str] = None


@dataclasses.dataclass
class TaskOutcome:
    """Per-task result and supervision stats, in submission order."""

    task_id: int
    result: object = None
    error: Optional[BaseException] = None
    #: dispatch count (1 = clean first run)
    attempts: int = 0
    #: re-dispatches after a crash/stall (subset of ``attempts - 1``)
    redispatches: int = 0
    #: the task hit its deadline at least once (its worker was killed)
    timed_out: bool = False
    #: wall seconds from first dispatch to final completion
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether the task produced a result."""
        return self.error is None


class ProcPoolCensus:
    """Thread-safe counters for the supervision loop.

    The frontier evaluator (across all rounds) and the sharded trainer
    (across all shard steps) each accumulate one census and surface it
    through ``frontier_census`` / ``SimulatedCluster.census()``
    (``worker_crashes``, ``tasks_redispatched``, ``respawns``,
    ``deadline_timeouts``), which
    is how benches and CI gates assert that chaos runs actually
    exercised the recovery paths.
    """

    FIELDS = (
        "worker_crashes",
        "tasks_redispatched",
        "respawns",
        "deadline_timeouts",
        "tasks_completed",
        "task_retries",
        "heartbeats",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counts: Dict[str, int] = {field: 0 for field in self.FIELDS}

    def bump(self, field: str, by: int = 1) -> None:
        """Increment one counter (must be a known field)."""
        with self._lock:
            self.counts[field] += by

    def snapshot(self) -> Dict[str, int]:
        """Copy of all counters."""
        with self._lock:
            return dict(self.counts)


# ----------------------------------------------------------------------
# Task payload execution (runs in the child process)
# ----------------------------------------------------------------------
def _execute_sqlite_read(payload: Dict[str, object]):
    """Run a pre-translated read statement against a sqlite WAL file.

    Mirrors the parent's pooled reader exactly: a normal connection
    (WAL readers need a writable ``-shm``, so no ``mode=ro`` URI) pinned
    ``query_only``, the same registered SQL functions, and the same
    ``column_from_values`` result construction — which is what keeps a
    child-computed Relation bit-identical to the in-process one.
    """
    import sqlite3

    from repro.backends.base import column_from_values
    from repro.backends.sqlite3_backend import (
        _wrap_errors,
        register_sql_functions,
    )
    from repro.engine.result import Relation

    path = str(payload["path"])
    sql = str(payload["sql"])
    conn = sqlite3.connect(path, check_same_thread=False)
    try:
        conn.isolation_level = None
        conn.execute("PRAGMA busy_timeout = 30000")
        register_sql_functions(conn)
        conn.execute("PRAGMA query_only = 1")
        with _wrap_errors(repr(sql)):
            cursor = conn.execute(sql)
            names = [d[0] for d in cursor.description or ()]
            rows = cursor.fetchall()
    finally:
        conn.close()
    columns = [
        column_from_values(name, [row[i] for row in rows])
        for i, name in enumerate(names)
    ]
    return Relation(columns)


def _execute_embedded_read(payload: Dict[str, object]):
    """Run a query against pickled immutable embedded base relations.

    The spec ships each referenced table as ``(column name, values,
    ctype value, valid mask)`` tuples; the child rebuilds real
    :class:`~repro.storage.column.Column` objects (masks preserved
    exactly — no round-trip through NaN sentinels) in a fresh
    :class:`~repro.engine.database.Database` and runs the statement
    there.  Same engine, same data, same statement ⇒ same bits.
    """
    from repro.engine.database import Database
    from repro.storage.column import Column, ColumnType
    from repro.storage.table import Table

    db = Database()
    tables = payload["tables"]
    assert isinstance(tables, dict)
    for name, specs in tables.items():
        columns = [
            Column(col_name, values, ctype=ColumnType(ctype), valid=valid)
            for col_name, values, ctype, valid in specs
        ]
        db.register(Table.from_columns(name, columns, db.config))
    return db.execute(str(payload["sql"]))


def execute_task_payload(payload: Dict[str, object]):
    """Execute one serialized task spec; the child-side dispatch.

    Also callable in-process (the scheduler's inline fallback and the
    tests use it directly) — the payload contract is executor-neutral.
    """
    kind = payload.get("kind")
    if kind == "callable":
        fn = payload["fn"]
        args = payload.get("args", ())
        kwargs = payload.get("kwargs", {})
        assert callable(fn) and isinstance(args, tuple) and isinstance(kwargs, dict)
        return fn(*args, **kwargs)
    if kind == "sqlite_read":
        return _execute_sqlite_read(payload)
    if kind == "embedded_read":
        return _execute_embedded_read(payload)
    raise BackendError(f"unknown task payload kind {kind!r}")


def _worker_main(
    worker_id: int, conn: "multiprocessing.connection.Connection"
) -> None:
    """Worker loop: recv task, ack, honour chaos, run, send outcome.

    The ``start`` ack is sent *before* any chaos directive is honoured,
    so the supervisor always knows which task a dead worker was holding.
    ``worker_crash`` uses ``os._exit`` (no cleanup, no exception
    propagation — a genuine hard death); ``stall`` sleeps far past any
    deadline while holding no locks, so the supervisor's kill is safe.
    """
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        try:
            conn.send(("start", task.task_id))
        except (BrokenPipeError, OSError):
            return
        if task.chaos == "worker_crash":
            os._exit(CRASH_EXIT_CODE)
        if task.chaos == "stall":
            time.sleep(STALL_SLEEP_SECONDS)
        try:
            result = execute_task_payload(task.payload)
            message: Tuple[object, ...] = ("done", task.task_id, result)
        except BaseException as exc:  # noqa: BLE001 — ships error to parent
            message = ("error", task.task_id, _picklable_error(exc))
        try:
            conn.send(message)
        except (BrokenPipeError, OSError):
            return


def _picklable_error(exc: BaseException) -> BaseException:
    """The exception itself if it pickles, else a faithful stand-in."""
    import pickle

    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return BackendExecutionError(
            f"worker task failed with unpicklable {type(exc).__name__}: {exc}"
        )


# ----------------------------------------------------------------------
# The supervisor
# ----------------------------------------------------------------------
class _Worker:
    """One supervised child: process + duplex pipe + in-flight state."""

    def __init__(self, ctx, worker_id: int):
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.conn = parent_conn
        self.process = ctx.Process(
            target=_worker_main,
            args=(worker_id, child_conn),
            daemon=True,
            name=f"jb-worker-{worker_id}",
        )
        self.process.start()
        child_conn.close()
        self.worker_id = worker_id
        #: the WorkerTask currently dispatched to this child, if any
        self.in_flight: Optional[WorkerTask] = None
        self.dispatched_at = 0.0
        self.last_heartbeat = 0.0

    @property
    def idle(self) -> bool:
        return self.in_flight is None

    def dispatch(self, task: WorkerTask) -> None:
        self.in_flight = task
        self.dispatched_at = time.monotonic()
        self.last_heartbeat = self.dispatched_at
        self.conn.send(task)

    def kill(self) -> None:
        """Hard-stop the child and its pipe (idempotent)."""
        try:
            if self.process.is_alive():
                self.process.kill()
            self.process.join(timeout=5.0)
        except Exception:
            pass
        try:
            self.conn.close()
        except Exception:
            pass


class SupervisedProcessPool:
    """A pool of worker processes with crash/stall supervision.

    ``run(tasks)`` dispatches :class:`WorkerTask`\\ s across the pool
    and returns one :class:`TaskOutcome` per task *in submission
    order*; crashed and stalled workers are killed, respawned (bounded
    by ``max_respawns``) and their in-flight tasks re-dispatched
    (bounded per task by ``max_redispatches``) with any chaos directive
    stripped.  Transient task errors are retried within the same
    bounds.  A pool survives across ``run()`` calls — the frontier
    evaluator reuses one shared pool across every round of a training
    run, while the sharded trainer forks a pool per read-only shard step
    and closes it when the step is done.
    """

    def __init__(
        self,
        num_workers: int,
        deadline_s: Optional[float] = None,
        max_redispatches: int = 3,
        max_respawns: Optional[int] = None,
        start_method: Optional[str] = None,
    ):
        if num_workers < 1:
            raise BackendError("process pool needs num_workers >= 1")
        if start_method is None:
            # fork is the cheap path on Linux (no module re-import, no
            # pickling of Process args); fall back where it is absent.
            start_method = (
                "fork" if fork_available()
                else multiprocessing.get_all_start_methods()[0]
            )
        self._ctx = multiprocessing.get_context(start_method)
        self.start_method = start_method
        self.num_workers = num_workers
        self.deadline_s = (
            deadline_s if deadline_s is not None else default_task_deadline()
        )
        self.max_redispatches = max_redispatches
        self.max_respawns = (
            max_respawns if max_respawns is not None else 3 * num_workers
        )
        self._respawns_used = 0
        self._next_worker_id = 0
        self._lock = threading.Lock()
        self._closed = False
        self._workers: List[_Worker] = [
            self._spawn() for _ in range(num_workers)
        ]

    def _spawn(self) -> _Worker:
        worker = _Worker(self._ctx, self._next_worker_id)
        self._next_worker_id += 1
        return worker

    # ------------------------------------------------------------------
    def run(
        self,
        tasks: Sequence[WorkerTask],
        census: Optional[ProcPoolCensus] = None,
        deadline_s: Optional[float] = None,
    ) -> List[TaskOutcome]:
        """Execute ``tasks`` on the pool; outcomes in submission order.

        Serialized with a lock — one scheduler drives a pool at a time.
        Never raises for per-task failures: a task that exhausts its
        re-dispatch/retry budget (or the pool's respawn budget) comes
        back with ``outcome.error`` set, and the caller decides how a
        failed task propagates (the scheduler raises the lowest
        query id's error, exactly as on the thread path).
        """
        with self._lock:
            if self._closed:
                raise BackendExecutionError("process pool is closed")
            return self._run_locked(list(tasks), census, deadline_s)

    def _run_locked(
        self,
        tasks: List[WorkerTask],
        census: Optional[ProcPoolCensus],
        deadline_s: Optional[float],
    ) -> List[TaskOutcome]:
        census = census if census is not None else ProcPoolCensus()
        deadline = deadline_s if deadline_s is not None else self.deadline_s
        # Backstop for the shared pool: a worker still marked busy from a
        # previous run would misattribute its pending messages to this
        # run's task ids — replace it (not charged to the respawn
        # budget; nothing failed in *this* run).
        for worker in list(self._workers):
            if not worker.idle:
                worker.in_flight = None
                worker.kill()
                self._workers.remove(worker)
                self._workers.append(self._spawn())
        outcomes = {t.task_id: TaskOutcome(task_id=t.task_id) for t in tasks}
        first_dispatch: Dict[int, float] = {}
        queue: List[WorkerTask] = list(tasks)
        done = 0

        finished: set = set()

        def finish(task_id: int, result=None, error=None) -> None:
            nonlocal done
            if task_id in finished:
                # Backstop: a task completes exactly once.  Recovery is
                # single-sourced (requeue() owns re-queuing), so a second
                # finish() would mean a task ran twice — keep the first
                # outcome rather than over-counting ``done``.
                return
            finished.add(task_id)
            outcome = outcomes[task_id]
            outcome.result = result
            outcome.error = error
            outcome.seconds = time.monotonic() - first_dispatch[task_id]
            done += 1
            if error is None:
                census.bump("tasks_completed")

        def requeue(worker: _Worker, why: str) -> None:
            """Crash/stall recovery: respawn + re-dispatch (both bounded)."""
            task = worker.in_flight
            worker.in_flight = None
            worker.kill()
            self._workers.remove(worker)
            if self._respawns_used < self.max_respawns:
                self._respawns_used += 1
                census.bump("respawns")
                self._workers.append(self._spawn())
            if task is None:
                return
            outcome = outcomes[task.task_id]
            if outcome.redispatches >= self.max_redispatches or not self._workers:
                finish(task.task_id, error=BackendExecutionError(
                    f"worker task {task.task_id} ({task.tag!r}) lost to "
                    f"{why} after {outcome.redispatches} re-dispatches"
                ))
                return
            outcome.redispatches += 1
            census.bump("tasks_redispatched")
            # Strip the chaos directive: the fault fired; the re-dispatch
            # must be allowed to succeed.
            queue.insert(0, dataclasses.replace(task, chaos=None))

        while done < len(tasks):
            # Fill every idle worker from the front of the queue
            # (snapshot: requeue() mutates self._workers mid-pass).
            for worker in list(self._workers):
                if not queue:
                    break
                if not worker.idle:
                    continue
                task = queue.pop(0)
                outcome = outcomes[task.task_id]
                outcome.attempts += 1
                first_dispatch.setdefault(task.task_id, time.monotonic())
                try:
                    worker.dispatch(task)
                except (BrokenPipeError, OSError):
                    # The send never reached the child, so this is not a
                    # re-dispatch: clear the in-flight slot dispatch()
                    # stamped *before* calling requeue(), which would
                    # otherwise insert a second copy of the task — both
                    # copies would run and finish() would fire twice.
                    worker.in_flight = None
                    queue.insert(0, task)
                    outcome.attempts -= 1
                    requeue(worker, "a dead pipe at dispatch")

            busy = [w for w in self._workers if not w.idle]
            if not busy:
                if queue:
                    # No workers left (respawn budget exhausted): fail
                    # everything still queued rather than spin forever.
                    for task in queue:
                        first_dispatch.setdefault(task.task_id, time.monotonic())
                        finish(task.task_id, error=BackendExecutionError(
                            f"worker task {task.task_id} ({task.tag!r}) "
                            "undispatchable: respawn budget exhausted"
                        ))
                    queue.clear()
                    continue
                break

            ready = multiprocessing.connection.wait(
                [w.conn for w in busy], timeout=0.05
            )
            for worker in list(busy):
                if worker.conn not in ready:
                    continue
                try:
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    # Pipe died with a task in flight: a crash.
                    census.bump("worker_crashes")
                    requeue(worker, "a worker crash")
                    continue
                kind = message[0]
                if kind == "start":
                    worker.last_heartbeat = time.monotonic()
                    census.bump("heartbeats")
                    continue
                task = worker.in_flight
                worker.in_flight = None
                assert task is not None and message[1] == task.task_id
                if kind == "done":
                    finish(task.task_id, result=message[2])
                    continue
                error = message[2]
                outcome = outcomes[task.task_id]
                retries_spent = (
                    outcome.attempts - 1 - outcome.redispatches
                )
                if (
                    isinstance(error, TransientBackendError)
                    and retries_spent < self.max_redispatches
                ):
                    census.bump("task_retries")
                    queue.insert(0, dataclasses.replace(task, chaos=None))
                else:
                    if isinstance(error, BaseException):
                        setattr(error, "attempts", outcome.attempts)
                    finish(task.task_id, error=error)

            # Liveness + deadline sweep over workers still holding work.
            # The stall clock runs from the last heartbeat (the child's
            # ``start`` ack, initially the dispatch stamp), so a task
            # sitting unacked in a saturated pipe is not misclassified
            # as a stalled execution.
            now = time.monotonic()
            for worker in list(self._workers):
                if worker.idle:
                    continue
                if not worker.process.is_alive():
                    census.bump("worker_crashes")
                    requeue(worker, "a worker crash")
                elif now - worker.last_heartbeat > deadline:
                    census.bump("deadline_timeouts")
                    task_id = worker.in_flight.task_id
                    outcomes[task_id].timed_out = True
                    requeue(worker, "a deadline timeout")

        return [outcomes[t.task_id] for t in tasks]

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down (idempotent): drain, join, kill stragglers."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for worker in self._workers:
                try:
                    worker.conn.send(None)
                except Exception:
                    pass
            for worker in self._workers:
                worker.process.join(timeout=2.0)
                worker.kill()
            self._workers = []

    def __enter__(self) -> "SupervisedProcessPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"SupervisedProcessPool(num_workers={self.num_workers}, "
            f"start_method={self.start_method!r})"
        )


# ----------------------------------------------------------------------
# Shared pool (one per worker count, reused across schedulers/rounds)
# ----------------------------------------------------------------------
_SHARED_POOLS: Dict[int, SupervisedProcessPool] = {}
_SHARED_LOCK = threading.Lock()


def get_shared_pool(num_workers: int) -> SupervisedProcessPool:
    """A process pool shared across schedulers, keyed by worker count.

    Spawning processes per evaluation round would dominate small rounds;
    the shared pool amortizes worker startup across the whole training
    run (and across runs in one process).  Shut down at interpreter
    exit; callers must not ``close()`` a shared pool.
    """
    with _SHARED_LOCK:
        pool = _SHARED_POOLS.get(num_workers)
        if pool is None or pool._closed:
            pool = SupervisedProcessPool(num_workers)
            _SHARED_POOLS[num_workers] = pool
        return pool


@atexit.register
def _shutdown_shared_pools() -> None:
    with _SHARED_LOCK:
        for pool in _SHARED_POOLS.values():
            pool.close()
        _SHARED_POOLS.clear()
