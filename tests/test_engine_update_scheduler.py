"""Update strategies and the inter-query task runner."""

import threading
import time

import numpy as np
import pytest

from repro.engine.database import Database
from repro.engine.retry import RetryCensus, RetryPolicy, call_with_retry
from repro.engine.scheduler import MAX_WORKERS, run_tasks
from repro.exceptions import StorageError, TransientBackendError
from repro.engine.update import supported_strategies
from repro.storage.table import StorageConfig


def make_db(preset="plain"):
    db = Database(config=StorageConfig.preset(preset))
    db.create_table(
        "f", {"s": np.arange(10, dtype=np.float64), "d": np.arange(10)}
    )
    return db


class TestUpdateStrategies:
    @pytest.mark.parametrize("strategy", ["update", "create", "swap"])
    def test_strategies_agree(self, strategy):
        db = make_db("plain" if strategy != "swap" else "d-swap")
        new = np.full(10, 5.0)
        db.replace_column("f", "s", new, strategy)
        assert np.allclose(db.table("f").column("s").values, 5.0)
        # other columns untouched
        assert np.array_equal(db.table("f").column("d").values, np.arange(10))

    def test_swap_rejected_on_stock_backend(self):
        db = make_db("d-mem")
        with pytest.raises(StorageError):
            db.replace_column("f", "s", np.zeros(10), "swap")

    def test_swap_on_external_store(self):
        db = make_db("plain")
        from repro.storage.column import Column
        from repro.storage.table import ExternalColumnStore

        table = db.table("f")
        db.catalog.drop("f")
        db.register(ExternalColumnStore("f", list(table.columns())))
        db.replace_column("f", "s", np.ones(10), "swap")
        assert np.allclose(db.table("f").column("s").values, 1.0)

    def test_unknown_strategy(self):
        db = make_db()
        with pytest.raises(StorageError):
            db.replace_column("f", "s", np.zeros(10), "teleport")

    def test_supported_strategies(self):
        db = make_db("d-mem")
        support = supported_strategies(db.table("f"))
        assert support["update"] and support["create"] and not support["swap"]

    def test_update_in_place_pays_mvcc(self):
        db = make_db("d-mem")
        before = db._mvcc.version_count
        db.replace_column("f", "s", np.zeros(10), "update")
        assert db._mvcc.version_count == before + 1

    def test_create_preserves_column_order(self):
        db = make_db()
        db.replace_column("f", "s", np.zeros(10), "create")
        assert db.table("f").column_names() == ["s", "d"]


def _recorder():
    """``(ran, record)``: ``record(name)`` is a task that appends ``name``."""
    ran = []
    lock = threading.Lock()

    def record(name):
        def run():
            with lock:
                ran.append(name)
            return name
        return run

    return ran, record


class TestRunTasks:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_every_task_runs_after_a_failure(self, workers):
        ran, record = _recorder()

        def boom():
            record("boom")()
            raise RuntimeError("task failed")

        tasks = [record("a"), boom, record("b"), record("c")]
        with pytest.raises(RuntimeError, match="task failed"):
            run_tasks(tasks, workers)
        assert sorted(ran) == ["a", "b", "boom", "c"]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_lowest_index_error_raised(self, workers):
        def fail(msg, delay):
            def run():
                time.sleep(delay)
                raise ValueError(msg)
            return run

        # The later task fails first on a pool; the earlier one is raised.
        tasks = [lambda: 0, fail("first", 0.05), fail("second", 0.0)]
        with pytest.raises(ValueError, match="first"):
            run_tasks(tasks, workers)

    def test_results_in_task_order_across_worker_counts(self):
        """The same tasks give the same results in the same order for
        num_workers in {1, 4} — what the tree-parity gates lean on."""
        def square(k):
            def run():
                time.sleep(0.001 * (6 - k))  # later tasks finish first
                return k * k
            return run

        outcomes = {
            workers: run_tasks([square(k) for k in range(6)], workers)
            for workers in (1, 4)
        }
        for results, seconds in outcomes.values():
            assert results == [k * k for k in range(6)]
            assert len(seconds) == 6 and all(s > 0 for s in seconds)

    def test_one_worker_runs_inline_in_order(self):
        before = threading.active_count()
        ran, record = _recorder()
        counts = []

        def task(name):
            def run():
                counts.append(threading.active_count())
                return record(name)()
            return run

        run_tasks([task(name) for name in "abcd"], 1)
        assert ran == list("abcd")
        # Every task observed the same thread population as the caller.
        assert all(c == before for c in counts)

    def test_pool_overlaps_independent_tasks(self):
        def sleepy():
            time.sleep(0.02)

        start = time.perf_counter()
        _, seconds = run_tasks([sleepy] * 4, 4)
        wall = time.perf_counter() - start
        assert sum(seconds) > wall

    def test_worker_count_clamped(self, monkeypatch):
        from concurrent import futures

        sizes = []
        real = futures.ThreadPoolExecutor

        def spy(max_workers):
            sizes.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(futures, "ThreadPoolExecutor", spy)
        many = [lambda: None] * (MAX_WORKERS + 6)
        for workers in (0, -3, 1):
            assert run_tasks(many, workers)[0] == [None] * len(many)
        assert sizes == []  # clamped up to one worker: inline
        run_tasks(many, 10_000)
        run_tasks(many[:3], 4)
        run_tasks(many, 4)
        assert sizes == [MAX_WORKERS, 3, 4]

    def test_no_tasks(self):
        assert run_tasks([], 4) == ([], [])


def flaky(times, exc=None, result="ok"):
    """A callable that raises ``times`` transient faults, then succeeds."""
    remaining = [times]

    def run():
        if remaining[0] > 0:
            remaining[0] -= 1
            raise exc or TransientBackendError("simulated transient fault")
        return result

    return run


FAST_RETRIES = RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0)


class TestRetryPolicy:
    """call_with_retry semantics the runner and connectors share."""

    def test_transient_retried_then_succeeds(self):
        census = RetryCensus()
        result = call_with_retry(flaky(2), FAST_RETRIES, census)
        assert result == "ok"
        snap = census.snapshot()
        assert snap["retries"] == 2
        assert snap["succeeded_after_retry"] == 1
        assert snap["exhausted"] == 0

    def test_exhaustion_raises_final_exception_with_attempts(self):
        census = RetryCensus()
        with pytest.raises(TransientBackendError) as excinfo:
            call_with_retry(flaky(10), FAST_RETRIES, census)
        assert excinfo.value.attempts == FAST_RETRIES.max_attempts
        assert census.snapshot()["exhausted"] == 1

    def test_non_transient_not_retried(self):
        calls = []

        def boom():
            calls.append(1)
            raise RuntimeError("permanent")

        with pytest.raises(RuntimeError):
            call_with_retry(boom, FAST_RETRIES, RetryCensus())
        assert len(calls) == 1

    def test_budget_stops_before_max_attempts(self):
        policy = RetryPolicy(
            max_attempts=10, base_delay=1.0, max_delay=1.0, budget_seconds=0.5
        )
        slept = []
        with pytest.raises(TransientBackendError) as excinfo:
            call_with_retry(
                flaky(10), policy, sleep=lambda s: slept.append(s)
            )
        # first delay (1.0s) would blow the 0.5s budget: no sleeping at all
        assert slept == []
        assert excinfo.value.attempts == 1

    def test_backoff_schedule_deterministic(self):
        policy = RetryPolicy(
            max_attempts=4, base_delay=0.01, multiplier=2.0, max_delay=0.03
        )
        assert policy.schedule() == [0.01, 0.02, 0.03]


class TestRunTasksRetry:
    """The runner never retries: a task's statements are retried by the
    connector that runs them, and the runner runs the task once."""

    @pytest.mark.parametrize("workers", [1, 4])
    def test_transient_task_retried_then_succeeds(self, workers):
        census = RetryCensus()
        statement = flaky(2)
        runs = []

        def task():
            runs.append(1)
            return call_with_retry(statement, FAST_RETRIES, census)

        results, _ = run_tasks([task, lambda: "ran"], workers)
        assert results == ["ok", "ran"]
        # the retries are the connector's, not the runner's
        assert census.snapshot()["retries"] == 2
        assert census.snapshot()["succeeded_after_retry"] == 1
        assert runs == [1]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_exhausted_task_reports_final_attempt(self, workers):
        """A task whose statement exhausted the connector's retries
        surfaces the *final* attempt's exception, stamped with the
        attempt count, and is not attempted again by the runner."""
        attempt_errors = []

        def always_transient():
            exc = TransientBackendError(
                f"fault on attempt {len(attempt_errors) + 1}"
            )
            attempt_errors.append(exc)
            raise exc

        tasks = [
            lambda: call_with_retry(always_transient, FAST_RETRIES),
            lambda: "independent",
        ]
        with pytest.raises(TransientBackendError) as excinfo:
            run_tasks(tasks, workers)
        # the raised error is the LAST attempt's, not the first's
        assert excinfo.value is attempt_errors[-1]
        assert excinfo.value.attempts == FAST_RETRIES.max_attempts
        assert len(attempt_errors) == FAST_RETRIES.max_attempts

    @pytest.mark.parametrize("workers", [1, 4])
    def test_non_transient_error_not_retried(self, workers):
        calls = []

        def boom():
            calls.append(1)
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            run_tasks([boom], workers)
        assert len(calls) == 1

    @pytest.mark.parametrize("workers", [1, 4])
    def test_no_policy_means_no_retry(self, workers):
        with pytest.raises(TransientBackendError):
            run_tasks([flaky(1), lambda: None], workers)
