"""Update strategies and the inter-query scheduler."""

import threading
import time

import numpy as np
import pytest

from repro.engine.database import Database
from repro.engine.retry import RetryCensus, RetryPolicy, call_with_retry
from repro.engine.scheduler import QueryScheduler
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


class TestScheduler:
    def test_dependencies_respected(self):
        scheduler = QueryScheduler(num_workers=4)
        seen = []
        lock = threading.Lock()

        def step(name):
            def run():
                with lock:
                    seen.append(name)
                return name
            return run

        a = scheduler.submit(step("a"))
        b = scheduler.submit(step("b"), deps=[a])
        c = scheduler.submit(step("c"), deps=[a])
        d = scheduler.submit(step("d"), deps=[b, c])
        report = scheduler.run()
        assert seen.index("a") < seen.index("b")
        assert seen.index("a") < seen.index("c")
        assert seen.index("d") == 3
        assert report.results()[0] == "a"

    def test_unknown_dependency(self):
        scheduler = QueryScheduler()
        with pytest.raises(ValueError):
            scheduler.submit(lambda: None, deps=[99])

    def test_error_propagates(self):
        scheduler = QueryScheduler(num_workers=2)

        def boom():
            raise RuntimeError("bad query")

        scheduler.submit(boom)
        with pytest.raises(RuntimeError):
            scheduler.run()

    def test_critical_path_shorter_than_sequential(self):
        scheduler = QueryScheduler(num_workers=4)

        def sleepy():
            time.sleep(0.02)

        first = scheduler.submit(sleepy)
        for _ in range(3):
            scheduler.submit(sleepy, deps=[first])
        report = scheduler.run()
        assert report.critical_path_seconds < report.sequential_seconds
        assert report.modelled_speedup() > 1.0

    def test_empty_run(self):
        report = QueryScheduler().run()
        assert report.sequential_seconds == 0.0
        assert report.critical_path_seconds == 0.0


class TestSchedulerExecution:
    """Execution semantics the training integration relies on (ISSUE 5)."""

    def test_worker_count_clamped(self):
        from repro.engine.scheduler import MAX_WORKERS

        assert QueryScheduler(num_workers=0).num_workers == 1
        assert QueryScheduler(num_workers=-3).num_workers == 1
        assert QueryScheduler(num_workers=10_000).num_workers == MAX_WORKERS
        assert QueryScheduler(num_workers=4).num_workers == 4

    @pytest.mark.parametrize("workers", [1, 4])
    def test_dependents_skipped_after_upstream_error(self, workers):
        scheduler = QueryScheduler(num_workers=workers)
        ran = []
        lock = threading.Lock()

        def record(name):
            def run():
                with lock:
                    ran.append(name)
                return name
            return run

        def boom():
            with lock:
                ran.append("boom")
            raise RuntimeError("upstream failed")

        bad = scheduler.submit(boom, label="bad")
        child = scheduler.submit(record("child"), deps=[bad])
        grandchild = scheduler.submit(record("grandchild"), deps=[child])
        independent = scheduler.submit(record("independent"))
        with pytest.raises(RuntimeError, match="upstream failed"):
            scheduler.run()
        # The failure is recorded, dependents never ran, the rest did.
        assert "independent" in ran
        assert "child" not in ran and "grandchild" not in ran
        assert scheduler._queries[child].skipped
        assert scheduler._queries[grandchild].skipped
        assert not scheduler._queries[independent].skipped
        assert scheduler._queries[independent].result == "independent"

    def test_first_error_by_id_regardless_of_workers(self):
        for workers in (1, 4):
            scheduler = QueryScheduler(num_workers=workers)

            def fail(msg):
                def run():
                    raise ValueError(msg)
                return run

            scheduler.submit(fail("first"))
            scheduler.submit(fail("second"))
            with pytest.raises(ValueError, match="first"):
                scheduler.run()

    def test_deps_validated_before_run(self):
        scheduler = QueryScheduler(num_workers=2)
        ok = scheduler.submit(lambda: 1)
        with pytest.raises(ValueError):
            scheduler.submit(lambda: 2, deps=[ok + 17])

    def test_results_deterministic_across_worker_counts(self):
        """The same DAG computes the same results() in the same order for
        num_workers in {1, 4} — what the tree-parity gates lean on."""
        outcomes = {}
        for workers in (1, 4):
            scheduler = QueryScheduler(num_workers=workers)
            upstream = [scheduler.submit(lambda k=k: k * k) for k in range(6)]
            for uid in upstream:
                scheduler.submit(
                    lambda u=uid: ("combined", u), deps=[uid]
                )
            report = scheduler.run()
            outcomes[workers] = report.results()
        assert outcomes[1] == outcomes[4]

    def test_inline_run_is_depth_first(self):
        """One worker runs a query's newly-ready dependents before the
        next ready root: chains a→a', b→b' run a, a', b, b' (FIFO order
        would be a, b, a', b')."""
        scheduler = QueryScheduler(num_workers=1)
        ran = []
        a = scheduler.submit(lambda: ran.append("a"))
        b = scheduler.submit(lambda: ran.append("b"))
        scheduler.submit(lambda: ran.append("a'"), deps=[a])
        scheduler.submit(lambda: ran.append("b'"), deps=[b])
        scheduler.run()
        assert ran == ["a", "a'", "b", "b'"]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_take_result_hands_over_and_forgets(self, workers):
        scheduler = QueryScheduler(num_workers=workers)
        taken = []
        producer = scheduler.submit(lambda: [1, 2, 3])
        scheduler.submit(
            lambda: taken.append(scheduler.take_result(producer)),
            deps=[producer],
        )
        report = scheduler.run()
        assert taken == [[1, 2, 3]]
        assert report.results()[0] is None

    def test_serial_path_spawns_no_threads(self):
        before = threading.active_count()
        scheduler = QueryScheduler(num_workers=1)
        counts = []
        for _ in range(4):
            scheduler.submit(lambda: counts.append(threading.active_count()))
        scheduler.run()
        # Every query observed the same thread population as the caller.
        assert all(c == before for c in counts)

    def test_report_overlap_and_skipped_accounting(self):
        scheduler = QueryScheduler(num_workers=4)

        def sleepy():
            time.sleep(0.02)

        for _ in range(4):
            scheduler.submit(sleepy)
        report = scheduler.run()
        assert report.skipped == 0
        assert report.wall_seconds > 0
        # overlap = busy - wall, never negative.
        assert report.overlap_seconds >= 0.0
        assert report.sequential_seconds == pytest.approx(
            report.wall_seconds + report.overlap_seconds
        )


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
    """call_with_retry semantics the scheduler and connectors share."""

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


class TestSchedulerRetry:
    """The scheduler never retries: a query's statements are retried by the
    connector that runs them, and the scheduler runs the query once."""

    @pytest.mark.parametrize("workers", [1, 4])
    def test_transient_query_retried_then_succeeds(self, workers):
        census = RetryCensus()
        statement = flaky(2)
        runs = []

        def query():
            runs.append(1)
            return call_with_retry(statement, FAST_RETRIES, census)

        scheduler = QueryScheduler(num_workers=workers)
        qid = scheduler.submit(query, label="flaky")
        scheduler.submit(lambda: "ran", deps=[qid])
        report = scheduler.run()
        assert report.results() == ["ok", "ran"]
        # the retries are the connector's, not the scheduler's
        assert census.snapshot()["retries"] == 2
        assert census.snapshot()["succeeded_after_retry"] == 1
        assert runs == [1]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_exhausted_query_reports_final_attempt(self, workers):
        """A query whose statement exhausted the connector's retries
        surfaces the *final* attempt's exception, stamped with the
        attempt count, and is not attempted again by the scheduler."""
        scheduler = QueryScheduler(num_workers=workers)
        attempt_errors = []

        def always_transient():
            exc = TransientBackendError(
                f"fault on attempt {len(attempt_errors) + 1}"
            )
            attempt_errors.append(exc)
            raise exc

        qid = scheduler.submit(
            lambda: call_with_retry(always_transient, FAST_RETRIES),
            label="doomed",
        )
        child = scheduler.submit(lambda: "never", deps=[qid])
        with pytest.raises(TransientBackendError) as excinfo:
            scheduler.run()
        # the raised error is the LAST attempt's, not the first's
        assert excinfo.value is attempt_errors[-1]
        assert excinfo.value.attempts == FAST_RETRIES.max_attempts
        assert len(attempt_errors) == FAST_RETRIES.max_attempts
        assert scheduler._queries[child].skipped

    def test_non_transient_error_not_retried_in_dag(self):
        scheduler = QueryScheduler(num_workers=2)
        calls = []

        def boom():
            calls.append(1)
            raise ValueError("not transient")

        scheduler.submit(boom)
        with pytest.raises(ValueError):
            scheduler.run()
        assert len(calls) == 1

    def test_no_policy_means_no_retry(self):
        scheduler = QueryScheduler(num_workers=2)
        scheduler.submit(flaky(1))
        with pytest.raises(TransientBackendError):
            scheduler.run()
