"""ServingGateway: breakers, admission, deadlines, degradation, canary.

The PR-10 resilience contract: every admitted request is served
bit-identically to the healthy compiled path no matter which backend
path is failing; requests past the queue bound are shed immediately
(never queued unboundedly); a persistently failing path trips its
circuit breaker open and recovers through a half-open probe; and
deploys are safe — canary refuses a changed model, rollback restores
the previous digest without recompiling.

Breaker transitions are driven by an injected fake clock, chaos faults
by explicit :class:`FaultPlan` specs (which override any
``JOINBOOST_CHAOS`` environment plan, so these tests stay deterministic
inside the chaos-smoke env leg).
"""

import threading

import numpy as np
import pytest

import repro
from repro.datasets.synthetic import star_schema
from repro.exceptions import (
    CanaryParityError,
    CircuitOpenError,
    DeadlineExceededError,
    ServiceOverloadedError,
    ServingError,
    TransientServingError,
)
from repro.serve import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerPolicy,
    CircuitBreaker,
    PredictionService,
    ServingGateway,
)

TRAIN_PARAMS = {"num_iterations": 3, "num_leaves": 4, "seed": 5}
STAR = dict(num_fact_rows=300, num_dims=2, dim_size=10, seed=4)


class FakeClock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += seconds


@pytest.fixture
def healthy(tiny_star):
    db, graph = tiny_star
    model = repro.train_gradient_boosting(db, graph, TRAIN_PARAMS)
    service = PredictionService(db, graph)
    service.deploy(model)
    return db, graph, model, service


def chaos_gateway(model, chaos_spec, backend="plain", **gateway_kwargs):
    """A gateway over the same star data on a chaos-wrapped connector.

    The explicit ``chaos=`` plan overrides any ``JOINBOOST_CHAOS`` env
    plan and ``retry=False`` keeps faults visible to the gateway instead
    of being absorbed by the retry layer.
    """
    conn = repro.connect(backend, chaos=chaos_spec, retry=False)
    _, graph = star_schema(db=conn, **STAR)
    service = PredictionService(conn, graph)
    service.deploy(model)
    return ServingGateway(service, **gateway_kwargs)


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            policy=BreakerPolicy(failure_threshold=3), clock=clock
        )
        breaker.record_failure()
        breaker.record_success()  # success resets the consecutive count
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN

    def test_open_rejects_and_counts(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            policy=BreakerPolicy(failure_threshold=1, recovery_seconds=5.0),
            clock=clock,
        )
        breaker.record_failure()
        assert not breaker.allow()
        assert not breaker.allow()
        assert breaker.snapshot()["rejections"] == 2

    def test_recovers_through_half_open_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            policy=BreakerPolicy(failure_threshold=1, recovery_seconds=5.0),
            clock=clock,
        )
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(5.0)
        assert breaker.state == HALF_OPEN
        assert breaker.allow()  # the probe
        breaker.record_success()
        assert breaker.state == CLOSED
        trail = [
            (t["from"], t["to"]) for t in breaker.snapshot()["transitions"]
        ]
        assert trail == [
            (CLOSED, OPEN),
            (OPEN, HALF_OPEN),
            (HALF_OPEN, CLOSED),
        ]

    def test_probe_failure_reopens_and_restarts_clock(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            policy=BreakerPolicy(failure_threshold=1, recovery_seconds=5.0),
            clock=clock,
        )
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()  # probe failed
        assert breaker.state == OPEN
        clock.advance(4.0)  # recovery window restarted at the re-open
        assert breaker.state == OPEN
        clock.advance(1.0)
        assert breaker.state == HALF_OPEN

    def test_half_open_bounds_concurrent_probes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            policy=BreakerPolicy(
                failure_threshold=1, recovery_seconds=1.0, half_open_probes=1
            ),
            clock=clock,
        )
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        assert not breaker.allow()  # only one probe slot

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BreakerPolicy(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerPolicy(recovery_seconds=-1.0)
        with pytest.raises(ValueError):
            BreakerPolicy(half_open_probes=0)


class TestDeadlines:
    def test_env_deadline_configures_default(self, monkeypatch, healthy):
        _, _, _, service = healthy
        monkeypatch.setenv("JOINBOOST_SERVE_DEADLINE", "0.75")
        gateway = ServingGateway(service)
        assert gateway.deadline_seconds == 0.75

    def test_malformed_env_deadline_raises(self, monkeypatch, healthy):
        _, _, _, service = healthy
        monkeypatch.setenv("JOINBOOST_SERVE_DEADLINE", "fast")
        with pytest.raises(ServingError, match="JOINBOOST_SERVE_DEADLINE"):
            ServingGateway(service)
        monkeypatch.setenv("JOINBOOST_SERVE_DEADLINE", "-1")
        with pytest.raises(ServingError, match="> 0"):
            ServingGateway(service)

    def test_deadline_stops_the_ladder(self, healthy, monkeypatch):
        _, _, _, service = healthy
        clock = FakeClock()
        gateway = ServingGateway(service, deadline_seconds=1.0, clock=clock)

        def slow_failure(name="default"):
            clock.advance(2.0)  # the sql path burned the whole budget
            raise TransientServingError("injected")

        monkeypatch.setattr(service, "score_sql", slow_failure)
        with pytest.raises(DeadlineExceededError) as excinfo:
            gateway.score_sql()
        assert excinfo.value.deadline_seconds == 1.0
        assert excinfo.value.elapsed_seconds >= 1.0
        assert gateway.stats()["deadline_exceeded"] == 1


class TestAdmission:
    def _blocking_service(self, service, monkeypatch):
        """Make score_all block until released; returns (started, release)."""
        started = threading.Event()
        release = threading.Event()
        real = service.score_all

        def blocked(name="default", **kwargs):
            started.set()
            assert release.wait(timeout=10), "test forgot to release"
            return real(name)

        monkeypatch.setattr(service, "score_all", blocked)
        return started, release

    def test_sheds_past_queue_bound(self, healthy, monkeypatch):
        _, _, _, service = healthy
        gateway = ServingGateway(
            service, max_in_flight=1, max_queue_depth=0, deadline_seconds=30.0
        )
        started, release = self._blocking_service(service, monkeypatch)
        worker = threading.Thread(target=gateway.score_compiled, daemon=True)
        worker.start()
        assert started.wait(timeout=10)
        with pytest.raises(ServiceOverloadedError) as excinfo:
            gateway.score_compiled()
        assert excinfo.value.in_flight == 1
        assert excinfo.value.max_queue_depth == 0
        release.set()
        worker.join(timeout=10)
        stats = gateway.stats()
        assert stats["shed"] == 1
        assert stats["served"] == 1

    def test_queued_request_proceeds_when_slot_frees(
        self, healthy, monkeypatch
    ):
        _, _, _, service = healthy
        gateway = ServingGateway(
            service, max_in_flight=1, max_queue_depth=1, deadline_seconds=30.0
        )
        started, release = self._blocking_service(service, monkeypatch)
        first = threading.Thread(target=gateway.score_compiled, daemon=True)
        first.start()
        assert started.wait(timeout=10)

        second_done = threading.Event()
        results = {}

        def second_client():
            results["response"] = gateway.score_compiled()
            second_done.set()

        second = threading.Thread(target=second_client, daemon=True)
        second.start()
        release.set()
        first.join(timeout=10)
        assert second_done.wait(timeout=10)
        assert results["response"].served_by == "compiled"
        assert gateway.stats()["served"] == 2
        assert gateway.stats()["shed"] == 0


class TestDegradation:
    def test_sql_fault_degrades_to_compiled_bit_identically(self, healthy):
        _, _, model, service = healthy
        expected = service.score_all()
        gateway = chaos_gateway(
            model, "tag=serve_sql:nth=1:times=100:kind=transient"
        )
        response = gateway.score_sql()
        assert response.served_by == "compiled"
        assert response.degraded
        assert "sql:TransientServingError" in response.degraded_reason
        assert np.array_equal(response.scores, expected)
        stats = gateway.stats()
        assert stats["degraded"] == 1
        assert stats["served"] == 1
        assert stats["service"]["serving_faults"]["transient"] == 1

    def test_cursor_fault_on_key_path_degrades_with_parity(self, healthy):
        _, _, model, service = healthy
        keys = {"k0": 3}
        expected = service.score_key(keys, extra_columns=["k1"])
        # sqlite: there the key path is still a ``serve_key`` statement
        # (the embedded engine gathers and executes none to fault).
        gateway = chaos_gateway(
            model,
            "tag=serve_key:nth=1:times=100:kind=cursor",
            backend="sqlite",
        )
        response = gateway.score_key(keys, extra_columns=["k1"])
        assert response.served_by == "compiled"
        assert response.degraded
        assert "key:TransientServingError" in response.degraded_reason
        assert np.array_equal(
            response.scores, expected.column("jb_score").as_float()
        )
        # The degraded rung still hands back the key and extra columns.
        assert response.relation.names == ["k0", "k1", "jb_score"]
        assert np.array_equal(response.relation["k1"], expected["k1"])

    def test_latency_fault_stays_on_primary_path(self, healthy):
        _, _, model, service = healthy
        expected = service.score_all()
        gateway = chaos_gateway(
            model, "tag=serve_sql:nth=1:times=100:kind=latency:delay=0.01"
        )
        response = gateway.score_sql()
        assert response.served_by == "sql"
        assert not response.degraded
        assert np.array_equal(response.scores, expected)

    def test_breaker_trips_open_then_recovers(self, healthy):
        _, _, model, service = healthy
        expected = service.score_all()
        clock = FakeClock()
        gateway = chaos_gateway(
            model,
            "tag=serve_sql:nth=1:times=2:kind=transient",
            breaker_policy=BreakerPolicy(
                failure_threshold=2, recovery_seconds=10.0
            ),
            clock=clock,
        )
        # Two faults: both requests degrade, the second trips the breaker.
        for _ in range(2):
            response = gateway.score_sql()
            assert response.served_by == "compiled"
            assert np.array_equal(response.scores, expected)
        assert gateway.breaker("sql").state == OPEN
        # Open breaker: the sql path is skipped without being attempted.
        response = gateway.score_sql()
        assert response.served_by == "compiled"
        assert "sql:circuit_open" in response.degraded_reason
        # Recovery: half-open probe succeeds (the fault plan is spent).
        clock.advance(11.0)
        response = gateway.score_sql()
        assert response.served_by == "sql"
        assert not response.degraded
        assert np.array_equal(response.scores, expected)
        snapshot = gateway.breaker("sql").snapshot()
        assert snapshot["state"] == CLOSED
        trail = [(t["from"], t["to"]) for t in snapshot["transitions"]]
        assert trail == [
            (CLOSED, OPEN),
            (OPEN, HALF_OPEN),
            (HALF_OPEN, CLOSED),
        ]

    def test_degrade_false_raises_instead_of_falling_through(self, healthy):
        _, _, model, service = healthy
        gateway = chaos_gateway(
            model,
            "tag=serve_sql:nth=1:times=100:kind=transient",
            breaker_policy=BreakerPolicy(failure_threshold=1),
        )
        with pytest.raises(TransientServingError):
            gateway.score_sql(degrade=False)
        # The failure tripped the breaker; strict mode now fails fast.
        with pytest.raises(CircuitOpenError):
            gateway.score_sql(degrade=False)
        assert gateway.stats()["failures"] == 2

    def test_every_path_failing_raises_serving_error(
        self, healthy, monkeypatch
    ):
        _, _, _, service = healthy
        gateway = ServingGateway(service)

        def boom(*args, **kwargs):
            raise TransientServingError("injected everywhere")

        monkeypatch.setattr(service, "score_sql", boom)
        monkeypatch.setattr(service, "score_all", boom)
        monkeypatch.setattr(gateway, "_recursive_scores", boom)
        with pytest.raises(ServingError, match="every scoring path"):
            gateway.score_sql()
        assert gateway.stats()["failures"] == 1

    def test_env_chaos_plan_is_survivable(self, healthy):
        """The chaos-smoke leg runs this suite under ``JOINBOOST_CHAOS``
        with a ``serve_``-tagged plan: a connector built with defaults
        picks that plan up (plus auto-retry).  Served bits must match
        the healthy reference either way — via retry absorption, or via
        the gateway's degradation ladder."""
        _, _, model, service = healthy
        expected = service.score_all()
        conn = repro.connect("plain")  # env chaos + auto-retry, if any
        _, graph = star_schema(db=conn, **STAR)
        env_service = PredictionService(conn, graph)
        env_service.deploy(model)
        gateway = ServingGateway(env_service)
        for _ in range(3):
            response = gateway.score_sql()
            assert np.array_equal(response.scores, expected)


class TestCanaryAndRollback:
    def test_canary_refuses_changed_model(self, healthy):
        db, graph, model, service = healthy
        gateway = ServingGateway(service)
        first = gateway.service.version()
        retrained = repro.train_gradient_boosting(
            db, graph, {"num_iterations": 5, "num_leaves": 4, "seed": 9}
        )
        with pytest.raises(CanaryParityError) as excinfo:
            gateway.deploy(retrained, canary=True)
        assert excinfo.value.live_digest == first
        assert excinfo.value.diverging_rows > 0
        assert gateway.service.version() == first  # live unchanged

    def test_canary_accepts_identical_model(self, healthy):
        _, _, model, service = healthy
        gateway = ServingGateway(service)
        digest = gateway.deploy(model, canary=True)
        assert digest == service.version()

    def test_force_promotes_then_rollback_without_recompile(self, healthy):
        db, graph, model, service = healthy
        gateway = ServingGateway(service)
        first = service.version()
        first_scores = gateway.score_compiled().scores
        retrained = repro.train_gradient_boosting(
            db, graph, {"num_iterations": 5, "num_leaves": 4, "seed": 9}
        )
        second = gateway.deploy(retrained, canary=True, force=True)
        assert service.version() == second
        assert service.history() == [first]
        stores_before = service.stats()["stores"]
        restored = gateway.rollback()
        assert restored == first
        assert service.history() == [second]
        rolled_scores = gateway.score_compiled().scores
        assert np.array_equal(rolled_scores, first_scores)
        # O(1) rollback: the retained kernel was still warm, no recompile.
        assert service.stats()["stores"] == stores_before

    def test_rollback_without_history_raises(self, healthy):
        _, _, _, service = healthy
        gateway = ServingGateway(service)
        with pytest.raises(ServingError, match="history"):
            gateway.rollback()

    def test_rollback_is_reversible(self, healthy):
        db, graph, model, service = healthy
        first = service.version()
        retrained = repro.train_gradient_boosting(
            db, graph, {"num_iterations": 5, "num_leaves": 4, "seed": 9}
        )
        second = service.deploy(retrained)
        assert service.rollback() == first
        assert service.rollback() == second
        assert service.version() == second
        assert service.history() == [first]
