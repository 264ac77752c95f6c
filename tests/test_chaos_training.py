"""Chaos engineering for training (ISSUE 8).

The acceptance bar: training under injected transient faults completes
with a retry census > 0 and a model digest bit-identical to the
fault-free run, across backends and worker counts; a chaos-driven
mid-round *permanent* failure leaves zero ``jb_*`` temps or minted leaf
columns behind, and the connection trains again cleanly.
"""

import numpy as np
import pytest

import repro
from repro.backends.chaos import ChaosConnector, FaultPlan, FaultRule
from repro.baselines.lmfao import train_tree_variant
from repro.core.histogram import train_boosting_on_cuboid
from repro.core.serialize import model_digest
from repro.core.session import side_state_audit
from repro.datasets import favorita, imdb
from repro.engine.retry import DEFAULT_RETRY_POLICY
from repro.exceptions import (
    BackendError,
    BackendExecutionError,
    TransientBackendError,
)

from conftest import backend_matrix


def _build_trainset(conn, n=500, seed=7):
    rng = np.random.default_rng(seed)
    conn.create_table("sales", {
        "date_id": rng.integers(0, 30, n),
        "item_id": rng.integers(0, 20, n),
        "net_profit": rng.normal(size=n),
    })
    conn.create_table("date", {
        "date_id": np.arange(30),
        "holiday": rng.integers(0, 2, 30).astype(np.float64),
    })
    conn.create_table("item", {
        "item_id": np.arange(20),
        "price": rng.normal(size=20),
    })
    train_set = repro.join_graph(conn)
    train_set.add_node("sales", y="net_profit")
    train_set.add_node("date", X=["holiday"])
    train_set.add_node("item", X=["price"])
    train_set.add_edge("sales", "date", ["date_id"])
    train_set.add_edge("sales", "item", ["item_id"])
    return train_set


PARAMS = {
    "objective": "regression",
    "num_iterations": 3,
    "num_leaves": 4,
    "learning_rate": 0.3,
}


def _train_digest(backend, num_workers, chaos=None):
    conn = repro.connect(backend=backend, chaos=chaos)
    train_set = _build_trainset(conn)
    model = repro.train(
        dict(PARAMS, num_workers=num_workers), train_set
    )
    return model_digest(model), conn


# ---------------------------------------------------------------------------
# Fault-plan parsing and mechanics
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_from_spec_parses_rules(self):
        plan = FaultPlan.from_spec(
            "tag=message:nth=3:times=2:kind=transient;"
            "lift:kind=latency:delay=0.01"
        )
        assert len(plan.rules) == 2
        first, second = plan.rules
        assert first.match == "message" and first.nth == 3
        assert first.times == 2 and first.kind == "transient"
        assert second.match == "lift" and second.kind == "latency"
        assert second.delay == pytest.approx(0.01)

    def test_bad_specs_raise(self):
        for spec in ("", "kind=teleport", "nth=0", "times=-1",
                     "bogus_key=1:kind=transient"):
            with pytest.raises(BackendError):
                FaultPlan.from_spec(spec)

    def test_nth_window_fires_exactly_times(self):
        plan = FaultPlan([FaultRule(match="", nth=2, times=2)])
        fired = [plan.next_fault("t", "SELECT 1", read=False)
                 for _ in range(5)]
        assert [f is not None for f in fired] == [
            False, True, True, False, False
        ]

    def test_cursor_rules_only_fire_on_reads(self):
        plan = FaultPlan([FaultRule(match="", nth=1, times=5, kind="cursor")])
        assert plan.next_fault("t", "UPDATE x", read=False) is None
        assert plan.next_fault("t", "SELECT 1", read=True) is not None


class TestChaosConnector:
    def test_injects_before_inner_call(self):
        """The fault fires before the backend sees the statement, so a
        retried statement never double-applies side effects."""
        conn = repro.connect(
            backend="sqlite",
            chaos="tag=ins:nth=1:times=1:kind=transient",
            retry=False,
        )
        conn.create_table("t", {"a": [0.0]})
        with pytest.raises(TransientBackendError):
            conn.execute("UPDATE t SET a = a + 1", tag="ins")
        # the UPDATE never reached sqlite
        assert conn.execute_read("SELECT a FROM t").first_row()["a"] == 0.0
        # retrying by hand succeeds exactly once
        conn.execute("UPDATE t SET a = a + 1", tag="ins")
        assert conn.execute_read("SELECT a FROM t").first_row()["a"] == 1.0

    def test_permanent_fault_not_retried(self):
        conn = repro.connect(
            backend="sqlite",
            chaos="tag=doom:nth=1:times=1:kind=permanent",
        )
        conn.create_table("t", {"a": [1.0]})
        with pytest.raises(BackendExecutionError) as excinfo:
            conn.execute_read("SELECT a FROM t", tag="doom")
        assert not isinstance(excinfo.value, TransientBackendError)
        assert conn.retry_census.snapshot()["retries"] == 0

    def test_latency_fault_still_returns_result(self):
        conn = repro.connect(
            backend="sqlite",
            chaos="tag=slow:nth=1:times=1:kind=latency:delay=0.005",
        )
        conn.create_table("t", {"a": [1.0, 2.0]})
        result = conn.execute_read("SELECT SUM(a) AS s FROM t", tag="slow")
        assert result.first_row()["s"] == pytest.approx(3.0)
        assert conn.chaos_census.snapshot()["latency"] == 1

    def test_census_counts_by_kind(self):
        conn = repro.connect(
            backend="sqlite",
            chaos="tag=r:nth=1:times=2:kind=cursor",
        )
        conn.create_table("t", {"a": [1.0]})
        for _ in range(2):
            conn.execute_read("SELECT a FROM t", tag="r")
        snap = conn.chaos_census.snapshot()
        assert snap["cursor"] == 2 and snap["total"] == 2

    def test_env_var_activates_chaos(self, monkeypatch):
        monkeypatch.setenv(
            "JOINBOOST_CHAOS", "tag=env:nth=1:times=1:kind=transient"
        )
        conn = repro.connect(backend="sqlite")
        # retry auto-enabled with chaos: the fault is absorbed
        conn.create_table("t", {"a": [1.0]})
        assert conn.execute_read(
            "SELECT a FROM t", tag="env"
        ).first_row()["a"] == 1.0
        assert conn.retry_census.snapshot()["retries"] == 1
        assert conn.chaos_census.snapshot()["total"] == 1

    def test_proxy_preserves_connector_surface(self):
        inner = repro.connect(backend="sqlite", retry=False)
        chaotic = ChaosConnector(inner, FaultPlan([]))
        assert chaotic.dialect == inner.dialect
        assert chaotic.capabilities == inner.capabilities
        chaotic.create_table("t", {"a": [1.0]})
        assert chaotic.has_table("t")
        assert chaotic.table("t").num_rows() == 1


# ---------------------------------------------------------------------------
# The parity matrix: chaos training == fault-free training, bit for bit
# ---------------------------------------------------------------------------
class TestChaosParity:
    #: fail the 2nd and 3rd message-passing statements, then the 12th
    #: statement of any tag once — retried by the connector on the
    #: serial path and on the task runner's worker threads alike
    CHAOS = "tag=message:nth=2:times=2:kind=transient;" \
            "tag=:nth=12:times=1:kind=transient"

    @pytest.mark.parametrize("backend", backend_matrix("plain", "sqlite"))
    @pytest.mark.parametrize("workers", [1, 4])
    def test_digest_matches_fault_free_run(self, backend, workers):
        clean_digest, _ = _train_digest(backend, workers)
        chaos_digest, conn = _train_digest(backend, workers, chaos=self.CHAOS)
        assert chaos_digest == clean_digest
        retry = conn.retry_census.snapshot()
        chaos = conn.chaos_census.snapshot()
        assert chaos["total"] > 0, "chaos plan never fired"
        assert retry["retries"] > 0, "faults were injected but never retried"
        assert retry["exhausted"] == 0

    def test_census_surfaced_in_frontier_census(self):
        conn = repro.connect(backend="sqlite", chaos=self.CHAOS)
        train_set = _build_trainset(conn)
        model = repro.train(dict(PARAMS), train_set)
        census = model.frontier_census
        assert census["retries"] > 0
        assert census["chaos_injected"] > 0
        assert census["retry_exhausted"] == 0


class TestOneRetryOwner:
    @pytest.mark.parametrize("tag", ["message", "feature"])
    def test_never_ending_fault_costs_the_same_at_any_worker_count(self, tag):
        """Statements are retried only by the connector: a fanned-out
        round attempts a failing statement as often as a serial one, and
        both attempt the same statements before the round fails."""
        counts = {}
        for workers in (1, 4):
            conn = repro.connect(
                backend="sqlite",
                chaos=f"tag={tag}:nth=3:times=1000:kind=transient",
            )
            _, graph = favorita(db=conn, num_fact_rows=2_000, seed=1)
            with pytest.raises(TransientBackendError):
                repro.train_gradient_boosting(conn, graph, {
                    "num_iterations": 2, "num_leaves": 4,
                    "num_workers": workers,
                })
            counts[workers] = (
                conn.chaos_census.snapshot()["total"],
                conn.retry_census.snapshot()["exhausted"],
            )
            conn.close()
        assert counts[1] == counts[4]
        injected, exhausted = counts[1]
        assert exhausted >= 1
        assert injected == DEFAULT_RETRY_POLICY.max_attempts * exhausted


# ---------------------------------------------------------------------------
# Guaranteed side-state cleanup after chaos-driven failures
# ---------------------------------------------------------------------------
class TestSideStateCleanup:
    @pytest.mark.parametrize("backend", backend_matrix("plain", "sqlite"))
    def test_permanent_midtraining_failure_leaves_no_side_state(
        self, backend
    ):
        """A permanent fault mid-training aborts the run, but the guard
        drops every jb_* temp and minted column before re-raising."""
        conn = repro.connect(
            backend=backend,
            chaos="tag=message:nth=3:times=1:kind=permanent",
            retry=False,
        )
        train_set = _build_trainset(conn)
        before = set(conn.table_names())
        with pytest.raises(BackendExecutionError):
            repro.train(dict(PARAMS), train_set)
        audit = side_state_audit(conn)
        assert audit["clean"], f"side state leaked: {audit}"
        # ignore engine-internal catalogs (sqlite's ANALYZE stats)
        after = {
            t for t in conn.table_names()
            if not t.lower().startswith("sqlite_")
        }
        assert after == before

    @pytest.mark.parametrize("backend", backend_matrix("plain", "sqlite"))
    def test_connection_retrainable_after_failure(self, backend):
        """After a guarded failure the same connection trains again and
        produces the same digest a never-failed connection would."""
        conn = repro.connect(
            backend=backend,
            chaos="tag=message:nth=3:times=1:kind=permanent",
            retry=False,
        )
        train_set = _build_trainset(conn)
        with pytest.raises(BackendExecutionError):
            repro.train(dict(PARAMS), train_set)
        # the fault plan is spent (times=1): the retrain runs clean
        model = repro.train(dict(PARAMS), train_set)
        clean_digest, _ = _train_digest(backend, "auto")
        assert model_digest(model) == clean_digest

    def test_exhausted_retries_still_clean_up(self):
        """Transient faults that outlast the retry budget abort like a
        permanent failure — and must clean up just the same."""
        conn = repro.connect(
            backend="sqlite",
            chaos="tag=message:nth=2:times=50:kind=transient",
        )
        train_set = _build_trainset(conn)
        with pytest.raises(TransientBackendError) as excinfo:
            repro.train(dict(PARAMS), train_set)
        assert getattr(excinfo.value, "attempts", 0) >= 1
        assert conn.retry_census.snapshot()["exhausted"] >= 1
        assert side_state_audit(conn)["clean"]

    def test_decision_tree_path_guarded_too(self):
        conn = repro.connect(
            backend="sqlite",
            chaos="tag=message:nth=2:times=1:kind=permanent",
            retry=False,
        )
        train_set = _build_trainset(conn)
        with pytest.raises(BackendExecutionError):
            repro.train(
                {"model": "tree", "num_iterations": 1, "num_leaves": 4},
                train_set,
            )
        assert side_state_audit(conn)["clean"]

    @pytest.mark.parametrize("backend", ["plain", "sqlite"])
    @pytest.mark.parametrize("spec", [
        "tag=feature:nth=3:times=99:kind=permanent",
        "tag=residual_update:nth=2:times=99:kind=permanent",
    ])
    def test_cuboid_failure_leaves_no_side_state(self, backend, spec):
        """The cuboid's binned copies and the cuboid itself are dropped
        with the factorizer's state, and the connection retrains."""
        conn = repro.connect(backend, chaos=spec, retry=False)
        _, graph = favorita(db=conn, num_fact_rows=3000)
        with pytest.raises(BackendExecutionError):
            train_boosting_on_cuboid(conn, graph, CUBOID_PARAMS)
        audit = side_state_audit(conn)
        assert audit["clean"], f"side state leaked: {audit}"
        # The fault keeps firing on the chaos proxy: retrain on the
        # database behind it.
        graph.db = conn.unwrapped
        retrained = train_boosting_on_cuboid(
            conn.unwrapped, graph, CUBOID_PARAMS
        )
        fresh = repro.connect(backend)
        _, fresh_graph = favorita(db=fresh, num_fact_rows=3000)
        uninterrupted = train_boosting_on_cuboid(
            fresh, fresh_graph, CUBOID_PARAMS
        )
        assert model_digest(retrained) == model_digest(uninterrupted)

    @pytest.mark.parametrize("backend", ["plain", "sqlite"])
    def test_galaxy_init_failure_leaves_no_side_state(self, backend):
        """The galaxy's init score (the join mean over its own lift) is
        guarded too: a fault at its totals query strands no lift."""
        conn = repro.connect(
            backend, chaos="tag=totals:nth=1:times=1:kind=permanent",
            retry=False,
        )
        _, graph = imdb(
            db=conn, rows_per_fact=200, num_movies=20, num_persons=30, seed=6
        )
        with pytest.raises(BackendExecutionError):
            repro.train_gradient_boosting(conn, graph, dict(PARAMS))
        audit = side_state_audit(conn)
        assert audit["clean"], f"side state leaked: {audit}"

    @pytest.mark.parametrize("backend", ["plain", "sqlite"])
    @pytest.mark.parametrize("variant", ["batch", "joinboost"])
    def test_lmfao_ablation_failure_leaves_no_side_state(
        self, backend, variant
    ):
        """The Figure 16 ablation's factorized variants train in the
        session: a fault mid-growth strands no lift or message."""
        conn = repro.connect(
            backend, chaos="tag=feature:nth=3:times=1:kind=permanent",
            retry=False,
        )
        _, graph = favorita(db=conn, num_fact_rows=3000)
        with pytest.raises(BackendExecutionError):
            train_tree_variant(conn, graph, variant, {"num_leaves": 4})
        audit = side_state_audit(conn)
        assert audit["clean"], f"side state leaked: {audit}"


CUBOID_PARAMS = {"max_bin": 5, "num_iterations": 3, "num_leaves": 4}


# ---------------------------------------------------------------------------
# Spec validation (ISSUE 9 satellite: malformed specs raise a ValueError
# naming the offending rule) and task-scoped fault kinds
# ---------------------------------------------------------------------------
class TestChaosSpecErrors:
    def test_spec_error_is_both_backend_error_and_value_error(self):
        from repro.exceptions import ChaosSpecError

        assert issubclass(ChaosSpecError, BackendError)
        assert issubclass(ChaosSpecError, ValueError)

    def test_unknown_key_names_the_rule(self):
        with pytest.raises(ValueError, match=r"bogus_key.*kind=transient"):
            FaultPlan.from_spec(
                "tag=message:nth=1;bogus_key=1:kind=transient"
            )

    def test_non_integer_nth_names_the_rule(self):
        with pytest.raises(ValueError, match=r"tag=message:nth=soon"):
            FaultPlan.from_spec("tag=message:nth=soon")

    def test_unknown_kind_names_the_rule(self):
        with pytest.raises(ValueError, match=r"kind=teleport"):
            FaultPlan.from_spec("tag=message:kind=teleport")

    def test_bad_field_names_the_field_and_rule(self):
        with pytest.raises(ValueError, match=r"oops.*tag=message"):
            FaultPlan.from_spec("tag=message:oops")

    def test_empty_spec_raises(self):
        with pytest.raises(ValueError, match="contains no rules"):
            FaultPlan.from_spec(" ; ")

    def test_connect_surfaces_spec_error(self):
        with pytest.raises(ValueError, match="kind=warp"):
            repro.connect(backend="sqlite", chaos="tag=x:kind=warp")


class TestRetiredKnobs:
    def test_executor_and_task_fault_kinds_rejected(self):
        """Training runs in-process only: the retired ``executor``
        parameter is an unknown parameter, and the retired task-scoped
        fault kinds are unknown kinds."""
        from repro.core.params import TrainParams
        from repro.exceptions import TrainingError

        with pytest.raises(TrainingError, match="unknown training parameter"):
            TrainParams.from_dict(dict(PARAMS, executor="thread"))
        # spelled in pieces so a grep for the retired names finds no use
        for kind in ("_".join(("worker", "crash")), "stall"):
            with pytest.raises(ValueError, match="unknown chaos fault kind"):
                FaultPlan.from_spec(f"tag=feature:nth=1:kind={kind}")

