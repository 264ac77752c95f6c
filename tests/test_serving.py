"""PredictionService: versioning, kernel census, chunked fact scoring.

The service keeps one record per deployed digest — the kernel, compiled
on first use, and the score column — while a live deployment or a
history entry references it.  These tests pin the kernel census
(``hits`` = reuse, ``misses`` = compiles), the bounded version-history
retention on redeploy (the previous version's record stays, so rollback
never recompiles) and the record's release, the registry lock under
deploy-vs-score races, the serving error taxonomy on the backend paths,
and that scoring the fact in fixed chunks — which land on both kernel
regimes — returns the single-call bits.
"""

import threading

import numpy as np
import pytest

import repro
from repro.core.compile import _BITMASK_MIN_ROWS
from repro.core.predict import feature_frame
from repro.core.serialize import model_digest
from repro.datasets.synthetic import star_schema
from repro.exceptions import (
    ServingBackendError,
    TrainingError,
    TransientServingError,
)
from repro.serve import PredictionService, ServingGateway
from repro.serve import service as service_module

from conftest import backend_matrix


@pytest.fixture
def served(tiny_star):
    db, graph = tiny_star
    model = repro.train_gradient_boosting(
        db, graph, {"num_iterations": 3, "num_leaves": 4, "seed": 5}
    )
    service = PredictionService(db, graph)
    return db, graph, model, service


class TestDeployment:
    def test_deploy_returns_content_digest(self, served):
        _, _, model, service = served
        digest = service.deploy(model)
        assert digest == model_digest(model)
        assert service.version() == digest

    def test_scoring_undeployed_name_raises(self, served):
        _, _, model, service = served
        service.deploy(model, name="prod")
        with pytest.raises(TrainingError, match="staging"):
            service.score_all(name="staging")

    def test_undeploy_forgets_and_evicts(self, served):
        _, _, model, service = served
        service.deploy(model)
        service.score_all()
        service.undeploy()
        assert service.deployments() == []
        assert service._versions == {}
        assert service.stats()["score_column_bytes"] == 0

    def test_redeploy_retains_previous_version_warm(self, served):
        db, graph, model, service = served
        first = service.deploy(model)
        service.score_all()  # warms the cache with the first kernel
        retrained = repro.train_gradient_boosting(
            db, graph, {"num_iterations": 4, "num_leaves": 4, "seed": 6}
        )
        second = service.deploy(retrained)
        assert second != first
        stats = service.stats()
        # The previous version is retained, not dropped — its record
        # (kernel included) stays for canary comparison and rollback.
        assert set(service._versions) == {first, second}
        assert stats["deployments"]["default"] == second
        assert stats["history"]["default"] == [first]
        # The new version serves its own bits (fresh compile).
        scores = service.score_all()
        frame = feature_frame(db, graph, include_target=False)
        assert np.array_equal(scores, retrained.predict_arrays(frame))
        # Rollback restores the retained version without a recompile.
        misses = service.stats()["misses"]
        assert service.rollback() == first
        rolled = service.score_all()
        assert np.array_equal(rolled, model.predict_arrays(frame))
        assert service.stats()["misses"] == misses

    def test_history_is_bounded(self, served):
        db, graph, model, service = served
        first = service.deploy(model)
        service.score_all()
        digests = [first]
        for iterations in (4, 5):
            retrained = repro.train_gradient_boosting(
                db,
                graph,
                {"num_iterations": iterations, "num_leaves": 4, "seed": 6},
            )
            digests.append(service.deploy(retrained))
            service.score_all()
        assert len(set(digests)) == 3
        # RETAINED_VERSIONS=2 keeps live + one previous: the oldest
        # version fell off the history and its record was dropped.
        stats = service.stats()
        assert stats["history"]["default"] == [digests[1]]
        assert set(service._versions) == {digests[1], digests[2]}


class TestCacheCensus:
    """``hits`` / ``misses``: a kernel reused from its version's record
    vs compiled (the names predate the record; kept as test ids)."""

    def test_hit_miss_store_counts(self, served):
        _, _, model, service = served
        # On the embedded engine deploy builds the key-request score
        # column, which compiles: one miss.
        service.deploy(model)
        service.score_all()  # hit
        service.score_all()  # hit
        stats = service.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 2

    def test_a_version_shared_by_two_names_keeps_its_record(self, served):
        db, graph, model, service = served
        digest = service.deploy(model, name="a")
        service.deploy(model, name="b")
        service.undeploy("a")
        misses = service.stats()["misses"]
        service.score_all(name="b")
        assert service.stats()["misses"] == misses
        service.undeploy("b")
        assert digest not in service._versions


class TestWorkerParity:
    """Whole-fact scoring is serial fixed chunks; neither the chunking
    nor the path may show up in the bits (the names predate the serial
    chunks; kept as test ids)."""

    def test_thread_slices_straddling_the_crossover(self, monkeypatch):
        """Chunks of the fact scorer land on both kernel regimes
        (bitmask at and above the crossover, level descent below it)
        and still reassemble to the single-call bits."""
        rows = 2 * _BITMASK_MIN_ROWS + 100
        db, graph = star_schema(num_fact_rows=rows, num_dims=2, seed=3)
        model = repro.train_gradient_boosting(
            db, graph, {"num_iterations": 3, "num_leaves": 8, "seed": 1}
        )
        service = PredictionService(db, graph)
        service.deploy(model)
        single = service.score_all()
        frame = feature_frame(db, graph, include_target=False)
        assert np.array_equal(single, service.compiled().predict_arrays(frame))
        assert np.array_equal(single, model.predict_arrays(frame))
        monkeypatch.setattr(
            service_module, "SCORE_CHUNK_ROWS", _BITMASK_MIN_ROWS
        )
        assert np.array_equal(service.score_all(), single)
        assert np.array_equal(service._score_rows(model), single)

    def test_sql_path_matches_compiled(self, served):
        _, _, model, service = served
        service.deploy(model)
        assert np.array_equal(service.score_sql(), service.score_all())


class TestDanglingKeySnowflake:
    """A three-level snowflake whose fact keys dangle at the first hop,
    while the second dimension holds key 0: the first hop's pads are
    NULL keys over a stored value, and must not join the second
    dimension's row 0 in the SQL scan."""

    @staticmethod
    def _snowflake(conn):
        rng = np.random.default_rng(3)
        n = 400
        k1 = rng.integers(0, 14, n)  # d1 holds 0..9: keys 10..13 dangle
        d1_k2 = np.arange(10) % 5  # d1's first row stores k2 = 0
        x2 = np.array([-3.0, 5.0, 1.0, 2.0, 0.5])
        y = np.where(k1 < 10, x2[d1_k2[np.minimum(k1, 9)]], -1.0)
        conn.create_table("f", {"k1": k1, "x": rng.normal(size=n),
                                "y": y + 0.1 * rng.normal(size=n)})
        conn.create_table("d1", {"k1": np.arange(10), "k2": d1_k2,
                                 "x1": rng.normal(size=10)})
        conn.create_table("d2", {"k2": np.arange(5), "x2": x2})
        graph = repro.JoinGraph(conn)
        graph.add_relation("f", features=["x"], y="y")
        graph.add_relation("d1", features=["x1"])
        graph.add_relation("d2", features=["x2"])
        graph.add_edge("f", "d1", ["k1"])
        graph.add_edge("d1", "d2", ["k2"])
        return graph

    @pytest.mark.parametrize("backend", ["embedded", "sqlite"])
    def test_sql_scan_matches_compiled_and_recursive(self, backend):
        conn = repro.connect(backend=backend)
        graph = self._snowflake(conn)
        model = repro.train_gradient_boosting(
            conn, graph, {"num_iterations": 3, "num_leaves": 8, "seed": 1}
        )
        assert "x2" in model.required_features
        service = PredictionService(conn, graph)
        service.deploy(model)
        frame = feature_frame(conn, graph, include_target=False)
        recursive = model.predict_arrays(frame)
        assert np.array_equal(service.score_all(), recursive)
        assert np.array_equal(service.score_sql(), recursive)


class TestModelWithoutSplits:
    @pytest.mark.parametrize("backend", backend_matrix("embedded", "sqlite"))
    def test_every_path_scores_every_row(self, backend):
        """A model that reads no feature still scores each fact row: its
        frames carry the row count even with no column in them."""
        db, graph = star_schema(
            repro.connect(backend=backend), num_fact_rows=300
        )
        model = repro.train_gradient_boosting(
            db, graph, {"num_iterations": 2, "min_split_gain": 1e18}
        )
        assert model.required_features == []
        service = PredictionService(db, graph)
        service.deploy(model)
        gateway = ServingGateway(service)
        expected = service.score_sql()
        assert expected.shape == (300,)
        assert np.array_equal(service.score_all(), expected)
        assert np.array_equal(gateway.score_compiled().scores, expected)
        assert np.array_equal(service._score_rows(model), expected)

        k0 = np.asarray(db.table("fact").column("k0").as_float())
        keyed = service.score_key({"k0": 3})
        scored = np.asarray(keyed.column("jb_score").as_float())
        assert np.array_equal(scored, expected[k0 == 3])
        relation = gateway.score_key({"k0": 3}).relation
        assert np.array_equal(
            np.asarray(relation.column("jb_score").as_float()), scored
        )


class TestRegistryLocking:
    def test_deploy_under_concurrent_scoring(self, served):
        """Redeploying while other threads score must never surface a
        half-applied registry: every scored result equals one of the two
        models' healthy outputs, bit for bit."""
        db, graph, model, service = served
        retrained = repro.train_gradient_boosting(
            db, graph, {"num_iterations": 4, "num_leaves": 4, "seed": 6}
        )
        frame = feature_frame(db, graph, include_target=False)
        valid = (model.predict_arrays(frame), retrained.predict_arrays(frame))
        service.deploy(model)
        stop = threading.Event()
        errors = []

        def scorer():
            while not stop.is_set():
                try:
                    scores = service.score_all()
                except BaseException as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)
                    return
                if not any(np.array_equal(scores, v) for v in valid):
                    errors.append(AssertionError("torn scores observed"))
                    return

        threads = [threading.Thread(target=scorer) for _ in range(2)]
        for t in threads:
            t.start()
        try:
            for _ in range(10):
                service.deploy(retrained)
                service.deploy(model)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10)
        assert not errors, errors[0]


class TestServingTaxonomy:
    def _chaos_service(self, spec, backend="plain"):
        conn = repro.connect(backend, chaos=spec, retry=False)
        db, graph = star_schema(
            db=conn, num_fact_rows=300, num_dims=2, dim_size=10, seed=4
        )
        model = repro.train_gradient_boosting(
            db, graph, {"num_iterations": 3, "num_leaves": 4, "seed": 5}
        )
        service = PredictionService(conn, graph)
        service.deploy(model)
        return service

    def test_transient_backend_fault_wraps_as_transient(self):
        service = self._chaos_service(
            "tag=serve_sql:nth=1:times=1:kind=transient"
        )
        with pytest.raises(TransientServingError) as excinfo:
            service.score_sql()
        assert excinfo.value.transient is True
        assert excinfo.value.__cause__ is not None
        assert service.stats()["serving_faults"] == {
            "transient": 1,
            "permanent": 0,
        }
        # The plan is spent: the same call now succeeds.
        assert len(service.score_sql()) == 300

    def test_permanent_backend_fault_wraps_as_permanent(self):
        # sqlite: there the key path is still a ``serve_key`` statement
        # (the embedded engine gathers and executes none to fault).
        service = self._chaos_service(
            "tag=serve_key:nth=1:times=1:kind=permanent", backend="sqlite"
        )
        with pytest.raises(ServingBackendError) as excinfo:
            service.score_key({"k0": 3})
        assert excinfo.value.transient is False
        assert service.stats()["serving_faults"] == {
            "transient": 0,
            "permanent": 1,
        }

    def test_config_errors_are_not_backend_faults(self, served):
        _, _, model, service = served
        service.deploy(model)
        with pytest.raises(TrainingError):
            service.score_key({"no_such_column": 1})
        assert service.stats()["serving_faults"] == {
            "transient": 0,
            "permanent": 0,
        }
