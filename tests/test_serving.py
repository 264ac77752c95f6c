"""PredictionService: versioning, warm-cache census, worker parity.

The service compiles deployed models once per version digest and keeps
the kernels in a warm LRU (:class:`repro.serve.CompiledModelCache`).
These tests pin the cache census (hits/misses/stores/evictions), the
bounded version-history retention on redeploy (PR 10: the previous
kernel stays pinned warm so rollback never recompiles), the registry
lock under deploy-vs-score races, the serving error taxonomy on the
backend paths, and that fanning batch scoring out over
``JOINBOOST_NUM_WORKERS=4`` workers returns bytes identical to serial —
the kernels are pure numpy, so concurrency must never show up in the
output.
"""

import threading

import numpy as np
import pytest

import repro
from repro.core.predict import feature_frame
from repro.core.serialize import model_digest
from repro.datasets.synthetic import star_schema
from repro.exceptions import (
    ServingBackendError,
    TrainingError,
    TransientServingError,
)
from repro.serve import CompiledModelCache, PredictionService


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
        assert service.stats()["entries"] == 0

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
        # PR 10: the previous version is retained, not evicted — its
        # kernel stays pinned warm for canary comparison and rollback.
        assert stats["invalidations"] == 0
        assert stats["deployments"]["default"] == second
        assert stats["history"]["default"] == [first]
        # The new version serves its own bits (fresh compile).
        scores = service.score_all()
        frame = feature_frame(db, graph, include_target=False)
        assert np.array_equal(scores, retrained.predict_arrays(frame))
        # Rollback restores the retained version without a recompile.
        stores = service.stats()["stores"]
        assert service.rollback() == first
        rolled = service.score_all()
        assert np.array_equal(rolled, model.predict_arrays(frame))
        assert service.stats()["stores"] == stores

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
        # retained_versions=2 keeps live + one previous: the oldest
        # version fell off the history and its kernel was invalidated.
        stats = service.stats()
        assert stats["history"]["default"] == [digests[1]]
        assert stats["invalidations"] == 1
        assert not service.cache.pinned(first)


class TestCacheCensus:
    def test_hit_miss_store_counts(self, served):
        _, _, model, service = served
        service.deploy(model)
        service.score_all()  # miss -> compile -> store
        service.score_all()  # hit
        service.score_all()  # hit
        stats = service.stats()
        assert stats["misses"] == 1
        assert stats["stores"] == 1
        assert stats["hits"] == 2
        assert stats["entries"] == 1

    def test_lru_evicts_oldest(self):
        cache = CompiledModelCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a; b is now oldest
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.stats()["evictions"] == 1

    def test_invalidate_unknown_digest_is_noop(self):
        cache = CompiledModelCache()
        assert cache.invalidate("nope") is False
        assert cache.stats()["invalidations"] == 0


class TestWorkerParity:
    def test_parallel_score_all_identical_to_serial(self, served, monkeypatch):
        db, graph, model, service = served
        service.deploy(model)
        serial = service.score_all(workers=1)
        frame = feature_frame(db, graph, include_target=False)
        assert np.array_equal(serial, model.predict_arrays(frame))

        monkeypatch.setenv("JOINBOOST_NUM_WORKERS", "4")
        parallel = service.score_all(batch_rows=64)  # env-resolved workers
        assert np.array_equal(parallel, serial)

    def test_score_batches_preserves_order(self, served):
        db, graph, model, service = served
        service.deploy(model)
        frame = feature_frame(db, graph, include_target=False)
        rng = np.random.default_rng(8)
        n = len(next(iter(frame.values())))
        frames = []
        for _ in range(6):
            idx = rng.integers(0, n, 17)
            frames.append({k: v[idx] for k, v in frame.items()})
        serial = service.score_batches(frames, workers=1)
        fanned = service.score_batches(frames, workers=4)
        for a, b in zip(serial, fanned):
            assert np.array_equal(a, b)

    def test_sql_path_matches_compiled(self, served):
        _, _, model, service = served
        service.deploy(model)
        assert np.array_equal(service.score_sql(), service.score_all())


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
