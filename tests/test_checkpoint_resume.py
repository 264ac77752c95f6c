"""Round-level checkpoint/resume.

The parity bar: a run interrupted mid-training and resumed from its
last committed checkpoint must produce a ``model_digest`` bit-identical
to the uninterrupted run — across backends and worker counts.
"""

import json
import os

import numpy as np
import pytest

import repro
from repro.core.boosting import train_gradient_boosting
from repro.core.checkpoint import (
    CHECKPOINT_KIND,
    CHECKPOINT_VERSION,
    DirectoryCheckpointSink,
    MemoryCheckpointSink,
    check_resume_params,
    read_checkpoint,
    resume_training,
    write_checkpoint,
)
from repro.core.params import TrainParams
from repro.core.serialize import model_digest
from repro.exceptions import BackendExecutionError, TrainingError

from conftest import backend_matrix


def _build(conn, n=400, seed=3):
    rng = np.random.default_rng(seed)
    conn.create_table("sales", {
        "date_id": rng.integers(0, 25, n),
        "net_profit": rng.normal(size=n),
        "units": rng.normal(size=n),
    })
    conn.create_table("date", {
        "date_id": np.arange(25),
        "holiday": rng.integers(0, 2, 25).astype(np.float64),
    })
    graph = repro.JoinGraph(conn)
    graph.add_relation("sales", features=["units"], y="net_profit",
                       is_fact=True)
    graph.add_relation("date", features=["holiday"])
    graph.add_edge("sales", "date", ["date_id"])
    return graph


PARAMS = {
    "objective": "regression",
    "num_iterations": 4,
    "num_leaves": 4,
    "learning_rate": 0.3,
}


def _interrupt_after_round(conn, graph, sink, rounds, num_workers="auto"):
    """Run with checkpointing, killed by a chaos fault after ``rounds``
    committed rounds; the sink retains the last committed round."""
    with pytest.raises(BackendExecutionError):
        train_gradient_boosting(
            conn, graph, dict(PARAMS, num_workers=num_workers),
            checkpoint=sink,
        )
    payload = read_checkpoint(sink)
    assert payload is not None and payload["round"] == rounds


class TestCheckpointResumeParity:
    """Interrupted + resumed == uninterrupted, bit for bit."""

    @pytest.mark.parametrize("backend", backend_matrix("plain", "sqlite"))
    @pytest.mark.parametrize("workers", [1, 4])
    def test_resume_digest_matches_uninterrupted(self, backend, workers):
        # uninterrupted reference
        clean_conn = repro.connect(backend=backend)
        clean_graph = _build(clean_conn)
        reference = train_gradient_boosting(
            clean_conn, clean_graph, dict(PARAMS, num_workers=workers)
        )
        # interrupted run: a permanent fault kills round 3's message pass
        conn = repro.connect(
            backend=backend,
            chaos="tag=message:nth=9:times=1:kind=permanent",
            retry=False,
        )
        graph = _build(conn)
        sink = MemoryCheckpointSink()
        _interrupt_after_round(conn, graph, sink, rounds=2,
                               num_workers=workers)
        # resume on the SAME connection (the guard cleaned it up)
        resumed = resume_training(conn, graph, sink)
        assert model_digest(resumed) == model_digest(reference)
        assert len(resumed.trees) == PARAMS["num_iterations"]

    def test_resume_may_change_workers(self):
        conn = repro.connect(
            backend="sqlite",
            chaos="tag=message:nth=9:times=1:kind=permanent",
            retry=False,
        )
        graph = _build(conn)
        sink = MemoryCheckpointSink()
        _interrupt_after_round(conn, graph, sink, rounds=2, num_workers=1)
        resumed = resume_training(conn, graph, sink, dict(PARAMS),
                                  num_workers=4)
        clean_conn = repro.connect(backend="sqlite")
        clean_graph = _build(clean_conn)
        reference = train_gradient_boosting(clean_conn, clean_graph,
                                            dict(PARAMS))
        assert model_digest(resumed) == model_digest(reference)

    def test_directory_sink_roundtrip(self, tmp_path):
        conn = repro.connect(
            backend="sqlite",
            chaos="tag=message:nth=5:times=1:kind=permanent",
            retry=False,
        )
        graph = _build(conn)
        sink = DirectoryCheckpointSink(str(tmp_path / "ckpt"))
        _interrupt_after_round(conn, graph, sink, rounds=1)
        assert sink.saves == 1
        # a fresh sink object over the same directory sees the payload —
        # that's the crash-recovery story
        resumed = resume_training(
            conn, graph, DirectoryCheckpointSink(str(tmp_path / "ckpt"))
        )
        clean_conn = repro.connect(backend="sqlite")
        reference = train_gradient_boosting(
            clean_conn, _build(clean_conn), dict(PARAMS)
        )
        assert model_digest(resumed) == model_digest(reference)

    def test_empty_sink_trains_fresh_and_checkpoints(self):
        conn = repro.connect(backend="sqlite")
        graph = _build(conn)
        sink = MemoryCheckpointSink()
        model = resume_training(conn, graph, sink, dict(PARAMS))
        assert len(model.trees) == PARAMS["num_iterations"]
        assert sink.saves == PARAMS["num_iterations"]
        assert read_checkpoint(sink)["round"] == PARAMS["num_iterations"]
        # checkpointing every round leaves the model's bits alone
        clean_conn = repro.connect(backend="sqlite")
        reference = train_gradient_boosting(
            clean_conn, _build(clean_conn), dict(PARAMS)
        )
        assert model_digest(model) == model_digest(reference)

    def test_finished_checkpoint_returns_restored_model(self):
        conn = repro.connect(backend="sqlite")
        graph = _build(conn)
        sink = MemoryCheckpointSink()
        model = train_gradient_boosting(conn, graph, dict(PARAMS),
                                        checkpoint=sink)
        # resuming a checkpoint whose round == num_iterations re-trains
        # nothing: same digest, straight from the payload
        resumed = resume_training(conn, graph, sink)
        assert model_digest(resumed) == model_digest(model)


class TestCheckpointFormat:
    def test_payload_fields(self):
        conn = repro.connect(backend="sqlite")
        graph = _build(conn)
        sink = MemoryCheckpointSink()
        train_gradient_boosting(
            conn, graph, dict(PARAMS, num_iterations=2), checkpoint=sink
        )
        payload = json.loads(sink.payload)
        assert payload["kind"] == CHECKPOINT_KIND
        assert payload["version"] == CHECKPOINT_VERSION
        assert payload["round"] == 2
        assert payload["params"]["num_iterations"] == 2
        assert payload["model"]["kind"] == "gradient_boosting"
        assert len(payload["model"]["trees"]) == 2
        # canonical JSON: re-serializing is byte-identical
        assert json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        ) == sink.payload

    def test_corrupt_payload_raises(self):
        sink = MemoryCheckpointSink()
        for bad in ("not json", '{"kind":"something-else"}',
                    '{"kind":"joinboost-checkpoint","version":99}',
                    '{"kind":"joinboost-checkpoint","version":1}'):
            sink.payload = bad
            with pytest.raises(TrainingError):
                read_checkpoint(sink)

    def test_params_mismatch_rejected(self):
        stored = TrainParams.from_dict(dict(PARAMS))
        requested = TrainParams.from_dict(dict(PARAMS, learning_rate=0.9))
        with pytest.raises(TrainingError, match="learning_rate"):
            check_resume_params(stored, requested)

    def test_num_workers_mismatch_allowed(self):
        stored = TrainParams.from_dict(dict(PARAMS, num_workers=1))
        requested = TrainParams.from_dict(dict(PARAMS, num_workers=8))
        check_resume_params(stored, requested)  # no raise

    def test_resume_with_mismatched_params_raises(self):
        conn = repro.connect(
            backend="sqlite",
            chaos="tag=message:nth=5:times=1:kind=permanent",
            retry=False,
        )
        graph = _build(conn)
        sink = MemoryCheckpointSink()
        _interrupt_after_round(conn, graph, sink, rounds=1)
        with pytest.raises(TrainingError, match="num_leaves"):
            resume_training(conn, graph, sink, dict(PARAMS, num_leaves=8))

    def test_write_checkpoint_atomic_on_directory(self, tmp_path):
        sink = DirectoryCheckpointSink(str(tmp_path))
        conn = repro.connect(backend="sqlite")
        graph = _build(conn)
        model = train_gradient_boosting(
            conn, graph, dict(PARAMS, num_iterations=1)
        )
        params = TrainParams.from_dict(dict(PARAMS, num_iterations=1))
        write_checkpoint(sink, model, params, 1)
        # no stray temp files left next to the checkpoint
        leftovers = [p.name for p in tmp_path.iterdir()
                     if p.name != sink.FILENAME]
        assert leftovers == []
        sink.clear()
        assert sink.load() is None


class TestCheckpointScope:
    """Checkpointing is defined for single-target snowflake boosting."""

    def test_multiclass_rejected(self):
        rng = np.random.default_rng(5)
        conn = repro.connect(backend="sqlite")
        conn.create_table("f", {
            "k": rng.integers(0, 10, 200),
            "label": rng.integers(0, 3, 200),
        })
        conn.create_table("d", {"k": np.arange(10),
                                "x": rng.normal(size=10)})
        graph = repro.JoinGraph(conn)
        graph.add_relation("f", y="label", is_fact=True)
        graph.add_relation("d", features=["x"])
        graph.add_edge("f", "d", ["k"])
        with pytest.raises(TrainingError, match="multiclass"):
            train_gradient_boosting(
                conn, graph,
                {"objective": "softmax", "num_class": 3,
                 "num_iterations": 2},
                checkpoint=MemoryCheckpointSink(),
            )

    def test_galaxy_rejected(self, small_imdb):
        db, graph = small_imdb
        with pytest.raises(TrainingError, match="galaxy"):
            train_gradient_boosting(
                db, graph,
                {"objective": "regression", "num_iterations": 2},
                checkpoint=MemoryCheckpointSink(),
            )


# ---------------------------------------------------------------------------
# Checkpoints written while TrainParams still had the ``executor`` and
# ``encoding_cache`` fields
# ---------------------------------------------------------------------------
DATA = os.path.join(os.path.dirname(__file__), "data")


def _pinned_sink(filename):
    """A sink holding a checkpoint payload byte-for-byte as an earlier
    build wrote it: its params carry the retired ``executor`` and
    ``encoding_cache`` fields."""
    sink = MemoryCheckpointSink()
    with open(os.path.join(DATA, filename)) as handle:
        sink.payload = handle.read().strip()
    assert '"executor":"thread"' in sink.payload
    assert '"encoding_cache":' in sink.payload
    return sink


class TestRetiredParamCheckpoint:
    def test_read_checkpoint_drops_retired_executor(self):
        payload = read_checkpoint(
            _pinned_sink("checkpoint_with_executor_param.json")
        )
        assert "executor" not in payload["params"]
        assert "encoding_cache" not in payload["params"]
        assert payload["round"] == 2

    def test_resume_matches_uninterrupted(self):
        clean_conn = repro.connect(backend="sqlite")
        reference = train_gradient_boosting(
            clean_conn, _build(clean_conn), dict(PARAMS)
        )
        # The second payload was written with encoding_cache="off".
        for filename in ("checkpoint_with_executor_param.json",
                         "checkpoint_with_encoding_cache_off.json"):
            conn = repro.connect(backend="sqlite")
            resumed = resume_training(conn, _build(conn), _pinned_sink(filename))
            assert model_digest(resumed) == model_digest(reference), filename

    def test_sharded_resume_matches_uninterrupted(self):
        from repro.datasets import star_schema
        from repro.distributed import SimulatedCluster

        params = TestShardedResume.PARAMS
        db, graph = star_schema(num_fact_rows=2000, num_dims=2, seed=7)
        reference = SimulatedCluster(
            db, graph, "k0", num_machines=4
        ).train_gradient_boosting(params)
        db, graph = star_schema(num_fact_rows=2000, num_dims=2, seed=7)
        model = SimulatedCluster(
            db, graph, "k0", num_machines=4,
            checkpoint=_pinned_sink(
                "sharded_checkpoint_with_executor_param.json"
            ),
        ).train_gradient_boosting(params)
        assert model_digest(model) == model_digest(reference)


class _InterruptingSink(MemoryCheckpointSink):
    """Dies right after committing round ``after`` — the driver-crash
    moment for the sharded path, whose trainer runs outside the
    chaos-connector statement stream."""

    def __init__(self, after):
        super().__init__()
        self.after = after

    def save(self, payload):
        super().save(payload)
        if self.saves == self.after:
            raise RuntimeError("driver killed after commit")


class TestShardedResume:
    PARAMS = {"num_iterations": 3, "num_leaves": 4, "learning_rate": 0.5}

    def _dataset(self):
        from repro.datasets import star_schema

        return star_schema(num_fact_rows=2000, num_dims=2, seed=7)

    def test_sharded_resume_digest_matches_uninterrupted(self):
        from repro.distributed import SimulatedCluster

        db, graph = self._dataset()
        reference = SimulatedCluster(
            db, graph, "k0", num_machines=4
        ).train_gradient_boosting(self.PARAMS)

        db2, graph2 = self._dataset()
        sink = _InterruptingSink(after=1)
        interrupted = SimulatedCluster(
            db2, graph2, "k0", num_machines=4,
            checkpoint=sink,
        )
        with pytest.raises(RuntimeError):
            interrupted.train_gradient_boosting(self.PARAMS)
        assert read_checkpoint(sink)["round"] == 1

        sink.after = -1  # the replacement driver's sink doesn't die
        resumed_cluster = SimulatedCluster(
            db2, graph2, "k0", num_machines=4,
            checkpoint=sink,
        )
        model = resumed_cluster.train_gradient_boosting(self.PARAMS)
        assert model_digest(model) == model_digest(reference)
        assert sink.payload is None  # completed runs clear their sink

    def test_sharded_resume_with_feature_sampling(self):
        """The restore replays the restored rounds' feature draws, so a
        resumed 4-shard run samples what the uninterrupted one did."""
        from repro.distributed import SimulatedCluster

        params = dict(self.PARAMS, feature_fraction=0.5, seed=5)
        db, graph = self._dataset()
        reference = SimulatedCluster(
            db, graph, "k0", num_machines=4
        ).train_gradient_boosting(params)

        db2, graph2 = self._dataset()
        sink = _InterruptingSink(after=2)
        with pytest.raises(RuntimeError):
            SimulatedCluster(
                db2, graph2, "k0", num_machines=4,
                checkpoint=sink,
            ).train_gradient_boosting(params)
        assert read_checkpoint(sink)["round"] == 2
        sink.after = -1
        model = SimulatedCluster(
            db2, graph2, "k0", num_machines=4,
            checkpoint=sink,
        ).train_gradient_boosting(params)
        assert model_digest(model) == model_digest(reference)

    def test_sharded_resume_rejects_param_drift(self):
        from repro.distributed import SimulatedCluster

        db, graph = self._dataset()
        sink = _InterruptingSink(after=1)
        cluster = SimulatedCluster(
            db, graph, "k0", num_machines=2, checkpoint=sink,
        )
        with pytest.raises(RuntimeError):
            cluster.train_gradient_boosting(self.PARAMS)
        sink.after = -1
        with pytest.raises(TrainingError, match="num_leaves"):
            SimulatedCluster(
                db, graph, "k0", num_machines=2,
                checkpoint=sink,
            ).train_gradient_boosting(dict(self.PARAMS, num_leaves=8))
