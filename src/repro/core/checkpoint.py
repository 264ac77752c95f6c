"""Round-level checkpoint/resume for gradient boosting.

A boosting run is a sequence of committed rounds: after round ``r`` the
model is fully defined by its first ``r`` trees plus the init score —
everything else (the lifted fact, gradient columns, frontier state) is
reconstructible side state.  So the checkpoint unit is one committed
round: the partial :class:`GradientBoostingModel` serialized through the
canonical JSON of :mod:`repro.core.serialize`, wrapped with the round
index and the full :class:`~repro.core.params.TrainParams`.

:func:`resume_training` rebuilds the side state, and the boosting round
loop (:func:`repro.core.boosting.boost_rounds`) *replays* the restored
trees' residual updates through the same semi-join update path an
uninterrupted run uses, fast-forwards the RNG and the tree node-id
counter, and continues — the parity bar (held by the tests) is
that the resumed run's ``model_digest`` is bit-identical to an
uninterrupted run's, across backends and worker counts.

Module-level imports stay stdlib-only (plus :mod:`repro.exceptions`):
:mod:`repro.core.boosting` imports this module, and this module needs
:mod:`repro.core.serialize` — which imports boosting — so the heavier
imports happen lazily inside functions.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import TYPE_CHECKING, Optional, Tuple

from repro.exceptions import TrainingError

if TYPE_CHECKING:
    from repro.core.params import TrainParams

#: payload marker and format version of a serialized checkpoint
CHECKPOINT_KIND = "joinboost-checkpoint"
CHECKPOINT_VERSION = 1

#: TrainParams fields that are execution details, not model definition —
#: a resumed run may change them freely without breaking digest parity
EXECUTION_ONLY_PARAMS = ("num_workers",)

#: retired TrainParams fields older checkpoints may still carry; reading
#: a payload drops them, so it resumes under the current parameters
RETIRED_PARAMS = ("executor", "encoding_cache")


class CheckpointSink:
    """Where checkpoint payloads go; one slot, newest round wins."""

    def save(self, payload: str) -> None:
        """Persist the canonical-JSON checkpoint payload."""
        raise NotImplementedError

    def load(self) -> Optional[str]:
        """The most recent payload, or ``None`` when empty."""
        raise NotImplementedError

    def clear(self) -> None:
        """Discard any stored payload (called after a completed run)."""
        raise NotImplementedError


class MemoryCheckpointSink(CheckpointSink):
    """In-process sink — the cheap default for tests and benches."""

    def __init__(self):
        self.payload: Optional[str] = None
        #: how many rounds were checkpointed through this sink
        self.saves = 0

    def save(self, payload: str) -> None:
        """Keep the newest payload in memory."""
        self.payload = payload
        self.saves += 1

    def load(self) -> Optional[str]:
        """The stored payload, if any."""
        return self.payload

    def clear(self) -> None:
        """Drop the stored payload."""
        self.payload = None


class DirectoryCheckpointSink(CheckpointSink):
    """Directory-backed sink: ``<dir>/checkpoint.json``, written
    atomically (tmp file + rename) so a crash mid-write never leaves a
    torn checkpoint — the previous round's file survives intact."""

    FILENAME = "checkpoint.json"

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.saves = 0

    @property
    def path(self) -> str:
        """Full path of the checkpoint file."""
        return os.path.join(self.directory, self.FILENAME)

    def save(self, payload: str) -> None:
        """Atomically replace the checkpoint file."""
        fd, tmp_path = tempfile.mkstemp(
            prefix=".checkpoint_", suffix=".tmp", dir=self.directory
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp_path, self.path)
        finally:
            if os.path.exists(tmp_path):  # pragma: no cover - error path
                os.unlink(tmp_path)
        self.saves += 1

    def load(self) -> Optional[str]:
        """Read the checkpoint file if present."""
        if not os.path.exists(self.path):
            return None
        with open(self.path) as handle:
            return handle.read()

    def clear(self) -> None:
        """Remove the checkpoint file if present."""
        if os.path.exists(self.path):
            os.unlink(self.path)


def write_checkpoint(sink: CheckpointSink, model, params, round_index: int) -> None:
    """Serialize one committed round into ``sink`` (canonical JSON)."""
    import dataclasses

    from repro.core.serialize import model_to_dict

    payload = {
        "kind": CHECKPOINT_KIND,
        "version": CHECKPOINT_VERSION,
        "round": round_index,
        "params": dataclasses.asdict(params),
        "model": model_to_dict(model),
    }
    sink.save(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def read_checkpoint(sink: CheckpointSink) -> Optional[dict]:
    """Load and validate a checkpoint payload; ``None`` when empty."""
    text = sink.load()
    if text is None:
        return None
    try:
        payload = json.loads(text)
    except (ValueError, TypeError) as exc:
        raise TrainingError(f"corrupt checkpoint payload: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("kind") != CHECKPOINT_KIND:
        raise TrainingError("not a joinboost checkpoint payload")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise TrainingError(
            f"unsupported checkpoint version {payload.get('version')!r} "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    for field in ("round", "params", "model"):
        if field not in payload:
            raise TrainingError(f"checkpoint payload missing {field!r}")
    if isinstance(payload["params"], dict):
        for name in RETIRED_PARAMS:
            payload["params"].pop(name, None)
    return payload


def restored_rounds(payload: Optional[dict]) -> Tuple[list, Optional[float]]:
    """The committed trees and init score of a checkpoint ``payload``
    (``([], None)`` for a fresh run)."""
    if payload is None:
        return [], None
    from repro.core.serialize import tree_from_dict

    spec = payload["model"]
    if spec.get("kind") != "gradient_boosting":
        raise TrainingError("checkpoint does not hold a gradient-boosting model")
    trees = [tree_from_dict(t) for t in spec["trees"][: int(payload["round"])]]
    return trees, float(spec["init_score"])


def check_resume_params(stored, requested) -> None:
    """Reject a resume whose parameters would change the model.

    Every :class:`TrainParams` field must match the checkpoint except
    the execution-only one (``num_workers``), which affects scheduling
    but not the trained trees — the determinism contract makes worker
    count digest-invariant, so resuming with a different pool is fine.
    """
    import dataclasses

    mismatched = {}
    for field in dataclasses.fields(stored):
        if field.name in EXECUTION_ONLY_PARAMS:
            continue
        old = getattr(stored, field.name)
        new = getattr(requested, field.name)
        if old != new:
            mismatched[field.name] = (old, new)
    if mismatched:
        detail = ", ".join(
            f"{name}: checkpoint={old!r} requested={new!r}"
            for name, (old, new) in sorted(mismatched.items())
        )
        raise TrainingError(
            f"resume parameters differ from the checkpoint ({detail}); "
            "continue with the stored parameters or start a fresh run"
        )


def read_resume(
    sink: Optional[CheckpointSink], requested: Optional[TrainParams] = None
) -> Optional[Tuple[dict, TrainParams]]:
    """``(payload, params)`` to resume from ``sink`` (``None`` if empty):
    the stored parameters, checked against ``requested`` when given, with
    its ``num_workers`` carried over."""
    from repro.core.params import TrainParams

    payload = read_checkpoint(sink) if sink is not None else None
    if payload is None:
        return None
    stored = TrainParams.from_dict(payload["params"])
    if requested is not None:
        check_resume_params(stored, requested)
        stored.num_workers = requested.num_workers
    return payload, stored


def resume_training(
    db,
    graph,
    checkpoint: CheckpointSink,
    params: Optional[dict] = None,
    evaluate_every: int = 0,
    **overrides,
):
    """Continue a checkpointed boosting run from its last committed round.

    ``params``/``overrides`` are optional; when given they must match the
    checkpoint's stored parameters on every model-defining field (see
    :func:`check_resume_params`) — ``num_workers`` may differ.  With an
    *empty* sink this degrades to a fresh ``train_gradient_boosting``
    run that checkpoints into ``sink``, so callers can use one code path
    for "run, and pick up where we left off if interrupted".
    """
    from repro.core.boosting import train_gradient_boosting
    from repro.core.params import TrainParams

    requested = (
        TrainParams.from_dict(params, **overrides)
        if params or overrides else None
    )
    resumed = read_resume(checkpoint, requested)
    if resumed is None:
        return train_gradient_boosting(
            db, graph, params, evaluate_every=evaluate_every,
            checkpoint=checkpoint, **overrides,
        )
    payload, stored_params = resumed
    import dataclasses

    return train_gradient_boosting(
        db, graph, dataclasses.asdict(stored_params),
        evaluate_every=evaluate_every,
        checkpoint=checkpoint, resume_from=payload,
    )
