"""Batch prediction service over the normalized schema.

The ROADMAP's north-star is serving "millions of users" without ever
materializing R⋈.  :class:`PredictionService` is the serving half of that
promise: models are *deployed* under a name, versioned by the sha256
digest of their canonical JSON dump, compiled once into flat numpy
kernels (:mod:`repro.core.compile`) held in a warm LRU cache, and scored
three ways —

* :meth:`score_all` / :meth:`score_frame` — the compiled numpy kernel
  over fact-aligned :func:`repro.core.predict.feature_frame` batches;
* :meth:`score_sql` — the model pushed into the backend as one nested
  ``CASE WHEN`` expression (:mod:`repro.core.sql_score`);
* :meth:`score_key` — the "score user id X" path.  On the embedded
  engine every fact row is scored once per deployed version into a
  fact-aligned score column — the paper's derived per-row value kept as
  a column over the fact (§5.4), the model as a relational view — and a
  request is the key's row lookup plus a ``take`` of that column, with
  no statement.  The column carries a stamp of the tables it was built
  from; while a write has made it stale, requests gather the matching
  rows' features over the cached key encodings and score them with the
  kernel, and it is rebuilt once that fallback time has cost as much as
  the last build (ski rental).  On an external DBMS the request is a
  pushed-down semi-join in SQL.  No denormalization either way.

Deploys are versioned and reversible (PR 10): redeploying a name with a
retrained model mints a new digest and pushes the previous version into
a bounded per-name history whose compiled kernels stay *pinned* in the
warm cache — so :meth:`rollback` restores the prior digest in O(1)
without recompiling, and ``deploy(..., canary=True)`` shadow-scores a
sample through the live and candidate kernels, promoting only on
bit-parity (or an explicit ``force=True``).  The deployment registry is
guarded by an RLock so concurrent score calls never observe a
half-applied deploy.

Backend scoring failures never escape raw: ``score_sql``/``score_key``
wrap driver/backend errors into the serving taxonomy
(:class:`~repro.exceptions.TransientServingError` vs
:class:`~repro.exceptions.ServingBackendError`), counted in
:meth:`stats` — which is what makes the gateway's circuit-breaker trip
decisions principled.  Batch scoring fans out over the PR-5 query
scheduler when ``JOINBOOST_NUM_WORKERS`` (or an explicit ``workers=``)
asks for it; the kernels are pure numpy, so worker count never changes
the bits.
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading
import time
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.compile import CompiledModel, compile_model
from repro.core.params import TrainParams
from repro.core.predict import (
    KeyValue,
    check_key_request,
    feature_frame,
    gather_frame,
    key_rows,
)
from repro.core.serialize import model_digest
from repro.core.sql_score import score_by_checked_key, sql_scores
from repro.engine.result import Relation
from repro.engine.scheduler import QueryScheduler
from repro.exceptions import (
    BackendError,
    CanaryParityError,
    SQLError,
    ServingBackendError,
    ServingError,
    TrainingError,
    TransientBackendError,
    TransientServingError,
)
from repro.joingraph.graph import JoinGraph
from repro.serve.cache import CompiledModelCache
from repro.storage.column import Column

#: default fact-row chunk for batched scoring; small enough to overlap,
#: large enough that per-chunk dispatch overhead disappears.
DEFAULT_BATCH_ROWS = 65_536

#: versions retained warm per name: the live deployment plus
#: (RETAINED_VERSIONS - 1) rollback targets
DEFAULT_RETAINED_VERSIONS = 2

#: fact rows the canary shadow-scores through live and candidate kernels
DEFAULT_CANARY_SAMPLE_ROWS = 256

#: fact rows per kernel call while a score column is built: the bitmask
#: walk's per-call buffers stay one chunk wide instead of fact-wide
SCORE_COLUMN_CHUNK_ROWS = 8_192


@dataclasses.dataclass
class Deployment:
    """A named, versioned model the service will score with."""

    name: str
    digest: str
    model: object
    deployed_at: float


@dataclasses.dataclass
class ScoreColumn:
    """Every fact row's score under one digest, valid while ``stamp``
    (:meth:`PredictionService._stamp`) still describes the tables."""

    stamp: tuple
    scores: np.ndarray
    build_s: float
    #: request time spent falling back since the stamp stopped matching
    stale_s: float = 0.0


class PredictionService:
    """Digest-versioned batch scorer bound to one database + join graph."""

    def __init__(
        self,
        db: object,
        graph: JoinGraph,
        fact: Optional[str] = None,
        cache_size: int = 8,
        retained_versions: int = DEFAULT_RETAINED_VERSIONS,
        canary_sample_rows: int = DEFAULT_CANARY_SAMPLE_ROWS,
    ):
        if retained_versions < 1:
            raise ValueError("retained_versions must be >= 1")
        self.db = db
        self.graph = graph
        self.fact = fact or graph.target_relation
        self.cache = CompiledModelCache(max_entries=cache_size)
        self.retained_versions = int(retained_versions)
        self.canary_sample_rows = int(canary_sample_rows)
        # Deploy/undeploy/rollback mutate the registry while concurrent
        # score calls read it; every access funnels through this RLock.
        self._registry_lock = threading.RLock()
        self._deployments: Dict[str, Deployment] = {}
        self._history: Dict[str, List[Deployment]] = {}
        self._serving_faults = {"transient": 0, "permanent": 0}
        self._score_columns: Dict[str, ScoreColumn] = {}
        self._score_column_census = {"builds": 0, "stale_fallbacks": 0}

    # ------------------------------------------------------------------
    # Deployment / versioning
    # ------------------------------------------------------------------
    def deploy(
        self,
        model: object,
        name: str = "default",
        canary: bool = False,
        force: bool = False,
    ) -> str:
        """Register ``model`` under ``name``; returns its version digest.

        Redeploying a name with a different model retains the previous
        version in a bounded history (``retained_versions``, default 2:
        live + one rollback target) with its compiled kernel pinned warm
        in the cache, so :meth:`rollback` never recompiles.  Versions
        falling off the history are unpinned and their kernels
        invalidated (unless still referenced by another name).

        ``canary=True`` shadow-scores a deterministic sample of fact
        rows through the live and the candidate kernels before
        promotion and raises :class:`CanaryParityError` unless the
        outputs are bit-identical — a changed model needs ``force=True``
        to ship.  The canary runs outside the registry lock, so scoring
        traffic continues while it compares.

        Where key requests gather (the embedded engine), deploy also
        builds the version's score column — every fact row scored once,
        so a key request is a row lookup and a take (:meth:`score_key`).
        Retained versions keep their column: rollback and a redeploy of
        a retained version stay warm.
        """
        digest = model_digest(model)
        candidate = Deployment(
            name=name, digest=digest, model=model, deployed_at=time.time()
        )
        with self._registry_lock:
            previous = self._deployments.get(name)
        same_bits = previous is not None and previous.digest == digest
        if canary and previous is not None and not (same_bits or force):
            self._run_canary(previous, candidate)
        with self._registry_lock:
            previous = self._deployments.get(name)
            self._deployments[name] = candidate
            if previous is None or previous.digest != digest:
                # New bits (same bits only refresh the record).
                self.cache.pin(digest)
                if previous is not None:
                    history = self._history.setdefault(name, [])
                    history.insert(0, previous)
                    while len(history) > self.retained_versions - 1:
                        stale = history.pop()
                        self._release_version(stale.digest)
        # Warm the score column where key requests will read it.  The
        # probe encodes a fact join key, the kind of column requests
        # name, so a first request on it finds that encoding warm too.
        edges = self.graph.edges_of(self.fact)
        if edges and self._key_path_gathers(edges[0].keys_for(self.fact)[0]):
            column = self._score_columns.get(digest)
            if column is None or column.stamp != self._stamp():
                self._build_score_column(candidate)
        return digest

    def rollback(self, name: str = "default") -> str:
        """Restore the previously deployed version of ``name`` in O(1).

        The most recent history entry becomes live and the current
        deployment takes its place in history (so rollback is itself
        reversible).  The restored kernel is still pinned warm in the
        cache — no recompilation.
        """
        with self._registry_lock:
            deployment = self._deployment(name)
            history = self._history.get(name)
            if not history:
                raise ServingError(
                    f"no previous version retained for {name!r}; "
                    f"history is empty"
                )
            restored = history.pop(0)
            history.insert(0, deployment)
            self._deployments[name] = dataclasses.replace(
                restored, deployed_at=time.time()
            )
            return restored.digest

    def undeploy(self, name: str = "default") -> None:
        """Forget ``name`` entirely: live version and retained history."""
        with self._registry_lock:
            deployment = self._deployment(name)
            del self._deployments[name]
            history = self._history.pop(name, [])
            self._release_version(deployment.digest)
            for entry in history:
                self._release_version(entry.digest)

    def version(self, name: str = "default") -> str:
        """The digest currently served under ``name``."""
        return self._deployment(name).digest

    def history(self, name: str = "default") -> List[str]:
        """Digests of retained previous versions, most recent first."""
        with self._registry_lock:
            return [d.digest for d in self._history.get(name, [])]

    def deployments(self) -> List[Deployment]:
        with self._registry_lock:
            return list(self._deployments.values())

    def deployment(self, name: str = "default") -> Deployment:
        """The live :class:`Deployment` for ``name`` (gateway hook)."""
        return self._deployment(name)

    def _deployment(self, name: str) -> Deployment:
        with self._registry_lock:
            deployment = self._deployments.get(name)
            if deployment is None:
                raise TrainingError(
                    f"no model deployed under {name!r}; "
                    f"deployed: {sorted(self._deployments)}"
                )
            return deployment

    def _release_version(self, digest: str) -> None:
        # registry lock held: unpin one reference; invalidate the kernel
        # only when no deployment or history entry still uses the digest
        self.cache.unpin(digest)
        if not self._digest_referenced(digest):
            self.cache.invalidate(digest)
            self._score_columns.pop(digest, None)

    def _digest_referenced(self, digest: str) -> bool:
        # registry lock held
        for deployment in self._deployments.values():
            if deployment.digest == digest:
                return True
        for entries in self._history.values():
            for entry in entries:
                if entry.digest == digest:
                    return True
        return False

    # ------------------------------------------------------------------
    # Canary comparison
    # ------------------------------------------------------------------
    def _run_canary(self, live: Deployment, candidate: Deployment) -> None:
        """Shadow-score a sample through both versions; refuse on drift."""
        live_kernel = self._kernel_for(live)
        candidate_kernel = self.cache.get(candidate.digest)
        if candidate_kernel is None:
            candidate_kernel = compile_model(candidate.model)
            self.cache.put(candidate.digest, candidate_kernel)
        columns = sorted(
            set(live_kernel.required_features)
            | set(candidate_kernel.required_features)  # type: ignore[attr-defined]
        )
        frame = feature_frame(
            self.db,
            self.graph,
            columns=columns,
            fact=self.fact,
            include_target=False,
        )
        sample = {
            k: v[: self.canary_sample_rows] for k, v in frame.items()
        }
        live_scores = np.asarray(live_kernel.predict_arrays(sample))  # type: ignore[attr-defined]
        new_scores = np.asarray(candidate_kernel.predict_arrays(sample))  # type: ignore[attr-defined]
        if not np.array_equal(live_scores, new_scores):
            if live_scores.shape == new_scores.shape:
                diverging = int(np.sum(live_scores != new_scores))
            else:
                diverging = int(live_scores.size)
            with self._registry_lock:
                if not self._digest_referenced(candidate.digest):
                    self.cache.invalidate(candidate.digest)
            raise CanaryParityError(
                f"canary refused for {candidate.name!r}: candidate "
                f"{candidate.digest[:12]} diverges from live "
                f"{live.digest[:12]} on {diverging} of {live_scores.size} "
                f"sampled rows (pass force=True to promote anyway)",
                live_digest=live.digest,
                candidate_digest=candidate.digest,
                diverging_rows=diverging,
            )

    # ------------------------------------------------------------------
    # Compiled-kernel access
    # ------------------------------------------------------------------
    def compiled(self, name: str = "default") -> CompiledModel:
        """The warm compiled kernel for ``name`` (compiling on miss)."""
        return self._kernel_for(self._deployment(name))

    def _kernel_for(self, deployment: Deployment) -> CompiledModel:
        kernel = self.cache.get(deployment.digest)
        if kernel is None:
            kernel = compile_model(deployment.model)
            self.cache.put(deployment.digest, kernel)
        return kernel  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def score_frame(
        self,
        features: Mapping[str, np.ndarray],
        name: str = "default",
    ) -> np.ndarray:
        """Score a prepared fact-aligned feature frame."""
        return self.compiled(name).predict_arrays(dict(features))

    def score_all(
        self,
        name: str = "default",
        batch_rows: Optional[int] = None,
        workers: Optional[int] = None,
    ) -> np.ndarray:
        """Score every fact row with the compiled kernel.

        The feature frame is built once (narrow N-to-1 joins only), then
        chunked into ``batch_rows`` slices scored through the PR-5 query
        scheduler.  Results are reassembled in fact order; worker count
        never changes the output bits because each chunk is independent
        pure-numpy work.
        """
        kernel = self.compiled(name)
        frame = feature_frame(
            self.db,
            self.graph,
            columns=list(kernel.required_features),
            fact=self.fact,
            include_target=False,
        )
        n = len(next(iter(frame.values()))) if frame else 0
        if n == 0:
            return np.zeros(0)
        chunk = int(batch_rows or DEFAULT_BATCH_ROWS)
        resolved = self._resolved_workers(workers)
        starts = list(range(0, n, chunk))
        if len(starts) <= 1 or resolved <= 1:
            return np.asarray(kernel.predict_arrays(dict(frame)))

        def score_slice(lo: int, hi: int):
            piece = {k: v[lo:hi] for k, v in frame.items()}
            return kernel.predict_arrays(piece)

        scheduler = QueryScheduler(num_workers=resolved)
        for lo in starts:
            hi = min(lo + chunk, n)
            scheduler.submit(
                lambda lo=lo, hi=hi: score_slice(lo, hi),
                label=f"score[{lo}:{hi}]",
            )
        report = scheduler.run()
        pieces = report.results()
        return np.concatenate([np.asarray(p) for p in pieces])

    def score_batches(
        self,
        frames: Sequence[Mapping[str, np.ndarray]],
        name: str = "default",
        workers: Optional[int] = None,
    ) -> List[np.ndarray]:
        """Score many independent feature frames, fanned out over the
        scheduler.  Output order matches input order regardless of the
        worker count."""
        kernel = self.compiled(name)
        resolved = self._resolved_workers(workers)
        if resolved <= 1 or len(frames) <= 1:
            return [np.asarray(kernel.predict_arrays(dict(f))) for f in frames]
        scheduler = QueryScheduler(num_workers=resolved)
        for i, frame in enumerate(frames):
            scheduler.submit(
                lambda frame=frame: kernel.predict_arrays(dict(frame)),
                label=f"batch[{i}]",
            )
        report = scheduler.run()
        return [np.asarray(r) for r in report.results()]

    def score_sql(self, name: str = "default") -> np.ndarray:
        """Score every fact row by pushing the model into the backend as
        a nested ``CASE WHEN`` expression — bit-identical to the compiled
        path on every supported loss.

        Backend failures surface as the serving taxonomy
        (:class:`TransientServingError` / :class:`ServingBackendError`),
        never as raw driver or :class:`BackendError` exceptions.
        """
        deployment = self._deployment(name)
        with self._wrap_serving_faults("score_sql"):
            return sql_scores(
                self.db,
                self.graph,
                deployment.model,
                fact=self.fact,
                tag="serve_sql",
            )

    def score_key(
        self,
        keys: Mapping[str, object],
        name: str = "default",
        extra_columns: Sequence[str] = (),
    ) -> Relation:
        """The "score user id X" path: score only the fact rows matching
        ``keys``; returns the key columns, ``extra_columns`` and
        ``jb_score`` in fact order.

        On a connector that serves cached key encodings (the embedded
        engine) this executes no statement: the matching rows
        (:func:`~repro.core.predict.key_rows`) index the version's score
        column when its stamp still matches the tables, and otherwise
        their features are gathered
        (:func:`~repro.core.predict.gather_frame`) and scored with the
        kernel until a rebuild pays off.  Elsewhere the DBMS runs the
        semi-join (:func:`~repro.core.sql_score.score_by_key`), its own
        optimizer pushing the key predicate into the fact scan.
        """
        checked = check_key_request(self.db, self.fact, keys, extra_columns)
        return self._score_key(checked, name, extra_columns)

    # The two methods below take keys ``check_key_request`` has already
    # validated: ``score_key`` and the gateway check a request once, then
    # call these per ladder rung.
    def _score_key(
        self,
        keys: Mapping[str, KeyValue],
        name: str,
        extra_columns: Sequence[str],
    ) -> Relation:
        deployment = self._deployment(name)
        if self._key_path_gathers(next(iter(keys))):
            column = self._score_columns.get(deployment.digest)
            if column is not None and column.stamp == self._stamp():
                rows = key_rows(self.db, self.fact, keys)
                return self._key_relation(
                    keys, extra_columns, rows, column.scores[rows]
                )
            start = time.perf_counter()
            relation = self._score_key_gathered(keys, name, extra_columns)
            self._note_stale(deployment, column, time.perf_counter() - start)
            return relation
        with self._wrap_serving_faults("score_key"):
            return score_by_checked_key(
                self.db,
                self.graph,
                deployment.model,
                keys,
                self.fact,
                tuple(extra_columns),
                tag="serve_key",
            )

    def _score_key_gathered(
        self,
        keys: Mapping[str, KeyValue],
        name: str,
        extra_columns: Sequence[str],
        recursive: bool = False,
    ) -> Relation:
        """Key scoring without SQL on any connector: gather the matching
        rows' features (:func:`~repro.core.predict.gather_frame`) and
        score them with the warm compiled kernel, or with the recursive
        reference model when ``recursive`` — the gateway's degraded key
        rungs."""
        deployment = self._deployment(name)
        scorer: Any = (
            deployment.model if recursive else self._kernel_for(deployment)
        )
        rows, frame = gather_frame(
            self.db,
            self.graph,
            list(scorer.required_features),
            keys,
            fact=self.fact,
        )
        scores = np.asarray(scorer.predict_arrays(frame), dtype=np.float64)
        return self._key_relation(keys, extra_columns, rows, scores)

    def _key_relation(
        self,
        keys: Mapping[str, KeyValue],
        extra_columns: Sequence[str],
        rows: np.ndarray,
        scores: np.ndarray,
    ) -> Relation:
        table = self.db.table(self.fact)  # type: ignore[attr-defined]
        columns = [
            table.column(c).take(rows) for c in [*keys, *extra_columns]
        ]
        columns.append(Column("jb_score", scores))
        return Relation(columns)

    # ------------------------------------------------------------------
    # The score column: key requests as a take from scores built once
    # ------------------------------------------------------------------
    def _key_path_gathers(self, column: str) -> bool:
        """Whether key requests gather instead of running SQL: the
        connector serves cached key encodings (the embedded engine)."""
        encoding = self.db.encoding_for(self.fact, column)  # type: ignore[attr-defined]
        return encoding is not None

    def _stamp(self) -> tuple:
        """``(name, uid, version, rows)`` of every relation of the join
        graph — a table's ``version`` advances on any write to any of its
        columns, and renames keep ``uid`` — so an equal stamp means the
        tables a score column was built from hold the same data.  A
        missing table stamps as its name alone."""
        stamp = []
        for name in self.graph.relations:
            if self.db.has_table(name):  # type: ignore[attr-defined]
                table = self.db.table(name)  # type: ignore[attr-defined]
                stamp.append((name, table.uid, table.version, table.num_rows()))
            else:
                stamp.append((name,))
        return tuple(stamp)

    def _build_score_column(self, deployment: Deployment) -> None:
        """Score every fact row with the bulk kernel, in fixed chunks, and
        keep the scores for ``deployment``'s digest under the current
        stamp (taken first, so a write racing the build reads stale)."""
        kernel = self._kernel_for(deployment)
        stamp = self._stamp()
        start = time.perf_counter()
        frame = feature_frame(
            self.db,
            self.graph,
            columns=list(kernel.required_features),
            fact=self.fact,
            include_target=False,
        )
        scores = np.empty(len(next(iter(frame.values()))))
        for lo in range(0, len(scores), SCORE_COLUMN_CHUNK_ROWS):
            hi = lo + SCORE_COLUMN_CHUNK_ROWS
            scores[lo:hi] = kernel.predict_arrays(
                {k: v[lo:hi] for k, v in frame.items()}
            )
        column = ScoreColumn(stamp, scores, time.perf_counter() - start)
        with self._registry_lock:
            if self._digest_referenced(deployment.digest):
                self._score_columns[deployment.digest] = column
                self._score_column_census["builds"] += 1

    def _note_stale(
        self,
        deployment: Deployment,
        column: Optional[ScoreColumn],
        elapsed: float,
    ) -> None:
        """Count a fallback and rebuild ski-rental style: once the time
        spent falling back since the stamp changed exceeds what the last
        build took (at once when there is no column)."""
        with self._registry_lock:
            self._score_column_census["stale_fallbacks"] += 1
            if column is not None:
                column.stale_s += elapsed
                if column.stale_s <= column.build_s:
                    return
        self._build_score_column(deployment)

    @contextlib.contextmanager
    def _wrap_serving_faults(self, where: str) -> Iterator[None]:
        """Map backend/driver errors crossing the serving boundary into
        the :class:`ServingError` taxonomy, counted for :meth:`stats`.

        Configuration errors (:class:`TrainingError` — unknown column,
        nothing deployed) are not backend faults and propagate as-is.
        """
        try:
            yield
        except ServingError:
            raise
        except TransientBackendError as exc:
            with self._registry_lock:
                self._serving_faults["transient"] += 1
            raise TransientServingError(
                f"{where} failed transiently: {exc}"
            ) from exc
        except TrainingError:
            raise
        except (BackendError, SQLError) as exc:
            with self._registry_lock:
                self._serving_faults["permanent"] += 1
            raise ServingBackendError(f"{where} failed: {exc}") from exc

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Cache census plus the deployment table (observability hook).

        Includes the per-name version history, the serving-fault counts
        (transient vs permanent backend failures seen by
        ``score_sql``/``score_key``), the key requests' score-column
        census (``score_column_builds``, ``score_column_stale_fallbacks``
        and the ``score_column_bytes`` held), and — when the bound connector
        carries fault-tolerance proxies (``connect(..., chaos=...,
        retry=...)``) — their retry and chaos-injection counters, so a
        serving dashboard sees fault pressure without reaching into
        backend internals.
        """
        out: Dict[str, object] = dict(self.cache.stats())
        with self._registry_lock:
            out["deployments"] = {
                name: d.digest for name, d in self._deployments.items()
            }
            out["history"] = {
                name: [d.digest for d in entries]
                for name, entries in self._history.items()
                if entries
            }
            out["serving_faults"] = dict(self._serving_faults)
            for key, count in self._score_column_census.items():
                out[f"score_column_{key}"] = count
            out["score_column_bytes"] = sum(
                c.scores.nbytes for c in self._score_columns.values()
            )
        retry_census = getattr(self.db, "retry_census", None)
        if retry_census is not None:
            out["retry"] = retry_census.snapshot()
        chaos_census = getattr(self.db, "chaos_census", None)
        if chaos_census is not None:
            out["chaos"] = chaos_census.snapshot()
        return out

    @staticmethod
    def _resolved_workers(workers: Optional[int]) -> int:
        if workers is not None:
            return max(1, int(workers))
        return TrainParams.from_dict({}).resolved_workers()
