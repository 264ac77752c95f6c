"""Batch prediction service over the normalized schema.

The ROADMAP's north-star is serving "millions of users" without ever
materializing R⋈.  :class:`PredictionService` is the serving half of that
promise: models are *deployed* under a name, versioned by the sha256
digest of their canonical JSON dump, and scored three ways —

* :meth:`score_all` / :meth:`score_frame` — the compiled numpy kernel
  (:mod:`repro.core.compile`) over a fact-aligned
  :func:`repro.core.predict.feature_frame`, the one N-to-1 row walk
  over cached key encodings that every frame here is built by;
* :meth:`score_sql` — the model pushed into the backend as one nested
  ``CASE WHEN`` expression (:mod:`repro.core.sql_score`);
* :meth:`score_key` — the "score user id X" path.  On the embedded
  engine every fact row is scored once per deployed version into a
  fact-aligned score column — the paper's derived per-row value kept as
  a column over the fact (§5.4), the model as a relational view — and a
  request is the key's row lookup plus a ``take`` of that column, with
  no statement.  The column carries a stamp of the tables it was built
  from; while a write has made it stale, the kernel scores the matching
  rows' feature frame (the same walk over just those rows), and the
  column is rebuilt once that fallback time has cost as much as the
  last build (ski rental).  On an external DBMS the request is a
  pushed-down semi-join in SQL.  No denormalization either way.

The service keeps one record per digest (:class:`_Version`): the
compiled kernel, compiled on first use, and the score column.  The
record lives exactly while a live deployment or a retained history entry
references the digest.  Deploys are versioned and reversible:
redeploying a name with a retrained model mints a new digest and pushes
the previous version into a bounded per-name history
(:data:`RETAINED_VERSIONS`), whose record stays — so :meth:`rollback`
restores the prior digest in O(1) without recompiling, and
``deploy(..., canary=True)`` shadow-scores the first
:data:`CANARY_SAMPLE_ROWS` fact rows through the live and candidate
kernels, promoting only on bit-parity (or an explicit
``force=True``).  The deployment registry is guarded by an RLock so
concurrent score calls never observe a half-applied deploy.

Backend scoring failures never escape raw: ``score_sql``/``score_key``
wrap driver/backend errors into the serving taxonomy
(:class:`~repro.exceptions.TransientServingError` vs
:class:`~repro.exceptions.ServingBackendError`), counted in
:meth:`stats` — which is what makes the gateway's circuit-breaker trip
decisions principled.
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading
import time
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.compile import CompiledModel, compile_model
from repro.core.predict import (
    KeyValue,
    check_key_request,
    feature_frame,
    key_rows,
)
from repro.core.serialize import model_digest
from repro.core.sql_score import score_by_checked_key, sql_scores
from repro.engine.result import Relation
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
from repro.storage.column import Column

#: versions retained warm per name: the live deployment plus
#: (RETAINED_VERSIONS - 1) rollback targets
RETAINED_VERSIONS = 2

#: fact rows the canary shadow-scores through live and candidate kernels
CANARY_SAMPLE_ROWS = 256

#: fact rows per scorer call when the whole fact is scored: the bitmask
#: walk's per-call buffers stay one chunk wide instead of fact-wide.
#: 8 192 is ~20 % slower; 32 768 scores as fast but triples the page
#: faults of a later SQL scan (docs/EXPERIMENTS.md)
SCORE_CHUNK_ROWS = 65_536


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


@dataclasses.dataclass
class _Version:
    """What the service holds for one digest while a live deployment or
    a history entry references it."""

    kernel: Optional[CompiledModel] = None
    column: Optional[ScoreColumn] = None


class PredictionService:
    """Digest-versioned batch scorer bound to one database + join graph."""

    def __init__(
        self, db: object, graph: JoinGraph, fact: Optional[str] = None
    ):
        self.db = db
        self.graph = graph
        self.fact = fact or graph.target_relation
        # Deploy/undeploy/rollback mutate the registry while concurrent
        # score calls read it; every access funnels through this RLock.
        self._registry_lock = threading.RLock()
        self._deployments: Dict[str, Deployment] = {}
        self._history: Dict[str, List[Deployment]] = {}
        self._versions: Dict[str, _Version] = {}
        self._census = {
            "hits": 0,
            "misses": 0,
            "score_column_builds": 0,
            "score_column_stale_fallbacks": 0,
        }
        self._serving_faults = {"transient": 0, "permanent": 0}

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
        version in a bounded history (:data:`RETAINED_VERSIONS`: live +
        one rollback target) with its record — kernel and score column —
        kept, so :meth:`rollback` never recompiles.  A version falling off
        the history drops its record unless another name still
        references the digest.

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
        kernel = None
        if canary and previous is not None and not (same_bits or force):
            kernel = self._run_canary(previous, candidate)
        with self._registry_lock:
            previous = self._deployments.get(name)
            self._deployments[name] = candidate
            version = self._versions.setdefault(digest, _Version())
            if version.kernel is None:
                version.kernel = kernel
            if previous is not None and previous.digest != digest:
                history = self._history.setdefault(name, [])
                history.insert(0, previous)
                while len(history) > RETAINED_VERSIONS - 1:
                    self._release_version(history.pop().digest)
        # Warm the score column where key requests will read it.  The
        # probe encodes a fact join key, the kind of column requests
        # name, so a first request on it finds that encoding warm too.
        edges = self.graph.edges_of(self.fact)
        if edges and self._key_path_gathers(edges[0].keys_for(self.fact)[0]):
            column = version.column
            if column is None or column.stamp != self._stamp():
                self._build_score_column(candidate)
        return digest

    def rollback(self, name: str = "default") -> str:
        """Restore the previously deployed version of ``name`` in O(1).

        The most recent history entry becomes live and the current
        deployment takes its place in history (so rollback is itself
        reversible).  The restored version's record is still held, so
        its kernel is warm — no recompilation.
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
        """Every live :class:`Deployment`, one per deployed name."""
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
        # registry lock held: one reference to ``digest`` went; drop its
        # record once no deployment or history entry uses the digest
        live = {d.digest for d in self._deployments.values()}
        for entries in self._history.values():
            live.update(d.digest for d in entries)
        if digest not in live:
            self._versions.pop(digest, None)

    # ------------------------------------------------------------------
    # Canary comparison
    # ------------------------------------------------------------------
    def _run_canary(
        self, live: Deployment, candidate: Deployment
    ) -> CompiledModel:
        """Shadow-score a sample through both versions; refuse on drift.
        Returns the candidate's kernel, for its record on promotion."""
        live_kernel = self._kernel_for(live)
        candidate_kernel = self._kernel_for(candidate)
        num_rows = self.db.table(self.fact).num_rows()  # type: ignore[attr-defined]
        sample = np.arange(min(num_rows, CANARY_SAMPLE_ROWS))
        live_scores = self._score_rows(live_kernel, sample)
        new_scores = self._score_rows(candidate_kernel, sample)
        if not np.array_equal(live_scores, new_scores):
            diverging = int(np.sum(live_scores != new_scores))
            raise CanaryParityError(
                f"canary refused for {candidate.name!r}: candidate "
                f"{candidate.digest[:12]} diverges from live "
                f"{live.digest[:12]} on {diverging} of {live_scores.size} "
                f"sampled rows (pass force=True to promote anyway)",
                live_digest=live.digest,
                candidate_digest=candidate.digest,
                diverging_rows=diverging,
            )
        return candidate_kernel

    # ------------------------------------------------------------------
    # Compiled-kernel access
    # ------------------------------------------------------------------
    def compiled(self, name: str = "default") -> CompiledModel:
        """The warm compiled kernel for ``name`` (compiling on miss)."""
        return self._kernel_for(self._deployment(name))

    def _kernel_for(self, deployment: Deployment) -> CompiledModel:
        """The digest's kernel, compiled on first use and kept in its
        record (a version no longer referenced compiles uncached)."""
        with self._registry_lock:
            version = self._versions.get(deployment.digest)
            if version is not None and version.kernel is not None:
                self._census["hits"] += 1
                return version.kernel
            self._census["misses"] += 1
        kernel = compile_model(deployment.model)
        with self._registry_lock:
            version = self._versions.get(deployment.digest)
            if version is not None and version.kernel is None:
                version.kernel = kernel
        return kernel

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

    def score_all(self, name: str = "default") -> np.ndarray:
        """Score every fact row with the compiled kernel
        (:meth:`_score_rows`)."""
        return self._score_rows(self.compiled(name))

    def _score_rows(
        self, scorer: Any, rows: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """The scores of fact rows ``rows`` (every fact row by default)
        under ``scorer`` — a compiled kernel or a model (the gateway's
        recursive rungs).  The feature frame is built once (narrow N-to-1
        joins only) and scored in serial :data:`SCORE_CHUNK_ROWS`-row
        chunks; rows are independent, so the chunking never changes a
        bit."""
        frame = feature_frame(
            self.db,
            self.graph,
            columns=list(scorer.required_features),
            fact=self.fact,
            include_target=False,
            rows=rows,
        )
        scores = np.empty(len(next(iter(frame.values()))))
        for lo in range(0, len(scores), SCORE_CHUNK_ROWS):
            hi = lo + SCORE_CHUNK_ROWS
            scores[lo:hi] = scorer.predict_arrays(
                {k: v[lo:hi] for k, v in frame.items()}
            )
        return scores

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
        the kernel scores them (:meth:`_score_rows`: their feature frame
        over the cached key encodings) until a rebuild pays off.
        Elsewhere the DBMS runs the semi-join
        (:func:`~repro.core.sql_score.score_by_key`), its own optimizer
        pushing the key predicate into the fact scan.
        """
        checked = check_key_request(self.db, self.fact, keys, extra_columns)
        return self._score_key(checked, name, extra_columns)

    # The methods below take keys ``check_key_request`` has already
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
            version = self._versions.get(deployment.digest)
            column = version.column if version is not None else None
            rows = key_rows(self.db, self.fact, keys)
            if column is not None and column.stamp == self._stamp():
                return self._key_relation(
                    keys, extra_columns, rows, column.scores[rows]
                )
            start = time.perf_counter()
            scores = self._score_rows(self._kernel_for(deployment), rows)
            self._note_stale(deployment, column, time.perf_counter() - start)
            return self._key_relation(keys, extra_columns, rows, scores)
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
        """Score every fact row with the kernel (:meth:`_score_rows`) and
        keep the scores in ``deployment``'s record under the current
        stamp (taken first, so a write racing the build reads stale)."""
        kernel = self._kernel_for(deployment)
        stamp = self._stamp()
        start = time.perf_counter()
        scores = self._score_rows(kernel)
        column = ScoreColumn(stamp, scores, time.perf_counter() - start)
        with self._registry_lock:
            version = self._versions.get(deployment.digest)
            if version is not None:
                version.column = column
                self._census["score_column_builds"] += 1

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
            self._census["score_column_stale_fallbacks"] += 1
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
        """Service census plus the deployment table (observability hook).

        ``hits`` / ``misses`` count kernel reuse vs compilation.  Also
        included: the per-name version history, the serving-fault counts
        (transient vs permanent backend failures seen by
        ``score_sql``/``score_key``), the key requests' score-column
        census (``score_column_builds``, ``score_column_stale_fallbacks``
        and the ``score_column_bytes`` held), and — when the bound connector
        carries fault-tolerance proxies (``connect(..., chaos=...,
        retry=...)``) — their retry and chaos-injection counters, so a
        serving dashboard sees fault pressure without reaching into
        backend internals.
        """
        with self._registry_lock:
            out: Dict[str, object] = dict(self._census)
            out["deployments"] = {
                name: d.digest for name, d in self._deployments.items()
            }
            out["history"] = {
                name: [d.digest for d in entries]
                for name, entries in self._history.items()
                if entries
            }
            out["serving_faults"] = dict(self._serving_faults)
            out["score_column_bytes"] = sum(
                v.column.scores.nbytes
                for v in self._versions.values()
                if v.column is not None
            )
        retry_census = getattr(self.db, "retry_census", None)
        if retry_census is not None:
            out["retry"] = retry_census.snapshot()
        chaos_census = getattr(self.db, "chaos_census", None)
        if chaos_census is not None:
            out["chaos"] = chaos_census.snapshot()
        return out
