"""Resilient serving gateway over :class:`PredictionService`.

The prediction service (PR 6) gives three bit-identical scoring paths;
this module (PR 10) gives them the robustness contract training got in
PRs 8–9.  :class:`ServingGateway` fronts a service with:

* **Deadline budgets** — every request gets a wall-clock budget
  (``JOINBOOST_SERVE_DEADLINE`` or per-request ``deadline=``) checked at
  admission and before every degradation step, so a request can neither
  sit in the queue nor walk the fallback ladder forever
  (:class:`~repro.exceptions.DeadlineExceededError`).
* **Bounded admission** — at most ``max_in_flight`` requests score
  concurrently and at most ``max_queue_depth`` wait; a request past the
  bound is *shed* immediately with
  :class:`~repro.exceptions.ServiceOverloadedError` carrying the
  queue-depth census.  Shedding, never unbounded latency.
* **Per-path circuit breakers** (:mod:`repro.serve.breaker`) — a backend
  that keeps failing ``score_sql`` trips the ``sql`` breaker open and
  traffic stops hammering it; after the recovery window a bounded probe
  half-opens it, and recovery closes it.  The clock is injectable, so
  tests drive transitions deterministically.
* **Graceful degradation** — backend scoring failures fall down a
  ladder: ``sql``/``key`` → the compiled numpy kernel over a frame
  built from direct column reads (which executes *no* SQL, so
  statement faults cannot touch it; a ``key`` request gathers only its
  matching rows) → the recursive reference scorer.  All three paths
  are bit-identical by construction (PR 6's parity tests), so a
  degraded response is the *same bits* with a different cost profile —
  and every degradation is stamped in the response census
  (``served_by``, ``degraded_reason``).

The gateway also re-exports the service's safe-deploy surface
(:meth:`deploy` with ``canary=``, :meth:`rollback`) so a serving
process needs exactly one object.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.predict import check_key_request, key_rows
from repro.engine.result import Relation
from repro.exceptions import (
    CircuitOpenError,
    DeadlineExceededError,
    ServiceOverloadedError,
    ServingError,
    TrainingError,
)
from repro.serve.breaker import (
    DEFAULT_BREAKER_POLICY,
    BreakerPolicy,
    CircuitBreaker,
)
from repro.serve.service import PredictionService

#: environment variable naming the default per-request deadline (seconds)
DEADLINE_ENV = "JOINBOOST_SERVE_DEADLINE"

#: deadline used when neither the env var nor the caller provides one
DEFAULT_DEADLINE_SECONDS = 2.0

#: the scoring paths, in degradation-ladder order per request kind
PATH_SQL = "sql"
PATH_KEY = "key"
PATH_COMPILED = "compiled"
PATH_RECURSIVE = "recursive"

#: one rung of a degradation ladder: the path's name and its scorer
Rung = Tuple[str, Callable[[], object]]

#: errors the ladder never swallows: they are verdicts about the
#: *request* (shed, out of time, misconfigured), not about path health
_PROPAGATE = (ServiceOverloadedError, DeadlineExceededError, TrainingError)


def _env_deadline() -> float:
    raw = os.environ.get(DEADLINE_ENV)
    if raw is None or not raw.strip():
        return DEFAULT_DEADLINE_SECONDS
    try:
        value = float(raw)
    except ValueError:
        raise ServingError(
            f"malformed {DEADLINE_ENV}={raw!r}: expected seconds as a float"
        ) from None
    if value <= 0:
        raise ServingError(f"{DEADLINE_ENV} must be > 0, got {value!r}")
    return value


@dataclasses.dataclass
class GatewayResponse:
    """One served request plus its census.

    ``served_by`` names the path that produced the scores;
    ``degraded_reason`` is ``None`` when the primary path served, else a
    ``path:ErrorType`` trail of every step that failed before one
    succeeded.  ``scores`` is always the fact-aligned (or key-matched)
    float64 array; ``relation`` additionally carries the key columns,
    extra columns and ``jb_score`` of a ``key`` request, whichever rung
    served it.
    """

    scores: np.ndarray
    served_by: str
    degraded_reason: Optional[str]
    request: str
    name: str
    digest: str
    elapsed_seconds: float
    deadline_seconds: float
    relation: object = None

    @property
    def degraded(self) -> bool:
        """Whether a rung below the primary path served the request."""
        return self.degraded_reason is not None


class ServingGateway:
    """Admission control, deadlines, breakers, and degradation in front
    of a :class:`PredictionService`.

    One gateway serves many threads; all mutable state is behind one
    condition variable (admission) and the breakers' own locks.  The
    ``clock`` is injectable and shared with the breakers so tests can
    advance open → half-open without sleeping.
    """

    def __init__(
        self,
        service: PredictionService,
        max_in_flight: int = 8,
        max_queue_depth: int = 16,
        deadline_seconds: Optional[float] = None,
        breaker_policy: BreakerPolicy = DEFAULT_BREAKER_POLICY,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if max_queue_depth < 0:
            raise ValueError("max_queue_depth must be >= 0")
        self.service = service
        self.max_in_flight = int(max_in_flight)
        self.max_queue_depth = int(max_queue_depth)
        self.deadline_seconds = (
            float(deadline_seconds)
            if deadline_seconds is not None
            else _env_deadline()
        )
        if self.deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be > 0")
        self._clock = clock
        self._admission = threading.Condition()
        self._in_flight = 0
        self._queued = 0
        self._breakers: Dict[str, CircuitBreaker] = {
            path: CircuitBreaker(path=path, policy=breaker_policy, clock=clock)
            for path in (PATH_SQL, PATH_KEY, PATH_COMPILED, PATH_RECURSIVE)
        }
        self.requests = 0
        self.served = 0
        self.shed = 0
        self.degraded = 0
        self.deadline_exceeded = 0
        self.failures = 0

    # ------------------------------------------------------------------
    # Deploy surface (delegated so one object runs a serving process)
    # ------------------------------------------------------------------
    def deploy(
        self,
        model: object,
        name: str = "default",
        canary: bool = False,
        force: bool = False,
    ) -> str:
        """Deploy through the service (see
        :meth:`PredictionService.deploy` for the canary contract)."""
        return self.service.deploy(model, name=name, canary=canary, force=force)

    def rollback(self, name: str = "default") -> str:
        """Restore the previous version of ``name`` (O(1), kernel warm)."""
        return self.service.rollback(name)

    def breaker(self, path: str) -> CircuitBreaker:
        """The circuit breaker guarding ``path`` (test/ops hook)."""
        return self._breakers[path]

    # ------------------------------------------------------------------
    # Request entry points
    # ------------------------------------------------------------------
    def score_sql(
        self,
        name: str = "default",
        deadline: Optional[float] = None,
        degrade: bool = True,
    ) -> GatewayResponse:
        """Score every fact row, preferring the in-database SQL path.

        Ladder: ``sql`` → ``compiled`` → ``recursive``.  With
        ``degrade=False`` the first path failure (or an open breaker)
        raises instead of falling through.
        """
        service = self.service
        ladder = [
            (PATH_SQL, lambda: np.asarray(service.score_sql(name))),
            (PATH_COMPILED, lambda: service.score_all(name)),
            (
                PATH_RECURSIVE,
                lambda: service._score_rows(service.deployment(name).model),
            ),
        ]
        return self._request("sql", name, lambda: ladder, deadline, degrade)

    def score_key(
        self,
        keys: Mapping[str, object],
        name: str = "default",
        deadline: Optional[float] = None,
        degrade: bool = True,
        extra_columns: Sequence[str] = (),
    ) -> GatewayResponse:
        """Score the fact rows matching ``keys`` ("score user id X").

        Ladder: ``key`` (the service's key path: a gather on the
        embedded engine, the backend semi-join elsewhere) → ``compiled``
        → ``recursive``.  Both degraded rungs gather only the matching
        rows' features through direct column reads and execute no SQL,
        so they survive any statement fault plan at O(matching rows).
        The request is validated once, before admission (a refusal
        counts as a failed request), and every rung returns the same
        Relation: key columns, ``extra_columns``, ``jb_score``.
        """
        service = self.service

        def ladder() -> List[Rung]:
            checked = check_key_request(
                service.db, service.fact, keys, extra_columns
            )
            extra = extra_columns

            def gathered(scorer: Any) -> Relation:
                rows = key_rows(service.db, service.fact, checked)
                scores = service._score_rows(scorer, rows)
                return service._key_relation(checked, extra, rows, scores)

            return [
                (PATH_KEY, lambda: service._score_key(checked, name, extra)),
                (PATH_COMPILED, lambda: gathered(service.compiled(name))),
                (PATH_RECURSIVE, lambda: gathered(service.deployment(name).model)),
            ]

        return self._request("key", name, ladder, deadline, degrade)

    def score_compiled(
        self,
        name: str = "default",
        deadline: Optional[float] = None,
        degrade: bool = True,
    ) -> GatewayResponse:
        """Score every fact row with the compiled kernel.

        Ladder: ``compiled`` → ``recursive``.
        """
        service = self.service
        ladder = [
            (PATH_COMPILED, lambda: service.score_all(name)),
            (
                PATH_RECURSIVE,
                lambda: service._score_rows(service.deployment(name).model),
            ),
        ]
        return self._request(
            "compiled", name, lambda: ladder, deadline, degrade
        )

    # ------------------------------------------------------------------
    # The request pipeline: admit → ladder → census
    # ------------------------------------------------------------------
    def _request(
        self,
        request: str,
        name: str,
        ladder: Callable[[], Sequence[Rung]],
        deadline: Optional[float],
        degrade: bool,
    ) -> GatewayResponse:
        budget = float(deadline) if deadline is not None else self.deadline_seconds
        if budget <= 0:
            raise ValueError("deadline must be > 0")
        start = self._clock()
        deadline_at = start + budget
        with self._admission:
            self.requests += 1
        try:
            # refusals before admission: nothing deployed, a bad request
            digest = self.service.version(name)
            rungs = ladder()
        except TrainingError:
            with self._admission:
                self.failures += 1
            raise
        self._admit(deadline_at, budget)
        try:
            return self._walk_ladder(
                request, name, digest, rungs, start, deadline_at, budget, degrade
            )
        finally:
            with self._admission:
                self._in_flight -= 1
                self._admission.notify()

    def _admit(self, deadline_at: float, budget: float) -> None:
        with self._admission:
            if self._in_flight < self.max_in_flight:
                self._in_flight += 1
                return
            if self._queued >= self.max_queue_depth:
                self.shed += 1
                raise ServiceOverloadedError(
                    f"shedding: {self._in_flight} in flight and "
                    f"{self._queued} queued (bound {self.max_queue_depth})",
                    queued=self._queued,
                    max_queue_depth=self.max_queue_depth,
                    in_flight=self._in_flight,
                )
            self._queued += 1
            try:
                while self._in_flight >= self.max_in_flight:
                    remaining = deadline_at - self._clock()
                    if remaining <= 0:
                        self.deadline_exceeded += 1
                        raise DeadlineExceededError(
                            f"deadline ({budget:.3f}s) expired while queued",
                            deadline_seconds=budget,
                            elapsed_seconds=budget - remaining,
                        )
                    # bounded wait so an injected fake clock cannot park
                    # a real thread forever
                    self._admission.wait(timeout=min(remaining, 0.05))
            finally:
                self._queued -= 1
            self._in_flight += 1

    def _walk_ladder(
        self,
        request: str,
        name: str,
        digest: str,
        ladder: Sequence[Rung],
        start: float,
        deadline_at: float,
        budget: float,
        degrade: bool,
    ) -> GatewayResponse:
        reasons: List[str] = []
        last_error: Optional[BaseException] = None
        for path, step in ladder:
            elapsed = self._clock() - start
            if self._clock() >= deadline_at:
                with self._admission:
                    self.deadline_exceeded += 1
                raise DeadlineExceededError(
                    f"deadline ({budget:.3f}s) expired before path "
                    f"{path!r} could run",
                    deadline_seconds=budget,
                    elapsed_seconds=elapsed,
                )
            breaker = self._breakers[path]
            if not breaker.allow():
                error: ServingError = CircuitOpenError(
                    f"breaker for path {path!r} is {breaker.state}"
                )
                if not degrade:
                    with self._admission:
                        self.failures += 1
                    raise error
                reasons.append(f"{path}:circuit_open")
                last_error = error
                continue
            try:
                result = step()
            except _PROPAGATE:
                # verdict about the request, not the path: release the
                # (possible) half-open probe without a health signal
                breaker.record_success()
                with self._admission:
                    self.failures += 1
                raise
            except Exception as exc:
                breaker.record_failure()
                if not degrade:
                    with self._admission:
                        self.failures += 1
                    raise
                reasons.append(f"{path}:{type(exc).__name__}")
                last_error = exc
                continue
            breaker.record_success()
            relation = None
            if isinstance(result, Relation):
                relation = result
                scores = relation.column("jb_score").as_float()
            else:
                scores = result
            degraded_reason = "; ".join(reasons) if reasons else None
            with self._admission:
                self.served += 1
                if degraded_reason is not None:
                    self.degraded += 1
            return GatewayResponse(
                scores=np.asarray(scores),
                served_by=path,
                degraded_reason=degraded_reason,
                request=request,
                name=name,
                digest=digest,
                elapsed_seconds=self._clock() - start,
                deadline_seconds=budget,
                relation=relation,
            )
        with self._admission:
            self.failures += 1
        message = (
            f"every scoring path failed for request {request!r}: "
            f"{'; '.join(reasons) or 'no path admitted'}"
        )
        if isinstance(last_error, ServingError):
            raise type(last_error)(message) from last_error
        raise ServingError(message) from last_error

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Gateway census: admission counters, per-path breaker
        snapshots, and the underlying service's stats."""
        with self._admission:
            out: Dict[str, object] = {
                "requests": self.requests,
                "served": self.served,
                "shed": self.shed,
                "degraded": self.degraded,
                "deadline_exceeded": self.deadline_exceeded,
                "failures": self.failures,
                "in_flight": self._in_flight,
                "queued": self._queued,
                "max_in_flight": self.max_in_flight,
                "max_queue_depth": self.max_queue_depth,
                "deadline_seconds": self.deadline_seconds,
            }
        out["breakers"] = {
            path: breaker.snapshot() for path, breaker in self._breakers.items()
        }
        out["service"] = self.service.stats()
        return out

    def __repr__(self) -> str:
        return (
            f"ServingGateway(max_in_flight={self.max_in_flight}, "
            f"max_queue_depth={self.max_queue_depth}, "
            f"deadline={self.deadline_seconds})"
        )
