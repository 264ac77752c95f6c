"""Bounded, deterministic retry of transient backend failures.

JoinBoost treats the DBMS as an unreliable dependency: a training run
pushes thousands of statements through a live backend, and any one of
them can hit a transient fault — sqlite ``database is locked``, a duckdb
IO hiccup, a dropped reader cursor.  Connectors translate those raw
driver errors into :class:`~repro.exceptions.TransientBackendError`
(see the taxonomy in :mod:`repro.exceptions`); this module is the layer
that retries them.

The policy is deliberately boring and deterministic: a bounded attempt
count, a fixed exponential backoff schedule (no jitter — reproducible
runs beat thundering-herd theory at this scale), and a per-query delay
budget so one stuck statement cannot stall a round for minutes.  One
call site consumes it: :class:`~repro.backends.chaos.RetryConnector`
wraps a connector's ``execute``/``execute_read``, so every statement is
retried where it runs — on the serial path, on the task runner's worker
threads and on a shard of
:class:`~repro.distributed.cluster.SimulatedCluster` whose connector
the caller wrapped alike.  Nothing retries a task or a shard step (a
second loop around the connector's would multiply the attempts per
statement).

On exhaustion the *final* attempt's exception is raised with the total
attempt count attached as ``exc.attempts`` — callers report what
actually failed last, not the first flake.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Callable, Dict, Optional, TypeVar

from repro.exceptions import TransientBackendError

T = TypeVar("T")


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Bounded attempts with a deterministic exponential backoff.

    ``delay(k)`` for retry ``k`` (1-based) is
    ``min(base_delay * multiplier**(k-1), max_delay)`` — no jitter, so
    two identical runs retry on an identical schedule.
    ``budget_seconds`` caps the *total* backoff sleep spent on one
    query; when the next delay would blow the budget, retrying stops
    even if attempts remain.
    """

    max_attempts: int = 3
    base_delay: float = 0.005
    multiplier: float = 2.0
    max_delay: float = 0.25
    budget_seconds: float = 2.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")

    def delay(self, retry_number: int) -> float:
        """Backoff before retry ``retry_number`` (1-based)."""
        return min(
            self.base_delay * self.multiplier ** (retry_number - 1),
            self.max_delay,
        )

    def schedule(self) -> list:
        """The full deterministic delay schedule (for docs and tests)."""
        return [self.delay(k) for k in range(1, self.max_attempts)]


#: the default policy training uses when retry is enabled without an
#: explicit policy (``connect(..., chaos=...)`` / ``retry=True``)
DEFAULT_RETRY_POLICY = RetryPolicy()


class RetryCensus:
    """Thread-safe retry accounting, surfaced in ``frontier_census``."""

    def __init__(self):
        self._lock = threading.Lock()
        self.retries = 0
        self.exhausted = 0
        self.succeeded_after_retry = 0

    def record_retry(self) -> None:
        """One transient failure is about to be retried."""
        with self._lock:
            self.retries += 1

    def record_exhausted(self) -> None:
        """A query failed on its final permitted attempt."""
        with self._lock:
            self.exhausted += 1

    def record_recovery(self) -> None:
        """A query succeeded after at least one retry."""
        with self._lock:
            self.succeeded_after_retry += 1

    def snapshot(self) -> Dict[str, int]:
        """Point-in-time copy of every counter."""
        with self._lock:
            return {
                "retries": self.retries,
                "exhausted": self.exhausted,
                "succeeded_after_retry": self.succeeded_after_retry,
            }


def call_with_retry(
    fn: Callable[[], T],
    policy: RetryPolicy,
    census: Optional[RetryCensus] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> T:
    """Run ``fn``, retrying :class:`TransientBackendError` per ``policy``.

    Non-transient exceptions propagate immediately with ``attempts=1``
    semantics (no retry).  On exhaustion — attempts or delay budget —
    the final attempt's exception is raised with ``exc.attempts`` set
    to the number of attempts actually made, so the error a training run
    surfaces reports what failed *last*.
    """
    slept = 0.0
    attempt = 0
    while True:
        attempt += 1
        try:
            result = fn()
        except TransientBackendError as exc:
            next_delay = policy.delay(attempt)
            out_of_attempts = attempt >= policy.max_attempts
            out_of_budget = slept + next_delay > policy.budget_seconds
            if out_of_attempts or out_of_budget:
                if census is not None:
                    census.record_exhausted()
                exc.attempts = attempt
                raise
            if census is not None:
                census.record_retry()
            if next_delay > 0:
                sleep(next_delay)
                slept += next_delay
            continue
        if attempt > 1 and census is not None:
            census.record_recovery()
        return result
