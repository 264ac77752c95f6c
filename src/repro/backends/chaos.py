"""Fault injection and transient-retry proxies over any Connector.

Production in-DB training treats the DBMS as an unreliable dependency;
this module is the test/bench substrate that makes that stance checkable.
:class:`ChaosConnector` wraps any backend and injects *deterministic*
faults from a :class:`FaultPlan` — fail the Nth statement matching a
query-tag pattern, add latency, flake a reader cursor — while
:class:`RetryConnector` wraps any backend (usually a chaos-wrapped one)
and retries :class:`~repro.exceptions.TransientBackendError` per the
engine's :class:`~repro.engine.retry.RetryPolicy` — the one statement
retry site, whether the statement runs on the serial path or on a
:func:`~repro.engine.scheduler.run_tasks` worker thread.

Determinism is the load-bearing property: a fault plan counts matching
calls under a lock and fires on exact match ordinals, never randomly, so
a chaos run is reproducible and its trained model digest can be compared
bit-for-bit against the fault-free run.  Faults fire *before* the inner
statement executes — the engine never sees the statement, so no partial
side effects exist and retrying even a non-idempotent UPDATE is safe.

Selectable end to end::

    db = joinboost.connect(backend="sqlite", chaos="tag=message:nth=3")

or via the ``JOINBOOST_CHAOS`` environment variable with the same spec
syntax (rules separated by ``;``, fields by ``:``)::

    JOINBOOST_CHAOS="tag=message:nth=3:times=2:kind=transient"
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Dict, List, Optional

from repro.backends.base import Connector
from repro.engine.retry import (
    DEFAULT_RETRY_POLICY,
    RetryCensus,
    RetryPolicy,
    call_with_retry,
)
from repro.exceptions import (
    BackendError,
    BackendExecutionError,
    ChaosSpecError,
    TransientBackendError,
)

#: the fault kinds a :class:`FaultRule` can inject
FAULT_KINDS = ("transient", "permanent", "latency", "cursor")

#: census tags the serving layer stamps on its backend statements
#: (``score_sql`` → ``serve_sql``, ``score_key`` → ``serve_key``).  A
#: fault plan targeting serving traffic matches them directly —
#: ``"tag=serve_sql:nth=1:kind=transient"`` — or all serving statements
#: at once with the shared prefix: ``"tag=serve_:nth=2:times=1"``.
#: Training statements never carry these tags, so a serving-scoped plan
#: leaves model fitting untouched.
SERVE_FAULT_TAGS = ("serve_sql", "serve_key")


@dataclasses.dataclass(frozen=True)
class FaultRule:
    """One deterministic fault: fire on the Nth call matching a pattern.

    ``match`` is a case-insensitive substring tested against the query's
    census tag first and its SQL text second (empty string matches every
    call).  The rule fires on matching calls ``nth .. nth+times-1``
    (1-based).  Kinds:

    * ``transient`` — raise :class:`TransientBackendError` (retryable);
    * ``permanent`` — raise :class:`BackendExecutionError` (no retry);
    * ``latency``  — sleep ``delay`` seconds, then run the statement;
    * ``cursor``   — flake the pooled reader path: transient failure
      injected only on ``execute_read`` calls.
    """

    match: str = ""
    nth: int = 1
    times: int = 1
    kind: str = "transient"
    delay: float = 0.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise BackendError(
                f"unknown chaos fault kind {self.kind!r}; "
                f"expected one of {FAULT_KINDS}"
            )
        if self.nth < 1 or self.times < 1:
            raise BackendError("chaos rule nth/times must be >= 1")

    def matches(self, tag: Optional[str], sql: str) -> bool:
        """Whether this rule's pattern matches a (tag, sql) call."""
        if not self.match:
            return True
        needle = self.match.lower()
        if tag and needle in tag.lower():
            return True
        return needle in sql.lower()


class FaultPlan:
    """An ordered set of :class:`FaultRule`\\ s with call counters.

    Thread-safe: match counters advance under a lock, so the plan stays
    deterministic under the task runner's worker pool (each matching call
    gets a unique ordinal; which *thread* observes the fault may vary,
    but the set of faulted statements never does).
    """

    def __init__(self, rules: List[FaultRule]):
        self.rules = list(rules)
        self._counts = [0] * len(self.rules)
        self._lock = threading.Lock()

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a ``JOINBOOST_CHAOS`` spec string into a plan.

        Rules are separated by ``;``, fields inside a rule by ``:``.
        Each field is ``key=value`` with keys ``tag``/``match`` (alias),
        ``nth``, ``times``, ``kind``, ``delay``; a bare first field is
        shorthand for the match pattern::

            "tag=message:nth=3;tag=frontier:nth=1:kind=latency:delay=0.01"

        Every malformed rule — a bad field, an unknown key, a
        non-integer ``nth``/``times``, an unknown fault kind — raises
        :class:`~repro.exceptions.ChaosSpecError` (a ``ValueError``)
        naming the offending rule chunk, so a typo in ``JOINBOOST_CHAOS``
        fails loudly instead of silently training without faults.
        """
        rules: List[FaultRule] = []
        for chunk in spec.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            fields: Dict[str, str] = {}
            for i, part in enumerate(chunk.split(":")):
                part = part.strip()
                if not part:
                    continue
                if "=" not in part:
                    if i == 0:
                        fields["match"] = part
                        continue
                    raise ChaosSpecError(
                        f"bad chaos spec field {part!r} in rule {chunk!r}"
                    )
                key, _, value = part.partition("=")
                fields[key.strip().lower()] = value.strip()
            if "tag" in fields:
                fields["match"] = fields.pop("tag")
            unknown = set(fields) - {"match", "nth", "times", "kind", "delay"}
            if unknown:
                raise ChaosSpecError(
                    f"unknown chaos spec key(s) {sorted(unknown)} in rule "
                    f"{chunk!r}; expected tag/match, nth, times, kind, delay"
                )
            try:
                rules.append(FaultRule(
                    match=fields.get("match", ""),
                    nth=int(fields.get("nth", "1")),
                    times=int(fields.get("times", "1")),
                    kind=fields.get("kind", "transient"),
                    delay=float(fields.get("delay", "0")),
                ))
            except (BackendError, ValueError) as exc:
                # FaultRule's own validation (unknown kind, nth/times < 1)
                # and int()/float() conversion failures all name the rule.
                raise ChaosSpecError(
                    f"bad chaos spec rule {chunk!r}: {exc}"
                ) from exc
        if not rules:
            raise ChaosSpecError(f"chaos spec {spec!r} contains no rules")
        return cls(rules)

    def next_fault(
        self, tag: Optional[str], sql: str, read: bool
    ) -> Optional[FaultRule]:
        """Advance counters for one call; return the rule to fire, if any.

        Every matching rule's counter advances (so overlapping rules keep
        independent ordinals); the first rule whose fire window covers
        this ordinal wins.  ``cursor`` rules only consider read calls.
        """
        fired: Optional[FaultRule] = None
        with self._lock:
            for i, rule in enumerate(self.rules):
                if rule.kind == "cursor" and not read:
                    continue
                if not rule.matches(tag, sql):
                    continue
                self._counts[i] += 1
                ordinal = self._counts[i]
                if fired is None and rule.nth <= ordinal < rule.nth + rule.times:
                    fired = rule
        return fired


class ChaosCensus:
    """Thread-safe record of every injected fault."""

    def __init__(self):
        self._lock = threading.Lock()
        self.injected: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        self.events: List[Dict[str, object]] = []

    def record(self, rule: FaultRule, tag: Optional[str], sql: str) -> None:
        """Count one injected fault and keep a bounded event trail."""
        with self._lock:
            self.injected[rule.kind] += 1
            if len(self.events) < 256:
                self.events.append({
                    "kind": rule.kind,
                    "match": rule.match,
                    "tag": tag,
                    "sql": sql[:120],
                })

    @property
    def total(self) -> int:
        """Total faults injected across all kinds."""
        with self._lock:
            return sum(self.injected.values())

    def snapshot(self) -> Dict[str, int]:
        """Copy of the per-kind injection counts plus the total."""
        with self._lock:
            return {**self.injected, "total": sum(self.injected.values())}


class _ConnectorProxy(Connector):
    """Shared delegation base for connector-wrapping proxies.

    ``dialect`` and ``capabilities`` are *class* attributes on
    :class:`Connector`, so ``__getattr__`` never fires for them — they
    are copied onto the instance here, and ``profiles`` is a property.
    """

    def __init__(self, inner: Connector):
        self._inner = inner
        self.dialect = inner.dialect
        self.capabilities = inner.capabilities
        self.name = getattr(inner, "name", "repro")

    @property
    def unwrapped(self) -> Connector:
        """The innermost (non-proxy) connector behind this stack."""
        return self._inner.unwrapped

    # -- protocol forwards ---------------------------------------------
    def execute(self, sql, tag=None):
        """Delegate to the wrapped connector's owner-handle execute."""
        return self._inner.execute(sql, tag=tag)

    def execute_read(self, sql, tag=None):
        """Delegate to the wrapped connector's pooled read path."""
        return self._inner.execute_read(sql, tag=tag)

    def create_table(self, name, data, config=None, replace=False):
        """Forward table creation to the wrapped connector."""
        return self._inner.create_table(
            name, data, config=config, replace=replace
        )

    def drop_table(self, name, if_exists=False):
        """Forward table drop to the wrapped connector."""
        self._inner.drop_table(name, if_exists=if_exists)

    def rename_table(self, old, new):
        """Forward table rename to the wrapped connector."""
        self._inner.rename_table(old, new)

    def table(self, name):
        """Forward read-view lookup to the wrapped connector."""
        return self._inner.table(name)

    def has_table(self, name):
        """Forward catalog membership test to the wrapped connector."""
        return self._inner.has_table(name)

    def table_names(self):
        """Forward catalog listing to the wrapped connector."""
        return self._inner.table_names()

    def temp_name(self, hint="t"):
        """Forward temp-name minting to the wrapped connector."""
        return self._inner.temp_name(hint)

    def cleanup_temp(self, keep=None):
        """Forward temp cleanup to the wrapped connector."""
        return self._inner.cleanup_temp(keep=keep)

    def replace_column(self, table_name, column_name, values, strategy="swap"):
        """Forward column replacement to the wrapped connector."""
        self._inner.replace_column(table_name, column_name, values, strategy)

    def prepare_training(self, graph, lifted=None):
        """Forward training setup to the wrapped connector."""
        return self._inner.prepare_training(graph, lifted=lifted)

    @property
    def profiles(self):
        """The wrapped connector's query profiles."""
        return self._inner.profiles

    def reset_profiles(self):
        """Clear the wrapped connector's query profiles."""
        self._inner.reset_profiles()

    def profiles_by_tag(self):
        """Group the wrapped connector's profiles by census tag."""
        return self._inner.profiles_by_tag()

    def close(self):
        """Close the wrapped connector (idempotent)."""
        self._inner.close()

    # -- engine-specific passthrough ------------------------------------
    def __getattr__(self, item):
        return getattr(self._inner, item)


class ChaosConnector(_ConnectorProxy):
    """Inject deterministic faults into a wrapped connector.

    Faults fire *before* the wrapped call runs, so a faulted statement
    has no partial side effects and retrying it is always safe — which
    is what keeps chaos-run model digests bit-identical to fault-free
    runs once the retry layer absorbs the failures.
    """

    def __init__(self, inner: Connector, plan: FaultPlan):
        super().__init__(inner)
        self.plan = plan
        self.chaos_census = ChaosCensus()

    def _maybe_inject(self, sql: str, tag: Optional[str], read: bool) -> None:
        rule = self.plan.next_fault(tag, sql, read)
        if rule is None:
            return
        self.chaos_census.record(rule, tag, sql)
        if rule.kind == "latency":
            time.sleep(rule.delay)
            return
        where = "reader cursor" if rule.kind == "cursor" else "statement"
        message = (
            f"chaos: injected {rule.kind} fault on {where} "
            f"(tag={tag!r}, rule match={rule.match!r}, nth={rule.nth})"
        )
        if rule.kind == "permanent":
            raise BackendExecutionError(message)
        raise TransientBackendError(message)

    def execute(self, sql, tag=None):
        """Run a statement, possibly injecting a fault first."""
        self._maybe_inject(sql, tag, read=False)
        return self._inner.execute(sql, tag=tag)

    def execute_read(self, sql, tag=None):
        """Run a read query, possibly flaking the cursor first."""
        self._maybe_inject(sql, tag, read=True)
        return self._inner.execute_read(sql, tag=tag)

    def __repr__(self):
        return f"ChaosConnector({self._inner!r}, rules={len(self.plan.rules)})"


class RetryConnector(_ConnectorProxy):
    """Retry transient failures of a wrapped connector's statements.

    The owner of statement retries in this process: every
    ``execute``/``execute_read`` call gets bounded, deterministic
    retries, whichever thread issues it.  The policy and census are
    exposed as ``retry_policy``/``retry_census``; the frontier census
    reports the latter.
    """

    def __init__(
        self,
        inner: Connector,
        policy: RetryPolicy = DEFAULT_RETRY_POLICY,
        census: Optional[RetryCensus] = None,
    ):
        super().__init__(inner)
        self.retry_policy = policy
        self.retry_census = census if census is not None else RetryCensus()

    def execute(self, sql, tag=None):
        """Run a statement with transient-retry protection."""
        return call_with_retry(
            lambda: self._inner.execute(sql, tag=tag),
            self.retry_policy,
            self.retry_census,
        )

    def execute_read(self, sql, tag=None):
        """Run a read query with transient-retry protection."""
        return call_with_retry(
            lambda: self._inner.execute_read(sql, tag=tag),
            self.retry_policy,
            self.retry_census,
        )

    def __repr__(self):
        return f"RetryConnector({self._inner!r}, {self.retry_policy!r})"


def wrap_with_chaos(
    inner: Connector, chaos: "FaultPlan | str | None"
) -> Connector:
    """Wrap ``inner`` in a :class:`ChaosConnector` if a plan is given.

    ``chaos`` may be a :class:`FaultPlan`, a spec string (the
    ``JOINBOOST_CHAOS`` syntax), or ``None`` (returns ``inner``).
    """
    if chaos is None:
        return inner
    plan = chaos if isinstance(chaos, FaultPlan) else FaultPlan.from_spec(chaos)
    return ChaosConnector(inner, plan)
