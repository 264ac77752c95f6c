"""Outside-in tracing for the bench spine.

The program under test has no span substrate yet (ROADMAP item 2), so the
benchmark records spans from its own side of each layer boundary: one
root span around every timed operation and, through
:class:`TimingConnector`, one child span around every call the training
and serving stacks make into the backend.  A layer's busy time is the
self time of its spans (duration minus the part child spans cover), so
the buckets of one operation sum to its wall by construction and
``core.client_s`` / ``serve.self_s`` are the explicit remainders.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from typing import Dict, Iterable, Iterator, List, Optional

from repro.backends.base import Connector

#: census tag -> per-layer bucket (see the table in README.md)
TAG_BUCKETS = {
    "lift": "factorize.lift",
    "index": "backends.index",
    "message": "backends.message",
    "materialize": "backends.message",
    "feature": "backends.split",
    "frontier": "backends.split",
    "totals": "backends.split",
    "stats": "backends.split",
    "frontier_root": "backends.label",
    "frontier_delta": "backends.label",
    "residual_update": "backends.residual_update",
    "update": "backends.residual_update",
    "serve_key": "backends.serve_key",
    "serve_sql": "backends.serve_sql",
}

#: connector methods that carry no tag but belong to a known bucket
METHOD_BUCKETS = {
    "replace_column": "backends.residual_update",
    "prepare_training": "backends.index",
}

#: root-span layer -> bucket its self time lands in
REMAINDER_BUCKETS = {"core": "core.client", "serve": "serve.self"}


class Tracer:
    """In-memory span store; spans nest per thread and share the
    ``request_id`` of the root span that caused them."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()

    @contextlib.contextmanager
    def span(
        self,
        name: str,
        layer: str,
        tag: Optional[str] = None,
        request_id: Optional[str] = None,
    ) -> Iterator[dict]:
        parent = getattr(self._local, "current", None)
        if request_id is None and parent is not None:
            request_id = parent["request_id"]
        record = {
            "id": next(self._ids),
            "name": name,
            "layer": layer,
            "tag": tag,
            "start": time.perf_counter(),
            "end": None,
            "parent": parent["id"] if parent is not None else None,
            "request_id": request_id,
        }
        self._local.current = record
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._local.current = parent
            self.spans.append(record)


def maybe_span(tracer: Optional[Tracer], name: str, layer: str, request_id: str):
    """A root span when tracing, a no-op context in the untraced pass."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name, layer, request_id=request_id)


def bucket_of(span: dict) -> str:
    """The per-layer bucket a span's self time is charged to."""
    if span["layer"] != "backends":
        return REMAINDER_BUCKETS[span["layer"]]
    if span["tag"] in TAG_BUCKETS:
        return TAG_BUCKETS[span["tag"]]
    return METHOD_BUCKETS.get(span["name"], "backends.other")


def layer_totals(spans: Iterable[dict], phases: Iterable[str]) -> Dict[str, List[float]]:
    """bucket -> [self seconds, span count] over the spans of ``phases``.

    A span belongs to a phase through its ``request_id`` (``"key:17"``
    is request 17 of phase ``key``); set-up and warm-up spans are left
    out so the buckets decompose the timed region only.
    """
    wanted = set(phases)
    kept = [
        s for s in spans
        if s["request_id"] is not None and s["request_id"].split(":")[0] in wanted
    ]
    child_seconds: Dict[int, float] = {}
    for s in kept:
        if s["parent"] is not None:
            child_seconds[s["parent"]] = (
                child_seconds.get(s["parent"], 0.0) + s["end"] - s["start"]
            )
    totals: Dict[str, List[float]] = {}
    for s in kept:
        entry = totals.setdefault(bucket_of(s), [0.0, 0])
        entry[0] += s["end"] - s["start"] - child_seconds.get(s["id"], 0.0)
        entry[1] += 1
    return totals


class TimingConnector(Connector):
    """Connector proxy that records one span per backend call.

    Written against the public protocol in ``docs/BACKENDS.md``: every
    protocol method is an explicit forward (``process_task_payload``,
    ``profiles`` and ``unwrapped`` would otherwise resolve to the
    ``Connector`` base-class defaults and silently change behaviour),
    and engine-specific attributes (``encodings``, ``db``, ...) pass
    through ``__getattr__``.  It changes no statement, result or order,
    so models and scores are bit-identical with and without it.
    """

    def __init__(self, inner: Connector, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.dialect = inner.dialect
        self.capabilities = inner.capabilities
        self.name = getattr(inner, "name", "repro")

    def _span(self, method: str, tag: Optional[str] = None):
        return self._tracer.span(method, "backends", tag=tag)

    # -- timed: statements and writes ------------------------------------
    def execute(self, sql, tag=None):
        with self._span("execute", tag):
            return self._inner.execute(sql, tag=tag)

    def execute_read(self, sql, tag=None):
        with self._span("execute_read", tag):
            return self._inner.execute_read(sql, tag=tag)

    def create_table(self, name, data, config=None, replace=False):
        with self._span("create_table"):
            return self._inner.create_table(
                name, data, config=config, replace=replace
            )

    def drop_table(self, name, if_exists=False):
        with self._span("drop_table"):
            self._inner.drop_table(name, if_exists=if_exists)

    def rename_table(self, old, new):
        with self._span("rename_table"):
            self._inner.rename_table(old, new)

    def cleanup_temp(self, keep=None):
        with self._span("cleanup_temp"):
            return self._inner.cleanup_temp(keep=keep)

    def replace_column(self, table_name, column_name, values, strategy="swap"):
        with self._span("replace_column"):
            self._inner.replace_column(table_name, column_name, values, strategy)

    def prepare_training(self, graph, lifted=None):
        with self._span("prepare_training"):
            return self._inner.prepare_training(graph, lifted=lifted)

    # -- untimed: catalog reads, naming, profiles, lifecycle -------------
    def table(self, name):
        return self._inner.table(name)

    def has_table(self, name):
        return self._inner.has_table(name)

    def table_names(self):
        return self._inner.table_names()

    def temp_name(self, hint="t"):
        return self._inner.temp_name(hint)

    def process_task_payload(self, sql, tag=None):
        return self._inner.process_task_payload(sql, tag=tag)

    @property
    def profiles(self):
        return self._inner.profiles

    def reset_profiles(self):
        self._inner.reset_profiles()

    def profiles_by_tag(self):
        return self._inner.profiles_by_tag()

    def close(self):
        self._inner.close()

    @property
    def unwrapped(self) -> Connector:
        return self._inner.unwrapped

    def __getattr__(self, item):
        return getattr(self._inner, item)

    def __repr__(self):
        return f"TimingConnector({self._inner!r})"
