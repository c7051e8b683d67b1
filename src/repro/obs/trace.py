"""Nested spans with wall-clock + CPU time.

A :class:`Tracer` records :class:`SpanRecord`\\ s as instrumented code runs.
Spans nest: entering a span pushes it on a per-thread stack, so each finished
record knows its parent's name and its own depth.  Aggregation over records
(:func:`aggregate_spans`) yields the per-stage breakdown manifests and the
profiling script report.

Every span also carries distributed-tracing identity: a ``trace_id`` shared
by every span of one end-to-end operation and a fresh ``span_id``, with
``parent_span_id`` linking the tree.  Within a thread the parent comes from
the span stack; a root span adopts the ambient
:class:`~repro.obs.context.TraceContext` (propagated from another thread or
process) or, absent one, starts a fresh trace.  ``repro-obs trace show``
rebuilds the tree from exported records by these ids.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.obs.context import current_context, new_span_id, new_trace_id

#: Hard cap on retained records; beyond it spans are counted but dropped.
DEFAULT_MAX_RECORDS = 100_000


@dataclass
class SpanRecord:
    """One finished span."""

    name: str
    started_at: float  # epoch seconds (wall clock at __enter__)
    wall_s: float
    cpu_s: float
    depth: int
    parent: str | None
    attrs: dict = field(default_factory=dict)
    trace_id: str | None = None
    span_id: str | None = None
    parent_span_id: str | None = None

    @classmethod
    def from_dict(cls, payload: dict) -> "SpanRecord":
        """Rebuild a record from its :meth:`to_dict` form (JSONL import)."""
        return cls(
            name=payload.get("name", "?"),
            started_at=float(payload.get("started_at", 0.0)),
            wall_s=float(payload.get("wall_s", 0.0)),
            cpu_s=float(payload.get("cpu_s", 0.0)),
            depth=int(payload.get("depth", 0)),
            parent=payload.get("parent"),
            attrs=dict(payload.get("attrs") or {}),
            trace_id=payload.get("trace_id"),
            span_id=payload.get("span_id"),
            parent_span_id=payload.get("parent_span_id"),
        )

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "started_at": self.started_at,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "depth": self.depth,
            "parent": self.parent,
        }
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        if self.span_id is not None:
            out["span_id"] = self.span_id
        if self.parent_span_id is not None:
            out["parent_span_id"] = self.parent_span_id
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out


class Span:
    """Context manager measuring one named region.

    After ``__exit__`` the measured ``wall_s``/``cpu_s`` are readable on the
    object, so callers (e.g. the benchmark runner) can print the same elapsed
    time the tracer recorded.
    """

    __slots__ = (
        "tracer", "name", "attrs", "started_at", "wall_s", "cpu_s",
        "_wall0", "_cpu0", "depth", "parent",
        "trace_id", "span_id", "parent_span_id",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.started_at = 0.0
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def __enter__(self) -> "Span":
        stack = self.tracer._stack()
        self.depth = len(stack)
        if stack:
            parent = stack[-1]
            self.parent = parent.name
            self.trace_id = parent.trace_id
            self.parent_span_id = parent.span_id
        else:
            self.parent = None
            ambient = current_context()
            if ambient is not None:
                # A remote parent (another thread/process) propagated here.
                self.trace_id = ambient.trace_id
                self.parent_span_id = ambient.span_id
            else:
                self.trace_id = new_trace_id()
                self.parent_span_id = None
        self.span_id = new_span_id()
        stack.append(self)
        self.started_at = time.time()
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.wall_s = time.perf_counter() - self._wall0
        self.cpu_s = time.process_time() - self._cpu0
        stack = self.tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # unbalanced exits; recover rather than corrupt
            stack.remove(self)
        if exc_type is not None:
            self.attrs = {**self.attrs, "error": exc_type.__name__}
        self.tracer._record(self)

    def set(self, **attrs) -> "Span":
        """Attach attributes discovered while the span is open."""
        self.attrs = {**self.attrs, **attrs}
        return self


class Tracer:
    """Collects span records; always-on (the no-op gate lives in the facade).

    ``on_drop`` (if set) is called with the number of records just dropped
    whenever the ring-buffer cap rejects a span — the facade wires it to a
    ``trace.dropped`` counter so truncated traces are *visible* instead of
    silently shorter.

    With ``keep_records`` off, spans still time their region and carry
    trace/span ids (so propagation and echoed trace ids are unchanged), but
    no record is retained — and none counts as dropped, since none was
    meant to be kept.
    """

    def __init__(
        self,
        max_records: int = DEFAULT_MAX_RECORDS,
        on_drop: Callable[[int], None] | None = None,
    ):
        self.max_records = max_records
        self.keep_records = True
        self.records: list[SpanRecord] = []
        self.dropped = 0
        self.on_drop = on_drop
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs) -> Span:
        return Span(self, name, attrs)

    def _record(self, span: Span) -> None:
        if not self.keep_records:
            return
        with self._lock:
            if len(self.records) >= self.max_records:
                self.dropped += 1
                on_drop = self.on_drop
            else:
                on_drop = None
                self.records.append(
                    SpanRecord(
                        name=span.name,
                        started_at=span.started_at,
                        wall_s=span.wall_s,
                        cpu_s=span.cpu_s,
                        depth=span.depth,
                        parent=span.parent,
                        attrs=span.attrs,
                        trace_id=span.trace_id,
                        span_id=span.span_id,
                        parent_span_id=span.parent_span_id,
                    )
                )
        if on_drop is not None:
            on_drop(1)

    def record_external(
        self,
        name: str,
        started_at: float,
        wall_s: float,
        cpu_s: float = 0.0,
        trace_id: str | None = None,
        parent_span_id: str | None = None,
        **attrs,
    ) -> SpanRecord | None:
        """Append a span that was *measured elsewhere* (e.g. queue wait
        reconstructed from a request's enqueue/start timestamps, where no
        code ran inside the interval).  Returns the record, or None if the
        cap dropped it (or records are not kept)."""
        if not self.keep_records:
            return None
        record = SpanRecord(
            name=name,
            started_at=started_at,
            wall_s=wall_s,
            cpu_s=cpu_s,
            depth=0,
            parent=None,
            attrs=attrs,
            trace_id=trace_id,
            span_id=new_span_id(),
            parent_span_id=parent_span_id,
        )
        with self._lock:
            if len(self.records) >= self.max_records:
                self.dropped += 1
                on_drop = self.on_drop
            else:
                on_drop = None
                self.records.append(record)
        if on_drop is not None:
            on_drop(1)
            return None
        return record

    def ingest(self, records: list[SpanRecord]) -> int:
        """Adopt records produced elsewhere (a worker process's piped-back
        spans), honoring the cap.  Returns the number actually kept."""
        if not self.keep_records:
            return 0
        kept = 0
        dropped = 0
        with self._lock:
            for record in records:
                if len(self.records) >= self.max_records:
                    self.dropped += 1
                    dropped += 1
                else:
                    self.records.append(record)
                    kept += 1
            on_drop = self.on_drop if dropped else None
        if on_drop is not None:
            on_drop(dropped)
        return kept

    def reset(self) -> None:
        with self._lock:
            self.records = []
            self.dropped = 0

    def __len__(self) -> int:
        return len(self.records)


class NoopSpan:
    """Shared do-nothing span returned when telemetry is disabled.

    Keeps ``wall_s``/``cpu_s`` attributes (always 0.0) so code written against
    :class:`Span` runs unchanged.
    """

    __slots__ = ()
    started_at = 0.0
    wall_s = 0.0
    cpu_s = 0.0

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set(self, **attrs) -> "NoopSpan":
        return self


NOOP_SPAN = NoopSpan()


def aggregate_spans(records: list[SpanRecord]) -> dict[str, dict]:
    """Per-name summary: count and wall/CPU totals, mean and max wall time."""
    out: dict[str, dict] = {}
    for record in records:
        entry = out.setdefault(
            record.name,
            {"count": 0, "wall_s": 0.0, "cpu_s": 0.0, "max_wall_s": 0.0},
        )
        entry["count"] += 1
        entry["wall_s"] += record.wall_s
        entry["cpu_s"] += record.cpu_s
        entry["max_wall_s"] = max(entry["max_wall_s"], record.wall_s)
    for entry in out.values():
        entry["mean_wall_s"] = entry["wall_s"] / entry["count"]
    return out
