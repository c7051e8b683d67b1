"""repro.obs — structured telemetry: spans, metrics, logs, run manifests.

The module-level :data:`telemetry` singleton is the one instrumentation
surface the rest of the codebase touches::

    from repro.obs import telemetry

    with telemetry.span("featurize.table", n_columns=12):
        ...
    telemetry.count("featurize.columns", 12)
    telemetry.observe("pipeline.confidence", 0.93)

It starts **disabled**: ``span`` hands back a shared no-op context manager,
counters and logs are gated on one boolean, and no records are kept — library
behavior with telemetry off is identical to a build without it.  CLIs enable
it when a ``--log-level`` / ``--metrics-out`` / ``--manifest`` flag is given;
tests and scripts call :meth:`Telemetry.enable` directly.
"""

from __future__ import annotations

from repro.obs.context import (
    TRACEPARENT_ENV,
    TraceContext,
    current_context,
    set_process_context,
    span_context,
    use_context,
)
from repro.obs.logging import LEVELS, StructLogger
from repro.obs.manifest import RunManifest, git_sha
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RollingHistogram,
    parse_prometheus_text,
    render_prometheus,
)
from repro.obs.trace import (
    NOOP_SPAN,
    NoopSpan,
    Span,
    SpanRecord,
    Tracer,
    aggregate_spans,
)


class Telemetry:
    """Facade bundling a tracer, a metrics registry, and a logger.

    All instrumentation methods are no-ops until :meth:`enable` is called.
    """

    def __init__(self):
        self._enabled = False
        self.tracer = Tracer(on_drop=self._on_span_drop)
        self.metrics = MetricsRegistry()
        self.logger = StructLogger(level="warning")

    def _on_span_drop(self, n: int) -> None:
        # Surfaces ring-buffer truncation: the tracer already counted the
        # drop internally; mirror it into a scrapeable counter.
        if self._enabled:
            self.metrics.counter("trace.dropped").inc(n)

    # -- lifecycle -----------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(
        self, log_level: str | None = None, keep_spans: bool = True
    ) -> "Telemetry":
        """Turn instrumentation on.  ``keep_spans=False`` still times spans
        and propagates their trace ids but retains no records — for
        long-lived processes that will never export them."""
        self._enabled = True
        self.tracer.keep_records = keep_spans
        if log_level is not None:
            self.logger.set_level(log_level)
        return self

    def disable(self) -> "Telemetry":
        self._enabled = False
        return self

    def reset(self) -> "Telemetry":
        """Drop all recorded spans and metrics (enabled state unchanged)."""
        self.tracer.reset()
        self.metrics.reset()
        return self

    # -- spans ---------------------------------------------------------------
    def span(self, name: str, **attrs):
        if not self._enabled:
            return NOOP_SPAN
        return self.tracer.span(name, **attrs)

    @property
    def spans(self) -> list[SpanRecord]:
        return self.tracer.records

    # -- metrics -------------------------------------------------------------
    def count(self, name: str, amount: float = 1.0) -> None:
        if self._enabled:
            self.metrics.counter(name).inc(amount)

    def gauge(self, name: str, value: float) -> None:
        if self._enabled:
            self.metrics.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        if self._enabled:
            self.metrics.histogram(name).observe(value)

    def observe_window(self, name: str, value: float) -> None:
        """Record into a rolling-window histogram (recent-seconds quantiles)."""
        if self._enabled:
            self.metrics.window(name).observe(value)

    def record_span(
        self,
        name: str,
        started_at: float,
        wall_s: float,
        trace_id: str | None = None,
        parent_span_id: str | None = None,
        **attrs,
    ):
        """Record a span measured outside any context manager (queue waits)."""
        if not self._enabled:
            return None
        return self.tracer.record_external(
            name,
            started_at,
            wall_s,
            trace_id=trace_id,
            parent_span_id=parent_span_id,
            **attrs,
        )

    # -- logs ----------------------------------------------------------------
    def log(self, level: str, event: str, **fields) -> None:
        if self._enabled:
            self.logger.log(level, event, **fields)

    def debug(self, event: str, **fields) -> None:
        self.log("debug", event, **fields)

    def info(self, event: str, **fields) -> None:
        self.log("info", event, **fields)

    def warning(self, event: str, **fields) -> None:
        self.log("warning", event, **fields)

    def error(self, event: str, **fields) -> None:
        self.log("error", event, **fields)


#: Global singleton every instrumented module imports. Disabled by default.
telemetry = Telemetry()


def add_observability_flags(parser) -> None:
    """Attach the shared telemetry flags to an ``argparse`` parser.

    Used by every CLI (repro-bench, repro-report, repro-infer) so the flag
    surface stays uniform: ``--log-level``, ``--metrics-out``, ``--manifest``.
    """
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--log-level", default=None,
        choices=sorted(LEVELS, key=LEVELS.get),
        help="enable structured key=value logging at this level (stderr)",
    )
    group.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write a JSON snapshot of all counters/gauges/histograms here",
    )
    group.add_argument(
        "--manifest", default=None, metavar="PATH",
        help="write a JSON run manifest (seed, scale, git SHA, per-experiment "
             "timings, span breakdown, metrics) here",
    )
    group.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="export all recorded spans (with trace/span ids) as JSONL here; "
             "feed the file to `repro-obs trace show`",
    )


def configure_telemetry(args) -> bool:
    """Enable the global singleton iff any observability flag was given."""
    wants = bool(
        getattr(args, "log_level", None)
        or getattr(args, "metrics_out", None)
        or getattr(args, "manifest", None)
        or getattr(args, "trace_out", None)
    )
    if wants:
        telemetry.enable(log_level=getattr(args, "log_level", None))
    return wants

__all__ = [
    "add_observability_flags",
    "configure_telemetry",
    "Counter",
    "Gauge",
    "Histogram",
    "LEVELS",
    "MetricsRegistry",
    "NOOP_SPAN",
    "NoopSpan",
    "RollingHistogram",
    "RunManifest",
    "Span",
    "SpanRecord",
    "StructLogger",
    "Telemetry",
    "TraceContext",
    "TRACEPARENT_ENV",
    "Tracer",
    "aggregate_spans",
    "current_context",
    "git_sha",
    "parse_prometheus_text",
    "render_prometheus",
    "set_process_context",
    "span_context",
    "telemetry",
    "use_context",
]
