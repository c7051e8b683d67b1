"""The inference service: registry + micro-batcher + batch runner.

:class:`InferenceService` is the transport-independent core of
``repro-serve``: the HTTP layer (``serve/http.py``) and the in-process tests
both drive it through :meth:`infer`, which profiles an upload's CSV chunks
on the calling thread through its own
:class:`~repro.sketch.StreamingProfiler` and submits the profiles.
The batch runner flattens every profile of every request in a batch
through one ``predict_proba`` call per model, then splits the predictions
back per request.

Degradation: while the registry is still loading (or failed), batches are
answered by the paper's 11-rule flowchart baseline with ``degraded: true``
and a fixed 0.5 confidence — the platform stays responsive during cold
starts at rule-level accuracy (~54% 9-class, Section 3.2) instead of
queueing uploads behind a minute-long model fit.
"""

from __future__ import annotations

import contextlib
import time

from repro.core.pipeline import ColumnPrediction, TypeInferencePipeline
from repro.core.stats import char_luts
from repro.obs import span_context, telemetry, use_context
from repro.serve.batching import InferenceRequest, MicroBatcher, QueueFullError
from repro.serve.registry import ModelRegistry, UnknownModelError
from repro.sketch import StreamingProfiler
from repro.tabular.column import Column
from repro.tools.rules import RuleBaselineTool

#: Confidence reported for degraded (rule-based) predictions: exactly the
#: paper's review threshold, so they are not silently trusted as
#: high-confidence but also not all flagged; clients must check `degraded`.
FALLBACK_CONFIDENCE = 0.5


class InferenceService:
    """Long-lived, batched type-inference over in-memory tables."""

    def __init__(
        self,
        registry: ModelRegistry,
        max_batch_columns: int = 256,
        max_wait_s: float = 0.01,
        queue_limit: int = 64,
        default_deadline_s: float = 30.0,
    ):
        self.registry = registry
        self.default_deadline_s = default_deadline_s
        self.batcher = MicroBatcher(
            self._run_batch,
            max_batch_columns=max_batch_columns,
            max_wait_s=max_wait_s,
            queue_limit=queue_limit,
        )
        self._fallback = RuleBaselineTool()
        self.started_at = time.time()
        self.draining = False

    # -- lifecycle -----------------------------------------------------------
    def start(self, load_in_background: bool = True) -> "InferenceService":
        char_luts()  # build the stats kernel's tables before any request
        self.registry.load(background=load_in_background)
        self.batcher.start()
        return self

    def drain(self, timeout: float | None = 30.0) -> None:
        """Stop accepting work, finish everything queued (SIGTERM path)."""
        self.draining = True
        self.batcher.close(drain=True, timeout=timeout)

    # -- request path --------------------------------------------------------
    def infer(
        self,
        chunks,
        table_name: str = "upload",
        deadline_s: float | None = None,
        model_name: str | None = None,
    ) -> InferenceRequest:
        """Profile an upload's CSV chunks, submit the profiles, and block
        until result or deadline.

        ``chunks`` is an iterable of :class:`~repro.tabular.csv_io.CSVChunk`
        (what :func:`~repro.tabular.csv_io.iter_csv_chunks` yields); they
        stream through one :class:`~repro.sketch.StreamingProfiler` on the
        calling thread, so only the finished profiles and the first chunk's
        raw rows (for the degraded answer) reach the batcher.  Unreadable
        or unfeaturizable input raises
        :class:`~repro.tabular.csv_io.CSVReadError` /
        :class:`~repro.core.featurize.ProfileError` (HTTP 400).

        ``model_name`` routes the request to one registry entry (None → the
        default model); an unregistered name raises
        :class:`~repro.serve.registry.UnknownModelError` before any chunk is
        read (HTTP 404).  Raises
        :class:`~repro.serve.batching.QueueFullError` /
        :class:`~repro.serve.batching.ServiceClosedError` at submission
        time; the deadline starts at submission, and a request whose
        deadline passes is returned with ``predictions is None`` (HTTP 504).
        """
        # Route validation happens first so an unknown model is a
        # synchronous 404, not a failed batch.
        self.registry.resolve(model_name)
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        telemetry.count("serve.request")
        with telemetry.span(
            "serve.request", table=table_name, model=model_name or "",
        ) as span:
            started = time.perf_counter()
            profiler = StreamingProfiler(source_file=table_name)
            head = None
            with telemetry.span("serve.profile", table=table_name) as profile:
                for chunk in chunks:
                    if head is None:
                        head = chunk
                    profiler.consume(chunk)
                profiles = profiler.profiles()
                profile.set(n_columns=len(profiles))
            profile_ms = 1000.0 * (time.perf_counter() - started)
            span.set(n_columns=len(profiles))
            telemetry.count("serve.request_columns", len(profiles))
            deadline = (
                time.monotonic() + deadline_s if deadline_s and deadline_s > 0
                else None
            )
            # The request's trace context must ride INTO submit(): the
            # batcher worker may pick the request up before this thread
            # runs another line, so stamping it afterwards would race.
            try:
                request = self.batcher.submit(
                    profiles, deadline=deadline, trace=span_context(span),
                    head=head, table_name=table_name, model_name=model_name,
                    profile_ms=profile_ms,
                )
            except QueueFullError as exc:
                # No request object survives a shed; carry the trace id on
                # the exception so the HTTP layer can still echo it.
                exc.trace_id = getattr(span, "trace_id", None)
                raise
            finished = request.wait()
        if not finished:
            telemetry.count("serve.deadline_exceeded")
        else:
            latency_ms = request.queue_ms + request.infer_ms
            telemetry.observe("serve.request_ms", latency_ms)
            telemetry.observe_window("serve.request_ms_window", latency_ms)
        return request

    # -- batch runner (worker thread) ----------------------------------------
    def _run_batch(self, batch: list[InferenceRequest]) -> None:
        # Group by routed registry entry.  Submission already validated the
        # route, so resolve() failing here means the registry changed under
        # us — fail just that request, keep serving the rest.
        groups: dict[str, tuple] = {}
        for request in batch:
            try:
                entry = self.registry.resolve(request.model_name)
            except UnknownModelError as exc:
                request.fail(exc)
                continue
            groups.setdefault(entry.name, (entry, []))[1].append(request)
        if not groups:
            return
        live = [r for _, members in groups.values() for r in members]
        n_columns = sum(r.n_columns for r in live)
        # The batch span runs on the batcher worker thread, where the span
        # stack is empty — adopt the first member's trace so the tree is
        # request → queue_wait / batch → predict.  A multi-request batch
        # has one parent slot; the other members' trace ids are kept as an
        # attribute so nothing is unattributable.
        trace = next((r.trace for r in live if r.trace is not None), None)
        extra = {}
        if len(live) > 1:
            extra["member_trace_ids"] = sorted(
                {r.trace.trace_id for r in live if r.trace is not None}
            )
        # Leases pin each group's (model, fingerprint, generation) for the
        # whole batch, so a concurrent hot swap cannot flip a model under a
        # running batch — the swap's drain waits for these to release.
        with contextlib.ExitStack() as stack:
            leases = {
                name: stack.enter_context(entry.lease())
                for name, (entry, _) in groups.items()
            }
            with use_context(trace), telemetry.span(
                "serve.batch", n_requests=len(live), n_columns=n_columns,
                models=sorted(groups),
                degraded=any(lease.model is None for lease in leases.values()),
                **extra,
            ):
                for name, (_, members) in groups.items():
                    lease = leases[name]
                    if lease.model is None:
                        self._run_degraded(members)
                    else:
                        self._run_primary(members, lease)

    def _run_primary(self, batch: list[InferenceRequest], lease) -> None:
        model = lease.model
        profiles = [p for request in batch for p in request.profiles]
        pipeline = TypeInferencePipeline(model)
        label = getattr(model, "name", type(model).__name__)
        with telemetry.span(
            "serve.predict", n_columns=len(profiles), model=label
        ):
            predictions = pipeline.predict_profiles(profiles)
        offset = 0
        for request in batch:
            request.complete(
                predictions[offset:offset + request.n_columns],
                model=label, degraded=False,
                fingerprint=lease.fingerprint, generation=lease.generation,
            )
            offset += request.n_columns

    def _run_degraded(self, batch: list[InferenceRequest]) -> None:
        """The 11-rule flowchart over each upload's first chunk: every row
        of an upload of up to ``DEFAULT_CHUNK_ROWS`` rows (and of any JSON
        body), the first ``DEFAULT_CHUNK_ROWS`` rows of a larger one."""
        telemetry.count("serve.degraded_batches")
        for request in batch:
            head = request.head
            cells = list(zip(*head.rows)) or [()] * len(head.header)
            predictions = [
                ColumnPrediction(
                    column=name,
                    feature_type=self._fallback.infer_column(
                        Column(name, column)
                    ),
                    confidence=FALLBACK_CONFIDENCE,
                )
                for name, column in zip(head.header, cells)
            ]
            request.complete(
                predictions, model=self._fallback.name, degraded=True
            )

    # -- status surfaces -----------------------------------------------------
    def health(self) -> dict:
        """The ``/healthz`` body: service + model state in one dict."""
        default = self.registry.resolve()
        if self.draining:
            status = "draining"
        elif default.ready:
            status = "ready"
        else:
            status = "degraded"  # serving, but via the rules fallback
        return {
            "status": status,
            "ready": default.ready,
            "uptime_s": round(time.time() - self.started_at, 3),
            "queue_depth": self.batcher.queue_depth,
            "queue_limit": self.batcher.queue_limit,
            "max_batch_columns": self.batcher.max_batch_columns,
            "max_wait_ms": round(1000.0 * self.batcher.max_wait_s, 3),
            "model": default.describe(),
            "default_model": self.registry.default_name,
            "models": self.registry.describe_all(),
        }
