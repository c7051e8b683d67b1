"""The inference service: registry + micro-batcher + batch runner.

:class:`InferenceService` is the transport-independent core of
``repro-serve``: the HTTP layer (``serve/http.py``) and the in-process tests
both drive it through :meth:`infer`.  Its batch runner flattens every column
of every request in a batch through one ``profile_columns`` call (which is
one ``compute_stats_batch`` character-scan, deduped across requests by a
shared :class:`~repro.core.stats.StatsScanCache`) and one
``predict_proba`` call, then splits the predictions back per request.

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
from repro.core.featurize import profile_columns
from repro.core.stats import StatsScanCache
from repro.obs import span_context, telemetry, use_context
from repro.serve.batching import InferenceRequest, MicroBatcher, QueueFullError
from repro.serve.registry import ModelRegistry, UnknownModelError
from repro.tabular.column import Column
from repro.tabular.table import Table
from repro.tools.rules import RuleBaselineTool

#: Default maximum distinct cell values resident in the cross-request scan
#: cache — bounds resident memory on long-lived servers.  Past it the cache
#: keeps only the values that hit since its last trim (see
#: :class:`~repro.core.stats.StatsScanCache`).  Tunable per service via
#: ``scan_cache_max_values`` (``repro-serve --scan-cache-max-values``).
SCAN_CACHE_MAX_VALUES = 100_000

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
        scan_cache_max_values: int = SCAN_CACHE_MAX_VALUES,
    ):
        self.registry = registry
        self.default_deadline_s = default_deadline_s
        self.scan_cache_max_values = max(0, int(scan_cache_max_values))
        self.batcher = MicroBatcher(
            self._run_batch,
            max_batch_columns=max_batch_columns,
            max_wait_s=max_wait_s,
            queue_limit=queue_limit,
        )
        self._fallback = RuleBaselineTool()
        self._scan_cache = StatsScanCache(
            max_values=self.scan_cache_max_values, metric_prefix="serve"
        )
        self.started_at = time.time()
        self.draining = False

    # -- lifecycle -----------------------------------------------------------
    def start(self, load_in_background: bool = True) -> "InferenceService":
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
        table: Table,
        deadline_s: float | None = None,
        model_name: str | None = None,
    ) -> InferenceRequest:
        """Submit a table and block until result or deadline.

        ``model_name`` routes the request to one registry entry (None → the
        default model); an unregistered name raises
        :class:`~repro.serve.registry.UnknownModelError` at submission time
        (the HTTP layer maps that to 404).  Raises
        :class:`~repro.serve.batching.QueueFullError` /
        :class:`~repro.serve.batching.ServiceClosedError` at submission
        time; a request whose deadline passes is returned with
        ``predictions is None`` (the HTTP layer maps that to 504).
        """
        return self._submit_and_wait(
            table=table, profiles=None, table_name=table.name,
            n_columns=len(table.column_names), deadline_s=deadline_s,
            model_name=model_name,
        )

    def infer_profiles(
        self,
        profiles: list,
        table_name: str = "",
        deadline_s: float | None = None,
        model_name: str | None = None,
    ) -> InferenceRequest:
        """Submit pre-built column profiles (the streamed-upload path).

        The HTTP handler profiles a streamed body chunk by chunk through
        :class:`~repro.sketch.StreamingProfiler` as it arrives; only the
        finished profiles are enqueued, so batcher memory stays independent
        of the upload size.  Same blocking/shedding/routing semantics as
        :meth:`infer`.
        """
        return self._submit_and_wait(
            table=None, profiles=profiles, table_name=table_name,
            n_columns=len(profiles), deadline_s=deadline_s,
            model_name=model_name,
        )

    def _submit_and_wait(
        self, table, profiles, table_name, n_columns, deadline_s,
        model_name=None,
    ) -> InferenceRequest:
        # Route validation happens before enqueue so an unknown model is a
        # synchronous 404, not a failed batch.
        self.registry.resolve(model_name)
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        deadline = (
            time.monotonic() + deadline_s if deadline_s and deadline_s > 0
            else None
        )
        telemetry.count("serve.request")
        telemetry.count("serve.request_columns", n_columns)
        with telemetry.span(
            "serve.request", table=table_name, n_columns=n_columns,
            streamed=table is None, model=model_name or "",
        ) as span:
            # The request's trace context must ride INTO submit(): the
            # batcher worker may pick the request up before this thread
            # runs another line, so stamping it afterwards would race.
            try:
                request = self.batcher.submit(
                    table, deadline=deadline, trace=span_context(span),
                    profiles=profiles, table_name=table_name,
                    model_name=model_name,
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
        # request → queue_wait / batch → profile/predict.  A multi-request
        # batch has one parent slot; the other members' trace ids are kept
        # as an attribute so nothing is unattributable.
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
            degraded_groups = [
                name for name, lease in leases.items() if lease.model is None
            ]
            with use_context(trace), telemetry.span(
                "serve.batch", n_requests=len(live), n_columns=n_columns,
                models=sorted(groups), degraded=bool(degraded_groups),
                **extra,
            ):
                primary = [
                    request
                    for name, (_, members) in groups.items()
                    if leases[name].model is not None
                    for request in members
                ]
                profiles_by_request = self._profile_requests(primary)
                for name, (_, members) in groups.items():
                    lease = leases[name]
                    if lease.model is None:
                        self._run_degraded(members)
                    else:
                        self._run_primary(
                            members, lease, profiles_by_request
                        )

    def _profile_requests(
        self, batch: list[InferenceRequest]
    ) -> dict[int, list]:
        """One shared ``profile_columns`` scan across every model group.

        Profiles are model-agnostic, so a mixed-model batch still amortizes
        a single character scan; only the ``predict_proba`` call is per
        model.  Returns ``id(request) → its profiles``.
        """
        if not batch:
            return {}
        # Table requests share one profile_columns scan; streamed requests
        # arrive pre-profiled and just slot into the prediction.
        table_requests = [r for r in batch if r.table is not None]
        columns = [
            column for request in table_requests for column in request.table
        ]
        profiles_by_request: dict[int, list] = {}
        if columns:
            with telemetry.span("serve.profile", n_columns=len(columns)):
                profiled = profile_columns(columns, scan_cache=self._scan_cache)
            # Stamp provenance per request (profile_columns took the flat
            # list).
            offset = 0
            for request in table_requests:
                chunk = profiled[offset:offset + request.n_columns]
                for profile in chunk:
                    profile.source_file = request.table.name
                profiles_by_request[id(request)] = chunk
                offset += request.n_columns
        for request in batch:
            if request.table is None:
                for profile in request.profiles:
                    profile.source_file = request.table_name
                profiles_by_request[id(request)] = request.profiles
        return profiles_by_request

    def _run_primary(
        self,
        batch: list[InferenceRequest],
        lease,
        profiles_by_request: dict[int, list],
    ) -> None:
        model = lease.model
        profiles = []
        for request in batch:
            profiles.extend(profiles_by_request[id(request)])
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
        telemetry.count("serve.degraded_batches")
        for request in batch:
            if request.table is not None:
                columns = list(request.table)
            else:
                # Streamed request during a cold start: the raw cells are
                # gone, so the rules see each column's five sample values —
                # a documented approximation of the degraded answer (the
                # flowchart mostly keys on value syntax, which the samples
                # carry).
                columns = [
                    Column(profile.name, list(profile.samples))
                    for profile in request.profiles
                ]
            predictions = [
                ColumnPrediction(
                    column=column.name,
                    feature_type=self._fallback.infer_column(column),
                    confidence=FALLBACK_CONFIDENCE,
                )
                for column in columns
            ]
            request.complete(
                predictions, model=self._fallback.name, degraded=True
            )

    # -- status surfaces -----------------------------------------------------
    def health(self) -> dict:
        """The ``/healthz`` body: service + model state in one dict."""
        if self.draining:
            status = "draining"
        elif self.registry.ready:
            status = "ready"
        else:
            status = "degraded"  # serving, but via the rules fallback
        return {
            "status": status,
            "ready": self.registry.ready,
            "uptime_s": round(time.time() - self.started_at, 3),
            "queue_depth": self.batcher.queue_depth,
            "queue_limit": self.batcher.queue_limit,
            "max_batch_columns": self.batcher.max_batch_columns,
            "max_wait_ms": round(1000.0 * self.batcher.max_wait_s, 3),
            "scan_cache_max_values": self.scan_cache_max_values,
            "model": self.registry.describe(),
            "default_model": self.registry.default_name,
            "models": self.registry.describe_all(),
        }
