"""Micro-batching queue for the inference service.

Concurrent HTTP handlers submit one :class:`InferenceRequest` each; a single
worker thread gathers requests into batches bounded by a column budget
(``max_batch_columns``) and a gathering window (``max_wait_s``), then hands
each batch to a runner callback.  Each request arrives profiled
(the HTTP handler streams its body through the sketch profiler), so
batching amortizes one ``predict_proba`` call per model across independent
uploads.

Robustness semantics live here too: the queue is bounded (submissions past
the limit raise :class:`QueueFullError` → HTTP 429), every request carries a
monotonic-clock deadline (expired requests are shed before compute → HTTP
504), and :meth:`MicroBatcher.close` drains queued work so SIGTERM never
drops an accepted request.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable

from repro.obs import TraceContext, telemetry
from repro.tabular.csv_io import CSVChunk


class QueueFullError(RuntimeError):
    """The bounded request queue is at capacity (shed with HTTP 429)."""

    def __init__(self, depth: int, limit: int, retry_after_s: float = 1.0):
        super().__init__(f"request queue full ({depth}/{limit})")
        self.depth = depth
        self.limit = limit
        self.retry_after_s = retry_after_s


class ServiceClosedError(RuntimeError):
    """The batcher is draining/closed and accepts no new requests."""


class DeadlineExceededError(RuntimeError):
    """The request's deadline passed before a batch could serve it."""


class InferenceRequest:
    """One submitted upload's column profiles, its deadline, and
    (eventually) its result.

    The HTTP handler profiles every upload on its own thread (the only
    place the request body exists), so what reaches the batcher is the
    list of :class:`~repro.core.featurize.ColumnProfile` objects.  ``head``
    is the upload's first :class:`~repro.tabular.csv_io.CSVChunk` of raw
    rows, read only by the degraded (rule-based) answer.  ``profile_ms``
    is the handler's profiling time, which ``infer_ms`` includes.
    """

    __slots__ = (
        "profiles", "head", "table_name", "model_name", "deadline",
        "profile_ms", "enqueued_at", "started_at", "finished_at",
        "predictions", "model", "fingerprint", "generation", "degraded",
        "error", "batch_requests", "batch_columns", "trace", "_done",
    )

    def __init__(
        self,
        profiles: list,
        deadline: float | None,
        trace: TraceContext | None = None,
        head: CSVChunk | None = None,
        table_name: str = "",
        model_name: str | None = None,
        profile_ms: float = 0.0,
    ):
        self.profiles = profiles
        self.head = head
        self.table_name = table_name
        self.model_name = model_name  # registry route; None → default model
        self.deadline = deadline  # time.monotonic() instant, or None
        self.profile_ms = profile_ms
        self.trace = trace  # submitting request's span; batch spans adopt it
        self.enqueued_at = time.monotonic()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.predictions = None  # list[ColumnPrediction] on success
        self.model: str | None = None
        self.fingerprint: str | None = None
        self.generation: int | None = None
        self.degraded = False
        self.error: BaseException | None = None
        self.batch_requests = 0
        self.batch_columns = 0
        self._done = threading.Event()

    @property
    def n_columns(self) -> int:
        return len(self.profiles)

    def expired(self, now: float | None = None) -> bool:
        if self.deadline is None:
            return False
        return (now if now is not None else time.monotonic()) >= self.deadline

    def complete(
        self,
        predictions,
        model: str,
        degraded: bool,
        fingerprint: str | None = None,
        generation: int | None = None,
    ) -> None:
        self.predictions = predictions
        self.model = model
        self.fingerprint = fingerprint
        self.generation = generation
        self.degraded = degraded
        self.finished_at = time.monotonic()
        self._done.set()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self.finished_at = time.monotonic()
        self._done.set()

    def wait(self) -> bool:
        """Block until the request finishes or its deadline passes.

        True when a result (or error) is available; False on deadline.
        """
        if self.deadline is None:
            self._done.wait()
            return True
        remaining = self.deadline - time.monotonic()
        return self._done.wait(timeout=max(0.0, remaining))

    @property
    def queue_ms(self) -> float:
        started = self.started_at or self.finished_at or time.monotonic()
        return 1000.0 * (started - self.enqueued_at)

    @property
    def infer_ms(self) -> float:
        if self.started_at is None or self.finished_at is None:
            return self.profile_ms
        return self.profile_ms + 1000.0 * (self.finished_at - self.started_at)


class MicroBatcher:
    """Bounded queue + single gathering worker in front of a batch runner.

    ``runner(batch)`` receives a non-empty ``list[InferenceRequest]`` whose
    deadlines have not passed and must call ``complete``/``fail`` on every
    one of them; a runner-level exception fails the whole batch.
    """

    def __init__(
        self,
        runner: Callable[[list[InferenceRequest]], None],
        max_batch_columns: int = 256,
        max_wait_s: float = 0.01,
        queue_limit: int = 64,
    ):
        self.runner = runner
        self.max_batch_columns = max(1, int(max_batch_columns))
        self.max_wait_s = max(0.0, float(max_wait_s))
        self.queue_limit = max(1, int(queue_limit))
        self._queue: deque[InferenceRequest] = deque()
        self._cv = threading.Condition()
        self._closed = False
        self._worker: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "MicroBatcher":
        """Start the gathering worker (idempotent)."""
        with self._cv:
            if self._worker is None:
                self._worker = threading.Thread(
                    target=self._loop, name="serve-batcher", daemon=True
                )
                self._worker.start()
        return self

    def close(self, drain: bool = True, timeout: float | None = 30.0) -> None:
        """Stop accepting requests; by default finish everything queued.

        With ``drain=False`` queued requests fail with
        :class:`ServiceClosedError` instead of running.
        """
        with self._cv:
            self._closed = True
            if not drain:
                abandoned = list(self._queue)
                self._queue.clear()
            else:
                abandoned = []
            self._cv.notify_all()
        for request in abandoned:
            request.fail(ServiceClosedError("service shut down"))
        if self._worker is not None:
            self._worker.join(timeout=timeout)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    # -- submission ----------------------------------------------------------
    def submit(
        self,
        profiles: list,
        deadline: float | None = None,
        trace: TraceContext | None = None,
        head: CSVChunk | None = None,
        table_name: str = "",
        model_name: str | None = None,
        profile_ms: float = 0.0,
    ) -> InferenceRequest:
        """Enqueue one upload's profiles; the caller then ``wait()``s on
        the request."""
        request = InferenceRequest(
            profiles, deadline, trace=trace, head=head,
            table_name=table_name, model_name=model_name,
            profile_ms=profile_ms,
        )
        with self._cv:
            if self._closed:
                raise ServiceClosedError("service is draining")
            if len(self._queue) >= self.queue_limit:
                telemetry.count("serve.shed")
                telemetry.observe_window("serve.shed_window", 1.0)
                raise QueueFullError(
                    len(self._queue), self.queue_limit,
                    retry_after_s=max(1.0, 2.0 * self.max_wait_s),
                )
            self._queue.append(request)
            telemetry.gauge("serve.queue_depth", len(self._queue))
            self._cv.notify_all()
        return request

    # -- worker --------------------------------------------------------------
    def _loop(self) -> None:
        while True:
            batch = self._gather()
            if batch is None:
                return
            live, expired = [], []
            now = time.monotonic()
            for request in batch:
                (expired if request.expired(now) else live).append(request)
            for request in expired:
                # Its handler already answered 504; never spend compute on it.
                telemetry.count("serve.expired_in_queue")
                request.fail(DeadlineExceededError("deadline passed in queue"))
            if not live:
                continue
            wall_now = time.time()
            for request in live:
                request.started_at = now
                request.batch_requests = len(live)
                request.batch_columns = sum(r.n_columns for r in live)
                # Nothing *runs* while a request waits in the queue, so the
                # wait span is synthesized from its enqueue/start timestamps
                # (monotonic delta re-anchored onto the wall clock).
                if request.trace is not None:
                    wait_s = max(0.0, now - request.enqueued_at)
                    telemetry.record_span(
                        "serve.queue_wait",
                        started_at=wall_now - wait_s,
                        wall_s=wait_s,
                        trace_id=request.trace.trace_id,
                        parent_span_id=request.trace.span_id,
                        table=request.table_name,
                    )
            try:
                self.runner(live)
            except BaseException as exc:  # runner bug: fail the batch, keep serving
                telemetry.count("serve.batch_error")
                telemetry.error("serve.batch_failed", error=repr(exc))
                for request in live:
                    if not request._done.is_set():
                        request.fail(exc)

    def _gather(self) -> list[InferenceRequest] | None:
        """Block for the first request, then gather more until the column
        budget fills or the wait window closes.  None means closed+empty."""
        with self._cv:
            while not self._queue:
                if self._closed:
                    return None
                self._cv.wait()
            first = self._queue.popleft()
            batch = [first]
            n_columns = first.n_columns
            window_ends = time.monotonic() + self.max_wait_s
            while n_columns < self.max_batch_columns and not self._closed:
                if not self._queue:
                    remaining = window_ends - time.monotonic()
                    if remaining <= 0.0:
                        break
                    self._cv.wait(remaining)
                    continue
                candidate = self._queue[0]
                if n_columns + candidate.n_columns > self.max_batch_columns:
                    break  # never split one request across batches
                self._queue.popleft()
                batch.append(candidate)
                n_columns += candidate.n_columns
            telemetry.gauge("serve.queue_depth", len(self._queue))
            telemetry.observe_window("serve.queue_depth_window", len(self._queue))
        telemetry.observe("serve.batch_size", len(batch))
        telemetry.observe("serve.batch_columns", n_columns)
        telemetry.observe_window("serve.batch_size_window", len(batch))
        return batch
