"""HTTP front end for :class:`~repro.serve.service.InferenceService`.

Stdlib-only (``http.server.ThreadingHTTPServer`` + ``json``).  Endpoints:

``POST /v1/infer``
    Body is either CSV text (``Content-Type: text/csv``, the raw upload) or
    a JSON payload ``{"table": name, "columns": [{"name": ..., "cells":
    [...]}]}``.  Optional ``?deadline_ms=N`` (or ``X-Deadline-Ms`` header)
    bounds end-to-end latency; an ``X-Repro-Model`` header routes the
    request to one registered model (absent → the default route).
    Responses: 200 with predictions, 400 on a malformed body, 404 for an
    unregistered model, 429 + ``Retry-After`` when the queue sheds, 503
    while draining, 504 past the deadline.

    ``?stream=1`` — or any CSV body larger than ``STREAM_BODY_BYTES`` —
    profiles the upload incrementally on the handler thread through
    :mod:`repro.sketch`: the body is read in bounded pieces straight into
    per-column sketches, so handler memory stays flat no matter how large
    the (still ``MAX_BODY_BYTES``-capped) upload is.  Only CSV bodies
    stream; ``stream=1`` with a JSON body is a 400.

``POST /v1/models/<name>/infer``
    Same as ``/v1/infer`` with the model route in the path (the path wins
    over ``X-Repro-Model``).

``POST /v1/models/<name>/swap``
    Zero-downtime hot swap of one registered model.  JSON body
    ``{"path": <artifact>, "wait": "flipped"|"drained"|"none",
    "timeout_s": N}``; the default ``wait: "flipped"`` blocks until the
    route atomically points at the new artifact (200 with the new
    fingerprint/generation), ``"drained"`` additionally waits for every
    in-flight batch against the old artifact, ``"none"`` returns 202
    immediately.  409 while another swap of the same model is loading;
    500 when the replacement artifact fails to load (the old model keeps
    serving).

``GET /v1/models``
    Every registered model with name, state (loading/ready/draining),
    fingerprint, and swap generation — the fleet routing table.

``GET /healthz``
    Service + model state, including every registered model's fingerprint,
    state, and swap generation (``models``).

``GET /metrics``
    Prometheus text exposition of the ``repro.obs`` metrics registry
    (``serve.request`` / ``serve.batch_size`` / ``serve.queue_depth`` /
    ``serve.shed`` and everything else the process recorded), including
    rolling-window quantiles.  ``Accept: application/json`` — or ``GET
    /metrics.json`` — returns the raw JSON snapshot instead.

Every ``POST /v1/infer`` honors an incoming W3C ``traceparent`` header:
the server's spans join the caller's trace, and the trace id is echoed in
the response body (``trace_id``) and the ``X-Trace-Id`` header.
"""

from __future__ import annotations

import json
import re
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlparse

from repro.core.featurize import ProfileError
from repro.faults import FaultInjectedError, faults
from repro.obs import (
    TraceContext,
    render_prometheus,
    telemetry,
    use_context,
)
from repro.serve.batching import QueueFullError, ServiceClosedError
from repro.serve.registry import SwapInProgressError, UnknownModelError
from repro.serve.service import InferenceService
from repro.sketch import StreamingProfiler
from repro.tabular.column import Column
from repro.tabular.csv_io import CSVReadError, iter_csv_chunks, read_csv_text
from repro.tabular.table import Table

MAX_BODY_BYTES = 64 * 1024 * 1024  # one upload, not a data lake

#: CSV bodies at/above this size stream through the sketch profiler even
#: without ``?stream=1`` — buffering them whole would multiply the body
#: size by the decoded-text + split-rows overhead per concurrent handler.
STREAM_BODY_BYTES = 8 * 1024 * 1024

#: Bytes per ``rfile.read`` on the streamed path.
STREAM_READ_BYTES = 1 << 16

#: ``POST /v1/models/<name>/(infer|swap)`` — the model route in the path.
_MODEL_PATH = re.compile(r"^/v1/models/([^/]+)/(infer|swap)$")


class BadRequestError(ValueError):
    """Client payload cannot be turned into a table (HTTP 400)."""


def table_from_json(payload) -> Table:
    """Decode the JSON column payload into a :class:`Table`."""
    if not isinstance(payload, dict):
        raise BadRequestError("JSON body must be an object")
    columns = payload.get("columns")
    if not isinstance(columns, list) or not columns:
        raise BadRequestError('JSON body needs a non-empty "columns" list')
    out = []
    for index, spec in enumerate(columns):
        if not isinstance(spec, dict) or "cells" not in spec:
            raise BadRequestError(
                f'columns[{index}] must be an object with "name" and "cells"'
            )
        cells = spec["cells"]
        if not isinstance(cells, list):
            raise BadRequestError(f"columns[{index}].cells must be a list")
        name = str(spec.get("name", f"column_{index}"))
        out.append(
            Column(name, [None if cell is None else str(cell) for cell in cells])
        )
    try:
        return Table(out, name=str(payload.get("table", "")))
    except ValueError as exc:  # ragged/duplicate columns
        raise BadRequestError(str(exc)) from exc


def parse_table(content_type: str, body: bytes, name: str = "upload") -> Table:
    """Decode a request body (CSV text or JSON columns) into a table."""
    kind = (content_type or "text/csv").split(";")[0].strip().lower()
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BadRequestError(f"body is not UTF-8 ({exc.reason})") from exc
    if kind == "application/json":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise BadRequestError(f"invalid JSON body: {exc}") from exc
        return table_from_json(payload)
    try:
        return read_csv_text(text, name=name)
    except CSVReadError as exc:
        raise BadRequestError(str(exc)) from exc


class ServeHandler(BaseHTTPRequestHandler):
    """One HTTP connection; the service lives on ``self.server``."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted socket: a keep-alive client delays its
    # ACK (~40 ms on Linux), and Nagle would hold any write queued behind
    # an unacknowledged one until that ACK arrives.
    disable_nagle_algorithm = True
    # Idle keep-alive connections time out so a drain can always finish
    # joining handler threads.
    timeout = 30

    @property
    def service(self) -> InferenceService:
        return self.server.service  # type: ignore[attr-defined]

    # -- routing -------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (BaseHTTPRequestHandler API)
        path = urlparse(self.path).path
        if path == "/healthz":
            self._send_json(200, self.service.health())
        elif path == "/v1/models":
            registry = self.service.registry
            self._send_json(200, {
                "default": registry.default_name,
                "models": registry.describe_all(),
            })
        elif path == "/metrics.json":
            self._send_json(200, telemetry.metrics.snapshot())
        elif path == "/metrics":
            # Prometheus text exposition by default; JSON on request, so
            # pre-PR-6 scrapers that send Accept: application/json keep
            # working without switching to /metrics.json.
            if "application/json" in (self.headers.get("Accept") or ""):
                self._send_json(200, telemetry.metrics.snapshot())
            else:
                self._send_text(
                    200,
                    render_prometheus(telemetry.metrics.snapshot()),
                    content_type="text/plain; version=0.0.4; charset=utf-8",
                )
        else:
            self._send_json(404, {"error": f"no such endpoint: {path}"})

    def do_POST(self) -> None:  # noqa: N802
        # A malformed/absent traceparent means "start fresh", never an error.
        context = TraceContext.from_traceparent(self.headers.get("traceparent"))
        with use_context(context):
            self._handle_post(context)

    def _handle_post(self, context: TraceContext | None) -> None:
        trace_id = context.trace_id if context is not None else None
        parsed = urlparse(self.path)
        model_name = self.headers.get("X-Repro-Model") or None
        match = _MODEL_PATH.match(parsed.path)
        if match is not None:
            model_name = unquote(match.group(1))  # the path wins
            if match.group(2) == "swap":
                self._handle_swap(model_name, trace_id)
                return
        elif parsed.path != "/v1/infer":
            self._send_json(404, {"error": f"no such endpoint: {parsed.path}"})
            return
        try:
            # Chaos hook: a "serve.accept" rule sheds this request with a
            # retryable 503, exercising the client's backoff path.
            faults.point("serve.accept", path=parsed.path)
        except FaultInjectedError as exc:
            telemetry.count("serve.fault_reject")
            self._send_json(
                503,
                {"error": f"fault injected: {exc}", "retry_after_s": 0.05},
                headers={"Retry-After": "1"},
                trace_id=trace_id,
            )
            return
        if self.service.draining:
            self._send_json(
                503, {"error": "server is draining"}, trace_id=trace_id
            )
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length <= 0 or length > MAX_BODY_BYTES:
            self._send_json(
                413 if length > MAX_BODY_BYTES else 400,
                {"error": f"Content-Length must be in (0, {MAX_BODY_BYTES}]"},
            )
            return
        name = self._query_value(parsed, "table") or "upload"
        kind = (
            (self.headers.get("Content-Type") or "text/csv")
            .split(";")[0].strip().lower()
        )
        try:
            deadline_s = self._deadline_s(parsed)
            stream = self._stream_requested(parsed)
            if stream and kind == "application/json":
                raise BadRequestError("stream=1 requires a CSV body")
        except BadRequestError as exc:
            telemetry.count("serve.bad_request")
            self._send_json(400, {"error": str(exc)}, trace_id=trace_id)
            return
        if stream or (kind != "application/json" and length >= STREAM_BODY_BYTES):
            self._handle_streamed_infer(
                name, length, deadline_s, trace_id, model_name
            )
            return
        body = self.rfile.read(length)
        try:
            table = parse_table(
                self.headers.get("Content-Type", ""), body, name=name
            )
        except BadRequestError as exc:
            telemetry.count("serve.bad_request")
            self._send_json(400, {"error": str(exc)}, trace_id=trace_id)
            return
        request = self._submit_infer(
            table.name, deadline_s, trace_id, table=table,
            model_name=model_name,
        )
        if request is not None:
            self._finish_infer(request, table.name, deadline_s, trace_id)

    def _handle_swap(self, model_name: str, trace_id: str | None) -> None:
        """``POST /v1/models/<name>/swap``: hot-swap one model's artifact."""
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length <= 0 or length > MAX_BODY_BYTES:
            self._send_json(
                400, {"error": "swap needs a JSON body with a model path"},
                trace_id=trace_id,
            )
            return
        try:
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_json(
                400, {"error": f"invalid JSON body: {exc}"}, trace_id=trace_id
            )
            return
        path = payload.get("path") if isinstance(payload, dict) else None
        wait = (
            payload.get("wait", "flipped") if isinstance(payload, dict)
            else "flipped"
        )
        timeout_s = (
            payload.get("timeout_s", 120.0) if isinstance(payload, dict)
            else 120.0
        )
        if not isinstance(path, str) or not path:
            self._send_json(
                400, {"error": 'swap body needs a "path" string'},
                trace_id=trace_id,
            )
            return
        if wait not in ("flipped", "drained", "none"):
            self._send_json(
                400,
                {"error": 'wait must be "flipped", "drained", or "none"'},
                trace_id=trace_id,
            )
            return
        try:
            handle = self.service.registry.swap(model_name, model_path=path)
        except UnknownModelError as exc:
            self._send_json(
                404, {"error": str(exc), "models": exc.known},
                trace_id=trace_id,
            )
            return
        except SwapInProgressError as exc:
            self._send_json(409, {"error": str(exc)}, trace_id=trace_id)
            return
        if wait == "none":
            self._send_json(
                202,
                {
                    "model": model_name,
                    "target_generation": handle.target_generation,
                    "state": "loading",
                },
                trace_id=trace_id,
            )
            return
        done = (
            handle.wait_drained(timeout=timeout_s) if wait == "drained"
            else handle.wait_flipped(timeout=timeout_s)
        )
        if handle.failed:
            self._send_json(
                500,
                {"error": f"swap failed: {handle.error}", "model": model_name},
                trace_id=trace_id,
            )
            return
        if not done:
            self._send_json(
                504,
                {
                    "error": f"swap not {wait} within {timeout_s}s",
                    "model": model_name,
                },
                trace_id=trace_id,
            )
            return
        entry = self.service.registry.resolve(model_name).describe()
        self._send_json(
            200,
            {"model": model_name, "swapped": wait, **entry},
            trace_id=trace_id,
        )

    def _handle_streamed_infer(
        self,
        name: str,
        length: int,
        deadline_s: float | None,
        trace_id: str | None,
        model_name: str | None = None,
    ) -> None:
        """Profile a CSV body incrementally, then enqueue the profiles.

        The body is read in ``STREAM_READ_BYTES`` pieces straight into
        :class:`~repro.sketch.StreamingProfiler` on this handler thread —
        nowhere does the raw upload (or the materialized table) exist in
        one piece.
        """
        telemetry.count("serve.stream_request")
        profiler = StreamingProfiler(
            source_file=name,
            scan_cache_max_values=self.service.scan_cache_max_values,
        )

        def pieces():
            remaining = length
            while remaining > 0:
                piece = self.rfile.read(min(STREAM_READ_BYTES, remaining))
                if not piece:
                    raise CSVReadError(
                        f"connection closed mid-upload "
                        f"({length - remaining} of {length} bytes)"
                    )
                remaining -= len(piece)
                yield piece

        try:
            with telemetry.span("serve.stream_profile", table=name):
                for chunk in iter_csv_chunks(pieces(), name=name):
                    profiler.consume(chunk)
                profiles = profiler.profiles()
        except (CSVReadError, ProfileError) as exc:
            # The socket may still hold unread body bytes; a keep-alive
            # reuse would read them as the next request line.
            self.close_connection = True
            telemetry.count("serve.bad_request")
            self._send_json(400, {"error": str(exc)}, trace_id=trace_id)
            return
        request = self._submit_infer(
            name, deadline_s, trace_id, profiles=profiles,
            model_name=model_name,
        )
        if request is not None:
            self._finish_infer(request, name, deadline_s, trace_id)

    def _submit_infer(
        self,
        name: str,
        deadline_s: float | None,
        trace_id: str | None,
        table: Table | None = None,
        profiles: list | None = None,
        model_name: str | None = None,
    ):
        """Submit to the service; on shed/drain/404, answer and return None."""
        try:
            if table is not None:
                return self.service.infer(
                    table, deadline_s=deadline_s, model_name=model_name
                )
            return self.service.infer_profiles(
                profiles, table_name=name, deadline_s=deadline_s,
                model_name=model_name,
            )
        except UnknownModelError as exc:
            telemetry.count("serve.unknown_model")
            self._send_json(
                404, {"error": str(exc), "models": exc.known},
                trace_id=trace_id,
            )
            return None
        except QueueFullError as exc:
            # A shed request without an incoming traceparent still has the
            # server-minted trace id (carried on the exception).
            trace_id = trace_id or getattr(exc, "trace_id", None)
            telemetry.warning(
                "serve.shed_request", table=name, trace_id=trace_id,
                queue_depth=exc.depth, queue_limit=exc.limit,
            )
            self._send_json(
                429,
                {"error": str(exc), "retry_after_s": exc.retry_after_s},
                headers={"Retry-After": str(max(1, round(exc.retry_after_s)))},
                trace_id=trace_id,
            )
            return None
        except ServiceClosedError:
            self._send_json(
                503, {"error": "server is draining"}, trace_id=trace_id
            )
            return None

    def _finish_infer(
        self, request, name: str, deadline_s: float | None,
        trace_id: str | None,
    ) -> None:
        if trace_id is None and request.trace is not None:
            # No (valid) incoming traceparent: echo the trace the server
            # started for this request instead of dropping correlation.
            trace_id = request.trace.trace_id

        if request.predictions is None and request.error is None:
            telemetry.warning(
                "serve.deadline_exceeded", table=name,
                trace_id=trace_id,
                deadline_ms=round(1000.0 * deadline_s, 1)
                if deadline_s else None,
            )
            self._send_json(
                504,
                {
                    "error": "deadline exceeded",
                    "deadline_ms": round(1000.0 * deadline_s, 1)
                    if deadline_s else None,
                },
                trace_id=trace_id,
            )
            return
        if request.error is not None:
            if isinstance(request.error, ProfileError):
                # The upload's *content* defeated featurization — that is
                # the client's data, not a server fault.
                telemetry.count("serve.bad_request")
                status = 400
            elif "deadline" in str(request.error).lower():
                status = 504
            else:
                status = 500
            self._send_json(
                status, {"error": str(request.error)}, trace_id=trace_id
            )
            return
        self._send_json(
            200,
            {
                "table": name,
                "model": request.model,
                "fingerprint": request.fingerprint,
                "generation": request.generation,
                "degraded": request.degraded,
                "predictions": [p.as_dict() for p in request.predictions],
                "timing": {
                    "queue_ms": round(request.queue_ms, 3),
                    "infer_ms": round(request.infer_ms, 3),
                    "batch_requests": request.batch_requests,
                    "batch_columns": request.batch_columns,
                },
            },
            trace_id=trace_id,
        )

    # -- plumbing ------------------------------------------------------------
    def _stream_requested(self, parsed) -> bool:
        raw = self._query_value(parsed, "stream")
        if raw is None:
            return False
        value = raw.strip().lower()
        if value in ("1", "true", "yes", "on"):
            return True
        if value in ("0", "false", "no", "off", ""):
            return False
        raise BadRequestError(f"stream is not a boolean: {raw!r}")

    def _deadline_s(self, parsed) -> float | None:
        raw = self._query_value(parsed, "deadline_ms") or self.headers.get(
            "X-Deadline-Ms"
        )
        if raw is None:
            return None  # service default applies
        try:
            deadline_ms = float(raw)
        except ValueError:
            raise BadRequestError(f"deadline_ms is not a number: {raw!r}")
        if deadline_ms <= 0:
            raise BadRequestError("deadline_ms must be positive")
        return deadline_ms / 1000.0

    @staticmethod
    def _query_value(parsed, key: str) -> str | None:
        values = parse_qs(parsed.query).get(key)
        return values[0] if values else None

    def _send_json(
        self,
        status: int,
        payload: dict,
        headers: dict | None = None,
        trace_id: str | None = None,
    ) -> None:
        if trace_id is not None:
            payload = {**payload, "trace_id": trace_id}
            headers = {**(headers or {}), "X-Trace-Id": trace_id}
        self._send_body(
            status, json.dumps(payload).encode("utf-8"),
            "application/json", headers,
        )

    def _send_text(
        self, status: int, text: str, content_type: str = "text/plain"
    ) -> None:
        self._send_body(status, text.encode("utf-8"), content_type, None)

    def _send_body(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: dict | None,
    ) -> None:
        try:
            # Chaos hook: a "serve.respond" rule drops the connection
            # before any bytes are written, so the client sees an abrupt
            # disconnect (never a torn half-response).
            faults.point("serve.respond", status=status)
        except FaultInjectedError:
            telemetry.count("serve.fault_disconnect")
            self.close_connection = True
            try:
                self.connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            return
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        # Status line, headers and body leave as one sendall: end_headers()
        # would flush the headers as a write of their own.
        self._headers_buffer.append(b"\r\n")
        response = b"".join(self._headers_buffer) + body
        self._headers_buffer = []
        try:
            self.wfile.write(response)
        except BrokenPipeError:  # client gave up (e.g. its own timeout)
            telemetry.count("serve.client_gone")

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        telemetry.debug("serve.http", client=self.address_string(),
                        line=format % args)


class ServeHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that owns an :class:`InferenceService`.

    Handler threads are non-daemon and joined on close so a drain never
    cuts off an in-flight response mid-write.  Keep-alive makes each
    connection long-lived, so the server tracks every accepted socket:
    :meth:`server_close` half-closes them (read side only) before joining
    the handlers, turning each handler's next ``readline`` into EOF —
    idle persistent connections end immediately instead of holding the
    join for their 30 s keep-alive timeout, while in-flight responses
    still write out in full.
    """

    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], service: InferenceService):
        super().__init__(address, ServeHandler)
        self.service = service
        self._conn_lock = threading.Lock()
        self._connections: set = set()

    def get_request(self):
        request, address = super().get_request()
        with self._conn_lock:
            self._connections.add(request)
        return request, address

    def shutdown_request(self, request) -> None:  # type: ignore[override]
        with self._conn_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        """Half-close every open connection, then join the handlers."""
        with self._conn_lock:
            connections = list(self._connections)
        for sock in connections:
            try:
                sock.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # already closing
        super().server_close()


def make_server(
    host: str, port: int, service: InferenceService
) -> ServeHTTPServer:
    """Bind (port 0 picks an ephemeral port; read ``.server_port``)."""
    return ServeHTTPServer((host, port), service)
