"""Stdlib (``http.client``) client for a running ``repro-serve`` instance.

Used by ``repro-infer --server URL`` (so the CLI can delegate to a resident
server instead of training/loading a model per invocation) and by
perfbench's load generator.  No third-party HTTP dependency.

Connections are persistent: each calling thread keeps one HTTP/1.1
keep-alive connection open (``http.client.HTTPConnection``), so a loop of
requests pays the TCP handshake once instead of per call.  A reused
connection the server closed in the meantime (keep-alive timeout, restart)
is transparently replaced with one fresh attempt before the error
surfaces — counted as ``client.reconnect``, invisible to the retry policy.
:meth:`ServeClient.close` releases the sockets.

Transient failures are retried by default: 429/503 responses (honoring
``Retry-After``) and transport errors (connection refused/reset, a server
dropping the socket mid-response) back off exponentially with jitter,
bounded by :class:`RetryPolicy.total_deadline_s`.  Retrying ``POST
/v1/infer`` is safe because inference is pure — the server holds no
per-request state, so a replayed request returns the same predictions.
Every retry is counted (``client.retry`` / ``client.retry.<reason>``).
Pass ``retry=None`` to get single-shot requests (the queue-shedding
benchmarks need to see their 429s).
"""

from __future__ import annotations

import http.client
import json
import os
import random
import threading
import time
import urllib.parse
from dataclasses import dataclass

from repro.faults import FaultInjectedError, faults
from repro.obs import TraceContext, span_context, telemetry


class ServeClientError(RuntimeError):
    """A non-2xx response (or transport failure) from the server.

    ``status`` is the HTTP status code (0 on transport errors);
    ``payload`` is the decoded JSON error body when one was returned;
    ``transport`` is True when the failure happened below HTTP (connection
    refused/reset, socket closed mid-response, unparseable body).
    """

    def __init__(
        self,
        message: str,
        status: int = 0,
        payload: dict | None = None,
        transport: bool = False,
    ):
        super().__init__(message)
        self.status = status
        self.payload = payload or {}
        self.transport = transport

    @property
    def retry_after_s(self) -> float | None:
        value = self.payload.get("retry_after_s")
        return float(value) if value is not None else None


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule for transient request failures.

    Delay before attempt ``n+1`` is ``base_delay_s * 2**(n-1)`` capped at
    ``max_delay_s``, stretched by up to ``jitter`` (uniform), and floored
    by the server's ``Retry-After`` when one was sent.  A retry that would
    overrun ``total_deadline_s`` (measured from the first attempt) is not
    made — the last error is raised instead.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    total_deadline_s: float = 30.0
    jitter: float = 0.25
    retry_statuses: tuple[int, ...] = (429, 503)


DEFAULT_RETRY = RetryPolicy()


class ServeClient:
    """Thin JSON-over-HTTP client bound to one server base URL.

    ``retry`` (default :data:`DEFAULT_RETRY`) governs transient-failure
    handling; ``rng`` seeds the backoff jitter (tests pass
    ``random.Random(0)`` for reproducible schedules).
    """

    def __init__(
        self,
        base_url: str,
        timeout_s: float = 60.0,
        retry: RetryPolicy | None = DEFAULT_RETRY,
        rng: random.Random | None = None,
    ):
        self.base_url = base_url.rstrip("/")
        parsed = urllib.parse.urlsplit(self.base_url)
        self._host = parsed.hostname or "127.0.0.1"
        self._port = parsed.port or 80
        self.timeout_s = timeout_s
        self.retry = retry
        self._rng = rng if rng is not None else random.Random()
        self._local = threading.local()
        self._conn_lock = threading.Lock()
        self._conns: set[http.client.HTTPConnection] = set()

    # -- inference -----------------------------------------------------------
    def infer_csv_text(
        self,
        text: str,
        table: str | None = None,
        deadline_ms: float | None = None,
        model: str | None = None,
    ) -> dict:
        """POST CSV text (as UTF-8) to ``/v1/infer``; the decoded response
        dict.  The server streams every CSV body through its sketch
        profiler.

        ``model`` routes to one registered model via ``X-Repro-Model``
        (None → the server's default route).
        """
        return self._post_infer(
            text.encode("utf-8"), "text/csv", table=table,
            deadline_ms=deadline_ms, model=model,
        )

    def infer_csv_file(
        self,
        path,
        table: str | None = None,
        deadline_ms: float | None = None,
        model: str | None = None,
    ) -> dict:
        """Upload a CSV file's bytes as-is to ``/v1/infer``, without
        buffering it.

        The body is the file object itself (with an explicit
        ``Content-Length`` from its size), so client memory stays flat no
        matter how large the upload; the server decodes the bytes exactly
        as :func:`~repro.tabular.csv_io.decode_csv_bytes` decodes a file
        and profiles them chunk by chunk.  Retries re-open the file, so the
        retry policy works unchanged.  ``OSError`` propagates for an
        unreadable path (same as ``open``).
        """
        path = os.fspath(path)
        if table is None:
            table = os.path.splitext(os.path.basename(path))[0]

        def body():
            handle = open(path, "rb")
            return handle, os.fstat(handle.fileno()).st_size

        return self._post_infer(
            body, "text/csv", table=table, deadline_ms=deadline_ms,
            model=model,
        )

    def infer_columns(
        self,
        columns: list[dict],
        table: str = "",
        deadline_ms: float | None = None,
        model: str | None = None,
    ) -> dict:
        """POST a JSON column payload: ``[{"name": ..., "cells": [...]}]``."""
        body = json.dumps({"table": table, "columns": columns}).encode("utf-8")
        return self._post_infer(
            body, "application/json", deadline_ms=deadline_ms, model=model,
        )

    def _post_infer(
        self,
        body,
        content_type: str,
        table: str | None = None,
        deadline_ms: float | None = None,
        model: str | None = None,
    ) -> dict:
        query = []
        if table:
            query.append(f"table={urllib.parse.quote(table)}")
        if deadline_ms is not None:
            query.append(f"deadline_ms={deadline_ms:g}")
        path = "/v1/infer" + ("?" + "&".join(query) if query else "")
        return self._request("POST", path, body, content_type, model=model)

    # -- registry ------------------------------------------------------------
    def models(self) -> dict:
        """``GET /v1/models``: the server's routing table."""
        return self._request("GET", "/v1/models")

    def swap_model(
        self,
        name: str,
        path,
        wait: str = "flipped",
        timeout_s: float = 120.0,
    ) -> dict:
        """Hot-swap one registered model to the artifact at ``path``.

        ``wait`` mirrors the endpoint: ``"flipped"`` (default) blocks until
        the route points at the new artifact, ``"drained"`` until the old
        one has fully drained, ``"none"`` returns the 202 immediately.
        """
        body = json.dumps({
            "path": os.fspath(path), "wait": wait, "timeout_s": timeout_s,
        }).encode("utf-8")
        quoted = urllib.parse.quote(name, safe="")
        return self._request(
            "POST", f"/v1/models/{quoted}/swap", body, "application/json"
        )

    # -- status --------------------------------------------------------------
    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/metrics.json")

    def metrics_text(self) -> str:
        """The Prometheus text exposition from ``GET /metrics``."""
        try:
            status, _, raw = self._perform("GET", "/metrics", None, {})
        except (OSError, http.client.HTTPException) as exc:
            raise ServeClientError(
                f"GET /metrics -> {exc}", status=0, transport=True
            ) from exc
        if status != 200:
            raise ServeClientError(
                f"GET /metrics -> HTTP {status}", status=status
            )
        return raw.decode("utf-8")

    def wait_ready(self, timeout_s: float = 60.0, poll_s: float = 0.2) -> dict:
        """Poll ``/healthz`` until the primary model is resident.

        Polls single-shot (no per-request retry — the outer loop *is* the
        retry).  Returns the final health dict; raises
        :class:`ServeClientError` when the model load failed or the timeout
        passes.
        """
        end = time.monotonic() + timeout_s
        health: dict = {}
        while time.monotonic() < end:
            try:
                health = self._request_once("GET", "/healthz")
            except ServeClientError:
                health = {}
            else:
                if health.get("ready"):
                    return health
                if health.get("model", {}).get("state") == "failed":
                    raise ServeClientError(
                        f"model load failed: {health['model'].get('error')}",
                        status=500, payload=health,
                    )
            time.sleep(poll_s)
        raise ServeClientError(
            f"server not ready after {timeout_s:.0f}s "
            f"(last health: {health or 'unreachable'})"
        )

    # -- connection management ----------------------------------------------
    def close(self) -> None:
        """Close every persistent connection this client has opened.

        Safe to call from any thread; a later request simply reconnects.
        """
        with self._conn_lock:
            conns = list(self._conns)
            self._conns.clear()
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _connection(self) -> tuple[http.client.HTTPConnection, bool]:
        """This thread's persistent connection; ``reused`` is False when
        it was just created (its first request cannot be keep-alive-stale).
        """
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            return conn, True
        conn = http.client.HTTPConnection(
            self._host, self._port, timeout=self.timeout_s
        )
        self._local.conn = conn
        with self._conn_lock:
            self._conns.add(conn)
        return conn, False

    def _drop_connection(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            return
        self._local.conn = None
        with self._conn_lock:
            self._conns.discard(conn)
        try:
            conn.close()
        except OSError:
            pass

    def _perform(
        self, method: str, path: str, data, headers: dict
    ) -> tuple[int, dict, bytes]:
        """One request over the persistent connection → (status, headers,
        body).

        A transport failure on a *reused* keep-alive connection gets one
        transparent fresh-connection attempt (the server may have closed
        the idle socket between requests — routine, not an error) when the
        body is replayable; file-object bodies are consumed by the failed
        send, so their replay is left to the outer retry policy, which
        re-opens the file.
        """
        replayable = data is None or isinstance(data, (bytes, bytearray))
        for attempt in (0, 1):
            conn, reused = self._connection()
            try:
                conn.request(method, path, body=data, headers=headers)
                response = conn.getresponse()
                raw = response.read()
            except (OSError, http.client.HTTPException):
                self._drop_connection()
                if reused and replayable and attempt == 0:
                    telemetry.count("client.reconnect")
                    continue
                raise
            resp_headers = {
                key.lower(): value for key, value in response.getheaders()
            }
            if response.will_close:
                self._drop_connection()
            return response.status, resp_headers, raw
        raise AssertionError("unreachable")  # pragma: no cover

    # -- transport -----------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        content_type: str | None = None,
        model: str | None = None,
    ) -> dict:
        # Every request gets a trace context.  With telemetry enabled the
        # client span itself is recorded and becomes the root the server's
        # spans hang off; disabled, a context is still minted so the server
        # side of the trace is stitched under one trace_id either way.
        with telemetry.span(
            "client.request", method=method, path=path.split("?", 1)[0]
        ) as span:
            context = span_context(span) or TraceContext.generate()
            return self._request_with_retry(
                method, path, body, content_type, context, model
            )

    def _request_with_retry(
        self,
        method: str,
        path: str,
        body: bytes | None,
        content_type: str | None,
        context: TraceContext,
        model: str | None = None,
    ) -> dict:
        policy = self.retry
        if policy is None:
            return self._request_once(
                method, path, body, content_type, context, model
            )
        start = time.monotonic()
        attempt = 1
        while True:
            try:
                return self._request_once(
                    method, path, body, content_type, context, model
                )
            except ServeClientError as exc:
                reason = self._retry_reason(exc, policy)
                if reason is None or attempt >= policy.max_attempts:
                    raise
                delay = min(
                    policy.max_delay_s,
                    policy.base_delay_s * 2 ** (attempt - 1),
                )
                delay *= 1.0 + policy.jitter * self._rng.random()
                if exc.retry_after_s is not None:
                    delay = max(delay, exc.retry_after_s)
                if time.monotonic() + delay > start + policy.total_deadline_s:
                    raise
                telemetry.count("client.retry")
                telemetry.count(f"client.retry.{reason}")
                telemetry.info(
                    "client.retrying", method=method, path=path,
                    attempt=attempt, delay_s=round(delay, 3), reason=reason,
                    trace_id=context.trace_id,
                )
                time.sleep(delay)
                attempt += 1

    @staticmethod
    def _retry_reason(exc: ServeClientError, policy: RetryPolicy) -> str | None:
        """Why this error is retryable, or None when it is not."""
        if exc.transport:
            return "transport"
        if exc.status in policy.retry_statuses:
            return f"status_{exc.status}"
        return None

    def _request_once(
        self,
        method: str,
        path: str,
        body=None,
        content_type: str | None = None,
        context: TraceContext | None = None,
        model: str | None = None,
    ) -> dict:
        try:
            faults.point("client.request", method=method, path=path)
        except FaultInjectedError as exc:
            # Client-side transport chaos: an injected strike looks like any
            # other connection failure, so the retry loop handles it.
            raise ServeClientError(
                f"{method} {path} -> injected fault: {exc}",
                status=0, transport=True,
            ) from exc
        # A callable body yields a fresh (file object, length) per attempt
        # (the file-upload path); http.client streams the file as-is
        # once Content-Length is set explicitly.
        opened = None
        headers: dict = {}
        if callable(body):
            opened, length = body()
            data = opened
            headers["Content-Length"] = str(length)
        else:
            data = body
        if content_type:
            headers["Content-Type"] = content_type
        if context is not None:
            headers["traceparent"] = context.to_traceparent()
        if model:
            headers["X-Repro-Model"] = model
        try:
            status, resp_headers, raw = self._perform(
                method, path, data, headers
            )
        except (OSError, http.client.HTTPException) as exc:
            # Connection refused/reset, socket closed mid-response
            # (RemoteDisconnected is a ConnectionResetError).
            raise ServeClientError(
                f"{method} {path} -> {type(exc).__name__}: {exc}",
                status=0, transport=True,
            ) from exc
        finally:
            if opened is not None:
                opened.close()
        if 200 <= status < 300:
            try:
                return json.loads(raw.decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as exc:
                raise ServeClientError(
                    f"{method} {path} -> unparseable response body: {exc}",
                    status=0, transport=True,
                ) from exc
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            payload = {"error": raw.decode("utf-8", "replace")}
        retry_after = resp_headers.get("retry-after")
        if retry_after is not None and "retry_after_s" not in payload:
            try:
                payload["retry_after_s"] = float(retry_after)
            except ValueError:
                pass
        raise ServeClientError(
            f"{method} {path} -> HTTP {status}: "
            f"{payload.get('error', 'unknown error')}",
            status=status, payload=payload,
        )
