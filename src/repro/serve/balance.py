"""Client-side load balancer over N ``repro-serve`` processes.

Horizontal scale-out without a separate proxy tier: the fleet is N
independent serve processes (typically sharing one artifact cache dir, so
the PR 9 ``FileLock`` makes exactly one of them train the default model and
the rest warm-fetch), and :class:`FleetClient` spreads requests over them
from inside the caller.

Routing is least-in-flight: each request goes to the healthy backend with
the fewest outstanding requests (ties broken round-robin), which naturally
tracks differences in backend speed.  Failures fail over: a transport
error (backend died, connection refused) puts the backend in a short
cooldown and the request is re-sent to another backend; retryable HTTP
statuses (429 shed, 503 draining) fail over without cooldown — the backend
is alive, just busy.  The retry budget is one :class:`RetryPolicy` across
the whole fleet, so a request is never retried more times than a
single-backend client would.

Inference is pure (the servers hold no per-request state), so replaying a
request on another backend can never produce a different answer — the
scale-out parity tests in ``tests/test_serve_fleet.py`` pin exactly that.
Every underlying :class:`~repro.serve.client.ServeClient` keeps its
persistent connections, and each request still mints one trace context, so
``X-Trace-Id`` stitching works unchanged through failover.
"""

from __future__ import annotations

import random
import threading
import time

from repro.obs import telemetry
from repro.serve.client import (
    DEFAULT_RETRY,
    RetryPolicy,
    ServeClient,
    ServeClientError,
)


class NoBackendError(ServeClientError):
    """Every backend failed (or the fleet is empty)."""


class _Backend:
    __slots__ = ("url", "client", "inflight", "cooldown_until")

    def __init__(self, url: str, timeout_s: float):
        self.url = url.rstrip("/")
        # Backends get single-shot clients: retry/failover policy lives in
        # the fleet loop, where the next attempt can pick a different
        # backend instead of hammering the failed one.
        self.client = ServeClient(self.url, timeout_s=timeout_s, retry=None)
        self.inflight = 0
        self.cooldown_until = 0.0


class FleetClient:
    """Balance requests over several serve processes; fail over on error.

    ``retry`` bounds attempts *across the fleet* (default
    :data:`~repro.serve.client.DEFAULT_RETRY`); ``cooldown_s`` is how long
    a backend sits out after a transport error before being eligible
    again.  Pass ``rng`` for a reproducible backoff schedule.
    """

    def __init__(
        self,
        base_urls: list[str],
        timeout_s: float = 60.0,
        retry: RetryPolicy | None = DEFAULT_RETRY,
        rng: random.Random | None = None,
        cooldown_s: float = 0.5,
    ):
        if not base_urls:
            raise ValueError("FleetClient needs at least one backend URL")
        self._backends = [_Backend(url, timeout_s) for url in base_urls]
        self.retry = retry
        self.cooldown_s = cooldown_s
        self._rng = rng if rng is not None else random.Random()
        self._lock = threading.Lock()
        self._rr = 0

    @property
    def urls(self) -> list[str]:
        return [backend.url for backend in self._backends]

    # -- inference -----------------------------------------------------------
    def infer_csv_text(
        self,
        text: str,
        table: str | None = None,
        deadline_ms: float | None = None,
        model: str | None = None,
    ) -> dict:
        return self._balanced(
            "infer_csv_text", text, table=table, deadline_ms=deadline_ms,
            model=model,
        )

    def infer_csv_file(
        self,
        path,
        table: str | None = None,
        deadline_ms: float | None = None,
        model: str | None = None,
    ) -> dict:
        return self._balanced(
            "infer_csv_file", path, table=table, deadline_ms=deadline_ms,
            model=model,
        )

    def infer_columns(
        self,
        columns: list[dict],
        table: str = "",
        deadline_ms: float | None = None,
        model: str | None = None,
    ) -> dict:
        return self._balanced(
            "infer_columns", columns, table=table, deadline_ms=deadline_ms,
            model=model,
        )

    # -- fleet-wide operations -----------------------------------------------
    def swap_model(
        self,
        name: str,
        path,
        wait: str = "flipped",
        timeout_s: float = 120.0,
    ) -> dict:
        """Hot-swap ``name`` on *every* backend; ``{url: response}``.

        Raises the first failure after attempting all backends, so a fleet
        is never left silently split across artifacts.
        """
        results: dict = {}
        first_error: ServeClientError | None = None
        for backend in self._backends:
            try:
                results[backend.url] = backend.client.swap_model(
                    name, path, wait=wait, timeout_s=timeout_s
                )
            except ServeClientError as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        return results

    def healthz(self) -> dict:
        """``{url: health dict}`` for every reachable backend."""
        out: dict = {}
        for backend in self._backends:
            try:
                out[backend.url] = backend.client.healthz()
            except ServeClientError as exc:
                out[backend.url] = {"status": "unreachable", "error": str(exc)}
        return out

    def wait_ready(self, timeout_s: float = 60.0, poll_s: float = 0.2) -> dict:
        """Block until every backend's default model is resident."""
        end = time.monotonic() + timeout_s
        out: dict = {}
        for backend in self._backends:
            remaining = max(poll_s, end - time.monotonic())
            out[backend.url] = backend.client.wait_ready(
                timeout_s=remaining, poll_s=poll_s
            )
        return out

    def close(self) -> None:
        for backend in self._backends:
            backend.client.close()

    def __enter__(self) -> "FleetClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- balancing core ------------------------------------------------------
    def _pick(self, tried: set) -> _Backend:
        with self._lock:
            now = time.monotonic()
            fresh = [
                b for b in self._backends
                if id(b) not in tried and b.cooldown_until <= now
            ]
            if not fresh:
                # Everyone tried or cooling: least-bad backend (ignore the
                # cooldown rather than fail — it may have just restarted).
                fresh = [
                    b for b in self._backends if id(b) not in tried
                ] or list(self._backends)
            self._rr += 1
            rr = self._rr
            backend = min(
                fresh,
                key=lambda b: (b.inflight, (rr + self._backends.index(b))
                               % len(self._backends)),
            )
            backend.inflight += 1
            return backend

    def _release(self, backend: _Backend) -> None:
        with self._lock:
            backend.inflight -= 1

    def _cool(self, backend: _Backend) -> None:
        with self._lock:
            backend.cooldown_until = time.monotonic() + self.cooldown_s

    def _balanced(self, method: str, *args, **kwargs) -> dict:
        policy = self.retry
        max_attempts = policy.max_attempts if policy else 1
        # Failing over to an untried backend does not consume retry budget:
        # with N backends a request may probe each one once, *then* the
        # policy's backoff/attempt accounting kicks in.
        max_attempts += len(self._backends) - 1
        deadline = (
            time.monotonic() + policy.total_deadline_s if policy else None
        )
        tried: set = set()
        attempt = 1
        while True:
            backend = self._pick(tried)
            try:
                return getattr(backend.client, method)(*args, **kwargs)
            except ServeClientError as exc:
                retryable = exc.transport or (
                    policy is not None and exc.status in policy.retry_statuses
                )
                if exc.transport:
                    # The backend itself failed — sit it out briefly so the
                    # fleet stops routing load at a dead process.
                    self._cool(backend)
                    telemetry.count("fleet.backend_down")
                if not retryable or attempt >= max_attempts:
                    raise
                tried.add(id(backend))
                swept = len(tried) >= len(self._backends)
                if swept:
                    tried.clear()  # every backend probed: start over
                delay = 0.0
                if policy is not None and swept:
                    # A full fleet sweep failed; back off before sweep N+1.
                    delay = min(
                        policy.max_delay_s,
                        policy.base_delay_s * 2 ** (attempt - 1),
                    ) * (1.0 + policy.jitter * self._rng.random())
                    if exc.retry_after_s is not None:
                        delay = max(delay, exc.retry_after_s)
                if deadline is not None and (
                    time.monotonic() + delay > deadline
                ):
                    raise
                telemetry.count("fleet.failover")
                if delay:
                    time.sleep(delay)
                attempt += 1
            finally:
                self._release(backend)
