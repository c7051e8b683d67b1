"""End-to-end tests for the ``repro.serve`` subsystem — over a real socket.

The in-process tests bind an ephemeral port with the actual
``ThreadingHTTPServer`` + ``ServeClient`` stack; the SIGTERM-drain test
spawns a real ``repro-serve`` process.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.cache import ArtifactCache
from repro.core.models import LogRegModel, RandomForestModel
from repro.core.persistence import save_model
from repro.core.pipeline import TypeInferencePipeline
from repro.obs import telemetry
from repro.serve import InferenceService, ModelRegistry, ServeClientError
from repro.serve.client import ServeClient
from repro.serve.http import ServeHTTPServer, make_server

CSV_TEXT = "id,salary,state\n" + "\n".join(
    f"{i},{1000 + 13 * i},{['CA', 'TX', 'NY', 'WA'][i % 4]}"
    for i in range(40)
)

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def served_model(small_corpus):
    model = RandomForestModel(n_estimators=10, random_state=0)
    model.fit(small_corpus.dataset)
    return model


@pytest.fixture(scope="module")
def served_model_path(served_model, tmp_path_factory):
    path = tmp_path_factory.mktemp("serve") / "rf.model"
    save_model(served_model, path)
    return path


@pytest.fixture(autouse=True)
def _telemetry():
    """Serving metrics are part of the contract; record them per test."""
    was_enabled = telemetry.enabled
    telemetry.enable()
    telemetry.reset()
    yield
    telemetry.reset()
    if not was_enabled:
        telemetry.disable()


@contextmanager
def running_server(registry, start_batcher=True, **service_knobs):
    service = InferenceService(registry, **service_knobs)
    server = make_server("127.0.0.1", 0, service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    if start_batcher:
        service.start()
    client = ServeClient(f"http://127.0.0.1:{server.server_port}")
    try:
        yield client, service
    finally:
        client.close()  # keep-alive sockets would stall the handler join
        server.shutdown()
        service.drain(timeout=5)
        server.server_close()
        thread.join(timeout=5)


class TestSingleRequest:
    def test_parity_with_offline_pipeline(self, served_model):
        offline = [
            p.as_dict()
            for p in TypeInferencePipeline(served_model).predict_csv_text(CSV_TEXT)
        ]
        registry = ModelRegistry.preloaded(served_model)
        with running_server(registry, max_wait_s=0.0) as (client, _):
            response = client.infer_csv_text(CSV_TEXT, table="sample")
        assert response["degraded"] is False
        assert response["model"] == "rf"
        # Byte-identical to the offline pipeline, modulo timing fields.
        assert json.dumps(response["predictions"]) == json.dumps(offline)

    def test_json_columns_payload(self, served_model):
        registry = ModelRegistry.preloaded(served_model)
        with running_server(registry, max_wait_s=0.0) as (client, _):
            response = client.infer_columns(
                [
                    {"name": "price", "cells": ["9.99", "12.50", None, "3.10"] * 10},
                    {"name": "city", "cells": ["berlin", "oslo", "lima", "pune"] * 10},
                ],
                table="payload",
            )
            health = client.healthz()
        assert [p["column"] for p in response["predictions"]] == ["price", "city"]
        assert health["ready"] is True
        assert health["model"]["fingerprint"] == registry.fingerprint

    def test_bad_payloads_get_400(self, served_model):
        registry = ModelRegistry.preloaded(served_model)
        with running_server(registry, max_wait_s=0.0) as (client, _):
            with pytest.raises(ServeClientError) as exc_info:
                client.infer_csv_text("")
            assert exc_info.value.status == 400
            with pytest.raises(ServeClientError) as exc_info:
                client.infer_columns([])
            assert exc_info.value.status == 400


class TestBatching:
    def test_concurrent_clients_get_batched(self, served_model):
        registry = ModelRegistry.preloaded(served_model)
        with running_server(registry, max_wait_s=0.25) as (client, _):
            responses: list[dict] = []
            errors: list[Exception] = []

            def fire():
                try:
                    responses.append(client.infer_csv_text(CSV_TEXT, table="c"))
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            threads = [threading.Thread(target=fire) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        assert not errors
        assert len(responses) == 6
        # The contract of the micro-batcher: concurrent uploads share batches.
        batch_size = telemetry.metrics.histogram("serve.batch_size")
        assert batch_size.max > 1
        assert max(r["timing"]["batch_requests"] for r in responses) > 1
        # Batched answers match each other (and therefore the offline path,
        # covered by TestSingleRequest).
        first = json.dumps(responses[0]["predictions"])
        assert all(json.dumps(r["predictions"]) == first for r in responses)


class TestRobustness:
    def test_deadline_exceeded_maps_to_504(self, served_model):
        registry = ModelRegistry.preloaded(served_model)
        # Gathering window far beyond the deadline: the request cannot be
        # answered in time.
        with running_server(registry, max_wait_s=2.0) as (client, _):
            with pytest.raises(ServeClientError) as exc_info:
                client.infer_csv_text(CSV_TEXT, deadline_ms=40)
        assert exc_info.value.status == 504
        assert telemetry.metrics.counter("serve.deadline_exceeded").value >= 1

    def test_full_queue_sheds_with_429(self, served_model):
        registry = ModelRegistry.preloaded(served_model)
        # Batcher worker not started: submissions pile up in the queue.
        with running_server(
            registry, start_batcher=False, queue_limit=2, max_wait_s=0.0
        ) as (client, service):
            from repro.tabular.csv_io import read_csv_text

            table = read_csv_text(CSV_TEXT, name="filler")
            service.batcher.submit(table)
            service.batcher.submit(table)
            # The default client would retry the 429 away; this test wants
            # to see the shed itself.
            one_shot = ServeClient(client.base_url, retry=None)
            with pytest.raises(ServeClientError) as exc_info:
                one_shot.infer_csv_text(CSV_TEXT, deadline_ms=5000)
            # Drain the never-started worker's queue by hand so teardown's
            # close() has nothing to wait on.
            service.batcher._queue.clear()
        assert exc_info.value.status == 429
        assert exc_info.value.retry_after_s is not None
        assert telemetry.metrics.counter("serve.shed").value >= 1

    def test_degraded_fallback_while_model_loads(self, served_model):
        registry = ModelRegistry()  # load() never called: stays "loading"
        with running_server(registry, start_batcher=False, max_wait_s=0.0) as (
            client,
            service,
        ):
            service.batcher.start()
            health = client.healthz()
            assert health["status"] == "degraded"
            assert health["ready"] is False
            response = client.infer_csv_text(CSV_TEXT, table="cold")
            assert response["degraded"] is True
            assert response["model"] == "rules"
            assert {p["column"] for p in response["predictions"]} == {
                "id", "salary", "state",
            }
            assert all(
                p["confidence"] == 0.5 for p in response["predictions"]
            )
        assert telemetry.metrics.counter("serve.degraded_batches").value >= 1

    def test_metrics_endpoint_reports_serve_counters(self, served_model):
        registry = ModelRegistry.preloaded(served_model)
        with running_server(registry, max_wait_s=0.0) as (client, _):
            client.infer_csv_text(CSV_TEXT)
            snapshot = client.metrics()
        assert snapshot["counters"]["serve.request"] >= 1
        assert "serve.batch_size" in snapshot["histograms"]


class TestTracing:
    """Distributed-trace stitching over a real socket (client and server in
    one process, but on different threads and talking real HTTP)."""

    def _spans_by_name(self):
        by_name: dict[str, list] = {}
        for record in telemetry.spans:
            by_name.setdefault(record.name, []).append(record)
        return by_name

    def test_client_span_parents_server_request(self, served_model):
        registry = ModelRegistry.preloaded(served_model)
        with running_server(registry, max_wait_s=0.0) as (client, _):
            response = client.infer_csv_text(CSV_TEXT, table="traced")
        spans = self._spans_by_name()
        (client_span,) = spans["client.request"]
        (server_span,) = spans["serve.request"]
        # One trace across the HTTP hop, parented by the client's span.
        assert client_span.trace_id
        assert server_span.trace_id == client_span.trace_id
        assert server_span.parent_span_id == client_span.span_id
        # The response echoes the trace id for log correlation.
        assert response["trace_id"] == client_span.trace_id

    def test_server_side_span_tree_is_stitched(self, served_model):
        registry = ModelRegistry.preloaded(served_model)
        with running_server(registry, max_wait_s=0.0) as (client, _):
            client.infer_csv_text(CSV_TEXT, table="traced")
        spans = self._spans_by_name()
        (request,) = spans["serve.request"]
        (queue_wait,) = spans["serve.queue_wait"]
        (batch,) = spans["serve.batch"]
        (predict,) = spans["serve.predict"]
        # Queue wait and the batch both hang off the request span even
        # though they ran on the batcher thread.
        assert queue_wait.trace_id == request.trace_id
        assert queue_wait.parent_span_id == request.span_id
        assert batch.trace_id == request.trace_id
        assert batch.parent_span_id == request.span_id
        # Kernel spans nest under the batch via the ordinary span stack.
        assert predict.trace_id == request.trace_id
        assert predict.parent_span_id == batch.span_id

    def test_batch_span_lists_member_traces(self, served_model):
        registry = ModelRegistry.preloaded(served_model)
        with running_server(registry, max_wait_s=0.25) as (client, _):
            threads = [
                threading.Thread(
                    target=lambda: client.infer_csv_text(CSV_TEXT, table="m")
                )
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        batches = self._spans_by_name()["serve.batch"]
        multi = [b for b in batches if b.attrs.get("n_requests", 0) > 1]
        assert multi, "expected at least one multi-request batch"
        listed = multi[0].attrs.get("member_trace_ids")
        assert listed and len(listed) == multi[0].attrs["n_requests"]
        # Every listed member trace belongs to a recorded request span.
        request_traces = {
            r.trace_id for r in self._spans_by_name()["serve.request"]
        }
        assert set(listed) <= request_traces

    def test_malformed_traceparent_starts_fresh_trace(self, served_model):
        import urllib.request

        registry = ModelRegistry.preloaded(served_model)
        with running_server(registry, max_wait_s=0.0) as (client, _):
            request = urllib.request.Request(
                client.base_url + "/v1/infer?table=t",
                data=CSV_TEXT.encode("utf-8"),
                method="POST",
                headers={"Content-Type": "text/csv",
                         "traceparent": "not-a-traceparent"},
            )
            with urllib.request.urlopen(request, timeout=30) as resp:
                payload = json.loads(resp.read().decode("utf-8"))
                header_trace = resp.headers.get("X-Trace-Id")
        spans = self._spans_by_name()
        (server_span,) = spans["serve.request"]
        # A fresh server-side trace, not a guess at the malformed header.
        assert server_span.parent_span_id is None
        assert server_span.trace_id == payload["trace_id"] == header_trace

    def test_shed_response_carries_trace_id(self, served_model):
        registry = ModelRegistry.preloaded(served_model)
        with running_server(
            registry, start_batcher=False, queue_limit=1, max_wait_s=0.0
        ) as (client, service):
            from repro.tabular.csv_io import read_csv_text

            service.batcher.submit(read_csv_text(CSV_TEXT, name="filler"))
            one_shot = ServeClient(client.base_url, retry=None)
            with pytest.raises(ServeClientError) as exc_info:
                one_shot.infer_csv_text(CSV_TEXT, deadline_ms=5000)
            service.batcher._queue.clear()
        assert exc_info.value.status == 429
        # The shed error body names the trace, so the client-side log line
        # and the server's shed log line correlate.
        (client_span,) = self._spans_by_name()["client.request"]
        assert exc_info.value.payload["trace_id"] == client_span.trace_id


class TestPrometheusEndpoint:
    def test_metrics_text_is_valid_exposition(self, served_model):
        from repro.obs import parse_prometheus_text

        registry = ModelRegistry.preloaded(served_model)
        with running_server(registry, max_wait_s=0.0) as (client, _):
            client.infer_csv_text(CSV_TEXT)
            text = client.metrics_text()
        families = parse_prometheus_text(text)
        assert families["repro_serve_request_total"]["type"] == "counter"
        assert families["repro_serve_request_total"]["samples"][
            "repro_serve_request_total"
        ] >= 1.0
        assert families["repro_serve_batch_size"]["type"] == "summary"
        # Rolling windows are exported as *_window summaries.
        assert any(name.endswith("_window") for name in families)

    def test_metrics_content_negotiation(self, served_model):
        import urllib.request

        registry = ModelRegistry.preloaded(served_model)
        with running_server(registry, max_wait_s=0.0) as (client, _):
            client.infer_csv_text(CSV_TEXT)
            # Plain scrape: Prometheus text with the versioned content type.
            request = urllib.request.Request(client.base_url + "/metrics")
            with urllib.request.urlopen(request, timeout=30) as resp:
                assert resp.headers.get_content_type() == "text/plain"
                assert "version=0.0.4" in resp.headers["Content-Type"]
                assert b"# TYPE" in resp.read()
            # JSON consumers: Accept negotiation and the explicit path.
            request = urllib.request.Request(
                client.base_url + "/metrics",
                headers={"Accept": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=30) as resp:
                negotiated = json.loads(resp.read().decode("utf-8"))
            legacy = client.metrics()
        assert negotiated["counters"]["serve.request"] >= 1
        assert legacy["counters"]["serve.request"] >= 1

    def test_rolling_windows_populated_by_traffic(self, served_model):
        registry = ModelRegistry.preloaded(served_model)
        with running_server(registry, max_wait_s=0.0) as (client, _):
            client.infer_csv_text(CSV_TEXT)
            snapshot = client.metrics()
        windows = snapshot["windows"]
        assert windows["serve.request_ms_window"]["count"] >= 1
        assert windows["serve.batch_size_window"]["count"] >= 1
        assert windows["serve.request_ms_window"]["p99"] > 0


class _CountingSocket:
    """An accepted socket that counts the writes sent through it."""

    def __init__(self, sock):
        self._sock = sock
        self.writes = 0

    def sendall(self, data, *args):
        self.writes += 1
        return self._sock.sendall(data, *args)

    def send(self, data, *args):
        self.writes += 1
        return self._sock.send(data, *args)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class _CountingServer(ServeHTTPServer):
    """Hands every handler a :class:`_CountingSocket` around its socket."""

    def __init__(self, *args):
        super().__init__(*args)
        self.accepted: list[_CountingSocket] = []

    def finish_request(self, request, client_address):
        counted = _CountingSocket(request)
        self.accepted.append(counted)
        super().finish_request(counted, client_address)


class TestTransport:
    """A keep-alive response must never wait for the client's delayed ACK:
    NODELAY on the accepted socket, and one write per response."""

    @contextmanager
    def counting_server(self, registry):
        service = InferenceService(registry, max_wait_s=0.0)
        server = _CountingServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        service.start()
        client = ServeClient(f"http://127.0.0.1:{server.server_port}")
        try:
            yield client, server
        finally:
            client.close()
            server.shutdown()
            service.drain(timeout=5)
            server.server_close()
            thread.join(timeout=5)

    def test_accepted_socket_has_nodelay(self, served_model):
        registry = ModelRegistry.preloaded(served_model)
        with self.counting_server(registry) as (client, server):
            client.healthz()
            (accepted,) = server.accepted
            nodelay = accepted.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            )
        assert nodelay != 0

    def test_each_response_is_one_socket_write(self, served_model):
        registry = ModelRegistry.preloaded(served_model)
        with self.counting_server(registry) as (client, server):
            ok = client.infer_csv_text(CSV_TEXT, table="sample")
            with pytest.raises(ServeClientError) as exc_info:
                client.infer_csv_text(CSV_TEXT, model="no-such-model")
            client.metrics_text()
            writes = sum(sock.writes for sock in server.accepted)
        assert ok["predictions"]
        assert exc_info.value.status == 404
        assert writes == 3  # a 200 JSON, a 404 JSON, a 200 text


class TestClientFootprint:
    """What a fresh interpreter loads for each entry point.

    Only ``LogisticRegression.fit``/``RBFSVM.fit`` import scipy, so the
    inference stack (CLI, server, model load, predict) never pays its
    ~0.5 s import or its memory.
    """

    @staticmethod
    def _loaded(code: str, modules: tuple[str, ...]) -> list[str]:
        """Run ``code`` in a fresh interpreter; the listed modules it loaded."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        probe = (
            f"import json, sys\n{code}\n"
            f"print(json.dumps(sorted(m for m in {modules!r} if m in sys.modules)))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        return json.loads(out.stdout.strip().splitlines()[-1])

    def test_client_import_leaves_service_stack_unloaded(self):
        # A load generator or CLI client imports only the client; the
        # service stack (numpy, models) stays out of its memory.
        code = "from repro.serve.client import ServeClient"
        modules = ("numpy", "scipy", "repro.serve.service", "repro.core.models")
        assert self._loaded(code, modules) == []

    @pytest.fixture(scope="class")
    def one_row_inputs(self, served_model_path, small_corpus, tmp_path_factory):
        root = tmp_path_factory.mktemp("footprint")
        csv_path = root / "one_row.csv"
        csv_path.write_text("id,salary,state\n1,1013,CA\n")
        logreg = LogRegModel()
        logreg.fit(small_corpus.dataset)
        logreg_path = root / "logreg.model"
        save_model(logreg, logreg_path)
        return {"csv": csv_path, "rf": served_model_path, "logreg": logreg_path}

    @pytest.mark.parametrize(
        "case", ["import-cli", "import-serve-cli", "infer-rf", "infer-logreg"]
    )
    def test_inference_stack_leaves_scipy_unloaded(self, case, one_row_inputs):
        if case == "import-cli":
            code = "import repro.cli"
        elif case == "import-serve-cli":
            code = "import repro.serve.cli"
        else:
            argv = [
                str(one_row_inputs["csv"]),
                "--model", str(one_row_inputs[case.split("-")[1]]),
                "--json",
            ]
            code = f"import repro.cli\nassert repro.cli.main({argv!r}) == 0"
        assert self._loaded(code, ("scipy",)) == []


class TestSpanRetention:
    """``repro-serve`` always enables telemetry, but keeps span records
    only when ``--trace-out``/``--manifest`` will export them."""

    def _serve(self, served_model, argv, n_requests):
        from repro.serve.cli import build_parser, enable_telemetry

        enable_telemetry(
            build_parser().parse_args(["--log-level", "warning", *argv])
        )
        registry = ModelRegistry.preloaded(served_model)
        with running_server(registry, max_wait_s=0.0) as (client, _):
            trace_ids = [
                client.infer_csv_text(CSV_TEXT)["trace_id"]
                for _ in range(n_requests)
            ]
            text = client.metrics_text()
        return trace_ids, text

    def test_spans_not_kept_without_trace_out(self, served_model):
        from repro.obs import parse_prometheus_text

        trace_ids, text = self._serve(served_model, [], n_requests=5)
        assert telemetry.spans == []
        assert telemetry.tracer.dropped == 0
        families = parse_prometheus_text(text)
        assert families["repro_serve_request_total"]["samples"][
            "repro_serve_request_total"
        ] == 5.0
        assert "repro_trace_dropped_total" not in families
        # Trace propagation is untouched: every response echoes its trace.
        assert len(set(trace_ids)) == 5 and all(trace_ids)

    def test_spans_kept_with_trace_out(self, served_model, tmp_path):
        trace_ids, _ = self._serve(
            served_model, ["--trace-out", str(tmp_path / "t.jsonl")],
            n_requests=2,
        )
        served = [s for s in telemetry.spans if s.name == "serve.request"]
        assert sorted(s.trace_id for s in served) == sorted(trace_ids)


@pytest.mark.slow
class TestCrossProcessTrace:
    """The acceptance scenario: repro-infer --server against a live
    repro-serve, both exporting spans, stitched by repro-obs into one tree."""

    def test_trace_merge_stitches_client_and_server_files(
        self, served_model_path, tmp_path
    ):
        from repro.obs.cli import build_tree, main as obs_main
        from repro.obs.export import read_jsonl

        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        server_trace = tmp_path / "server.jsonl"
        client_trace = tmp_path / "client.jsonl"
        csv_path = tmp_path / "sample.csv"
        csv_path.write_text(CSV_TEXT)

        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve",
                "--model", str(served_model_path),
                "--port", "0", "--max-wait-ms", "50", "--wait-ready",
                "--trace-out", str(server_trace),
            ],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            banner = proc.stdout.readline()
            assert "listening on" in banner, banner
            url = next(
                tok for tok in banner.split() if tok.startswith("http://")
            )
            ServeClient(url).wait_ready(timeout_s=30)

            infer = subprocess.run(
                [
                    sys.executable, "-m", "repro.cli", str(csv_path),
                    "--server", url, "--json",
                    "--trace-out", str(client_trace),
                ],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert infer.returncode == 0, infer.stderr
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

        # Both processes exported spans.
        client_spans = list(read_jsonl(client_trace))
        server_spans = list(read_jsonl(server_trace))
        assert any(r["name"] == "client.request" for r in client_spans)
        assert any(r["name"] == "serve.request" for r in server_spans)

        merged = tmp_path / "merged.jsonl"
        assert obs_main(
            ["trace", "merge", str(client_trace), str(server_trace),
             "-o", str(merged)]
        ) == 0
        records = list(read_jsonl(merged))
        client_root = next(
            r for r in records if r["name"] == "client.request"
        )
        trace_records = [
            r for r in records if r.get("trace_id") == client_root["trace_id"]
        ]
        # The request's spans from BOTH processes share one trace id...
        assert {r["name"] for r in trace_records} >= {
            "client.request", "serve.request", "serve.batch", "serve.predict",
        }
        # ...and the client-side spans are the root ancestors of the server
        # tree: infer.server (the CLI) > client.request > serve.request.
        roots, children = build_tree(trace_records)
        assert [r["name"] for r in roots] == ["infer.server"]
        assert client_root["parent_span_id"] == roots[0]["span_id"]
        served = {
            r["name"] for r in children.get(client_root["span_id"], [])
        }
        assert "serve.request" in served
        # `repro-obs trace show` renders the merged tree without error.
        assert obs_main(["trace", "show", str(merged),
                         "--trace-id", client_root["trace_id"]]) == 0


@pytest.mark.slow
class TestSigtermDrain:
    def test_sigterm_drains_in_flight_requests(self, served_model_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve",
                "--model", str(served_model_path),
                "--port", "0", "--max-wait-ms", "600", "--wait-ready",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            banner = proc.stdout.readline()
            assert "listening on" in banner, banner
            url = next(tok for tok in banner.split() if tok.startswith("http://"))
            client = ServeClient(url)
            client.wait_ready(timeout_s=30)

            result: dict = {}

            def fire():
                # Sits in the 600ms gathering window while SIGTERM arrives.
                result["response"] = client.infer_csv_text(CSV_TEXT)

            thread = threading.Thread(target=fire)
            thread.start()
            time.sleep(0.2)
            proc.send_signal(signal.SIGTERM)
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert proc.wait(timeout=30) == 0
            # The in-flight request was answered, not dropped.
            assert "response" in result
            assert len(result["response"]["predictions"]) == 3
            assert "drained" in proc.stdout.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


class TestCachePrune:
    """Housekeeping for long-lived servers: LRU eviction of the artifact dir."""

    def _fill(self, root, n=4):
        cache = ArtifactCache(root)
        for index in range(n):
            cache.put("model", f"key{index}", {"payload": "x" * 1000})
            entry = cache.path("model", f"key{index}")
            stamp = time.time() - (n - index) * 100
            os.utime(entry, (stamp, stamp))
        return cache

    def test_prune_evicts_least_recently_used_first(self, tmp_path):
        cache = self._fill(tmp_path, n=4)
        sizes = cache.size_bytes()
        report = cache.prune(max_bytes=sizes // 2)
        assert report["removed"] == 2
        # Oldest mtimes (key0, key1) went first.
        assert not cache.path("model", "key0").exists()
        assert not cache.path("model", "key1").exists()
        assert cache.path("model", "key3").exists()
        assert cache.size_bytes() <= sizes // 2

    def test_get_refreshes_recency(self, tmp_path):
        cache = self._fill(tmp_path, n=3)
        assert cache.get("model", "key0") is not None  # bumps mtime
        report = cache.prune(max_bytes=cache.size_bytes() - 1)
        assert report["removed"] == 1
        assert cache.path("model", "key0").exists()
        assert not cache.path("model", "key1").exists()

    def test_prune_cli_subcommand(self, tmp_path, capsys):
        from repro.benchmark.runner import main as bench_main

        cache = self._fill(tmp_path, n=3)
        budget = (2 * cache.size_bytes()) // 3  # room for exactly two entries
        code = bench_main(
            ["cache", "prune", "--cache-dir", str(tmp_path),
             "--max-bytes", str(budget)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pruned 1 of 3 entries" in out
        assert ArtifactCache(tmp_path).size_bytes() <= budget

    def test_parse_size_suffixes(self):
        from repro.benchmark.runner import parse_size

        assert parse_size("1024") == 1024
        assert parse_size("1k") == 1024
        assert parse_size("2M") == 2 * 1024**2
        assert parse_size("0.5G") == 512 * 1024**2


class TestStreamedIngestion:
    """``POST /v1/infer?stream=1``: profile the CSV body incrementally."""

    def test_streamed_predictions_match_buffered(self, served_model, tmp_path):
        path = tmp_path / "sample.csv"
        path.write_text(CSV_TEXT)
        registry = ModelRegistry.preloaded(served_model)
        with running_server(registry, max_wait_s=0.0) as (client, _):
            buffered = client.infer_csv_text(CSV_TEXT, table="sample")
            streamed = client.infer_csv_file(path, table="sample")
        assert streamed["degraded"] is False
        assert streamed["predictions"] == buffered["predictions"]
        assert telemetry.metrics.counter("serve.stream_request").value == 1

    def test_streamed_degraded_fallback(self, served_model, tmp_path):
        path = tmp_path / "sample.csv"
        path.write_text(CSV_TEXT)
        registry = ModelRegistry()  # never loads: stays degraded
        with running_server(registry, start_batcher=False, max_wait_s=0.0) as (
            client,
            service,
        ):
            service.batcher.start()
            response = client.infer_csv_file(path, table="cold")
        assert response["degraded"] is True
        assert {p["column"] for p in response["predictions"]} == {
            "id", "salary", "state",
        }

    def test_stream_flag_with_json_body_is_400(self, served_model):
        import urllib.error
        import urllib.request

        registry = ModelRegistry.preloaded(served_model)
        with running_server(registry, max_wait_s=0.0) as (client, _):
            request = urllib.request.Request(
                f"{client.base_url}/v1/infer?stream=1",
                data=json.dumps({"table": "t", "columns": []}).encode(),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urllib.request.urlopen(request, timeout=5)
            assert exc_info.value.code == 400
            body = json.loads(exc_info.value.read())
            assert "CSV body" in body["error"]

    def test_streamed_unreadable_body_is_400(self, served_model):
        import urllib.error
        import urllib.request

        registry = ModelRegistry.preloaded(served_model)
        with running_server(registry, max_wait_s=0.0) as (client, _):
            # A lying UTF-16 BOM with garbage payload: the incremental
            # decoder rejects it mid-stream; the server must answer a
            # clean 400, not drop the request.
            request = urllib.request.Request(
                f"{client.base_url}/v1/infer?stream=1",
                data=b"\xff\xfe" + os.urandom(31),
                headers={"Content-Type": "text/csv"},
            )
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urllib.request.urlopen(request, timeout=5)
            assert exc_info.value.code == 400
        assert telemetry.metrics.counter("serve.bad_request").value == 1


class TestScanCacheKnob:
    """The stats-scan recycle threshold is a serve-time knob."""

    def test_cli_flag_parses(self):
        from repro.serve.cli import build_parser

        args = build_parser().parse_args(["--scan-cache-max-values", "123"])
        assert args.scan_cache_max_values == 123
        # Keeping hit values at 100k resident values hits more often than
        # dropping everything at 200k (docs/performance.md).
        assert build_parser().parse_args([]).scan_cache_max_values == 100_000

    def test_health_reports_threshold(self, served_model):
        registry = ModelRegistry.preloaded(served_model)
        with running_server(
            registry, max_wait_s=0.0, scan_cache_max_values=500
        ) as (client, service):
            assert service.scan_cache_max_values == 500
            assert client.healthz()["scan_cache_max_values"] == 500

    def test_tiny_threshold_recycles_but_answers_identically(
        self, served_model, tmp_path
    ):
        path = tmp_path / "sample.csv"
        path.write_text(CSV_TEXT)
        registry = ModelRegistry.preloaded(served_model)
        with running_server(registry, max_wait_s=0.0) as (client, _):
            reference = client.infer_csv_text(CSV_TEXT, table="sample")
        telemetry.reset()
        with running_server(
            registry, max_wait_s=0.0, scan_cache_max_values=5
        ) as (client, _):
            tight = client.infer_csv_file(path, table="sample")
            resets = telemetry.metrics.counter("sketch.scan_cache_reset").value
        assert resets >= 1
        assert tight["predictions"] == reference["predictions"]

        # Buffered requests across trims.  A (CSV_TEXT) and B share only
        # their four state values.  With a 100-value cap, every B request
        # overflows the cache (84 + 80 values), and the trim keeps exactly
        # A's 84 values, which hit since the last trim; the answers never
        # change.
        other = "id,salary,state\n" + "\n".join(
            f"{i},{1000 + 13 * i},{['CA', 'TX', 'NY', 'WA'][i % 4]}"
            for i in range(40, 80)
        )
        stream = [CSV_TEXT, CSV_TEXT, other, CSV_TEXT, other]
        telemetry.reset()
        with running_server(registry, max_wait_s=0.0) as (client, _):
            roomy = [client.infer_csv_text(text) for text in stream]
        telemetry.reset()
        with running_server(
            registry, max_wait_s=0.0, scan_cache_max_values=100
        ) as (client, _):
            trimmed = [client.infer_csv_text(text) for text in stream]
            snapshot = client.metrics()
        for got, want in zip(trimmed, roomy):
            assert json.dumps(got["predictions"]) == json.dumps(
                want["predictions"]
            )
        assert snapshot["counters"]["serve.scan_cache_reset"] == 2
        assert snapshot["counters"]["serve.scan_cache_kept"] == 2 * 84
        assert snapshot["gauges"]["serve.scan_cache_values"] == 84
