"""Fleet-scale serving tests: multi-model registry, hot swap, scale-out.

Differential tests in the PR 5 tradition: every distributed behavior —
per-request model routing, a mid-run zero-downtime swap, a 2/4-backend
balancer, a backend killed under seeded chaos — must answer byte-identical
to the serial/offline truth.  The in-process tests bind real ephemeral-port
``ThreadingHTTPServer`` instances; the ``repro-infer`` parity test spawns a
real ``repro-serve`` process and compares CLI stdout bytes.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.core.models import (
    CNNModel,
    KNNModel,
    LogRegModel,
    RandomForestModel,
    SVMModel,
)
from repro.core.persistence import save_model
from repro.core.pipeline import TypeInferencePipeline
from repro.datagen.corpus import generate_corpus
from repro.datagen.downstream import SPEC_BY_NAME, make_dataset
from repro.downstream.harness import evaluate_assignment
from repro.downstream.suite import model_assignments, served_assignments
from repro.faults import FaultPlan, faults
from repro.obs import telemetry
from repro.serve import (
    FleetClient,
    InferenceService,
    ModelRegistry,
    ServeClient,
    ServeClientError,
    SwapInProgressError,
)
from repro.serve.http import make_server

CSV_TEXT = "id,salary,state\n" + "\n".join(
    f"{i},{1000 + 13 * i},{['CA', 'TX', 'NY', 'WA'][i % 4]}"
    for i in range(40)
)

#: Small per-request tables for the soak/scale-out load mix.
SOAK_CSVS = [
    "a,b\n" + "\n".join(f"{i},{i * 3 + k}" for i in range(8))
    for k in range(4)
]

REPO_ROOT = Path(__file__).resolve().parent.parent


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


@pytest.fixture(scope="module")
def fleet_models(small_corpus):
    """One fitted model of every kind (small hyperparameters)."""
    dataset = small_corpus.dataset
    models = {
        "logreg": LogRegModel(),
        "svm": SVMModel(max_landmarks=120),
        "rf": RandomForestModel(n_estimators=10, random_state=0),
        "knn": KNNModel(n_neighbors=3),
        "cnn": CNNModel(
            epochs=2, hidden_units=16, num_filters=8, embed_dim=8
        ),
    }
    for model in models.values():
        model.fit(dataset)
    return models


@pytest.fixture(scope="module")
def fleet_model_paths(fleet_models, tmp_path_factory):
    root = tmp_path_factory.mktemp("fleet-models")
    paths = {}
    for name, model in fleet_models.items():
        paths[name] = root / f"{name}.model"
        save_model(model, paths[name])
    return paths


@contextmanager
def running_server(registry, **service_knobs):
    service = InferenceService(registry, **service_knobs)
    server = make_server("127.0.0.1", 0, service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    service.start()
    client = ServeClient(f"http://127.0.0.1:{server.server_port}")
    try:
        yield client, service
    finally:
        client.close()
        server.shutdown()
        service.drain(timeout=5)
        server.server_close()
        thread.join(timeout=5)


class _FleetBackend:
    """One in-process serve node of a fleet (own service + HTTP server)."""

    def __init__(self, registry, **service_knobs):
        self.service = InferenceService(registry, **service_knobs)
        self.server = make_server("127.0.0.1", 0, self.service)
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()
        self.service.start()
        self.url = f"http://127.0.0.1:{self.server.server_port}"
        self.stopped = False

    def stop(self, timeout: float = 5.0) -> None:
        if self.stopped:
            return
        self.stopped = True
        self.server.shutdown()
        self.service.drain(timeout=timeout)
        self.server.server_close()
        self.thread.join(timeout=timeout)


@contextmanager
def running_fleet(model, n_backends, **service_knobs):
    """N serve nodes over the same (shared-artifact) model."""
    backends = [
        _FleetBackend(ModelRegistry.preloaded(model), **service_knobs)
        for _ in range(n_backends)
    ]
    try:
        yield backends
    finally:
        for backend in backends:
            backend.stop()


class TestRouting:
    def test_header_and_path_routes_match_entries(self, fleet_models):
        registry = ModelRegistry.preloaded(fleet_models["rf"], name="rf")
        registry.register("knn", model=fleet_models["knn"])
        with running_server(registry, max_wait_s=0.0) as (client, service):
            via_header = client.infer_csv_text(
                CSV_TEXT, table="t", model="knn"
            )
            body = CSV_TEXT.encode("utf-8")
            via_path = client._request(
                "POST", "/v1/models/knn/infer?table=t", body, "text/csv"
            )
            default = client.infer_csv_text(CSV_TEXT, table="t")
        assert via_header["model"] == "knn"
        assert via_path["model"] == "knn"
        assert default["model"] == "rf"
        knn_fp = service.registry.resolve("knn").fingerprint
        assert via_header["fingerprint"] == knn_fp
        assert via_path["fingerprint"] == knn_fp
        assert json.dumps(via_header["predictions"]) == json.dumps(
            via_path["predictions"]
        )

    def test_unknown_model_is_404_with_known_names(self, fleet_models):
        registry = ModelRegistry.preloaded(fleet_models["rf"], name="rf")
        with running_server(registry, max_wait_s=0.0) as (client, _):
            with pytest.raises(ServeClientError) as exc_info:
                client.infer_csv_text(CSV_TEXT, model="nope")
        assert exc_info.value.status == 404
        assert exc_info.value.payload["models"] == ["rf"]

    def test_healthz_lists_every_model(self, fleet_models):
        registry = ModelRegistry.preloaded(fleet_models["rf"], name="rf")
        registry.register("knn", model=fleet_models["knn"])
        registry.register("logreg", model=fleet_models["logreg"])
        with running_server(registry, max_wait_s=0.0) as (client, _):
            health = client.healthz()
            listing = client.models()
        assert health["default_model"] == "rf"
        assert set(health["models"]) == {"rf", "knn", "logreg"}
        for entry in health["models"].values():
            assert entry["state"] == "ready"
            assert entry["generation"] == 0
            assert entry["fingerprint"]
        assert listing["default"] == "rf"
        assert set(listing["models"]) == {"rf", "knn", "logreg"}


class TestDifferentialParity:
    def test_every_model_kind_served_byte_identical(self, fleet_models):
        """Registry-served predictions == offline pipeline, all 5 kinds."""
        first = next(iter(fleet_models))
        registry = ModelRegistry.preloaded(fleet_models[first], name=first)
        for name, model in fleet_models.items():
            if name != first:
                registry.register(name, model=model)
        with running_server(registry, max_wait_s=0.0) as (client, _):
            for name, model in fleet_models.items():
                offline = [
                    p.as_dict()
                    for p in TypeInferencePipeline(model).predict_csv_text(
                        CSV_TEXT
                    )
                ]
                response = client.infer_csv_text(
                    CSV_TEXT, table="sample", model=name
                )
                assert response["degraded"] is False, name
                assert response["model"] == name
                assert json.dumps(response["predictions"]) == json.dumps(
                    offline
                ), f"served {name} diverges from offline"

    def test_repro_infer_server_model_matches_offline_cli(
        self, fleet_model_paths, tmp_path
    ):
        """`repro-infer --server --server-model` == `repro-infer --model`.

        One real repro-serve process hosting all 5 artifacts; stdout bytes
        must match the offline CLI for every model kind.
        """
        csv_path = tmp_path / "sample.csv"
        csv_path.write_text(CSV_TEXT + "\n", encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": "src", "PYTHONUNBUFFERED": "1"}
        args = [sys.executable, "-m", "repro.serve.cli", "--port", "0",
                "--wait-ready"]
        for name, path in fleet_model_paths.items():
            args += ["--model", f"{name}={path}"]
        proc = subprocess.Popen(
            args, cwd=REPO_ROOT, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        try:
            url = None
            for _ in range(20):  # banner may not be the very first line
                line = proc.stdout.readline()
                if not line:
                    break
                match = re.search(r"listening on (http://\S+)", line)
                if match:
                    url = match.group(1)
                    break
            assert url, "repro-serve never printed its startup banner"
            for name, path in fleet_model_paths.items():
                offline = subprocess.run(
                    [sys.executable, "-m", "repro.cli", str(csv_path),
                     "--model", str(path), "--json"],
                    cwd=REPO_ROOT, env=env, text=True, capture_output=True,
                    check=True,
                )
                served = subprocess.run(
                    [sys.executable, "-m", "repro.cli", str(csv_path),
                     "--server", url, "--server-model", name, "--json"],
                    cwd=REPO_ROOT, env=env, text=True, capture_output=True,
                    check=True,
                )
                assert served.stdout == offline.stdout, (
                    f"{name}: served CLI output diverges from offline"
                )
        finally:
            proc.terminate()
            proc.wait(timeout=30)

    def test_table5_against_live_server(self, fleet_models):
        """Downstream (Table 5) scores from served == offline assignments."""
        rf = fleet_models["rf"]
        registry = ModelRegistry.preloaded(rf, name="rf")
        datasets = [
            make_dataset(SPEC_BY_NAME["Hayes"], seed=0),
            make_dataset(SPEC_BY_NAME["Vineyard"], seed=2),
        ]
        with running_server(registry, max_wait_s=0.0) as (client, _):
            for dataset in datasets:
                offline = model_assignments(dataset, rf)
                served = served_assignments(dataset, client, model="rf")
                assert served == offline
                offline_score = evaluate_assignment(dataset, offline)
                served_score = evaluate_assignment(dataset, served)
                assert served_score == offline_score


class TestHotSwap:
    def test_soak_mixed_load_through_mid_run_swap(
        self, fleet_models, tmp_path
    ):
        """Sustained mixed-model load through a swap: zero lost requests,
        clean fingerprint flip, no post-drain answers from the stale
        artifact, the other model untouched."""
        registry = ModelRegistry.preloaded(fleet_models["rf"], name="main")
        registry.register("knn", model=fleet_models["knn"])
        fp_old = registry.resolve("main").fingerprint

        rf_new = RandomForestModel(n_estimators=12, random_state=7)
        rf_new.fit(generate_corpus(n_examples=120, seed=5).dataset)
        new_path = tmp_path / "rf-new.model"
        save_model(rf_new, new_path)

        results: list[dict] = []
        errors: list[BaseException] = []
        lock = threading.Lock()
        stop = threading.Event()

        def worker(client, index):
            i = 0
            while not stop.is_set():
                model = "main" if (i + index) % 2 == 0 else "knn"
                try:
                    response = client.infer_csv_text(
                        SOAK_CSVS[i % len(SOAK_CSVS)],
                        table=f"t{index}-{i}", model=model,
                    )
                except BaseException as exc:  # lost request == test failure
                    with lock:
                        errors.append(exc)
                    return
                with lock:
                    results.append(response)
                i += 1

        with running_server(registry, max_wait_s=0.002) as (client, service):
            threads = [
                threading.Thread(target=worker, args=(client, k), daemon=True)
                for k in range(3)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.3)  # load against the old artifact first
            handle = service.registry.swap("main", model_path=str(new_path))
            assert handle.wait_flipped(timeout=60)
            assert handle.wait_drained(timeout=60)
            fp_new = service.registry.resolve("main").fingerprint
            # Post-drain: the stale artifact must be gone from responses.
            post_drain = [
                client.infer_csv_text(
                    SOAK_CSVS[0], table="probe", model="main"
                )
                for _ in range(3)
            ]
            time.sleep(0.2)
            stop.set()
            for thread in threads:
                thread.join(timeout=30)

        assert not errors, f"lost/failed requests during swap: {errors[:3]}"
        assert fp_new != fp_old
        main_responses = [r for r in results if r["model"] == "rf"]
        knn_responses = [r for r in results if r["model"] == "knn"]
        assert main_responses and knn_responses
        # Clean flip: fingerprint is a function of swap generation, and only
        # the two expected artifacts ever answered.
        by_generation: dict[int, set] = {}
        for response in main_responses:
            by_generation.setdefault(
                response["generation"], set()
            ).add(response["fingerprint"])
        assert set(by_generation) <= {0, 1}
        assert by_generation.get(0, {fp_old}) == {fp_old}
        assert by_generation.get(1, {fp_new}) == {fp_new}
        for response in post_drain:
            assert response["fingerprint"] == fp_new
            assert response["generation"] == 1
        # The un-swapped model was never disturbed.
        assert {r["generation"] for r in knn_responses} == {0}
        assert len({r["fingerprint"] for r in knn_responses}) == 1

    def test_second_swap_while_loading_is_409(
        self, fleet_models, fleet_model_paths
    ):
        registry = ModelRegistry.preloaded(fleet_models["rf"], name="main")
        entry = registry.resolve("main")
        gate = threading.Event()
        original = entry._load_payload

        def gated_load(model_path, cache, train):
            # Hold the first swap in its loading state so the second one
            # deterministically collides with it.
            gate.wait(timeout=30)
            return original(model_path, cache, train)

        entry._load_payload = gated_load
        handle = registry.swap(
            "main", model_path=str(fleet_model_paths["rf"])
        )
        try:
            with pytest.raises(SwapInProgressError):
                registry.swap(
                    "main", model_path=str(fleet_model_paths["rf"])
                )
        finally:
            gate.set()
            assert handle.wait_drained(timeout=60)

    def test_failed_swap_keeps_old_model(self, fleet_models, tmp_path):
        registry = ModelRegistry.preloaded(fleet_models["rf"], name="main")
        fp_before = registry.resolve("main").fingerprint
        handle = registry.swap(
            "main", model_path=str(tmp_path / "missing.model")
        )
        handle.wait_drained(timeout=60)
        assert handle.failed
        entry = registry.resolve("main")
        assert entry.describe()["last_swap_error"]
        assert entry.fingerprint == fp_before
        assert entry.generation == 0
        assert entry.current() is not None


class TestScaleOut:
    @pytest.mark.parametrize("n_backends", [2, 4])
    def test_balancer_parity_vs_single_process(
        self, fleet_models, n_backends
    ):
        """Same per-column predictions through N backends as through one,
        with X-Trace-Id stitching intact on every response."""
        rf = fleet_models["rf"]
        expected = {}
        with running_server(
            ModelRegistry.preloaded(rf), max_wait_s=0.0
        ) as (client, _):
            for k, csv in enumerate(SOAK_CSVS):
                expected[k] = client.infer_csv_text(csv, table=f"t{k}")
        with running_fleet(rf, n_backends, max_wait_s=0.0) as backends:
            fleet = FleetClient([b.url for b in backends])
            try:
                trace_ids = set()
                for _round in range(3):
                    for k, csv in enumerate(SOAK_CSVS):
                        response = fleet.infer_csv_text(csv, table=f"t{k}")
                        assert json.dumps(response["predictions"]) == \
                            json.dumps(expected[k]["predictions"]), (
                                f"{n_backends}-backend fleet diverges on t{k}"
                            )
                        assert response["trace_id"]
                        trace_ids.add(response["trace_id"])
                # Every request minted its own stitched trace.
                assert len(trace_ids) == 3 * len(SOAK_CSVS)
                health = fleet.healthz()
                assert len(health) == n_backends
                for node in health.values():
                    assert node["models"]["rf"]["state"] == "ready"
            finally:
                fleet.close()

    def test_backend_killed_mid_load_chaos(self, fleet_models):
        """Seeded fault plan + a backend killed mid-run: the balancer
        retries/rebalances and every answer is still correct."""
        rf = fleet_models["rf"]
        with running_server(
            ModelRegistry.preloaded(rf), max_wait_s=0.0
        ) as (client, _):
            expected = [
                client.infer_csv_text(csv, table=f"t{k}")["predictions"]
                for k, csv in enumerate(SOAK_CSVS)
            ]
        # Deterministic client-side transport chaos on top of the kill.
        faults.install(FaultPlan.from_dict({
            "seed": 20260808,
            "rules": [{
                "point": "client.request", "mode": "error",
                "probability": 0.05, "max_fires": 4,
            }],
        }))
        try:
            with running_fleet(rf, 2, max_wait_s=0.0) as backends:
                fleet = FleetClient(
                    [b.url for b in backends],
                    timeout_s=10.0, cooldown_s=0.2,
                )
                try:
                    results: list[tuple[int, list]] = []
                    errors: list[BaseException] = []
                    lock = threading.Lock()

                    def worker(index):
                        for i in range(12):
                            k = (index + i) % len(SOAK_CSVS)
                            try:
                                response = fleet.infer_csv_text(
                                    SOAK_CSVS[k], table=f"t{k}"
                                )
                            except BaseException as exc:
                                with lock:
                                    errors.append(exc)
                                return
                            with lock:
                                results.append(
                                    (k, response["predictions"])
                                )

                    threads = [
                        threading.Thread(
                            target=worker, args=(k,), daemon=True
                        )
                        for k in range(3)
                    ]
                    for thread in threads:
                        thread.start()
                    time.sleep(0.05)
                    backends[1].stop(timeout=5)  # killed mid-load
                    for thread in threads:
                        thread.join(timeout=60)
                    assert not errors, f"requests lost: {errors[:3]}"
                    assert len(results) == 3 * 12
                    for k, predictions in results:
                        assert json.dumps(predictions) == json.dumps(
                            expected[k]
                        ), "a rebalanced request returned a wrong answer"
                finally:
                    fleet.close()
        finally:
            faults.clear()


class TestKeepAliveAndPipelining:
    def test_keep_alive_reuses_one_connection(self, fleet_models):
        registry = ModelRegistry.preloaded(fleet_models["rf"])
        with running_server(registry, max_wait_s=0.0) as (client, _):
            client.healthz()
            first = client._local.conn
            client.infer_csv_text(CSV_TEXT, table="t")
            assert client._local.conn is first  # same socket, no re-dial
            client.close()
            assert client.healthz()["ready"]  # transparent re-dial

    def test_stale_keep_alive_reconnects_transparently(self, fleet_models):
        registry = ModelRegistry.preloaded(fleet_models["rf"])
        with running_server(registry, max_wait_s=0.0) as (client, _):
            client.healthz()
            # Losing the idle socket (keep-alive timeout, server restart)
            # must cost one transparent reconnect, never a surfaced error.
            before = telemetry.metrics.snapshot()["counters"].get(
                "client.reconnect", 0
            )
            client._local.conn.sock.close()
            response = client.infer_csv_text(CSV_TEXT, table="t")
            after = telemetry.metrics.snapshot()["counters"].get(
                "client.reconnect", 0
            )
        assert response["predictions"]
        assert after == before + 1

    def test_pipelined_matches_sequential(self, fleet_models):
        registry = ModelRegistry.preloaded(fleet_models["rf"])
        jobs = [(f"t{k}", SOAK_CSVS[k % len(SOAK_CSVS)]) for k in range(8)]
        with running_server(registry, max_wait_s=0.0) as (client, _):
            sequential = [
                client.infer_csv_text(csv, table=name)
                for name, csv in jobs
            ]
            pipelined = client.infer_pipelined(jobs, depth=4)
        assert len(pipelined) == len(jobs)
        for seq, pipe, (name, _) in zip(sequential, pipelined, jobs):
            assert pipe["table"] == name  # in-order responses
            assert json.dumps(pipe["predictions"]) == json.dumps(
                seq["predictions"]
            )
        trace_ids = {p["trace_id"] for p in pipelined}
        assert len(trace_ids) == len(jobs)
