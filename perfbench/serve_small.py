"""serve-small: a warm ``repro-serve`` under 2 closed-loop keep-alive clients.

Per-request overhead dominates here (client, HTTP, batcher window, registry
lease) while stats and predict do little; category vocabularies repeat, so
the server's scan cache mostly hits.

Timed pass (``--trace 0``):
  setup_s          median of 5 spawns until both models answer ``ready``
  op_ms, op_alt_ms client-observed p50 and p99 request latency
  throughput_per_s columns answered per second
  peak_rss_mb      server process; alt_peak_rss_mb: load generator process

Traced pass (``--trace 1``): one untraced and one traced load pass against a
server started with ``--trace-out``; the server's existing spans give queue
wait, batch size, profile and predict time, and the benchmark times
``parse_table``, ``predict_profiles`` and the scan-cache replay itself.
"""

from __future__ import annotations

import json
import select
import subprocess
import time

import common
from common import BenchError, Child, Outcome, say
from inputs import SMALL_COLUMNS, cache_hit_profile, small_table

SETUP_SPAWNS = 5
MAX_WAIT_MS = 10
#: Timed requests per run: p99 needs at least 10 samples above it.
MIN_TIMED_REQUESTS = 1000


class Server:
    """A ``repro-serve`` child on an ephemeral port with both artifacts."""

    def __init__(self, run, models, trace_out=None):
        argv = common.python_module(
            "repro.serve", "--port", "0", "--wait-ready",
            "--max-wait-ms", str(MAX_WAIT_MS),
            "--model", f"rf={models['rf']}",
            "--model", f"logreg={models['logreg']}",
        )
        if trace_out is not None:
            argv += ["--trace-out", str(trace_out)]
        self.stderr = open(run.path / "serve.stderr", "a")
        self.child = Child(argv, run.env, stdout=subprocess.PIPE,
                           stderr=self.stderr)
        try:
            ready, _, _ = select.select([self.child.proc.stdout], [], [], 120)
            banner = self.child.proc.stdout.readline() if ready else ""
            urls = [tok for tok in banner.split() if tok.startswith("http://")]
            if not urls:
                raise BenchError(f"repro-serve did not start: {banner!r}")
            self.url = urls[0]
            from repro.serve.client import ServeClient

            with ServeClient(self.url, retry=None) as client:
                deadline = time.monotonic() + 60
                while True:
                    models_state = client.models()
                    states = {
                        name: entry.get("state")
                        for name, entry in models_state["models"].items()
                    }
                    if states == {"rf": "ready", "logreg": "ready"}:
                        break
                    if time.monotonic() > deadline:
                        raise BenchError(f"models never ready: {states}")
                    time.sleep(0.01)
            self.ready_s = time.perf_counter() - self.child.started
        except BaseException:
            self.stop()
            raise

    def stop(self) -> float:
        """SIGTERM, wait for the drain; returns the server's peak RSS (MB)."""
        try:
            code = self.child.terminate()
        finally:
            self.child.proc.stdout.close()
            self.stderr.close()
        if code != 0:
            raise BenchError(f"repro-serve exited {code}")
        return self.child.peak_rss_mb


def _load(run, url, seed, seconds, out_name, first_index=0, trace=False,
          min_requests=0):
    out = run.path / out_name
    argv = common.bench_script(
        "loadgen.py", "--url", url, "--seed", str(seed),
        "--seconds", str(seconds), "--first-index", str(first_index),
        "--min-requests", str(min_requests), "--out", str(out),
    )
    if trace:
        argv.append("--trace")
    child = common.run_child(argv, run.env)
    if child.returncode != 0:
        raise BenchError(f"load generator exited {child.returncode}")
    with open(out) as handle:
        header = json.loads(handle.readline())
        records = [json.loads(line) for line in handle]
    return header, records, child.peak_rss_mb


def _tables(records, seed):
    """``index -> Table`` of every request sent, regenerated from the seed."""
    from repro.tabular.csv_io import read_csv_text

    return {
        r["index"]: read_csv_text(small_table(seed, r["index"]),
                                  name=f"t{r['index']}")
        for r in records
    }


def _cache_profile(records, tables):
    return cache_hit_profile(
        [cell for column in tables[r["index"]] for cell in column.cells]
        for r in records
    )


def _check(records, tables, outcome: Outcome, models) -> None:
    """Every request is one operation: failed if it errored, was answered
    degraded, or differs from the offline pipeline of its route's model."""
    from repro.core.featurize import profile_columns
    from repro.core.pipeline import TypeInferencePipeline

    answered = [r for r in records if "error" not in r]
    for record in records:
        if "error" in record:
            outcome.op(False, f"request {record['index']}: {record['error']}")
    # Profiles are per column, so one offline profile pass over every table
    # gives the same profiles the per-table pipeline would.
    columns, owners = [], []
    for record in answered:
        columns.extend(tables[record["index"]])
        owners.append(record)
    profiles = profile_columns(columns)
    expected: dict[int, list] = {}
    for route, model in models.items():
        mine = [
            i for i, record in enumerate(owners) if record["route"] == route
        ]
        flat = [
            p for i in mine
            for p in profiles[i * len(SMALL_COLUMNS):(i + 1) * len(SMALL_COLUMNS)]
        ]
        predictions = TypeInferencePipeline(model).predict_profiles(flat)
        for n, i in enumerate(mine):
            chunk = predictions[n * len(SMALL_COLUMNS):(n + 1) * len(SMALL_COLUMNS)]
            expected[owners[i]["index"]] = [p.as_dict() for p in chunk]
    for record in answered:
        ok = (
            not record.get("degraded")
            and json.dumps(record["predictions"])
            == json.dumps(expected[record["index"]])
        )
        outcome.op(ok, f"request {record['index']} ({record['route']}) "
                       f"differs from the offline pipeline")


def _load_models(paths):
    from repro.core.persistence import load_model

    return {route: load_model(path) for route, path in paths.items()}


def _latencies(records):
    return [r["latency_ms"] for r in records if r["timed"] and "error" not in r]


def run_timed(run, seed: int, seconds: float, outcome: Outcome) -> None:
    paths = common.model_fixtures()
    setups, server = [], None
    for attempt in range(SETUP_SPAWNS):
        server = Server(run, paths)
        setups.append(server.ready_s)
        if attempt < SETUP_SPAWNS - 1:
            server.stop()
    try:
        header, records, loadgen_rss = _load(
            run, server.url, seed, seconds, "load.jsonl",
            min_requests=MIN_TIMED_REQUESTS,
        )
    finally:
        server_rss = server.stop()
    latencies = _latencies(records)
    timed = [r for r in records if r["timed"]]
    over_p99 = len(latencies) - int(0.99 * len(latencies))
    say(f"serve-small: {len(timed)} timed requests "
        f"({len(timed) - len(latencies)} failed), {over_p99} above p99")
    if over_p99 < 10:
        raise BenchError("too few samples above p99: lengthen the run")
    tables = _tables(records, seed)
    _check(records, tables, outcome, _load_models(paths))
    columns = len(latencies) * len(SMALL_COLUMNS)
    p50 = common.percentile(latencies, 50)
    p99 = common.percentile(latencies, 99)
    cols_per_s = columns / header["window_s"]
    cells, distinct, hits = _cache_profile(records, tables)
    say(f"serve_cols_per_s = {cols_per_s:.1f} columns/s")
    say(f"serve_p50_ms = {p50:.2f} ms")
    say(f"serve_p90_ms = {common.percentile(latencies, 90):.2f} ms")
    say(f"serve_p99_ms = {p99:.2f} ms")
    say(f"serve_peak_rss_mb = {server_rss:.1f} MB")
    say(f"setup_s = {common.median(setups):.3f} s (spawn until rf and "
        f"logreg are ready; median of {len(setups)})")
    say(f"input: distinct share {distinct / cells:.3f} of cells per request, "
        f"scan-cache hit ratio {hits / distinct:.3f}")
    outcome.metric("op_ms", p50)
    outcome.metric("op_alt_ms", p99)
    outcome.metric("throughput_per_s", cols_per_s)
    outcome.metric("peak_rss_mb", server_rss)
    outcome.metric("alt_peak_rss_mb", loadgen_rss)
    outcome.metric("setup_s", common.median(setups))


def run_traced(run, seed: int, seconds: float, outcome: Outcome) -> None:
    from repro.obs.trace import SpanRecord
    from repro.serve.http import parse_table
    from repro.core.featurize import profile_columns
    from repro.core.pipeline import TypeInferencePipeline

    paths = common.model_fixtures()
    trace_out = run.path / "serve-spans.jsonl"
    server = Server(run, paths, trace_out=trace_out)
    try:
        _, plain, _ = _load(run, server.url, seed, seconds, "plain.jsonl")
        first = max(r["index"] for r in plain) + 1
        traced_start = time.time()
        _, traced, _ = _load(run, server.url, seed, seconds, "traced.jsonl",
                             first_index=first, trace=True)
    finally:
        server.stop()
    models = _load_models(paths)
    tables = _tables(plain + traced, seed)
    _check(plain + traced, tables, outcome, models)
    window = [r for r in traced if r["timed"] and "error" not in r]
    client_p50 = common.percentile([r["latency_ms"] for r in window], 50)
    server_p50 = common.percentile(
        [r["timing"]["queue_ms"] + r["timing"]["infer_ms"] for r in window], 50
    )
    plain_p50 = common.percentile(_latencies(plain), 50)

    with open(trace_out) as handle:
        spans = [SpanRecord.from_dict(json.loads(line)) for line in handle]
    spans = [s for s in spans if s.started_at >= traced_start]
    def walls_ms(name):
        return [1000.0 * s.wall_s for s in spans if s.name == name]
    batches = [s for s in spans if s.name == "serve.batch"]
    predict_by_batch: dict[str, float] = {}
    for s in spans:
        if s.name == "serve.predict":
            key = s.parent_span_id or s.span_id
            predict_by_batch[key] = predict_by_batch.get(key, 0.0) + 1000.0 * s.wall_s
    if not batches or not predict_by_batch:
        raise BenchError("server trace holds no batch spans")

    texts = [small_table(seed, r["index"]) for r in window]
    parse_ms, predict_ms = [], {route: [] for route in models}
    for n, text in enumerate(texts):
        body = text.encode("utf-8")
        start = time.perf_counter()
        table = parse_table("text/csv", body, name="t")
        parse_ms.append(1000.0 * (time.perf_counter() - start))
        if n < 200:
            profiles = profile_columns(list(table))
            for route, model in models.items():
                pipeline = TypeInferencePipeline(model)
                start = time.perf_counter()
                pipeline.predict_profiles(profiles)
                predict_ms[route].append(
                    1000.0 * (time.perf_counter() - start) / len(profiles)
                )
    cells, distinct, hits = _cache_profile(plain + traced, tables)
    layers = {
        "serve.client_overhead_ms": client_p50 - server_p50,
        "serve.queue_wait_ms": common.percentile(walls_ms("serve.queue_wait"), 50),
        "serve.batch_size": sum(
            s.attrs.get("n_requests", 0) for s in batches) / len(batches),
        "serve.profile_ms": common.percentile(walls_ms("serve.profile"), 50),
        "serve.predict_ms": common.percentile(list(predict_by_batch.values()), 50),
        "serve.parse_ms": common.percentile(parse_ms, 50),
        "stats.scan_cache_hit_ratio": hits / distinct,
        "models.predict_ms_per_col.rf": common.median(predict_ms["rf"]),
        "models.predict_ms_per_col.logreg": common.median(predict_ms["logreg"]),
        "obs.trace_overhead_pct": 100.0 * (client_p50 - plain_p50) / plain_p50,
    }
    accounted = sum(layers[name] for name in (
        "serve.client_overhead_ms", "serve.queue_wait_ms", "serve.profile_ms",
        "serve.predict_ms", "serve.parse_ms"))
    say(f"serve-small layer split: client p50 {client_p50:.2f} ms, server "
        f"request p50 {server_p50:.2f} ms, layers sum {accounted:.2f} ms")
    for name, value in layers.items():
        outcome.metric(name, value)

