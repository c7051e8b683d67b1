"""Unit tests for the repro.obs telemetry layer."""

import io
import json

import pytest

from repro.obs import (
    NOOP_SPAN,
    RunManifest,
    Telemetry,
    Tracer,
    aggregate_spans,
    telemetry,
)
from repro.obs.export import spans_summary, spans_to_records, write_json, write_jsonl
from repro.obs.logging import StructLogger
from repro.obs.metrics import Histogram, MetricsRegistry, percentile


# -- spans ---------------------------------------------------------------------
def test_nested_spans_record_depth_and_parent():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner", detail="x"):
            pass
        with tracer.span("inner"):
            pass
    by_name = {}
    for record in tracer.records:
        by_name.setdefault(record.name, []).append(record)
    assert len(by_name["inner"]) == 2
    assert all(r.parent == "outer" and r.depth == 1 for r in by_name["inner"])
    outer = by_name["outer"][0]
    assert outer.parent is None and outer.depth == 0
    # children finish (and record) before their parent
    assert tracer.records[-1] is outer
    assert outer.wall_s >= max(r.wall_s for r in by_name["inner"])


def test_span_records_error_attribute():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("boom"):
            raise RuntimeError("x")
    assert tracer.records[0].attrs["error"] == "RuntimeError"


def test_span_set_attaches_attrs():
    tracer = Tracer()
    with tracer.span("s") as sp:
        sp.set(rows=7)
    assert tracer.records[0].attrs["rows"] == 7


def test_tracer_caps_records():
    tracer = Tracer(max_records=3)
    for _ in range(5):
        with tracer.span("s"):
            pass
    assert len(tracer.records) == 3
    assert tracer.dropped == 2


def test_telemetry_without_kept_spans_still_propagates_trace_ids():
    local = Telemetry().enable(keep_spans=False)
    with local.span("outer") as outer:
        with local.span("inner") as inner:
            pass
    local.record_span("wait", started_at=0.0, wall_s=0.1,
                      trace_id=outer.trace_id)
    assert outer.trace_id and inner.trace_id == outer.trace_id
    assert inner.parent_span_id == outer.span_id
    assert local.spans == []
    # Spans never meant to be kept are not "dropped".
    assert local.tracer.dropped == 0
    assert "trace.dropped" not in local.metrics.snapshot()["counters"]
    local.enable()  # the default keeps records again
    with local.span("kept"):
        pass
    assert [record.name for record in local.spans] == ["kept"]


def test_aggregate_spans_totals():
    tracer = Tracer()
    for _ in range(4):
        with tracer.span("stage"):
            pass
    summary = aggregate_spans(tracer.records)
    assert summary["stage"]["count"] == 4
    assert summary["stage"]["wall_s"] >= 0.0
    assert summary["stage"]["mean_wall_s"] == pytest.approx(
        summary["stage"]["wall_s"] / 4
    )


# -- metrics -------------------------------------------------------------------
def test_counter_gauge_roundtrip():
    registry = MetricsRegistry()
    registry.counter("c").inc()
    registry.counter("c").inc(2.5)
    registry.gauge("g").set(1.25)
    snap = registry.snapshot()
    assert snap["counters"]["c"] == 3.5
    assert snap["gauges"]["g"] == 1.25


def test_histogram_percentiles():
    h = Histogram("h")
    for v in range(1, 101):  # 1..100
        h.observe(float(v))
    s = h.summary()
    assert s["count"] == 100
    assert s["min"] == 1.0 and s["max"] == 100.0
    assert s["mean"] == pytest.approx(50.5)
    assert s["p50"] == pytest.approx(50.5)
    assert s["p90"] == pytest.approx(90.1)
    assert s["p99"] == pytest.approx(99.01)


def test_histogram_thinning_keeps_exact_aggregates():
    h = Histogram("h", max_samples=64)
    for v in range(1000):
        h.observe(float(v))
    assert h.count == 1000
    assert h.total == pytest.approx(sum(range(1000)))
    assert len(h._samples) < 64
    # percentiles stay approximately right after thinning
    assert h.percentile(50) == pytest.approx(500, abs=60)


def test_percentile_edge_cases():
    assert percentile([], 50) == 0.0
    assert percentile([3.0], 99) == 3.0
    assert percentile([1.0, 2.0], 50) == pytest.approx(1.5)


# -- no-op mode ----------------------------------------------------------------
def test_disabled_telemetry_keeps_no_records():
    t = Telemetry()
    assert not t.enabled
    assert t.span("x") is NOOP_SPAN
    with t.span("x", a=1) as sp:
        pass
    assert sp.wall_s == 0.0
    t.count("c")
    t.gauge("g", 1.0)
    t.observe("h", 1.0)
    t.info("event", k="v")
    assert len(t.spans) == 0
    assert len(t.metrics) == 0
    assert t.logger.emitted == 0


def test_enable_disable_cycle():
    t = Telemetry()
    t.enable()
    with t.span("x"):
        pass
    t.count("c", 2)
    assert len(t.spans) == 1
    assert t.metrics.snapshot()["counters"]["c"] == 2
    t.disable()
    with t.span("y"):
        pass
    assert len(t.spans) == 1
    t.reset()
    assert len(t.spans) == 0
    assert len(t.metrics) == 0


def test_global_singleton_default_disabled():
    assert telemetry.enabled is False


# -- logging -------------------------------------------------------------------
def test_logger_levels_and_format():
    stream = io.StringIO()
    logger = StructLogger(level="info", stream=stream)
    logger.debug("hidden", a=1)
    logger.info("shown", text="two words", n=3, frac=0.5)
    out = stream.getvalue()
    assert "hidden" not in out
    assert "level=info" in out
    assert "event=shown" in out
    assert 'text="two words"' in out
    assert "n=3" in out
    assert logger.emitted == 1


def test_logger_rejects_unknown_level():
    with pytest.raises(ValueError, match="unknown log level"):
        StructLogger(level="loud")


# -- manifest + export ---------------------------------------------------------
def test_manifest_round_trip(tmp_path):
    t = Telemetry().enable()
    with t.span("featurize.table"):
        pass
    t.count("featurize.columns", 12)
    manifest = RunManifest(
        command="repro-bench", argv=["table1"], seed=0, scale=300
    )
    manifest.add_experiment("table1", wall_s=1.5)
    manifest.finalize(t)
    path = tmp_path / "run.json"
    manifest.write(str(path))
    data = json.loads(path.read_text())
    assert data["schema_version"] == 1
    assert data["command"] == "repro-bench"
    assert data["seed"] == 0 and data["scale"] == 300
    assert data["experiments"] == [{"name": "table1", "wall_s": 1.5}]
    assert data["spans"]["featurize.table"]["count"] == 1
    assert data["metrics"]["counters"]["featurize.columns"] == 12
    assert data["finished_at"] >= data["started_at"]
    assert isinstance(data["python"], str)


def test_write_jsonl_and_spans_export(tmp_path):
    tracer = Tracer()
    with tracer.span("a", k="v"):
        with tracer.span("b"):
            pass
    records = spans_to_records(tracer.records)
    path = tmp_path / "spans.jsonl"
    n = write_jsonl(str(path), records)
    assert n == 2
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert {line["name"] for line in lines} == {"a", "b"}
    assert spans_summary(tracer.records)["a"]["count"] == 1


def test_write_json_creates_parents(tmp_path):
    path = tmp_path / "deep" / "dir" / "m.json"
    write_json(str(path), {"x": 1})
    assert json.loads(path.read_text()) == {"x": 1}
