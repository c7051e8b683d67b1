"""Smoke tests for the repro-bench CLI runner."""

import json

import pytest

from repro.benchmark.context import BenchmarkContext
from repro.benchmark.runner import EXPERIMENTS, main, run_experiment
from repro.obs import telemetry


def test_registry_covers_every_paper_artifact():
    expected = {
        "table1", "table2", "table3", "downstream", "table7", "table11",
        "table12", "table14", "table15", "figure9", "table17", "table18",
        "figure7", "labeling", "tuning", "leaderboard", "weak", "active",
        "importance",
    }
    assert set(EXPERIMENTS) == expected


def test_unknown_experiment_raises(small_context):
    with pytest.raises(ValueError, match="unknown experiment"):
        run_experiment("table99", small_context)


def test_run_cheap_experiments(small_context):
    # table18 needs no model fits; labeling trains one small forest
    out, shape_failures = run_experiment("table18", small_context)
    assert "by class" in out
    assert shape_failures == []  # below SHAPE_CHECK_SCALE nothing is checked
    out, shape_failures = run_experiment("labeling", small_context)
    assert "5-fold CV accuracy" in out
    assert shape_failures == []


def test_cli_main_runs_one_experiment(capsys):
    exit_code = main(["table18", "--scale", "300", "--seed", "1"])
    assert exit_code == 0
    captured = capsys.readouterr()
    assert "table18" in captured.out
    assert "by class" in captured.out


def test_cli_rejects_unknown_experiment(capsys):
    for arg, named in [("tableX", "tableX"), ("table18,tableX", "tableX"), (",", ",")]:
        with pytest.raises(SystemExit) as exc_info:
            main([arg])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert f"unknown experiment(s) {named!r}; available: " in err


@pytest.mark.parametrize("argv", [
    ["table18", "--scale", "20"],
    ["goldens", "check", "--scale", "20"],
    ["work", "--run-dir", "unused", "--scale", "20"],
    ["merge", "--run-dir", "unused", "--scale", "20"],
])
def test_cli_rejects_a_scale_below_the_corpus_floor(argv, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].endswith(
        "argument --scale: must be at least 50 to cover the nine classes, "
        "got 20"
    )


def test_report_rejects_a_scale_below_the_corpus_floor(capsys):
    from repro.benchmark.report import main as report_main

    with pytest.raises(SystemExit) as exc_info:
        report_main(["--scale", "20"])
    assert exc_info.value.code == 2
    assert "must be at least 50" in capsys.readouterr().err


def test_cli_observability_flags_write_manifest_and_metrics(tmp_path, capsys):
    manifest_path = tmp_path / "run.json"
    metrics_path = tmp_path / "metrics.json"
    try:
        exit_code = main(
            [
                "table18", "--scale", "300", "--seed", "1",
                "--manifest", str(manifest_path),
                "--metrics-out", str(metrics_path),
            ]
        )
    finally:
        telemetry.disable().reset()
    assert exit_code == 0
    assert "by class" in capsys.readouterr().out

    manifest = json.loads(manifest_path.read_text())
    assert manifest["command"] == "repro-bench"
    assert manifest["seed"] == 1 and manifest["scale"] == 300
    assert [e["name"] for e in manifest["experiments"]] == ["table18"]
    assert manifest["experiments"][0]["wall_s"] > 0
    # per-stage spans from the instrumented library code
    assert manifest["spans"]["context.corpus"]["count"] == 1
    assert manifest["spans"]["featurize.column"]["count"] > 0
    assert manifest["metrics"]["counters"]["featurize.columns"] > 0

    metrics = json.loads(metrics_path.read_text())
    assert metrics["counters"]["featurize.columns"] > 0


def test_cli_without_obs_flags_keeps_telemetry_disabled(capsys, tmp_path):
    exit_code = main(["table18", "--scale", "300", "--seed", "1"])
    assert exit_code == 0
    assert telemetry.enabled is False
    assert len(telemetry.spans) == 0
    assert len(telemetry.metrics) == 0


def test_jobs2_worker_spans_merge_under_one_trace(tmp_path, capsys):
    """Forked --jobs workers inherit the run's trace context; their spans
    land in per-task files the parent ingests, so the manifest and the
    --trace-out export hold them under a single trace_id."""
    manifest_path = tmp_path / "run.json"
    trace_path = tmp_path / "spans.jsonl"
    try:
        exit_code = main(
            [
                "table18,labeling", "--scale", "300", "--seed", "1",
                "--jobs", "2",
                "--manifest", str(manifest_path),
                "--trace-out", str(trace_path),
            ]
        )
    finally:
        telemetry.disable().reset()
    assert exit_code == 0
    capsys.readouterr()

    manifest = json.loads(manifest_path.read_text())
    trace_id = manifest["trace_id"]
    assert trace_id and len(trace_id) == 32
    assert manifest["spans_dropped"] == 0

    from repro.obs.export import read_jsonl

    records = list(read_jsonl(trace_path))
    tasks = [r for r in records if r["name"] == "queue.task"]
    assert {r["attrs"]["experiment"] for r in tasks} == {"table18", "labeling"}
    # Every span that carries a trace id carries the run's: both forked
    # workers joined the parent's trace instead of starting their own.
    traced = [r for r in records if r.get("trace_id")]
    assert traced
    assert {r["trace_id"] for r in traced} == {trace_id}

    # Per-task JSONL exports (crash-surviving) landed next to --trace-out
    # and hold the same trace.
    worker_dir = tmp_path / "spans.jsonl.workers"
    worker_files = sorted(worker_dir.glob("*.jsonl"))
    assert len(worker_files) == 2
    for path in worker_files:
        worker_records = list(read_jsonl(path))
        assert worker_records
        assert {r["trace_id"] for r in worker_records} == {trace_id}


def test_sequential_rerun_does_not_reuse_previous_trace(tmp_path, capsys):
    """Two in-process runs mint distinct run traces (no env/context leak)."""
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    try:
        assert main(["table18", "--scale", "300", "--seed", "1",
                     "--manifest", str(first)]) == 0
        telemetry.disable().reset()
        assert main(["table18", "--scale", "300", "--seed", "1",
                     "--manifest", str(second)]) == 0
    finally:
        telemetry.disable().reset()
    capsys.readouterr()
    trace_a = json.loads(first.read_text())["trace_id"]
    trace_b = json.loads(second.read_text())["trace_id"]
    assert trace_a and trace_b
    assert trace_a != trace_b
