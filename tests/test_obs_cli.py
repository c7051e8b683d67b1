"""repro-obs: trace show / trace merge / trend."""

from __future__ import annotations

import json

import pytest

from repro.obs.cli import (
    build_tree,
    classify_delta,
    critical_path,
    dedupe_spans,
    flatten_numeric,
    main,
    render_tree,
)
from repro.obs.export import read_jsonl, write_jsonl

TRACE = "ab" * 16


def _span(name, span_id, parent=None, started=0.0, wall=1.0, trace=TRACE,
          **attrs):
    record = {
        "name": name,
        "started_at": started,
        "wall_s": wall,
        "cpu_s": wall / 2,
        "depth": 0,
        "parent": None,
        "trace_id": trace,
        "span_id": span_id,
    }
    if parent is not None:
        record["parent_span_id"] = parent
    if attrs:
        record["attrs"] = attrs
    return record


@pytest.fixture
def serve_trace(tmp_path):
    """A client file + server file forming one cross-process trace."""
    client = [
        _span("client.request", "c" * 16, started=0.0, wall=1.0),
    ]
    server = [
        _span("serve.request", "d" * 16, parent="c" * 16,
              started=0.1, wall=0.8),
        _span("serve.queue_wait", "e" * 16, parent="d" * 16,
              started=0.1, wall=0.1),
        _span("serve.batch", "f" * 16, parent="d" * 16,
              started=0.2, wall=0.6, n_requests=1),
        _span("serve.predict", "1" * 16, parent="f" * 16,
              started=0.3, wall=0.5),
    ]
    client_path = tmp_path / "client.jsonl"
    server_path = tmp_path / "server.jsonl"
    write_jsonl(client_path, client)
    write_jsonl(server_path, server)
    return str(client_path), str(server_path)


class TestTraceTree:
    def test_build_tree_links_across_files(self, serve_trace):
        client_path, server_path = serve_trace
        records = list(read_jsonl(client_path)) + list(read_jsonl(server_path))
        roots, children = build_tree(records)
        assert [r["name"] for r in roots] == ["client.request"]
        assert [r["name"] for r in children["c" * 16]] == ["serve.request"]
        assert sorted(r["name"] for r in children["d" * 16]) == [
            "serve.batch", "serve.queue_wait",
        ]

    def test_orphans_become_roots(self):
        records = [_span("lonely", "a" * 16, parent="9" * 16)]
        roots, children = build_tree(records)
        assert len(roots) == 1
        assert not children

    def test_critical_path_follows_longest_children(self):
        records = [
            _span("root", "a" * 16, wall=3.0),
            _span("short", "b" * 16, parent="a" * 16, wall=0.5),
            _span("long", "c" * 16, parent="a" * 16, wall=2.0),
            _span("leaf", "d" * 16, parent="c" * 16, wall=1.5),
        ]
        roots, children = build_tree(records)
        names = [r["name"] for r in critical_path(roots, children)]
        assert names == ["root", "long", "leaf"]

    def test_render_tree_marks_critical_path(self):
        records = [
            _span("root", "a" * 16, wall=2.0),
            _span("child", "b" * 16, parent="a" * 16, wall=1.0, table="t1"),
        ]
        text = render_tree(records)
        assert "* root" in text
        assert "table=t1" in text
        assert "critical path (2 spans" in text
        assert "root > child" in text

    def test_dedupe_keeps_first_occurrence(self):
        record = _span("x", "a" * 16)
        assert len(dedupe_spans([record, dict(record)])) == 1


class TestTraceCommands:
    def test_show_renders_merged_tree(self, serve_trace, capsys):
        assert main(["trace", "show", *serve_trace]) == 0
        out = capsys.readouterr().out
        assert f"trace {TRACE} — 5 spans" in out
        # Server spans are indented under the client root.
        assert "* client.request" in out
        assert "  serve.request" in out
        assert "serve.predict" in out

    def test_show_unknown_trace_id_fails(self, serve_trace, capsys):
        assert main(["trace", "show", serve_trace[0],
                     "--trace-id", "f" * 32]) == 1
        assert "not found" in capsys.readouterr().err

    def test_show_no_records_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace", "show", str(empty)]) == 1

    def test_merge_writes_single_sorted_file(self, serve_trace, tmp_path):
        merged = tmp_path / "merged.jsonl"
        assert main(["trace", "merge", *serve_trace, "-o", str(merged)]) == 0
        records = list(read_jsonl(merged))
        assert len(records) == 5
        assert [r["started_at"] for r in records] == sorted(
            r["started_at"] for r in records
        )
        assert all("_file" not in r for r in records)
        # Merged file round-trips through show.
        assert main(["trace", "show", str(merged)]) == 0

    def test_merge_filters_by_trace_id(self, serve_trace, tmp_path):
        other = tmp_path / "other.jsonl"
        write_jsonl(other, [_span("alien", "2" * 16, trace="cd" * 16)])
        merged = tmp_path / "merged.jsonl"
        assert main(["trace", "merge", *serve_trace, str(other),
                     "-o", str(merged), "--trace-id", TRACE]) == 0
        records = list(read_jsonl(merged))
        assert len(records) == 5
        assert all(r["trace_id"] == TRACE for r in records)

    def test_merge_to_stdout(self, serve_trace, capsys):
        assert main(["trace", "merge", serve_trace[0]]) == 0
        line = capsys.readouterr().out.strip().splitlines()[0]
        assert json.loads(line)["name"] == "client.request"


class TestTrendClassification:
    def test_latency_up_is_regression(self):
        assert classify_delta("server.latency_s.p99", 1.0, 2.0) == "regression"
        assert classify_delta("server.latency_s.p99", 2.0, 1.0) == "improvement"

    def test_throughput_down_is_regression(self):
        assert classify_delta("server.columns_per_s", 100, 50) == "regression"
        assert classify_delta("server.columns_per_s", 50, 100) == "improvement"

    def test_neutral_metrics_are_ignored(self):
        assert classify_delta("knobs.batch_window", 1, 2) is None

    def test_flatten_skips_lists_and_bools(self):
        flat = flatten_numeric(
            {"a": {"b": 1.5}, "ok": True, "runs": [1, 2], "n": 3}
        )
        assert flat == {"a.b": 1.5, "n": 3.0}

    def test_flatten_named_list_under_entry_names(self):
        flat = flatten_numeric({"experiments": [
            {"name": "table18", "wall_s": 1.5},
            {"name": "labeling", "wall_s": 9.0, "stats": {"n": 2}},
        ]})
        assert flat == {
            "experiments.table18.wall_s": 1.5,
            "experiments.labeling.wall_s": 9.0,
            "experiments.labeling.stats.n": 2.0,
        }

    def test_flatten_skips_partly_named_or_duplicate_name_lists(self):
        assert flatten_numeric({"runs": [{"name": "a", "x": 1}, {"x": 2}]}) \
            == {}
        assert flatten_numeric(
            {"runs": [{"name": "a", "x": 1}, {"name": "a", "x": 2}]}
        ) == {}
        assert flatten_numeric({"runs": []}) == {}

    def test_perfbench_memory_setup_and_failures_are_classified(self):
        assert classify_delta("metrics.peak_rss_mb.value", 100, 150) == \
            "regression"
        assert classify_delta("metrics.alt_peak_rss_mb.value", 150, 100) == \
            "improvement"
        assert classify_delta("metrics.setup_s.value", 0.2, 0.4) == \
            "regression"
        assert classify_delta("failed", 0, 3) == "regression"


class TestTrendCommand:
    def _write(self, path, payload):
        path.write_text(json.dumps(payload))
        return str(path)

    def test_flags_regressions_across_files(self, tmp_path, capsys):
        old = self._write(tmp_path / "a.json", {
            "server": {"columns_per_s": 1000.0, "latency_s": {"p99": 0.1}},
        })
        new = self._write(tmp_path / "b.json", {
            "server": {"columns_per_s": 500.0, "latency_s": {"p99": 0.3}},
        })
        assert main(["trend", old, new]) == 0  # non-strict: informational
        out = capsys.readouterr().out
        assert "REGRESSION  server.columns_per_s: 1000 -> 500 (-50.0%)" in out
        assert "REGRESSION  server.latency_s.p99" in out
        assert "2 regression(s) flagged across 1 comparison(s)" in out

    def test_strict_exits_nonzero_on_regression(self, tmp_path):
        old = self._write(tmp_path / "a.json", {"wall_s": 1.0})
        new = self._write(tmp_path / "b.json", {"wall_s": 10.0})
        assert main(["trend", old, new, "--strict"]) == 1

    def test_improvements_pass_strict(self, tmp_path, capsys):
        old = self._write(tmp_path / "a.json", {"wall_s": 10.0})
        new = self._write(tmp_path / "b.json", {"wall_s": 1.0})
        assert main(["trend", old, new, "--strict"]) == 0
        assert "improved " in capsys.readouterr().out

    def test_threshold_suppresses_small_changes(self, tmp_path, capsys):
        old = self._write(tmp_path / "a.json", {"wall_s": 100.0})
        new = self._write(tmp_path / "b.json", {"wall_s": 104.0})
        assert main(["trend", old, new, "--strict"]) == 0
        assert "no changes past 10%" in capsys.readouterr().out

    def test_disjoint_files_compare_empty(self, tmp_path, capsys):
        old = self._write(tmp_path / "a.json", {"x": 1.0})
        new = self._write(tmp_path / "b.json", {"y": 2.0})
        assert main(["trend", old, new]) == 0
        assert "no overlapping numeric metrics" in capsys.readouterr().out

    def test_unreadable_file_exits_2(self, tmp_path):
        good = self._write(tmp_path / "a.json", {"x": 1.0})
        assert main(["trend", good, str(tmp_path / "missing.json")]) == 2

    def test_single_file_exits_2(self, tmp_path):
        good = self._write(tmp_path / "a.json", {"x": 1.0})
        assert main(["trend", good]) == 2

    def test_manifests_diff_per_experiment(self, tmp_path, capsys):
        def manifest(table18_s, labeling_s):
            return {
                "experiments": [
                    {"name": "table18", "wall_s": table18_s},
                    {"name": "labeling", "wall_s": labeling_s},
                ],
                "argv": ["table18", "labeling"],
            }

        old = self._write(tmp_path / "a.json", manifest(1.0, 10.0))
        new = self._write(tmp_path / "b.json", manifest(3.0, 10.2))
        assert main(["trend", old, new]) == 0
        out = capsys.readouterr().out
        assert "REGRESSION  experiments.table18.wall_s: 1 -> 3 (+200.0%)" \
            in out
        assert "experiments.labeling" not in out  # within the threshold
        assert "1 regression(s) flagged" in out

    def test_perfbench_results_flag_memory_setup_and_failures(
        self, tmp_path, capsys
    ):
        def result(failed, op_ms, rss_mb, setup_s):
            return {
                "correct": failed == 0,
                "attempted": 100,
                "failed": failed,
                "metrics": {
                    "op_ms": {"value": op_ms, "unit": "ms"},
                    "throughput_per_s": {"value": 600.0, "unit": "1/s"},
                    "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
                    "setup_s": {"value": setup_s, "unit": "s"},
                },
            }

        old = self._write(tmp_path / "a.json", result(0, 20.0, 165.0, 0.24))
        new = self._write(tmp_path / "b.json", result(2, 20.5, 268.0, 0.71))
        assert main(["trend", old, new, "--strict"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION  failed: 0 -> 2" in out
        assert "REGRESSION  metrics.peak_rss_mb.value: 165 -> 268" in out
        assert "REGRESSION  metrics.setup_s.value: 0.24 -> 0.71" in out
        assert "metrics.op_ms" not in out  # +2.5%, within the threshold
        assert "3 regression(s) flagged" in out
