"""``repro-obs``: inspect traces and track performance trends.

Three subcommands over the artifacts the telemetry layer emits:

``repro-obs trace show spans.jsonl [more.jsonl ...]``
    Rebuild the span tree (by trace_id/span_id/parent_span_id) from one or
    more spans-JSONL exports — e.g. the client's ``--trace-out`` file plus
    the server's — and render it with per-span wall/CPU/self time.  The
    critical path (the chain of longest children from each root) is marked
    with ``*`` and totalled.

``repro-obs trace merge a.jsonl b.jsonl -o merged.jsonl``
    Stitch multi-process span files into one, deduplicated by span_id and
    ordered by start time — the input ``trace show`` and archival want.

``repro-obs trend old_manifest.json new_manifest.json ...``
    Compare run manifests or saved perfbench result lines: every numeric
    leaf is flattened to a dotted path, adjacent files are diffed, and
    changes past ``--threshold`` percent in the *bad* direction
    (latency/wall-time/RSS/failures up, throughput down) are flagged as
    regressions.  ``--strict`` turns flagged regressions into a non-zero
    exit for CI gating.

Files with no overlapping metrics simply produce no comparisons — trend
accepts any mix of JSON shapes.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs.export import read_jsonl, write_jsonl

#: Trend: metric-path fragments where an *increase* is bad.
_BAD_UP = (
    "wall_s", "wall_clock", "cpu_s", "latency", "_ms", "queue", "p50",
    "p90", "p99", "shed", "errors", "deadline_exceeded", "dropped",
    "rss", "setup_s", "failed",
)
#: Trend: metric-path fragments where a *decrease* is bad.
_BAD_DOWN = ("columns_per_s", "per_s", "speedup", "throughput", "accuracy")


# ---------------------------------------------------------------------------
# trace loading / tree building
# ---------------------------------------------------------------------------

def load_spans(paths: list[str]) -> list[dict]:
    """All span records from the given JSONL files, in file order."""
    records: list[dict] = []
    for path in paths:
        for record in read_jsonl(path):
            record.setdefault("_file", path)
            records.append(record)
    return records


def dedupe_spans(records: list[dict]) -> list[dict]:
    """Drop duplicate span_ids (a span exported by both a worker file and
    the parent's merged file); records without ids are kept as-is."""
    seen: set[str] = set()
    out: list[dict] = []
    for record in records:
        span_id = record.get("span_id")
        if span_id is not None:
            if span_id in seen:
                continue
            seen.add(span_id)
        out.append(record)
    return out


def group_by_trace(records: list[dict]) -> dict[str, list[dict]]:
    """trace_id → records (id-less legacy records group under ``""``)."""
    groups: dict[str, list[dict]] = {}
    for record in records:
        groups.setdefault(record.get("trace_id") or "", []).append(record)
    return groups


def build_tree(records: list[dict]) -> tuple[list[dict], dict[str, list[dict]]]:
    """(roots, children-by-span_id) for one trace's records.

    A record whose parent_span_id is unknown (the parent ran in a process
    whose export was not provided, or was dropped by the ring buffer) is
    treated as a root rather than lost.
    """
    by_id = {r["span_id"]: r for r in records if r.get("span_id")}
    children: dict[str, list[dict]] = {}
    roots: list[dict] = []
    for record in records:
        parent = record.get("parent_span_id")
        if parent and parent in by_id:
            children.setdefault(parent, []).append(record)
        else:
            roots.append(record)
    for siblings in children.values():
        siblings.sort(key=lambda r: r.get("started_at") or 0.0)
    roots.sort(key=lambda r: r.get("started_at") or 0.0)
    return roots, children


def critical_path(
    roots: list[dict], children: dict[str, list[dict]]
) -> list[dict]:
    """Longest-child chain starting at the longest root."""
    if not roots:
        return []
    path = [max(roots, key=lambda r: r.get("wall_s") or 0.0)]
    while True:
        kids = children.get(path[-1].get("span_id") or "", [])
        if not kids:
            return path
        path.append(max(kids, key=lambda r: r.get("wall_s") or 0.0))


def render_tree(records: list[dict]) -> str:
    """One trace's records as an indented tree with timings."""
    roots, children = build_tree(records)
    on_path = {id(r) for r in critical_path(roots, children)}
    lines: list[str] = []

    def self_s(record: dict) -> float:
        kids = children.get(record.get("span_id") or "", [])
        return max(
            0.0,
            (record.get("wall_s") or 0.0)
            - sum(k.get("wall_s") or 0.0 for k in kids),
        )

    def walk(record: dict, depth: int) -> None:
        mark = "*" if id(record) in on_path else " "
        wall = record.get("wall_s") or 0.0
        cpu = record.get("cpu_s") or 0.0
        attrs = record.get("attrs") or {}
        attr_text = ""
        if attrs:
            shown = ", ".join(f"{k}={v}" for k, v in list(attrs.items())[:4])
            attr_text = f"  [{shown}]"
        lines.append(
            f"{mark} {'  ' * depth}{record.get('name', '?')}  "
            f"wall={1000 * wall:.2f}ms self={1000 * self_s(record):.2f}ms "
            f"cpu={1000 * cpu:.2f}ms{attr_text}"
        )
        for child in children.get(record.get("span_id") or "", []):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    path = critical_path(roots, children)
    if path:
        total = sum(self_s(r) for r in path)
        names = " > ".join(r.get("name", "?") for r in path)
        lines.append(
            f"critical path ({len(path)} spans, "
            f"{1000 * total:.2f}ms self time): {names}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# trend
# ---------------------------------------------------------------------------

def flatten_numeric(payload, prefix: str = "") -> dict[str, float]:
    """Every numeric leaf of a nested dict as ``{"a.b.c": value}``.

    A list whose entries are dicts with distinct ``"name"`` keys flattens
    under each entry's name (``experiments.table18.wall_s``), so two run
    manifests diff per experiment.  Other lists are skipped: they vary in
    length across runs, so positional paths would compare unlike things.
    """
    out: dict[str, float] = {}
    if isinstance(payload, list):
        named = {
            str(entry["name"]): entry
            for entry in payload
            if isinstance(entry, dict) and "name" in entry
        }
        if not payload or len(named) != len(payload):
            return out
        payload = named
    if isinstance(payload, dict):
        for key, value in payload.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            if isinstance(value, bool):
                continue
            if isinstance(value, (int, float)):
                out[path] = float(value)
            elif isinstance(value, (dict, list)):
                out.update(flatten_numeric(value, path))
    return out


def classify_delta(path: str, before: float, after: float) -> str | None:
    """'regression' / 'improvement' / None for a changed metric."""
    lowered = path.lower()
    worse_up = any(frag in lowered for frag in _BAD_UP)
    worse_down = any(frag in lowered for frag in _BAD_DOWN)
    if worse_down:  # throughput-ish wins over latency-ish on mixed paths
        return "regression" if after < before else "improvement"
    if worse_up:
        return "regression" if after > before else "improvement"
    return None


def compare_files(
    names: list[str],
    payloads: list[dict],
    threshold_pct: float,
) -> tuple[list[str], int]:
    """Adjacent-pair comparison; returns (report lines, n_regressions)."""
    lines: list[str] = []
    regressions = 0
    for index in range(1, len(payloads)):
        before_name, after_name = names[index - 1], names[index]
        before = flatten_numeric(payloads[index - 1])
        after = flatten_numeric(payloads[index])
        shared = sorted(set(before) & set(after))
        lines.append(f"== {before_name} -> {after_name} "
                     f"({len(shared)} shared metrics) ==")
        if not shared:
            lines.append("  (no overlapping numeric metrics)")
            continue
        flagged = 0
        for path in shared:
            b, a = before[path], after[path]
            base = max(abs(b), 1e-12)
            pct = 100.0 * (a - b) / base
            if abs(pct) < threshold_pct:
                continue
            verdict = classify_delta(path, b, a)
            if verdict is None:
                continue
            flagged += 1
            if verdict == "regression":
                regressions += 1
            lines.append(
                f"  {'REGRESSION' if verdict == 'regression' else 'improved '}"
                f"  {path}: {b:g} -> {a:g} ({pct:+.1f}%)"
            )
        if not flagged:
            lines.append(f"  no changes past {threshold_pct:g}% "
                         "in either direction")
    return lines, regressions


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Inspect span traces and benchmark trends.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    trace = sub.add_parser("trace", help="span-tree operations")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    show = trace_sub.add_parser(
        "show", help="render the span tree from spans-JSONL exports"
    )
    show.add_argument("files", nargs="+", metavar="SPANS_JSONL")
    show.add_argument(
        "--trace-id", default=None,
        help="render only this trace (default: every trace found)",
    )

    merge = trace_sub.add_parser(
        "merge", help="stitch multi-process span files into one JSONL"
    )
    merge.add_argument("files", nargs="+", metavar="SPANS_JSONL")
    merge.add_argument(
        "-o", "--output", default=None, metavar="PATH",
        help="write merged JSONL here (default: stdout)",
    )
    merge.add_argument(
        "--trace-id", default=None,
        help="keep only this trace's spans",
    )

    trend = sub.add_parser(
        "trend", help="compare run manifests / perfbench results across runs"
    )
    trend.add_argument("files", nargs="+", metavar="JSON")
    trend.add_argument(
        "--threshold", type=float, default=10.0, metavar="PCT",
        help="flag changes past this percentage (default: 10)",
    )
    trend.add_argument(
        "--strict", action="store_true",
        help="exit 1 when any regression is flagged (CI gating)",
    )
    return parser


def _cmd_trace_show(args) -> int:
    records = dedupe_spans(load_spans(args.files))
    if not records:
        print("no span records found", file=sys.stderr)
        return 1
    groups = group_by_trace(records)
    if args.trace_id is not None:
        if args.trace_id not in groups:
            print(f"trace {args.trace_id!r} not found; traces present: "
                  f"{sorted(g for g in groups if g)}", file=sys.stderr)
            return 1
        groups = {args.trace_id: groups[args.trace_id]}
    first = True
    for trace_id in sorted(groups, key=lambda t: (t == "", t)):
        if not first:
            print()
        first = False
        label = trace_id or "(records without trace ids)"
        print(f"trace {label} — {len(groups[trace_id])} spans")
        print(render_tree(groups[trace_id]))
    return 0


def _cmd_trace_merge(args) -> int:
    records = dedupe_spans(load_spans(args.files))
    if args.trace_id is not None:
        records = [r for r in records if r.get("trace_id") == args.trace_id]
    records.sort(
        key=lambda r: (r.get("trace_id") or "", r.get("started_at") or 0.0)
    )
    for record in records:
        record.pop("_file", None)
    if args.output:
        n = write_jsonl(args.output, records)
        print(f"merged {n} spans from {len(args.files)} file(s) "
              f"into {args.output}")
    else:
        for record in records:
            print(json.dumps(record, sort_keys=False))
    return 0


def _cmd_trend(args) -> int:
    payloads = []
    for path in args.files:
        try:
            with open(path, encoding="utf-8") as handle:
                payloads.append(json.load(handle))
        except (OSError, ValueError) as exc:
            print(f"repro-obs: cannot read {path}: {exc}", file=sys.stderr)
            return 2
    if len(payloads) < 2:
        print("repro-obs trend: need at least two files to compare",
              file=sys.stderr)
        return 2
    lines, regressions = compare_files(
        list(args.files), payloads, args.threshold
    )
    print("\n".join(lines))
    print(f"\n{regressions} regression(s) flagged across "
          f"{len(payloads) - 1} comparison(s)")
    if regressions and args.strict:
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "trace":
        if args.trace_command == "show":
            return _cmd_trace_show(args)
        return _cmd_trace_merge(args)
    return _cmd_trend(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
