#!/usr/bin/env python
"""Stream smoke: bounded-memory streaming inference over a CSV that cannot
fit the memory ceiling.

The script generates a CSV (row by row, so its own memory stays flat),
then runs ``repro-infer --stream`` on it inside a child process that
asserts its *own* peak RSS (``resource.getrusage(RUSAGE_SELF).ru_maxrss``)
stayed under ``--ceiling-mb``.  A reference run of ``repro-infer``
without ``--stream`` (the exact streaming pass, which keeps every
distinct value; the "buffered" run of the flags and the report) over the
same file checks that the capped predictions are byte-identical and that
``--stream`` costs at most ``--max-slowdown``× its wall time; with
``--buffered-ceiling-mb`` that child asserts a peak-RSS ceiling too, so a
run that materializes the table or holds a transient that grows with the
file fails.

Every generated column keeps its distinct-value count under the sketch's
distinct cap, so the capped statistics are exactly the exact run's and
the prediction comparison is strict.  One column is non-ASCII, so the
stats kernel's codepoint path runs end to end too.

CI runs this at ~1M rows (``--rows 1000000 --ceiling-mb 115
--buffered-ceiling-mb 120``; ``.github/workflows/ci.yml`` explains both
values).  The streaming profiler's evidence run (recorded in
CHANGES.md) used a larger file, >= 10x the 320 MB ceiling::

    python scripts/stream_smoke.py --rows 15000000 --ceiling-mb 320 \
        --out REPORT.json

Exit code 0 means generation, the RSS ceiling, output parity, and the
throughput budget all held.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Child wrapper: run repro-infer, then report (and assert) peak RSS.
#: ru_maxrss is KB on Linux.  The record rides on stderr's last line so
#: stdout stays exactly the CLI's prediction output.
CHILD = """
import json, resource, sys
ceiling_kb = int(sys.argv[1])
from repro.cli import main
rc = main(sys.argv[2:])
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"rc": rc, "peak_rss_kb": peak_kb}), file=sys.stderr)
if rc == 0 and ceiling_kb > 0 and peak_kb > ceiling_kb:
    print(
        f"RSS ceiling exceeded: {peak_kb} KB > {ceiling_kb} KB",
        file=sys.stderr,
    )
    rc = 3
sys.exit(rc)
"""

# Distinct-value pools sized well under the sketch's 65,536 cap, so the
# streamed stats match the batch kernel exactly (no spill).
CITIES = [f"city_{i:04d}" for i in range(2000)]
TAGS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
PAD = "x" * 180


def generate_csv(path: Path, n_rows: int) -> int:
    """Write the smoke CSV row by row; returns its size in bytes."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["id", "amount", "city", "street", "tag", "flag", "comment"]
        )
        for i in range(n_rows):
            writer.writerow([
                i % 50_000,
                f"{(i % 10_000) * 1.25 + 0.5:.2f}",
                CITIES[i % len(CITIES)],
                f"Straße-{i % 500}",
                TAGS[i % len(TAGS)],
                "true" if i % 3 else "false",
                f"row {i % 40_000} {PAD}",
            ])
    return path.stat().st_size


def run_infer(
    args: list[str], ceiling_kb: int, label: str
) -> tuple[subprocess.CompletedProcess, float, int]:
    """Run the CLI in a child; (proc, wall seconds, peak RSS KB)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    command = [sys.executable, "-c", CHILD, str(ceiling_kb), *args]
    print(f"+ [{label}] repro-infer {' '.join(args)}", flush=True)
    started = time.monotonic()
    proc = subprocess.run(
        command, env=env, cwd=REPO_ROOT, capture_output=True, text=True,
        timeout=7200,
    )
    wall_s = time.monotonic() - started
    peak_kb = -1
    for line in proc.stderr.splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and "peak_rss_kb" in record:
            peak_kb = int(record["peak_rss_kb"])
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(
            f"FAIL: [{label}] exited {proc.returncode} "
            f"(peak RSS {peak_kb} KB)"
        )
    print(f"  [{label}] {wall_s:.1f}s, peak RSS {peak_kb / 1024:.0f} MB",
          flush=True)
    return proc, wall_s, peak_kb


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rows", type=int, default=1_000_000,
        help="CSV rows to generate (default 1M: the CI size)",
    )
    parser.add_argument(
        "--ceiling-mb", type=int, default=512,
        help="peak-RSS ceiling enforced on the streamed run (default 512)",
    )
    parser.add_argument(
        "--buffered-ceiling-mb", type=int, default=0,
        help="peak-RSS ceiling enforced on the reference run without "
             "--stream (default 0: recorded, not enforced)",
    )
    parser.add_argument(
        "--max-slowdown", type=float, default=1.5,
        help="streamed wall time must stay within this factor of the "
             "reference run (default 1.5)",
    )
    parser.add_argument(
        "--skip-buffered", action="store_true",
        help="skip the reference run without --stream (no "
             "parity/throughput checks; for files whose distinct values "
             "the host cannot hold)",
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="write a BENCH-style JSON report here",
    )
    parser.add_argument(
        "--workdir", default=None,
        help="working directory (default: a fresh temp dir)",
    )
    args = parser.parse_args(argv)

    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="stream-smoke-"))
    workdir.mkdir(parents=True, exist_ok=True)
    csv_path = workdir / "stream_smoke.csv"
    model_path = workdir / "tiny.model"

    print(f"=== generating {args.rows:,} rows -> {csv_path} ===", flush=True)
    started = time.monotonic()
    n_bytes = generate_csv(csv_path, args.rows)
    generate_s = time.monotonic() - started
    print(f"  {n_bytes / 1e6:.0f} MB in {generate_s:.1f}s", flush=True)
    ceiling_kb = args.ceiling_mb * 1024

    # Train the tiny model once on a small corpus; both timed runs then
    # just load the artifact, so they differ only in the ingestion path.
    print("=== training the throwaway model ===", flush=True)
    train_csv = workdir / "train.csv"
    train_csv.write_text("a,b\n1,x\n2,y\n")
    run_infer(
        [str(train_csv), "--save", str(model_path), "--model",
         str(model_path), "--trees", "5", "--train-examples", "80"],
        ceiling_kb=0, label="train",
    )

    base = [str(csv_path), "--model", str(model_path), "--json"]
    print(f"=== streamed run (ceiling {args.ceiling_mb} MB) ===", flush=True)
    streamed, stream_s, stream_peak_kb = run_infer(
        [*base, "--stream"], ceiling_kb=ceiling_kb, label="streamed"
    )

    report = {
        "stream_smoke": {
            "config": {
                "rows": args.rows,
                "file_bytes": n_bytes,
                "ceiling_mb": args.ceiling_mb,
                "max_slowdown": args.max_slowdown,
            },
            "generate_s": round(generate_s, 3),
            "streamed": {
                "wall_s": round(stream_s, 3),
                "peak_rss_kb": stream_peak_kb,
                "rows_per_s": round(args.rows / stream_s, 1),
                "mb_per_s": round(n_bytes / 1e6 / stream_s, 2),
            },
            "file_over_ceiling": round(
                n_bytes / (args.ceiling_mb * 1024 * 1024), 2
            ),
        }
    }

    if not args.skip_buffered:
        print(
            "=== exact (no --stream) reference run (ceiling "
            f"{args.buffered_ceiling_mb or 'none'} MB) ===",
            flush=True,
        )
        buffered, buffer_s, buffer_peak_kb = run_infer(
            base, ceiling_kb=args.buffered_ceiling_mb * 1024,
            label="buffered",
        )
        if streamed.stdout != buffered.stdout:
            raise SystemExit(
                "FAIL: --stream predictions differ from the exact run"
            )
        ratio = stream_s / buffer_s
        report["stream_smoke"]["buffered"] = {
            "wall_s": round(buffer_s, 3),
            "peak_rss_kb": buffer_peak_kb,
            "ceiling_mb": args.buffered_ceiling_mb,
        }
        report["stream_smoke"]["throughput_ratio"] = round(ratio, 3)
        print(
            f"  parity OK; streamed/buffered wall ratio {ratio:.2f} "
            f"(budget {args.max_slowdown})",
            flush=True,
        )
        if ratio > args.max_slowdown:
            raise SystemExit(
                f"FAIL: --stream is {ratio:.2f}x the exact run "
                f"(budget {args.max_slowdown}x)"
            )

    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"report -> {args.out}", flush=True)
    if args.workdir is None:
        csv_path.unlink(missing_ok=True)
        train_csv.unlink(missing_ok=True)
        model_path.unlink(missing_ok=True)
    print(
        f"stream smoke OK: {n_bytes / 1e6:.0f} MB profiled under a "
        f"{args.ceiling_mb} MB ceiling "
        f"({report['stream_smoke']['file_over_ceiling']}x the ceiling)",
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
