"""infer-large: ``repro-infer --model rf.model --json`` on one large CSV,
streamed and buffered.

Ingestion and the stats engine dominate; predict is negligible and serve does
nothing.  The high-cardinality columns hold more distinct values than the
sketch's cap and the table more than the scan cache keeps, so little work is
shared.

Timed pass (``--trace 0``), each a median over the repeated runs:
  op_ms            wall of one ``--stream`` run
  op_alt_ms        wall of one buffered run
  throughput_per_s CSV MB per second over both kinds of run
  peak_rss_mb      peak RSS of a ``--stream`` run; alt_peak_rss_mb: buffered
  setup_s          ``repro-infer --model`` on a one-row CSV (median of the
                   two runs made after each pair)

Traced pass (``--trace 1``): one plain and one traced run of each kind; the
traced runs time ``load_csv_table``, ``profile_table``, the advancing of
``iter_csv_chunks``, ``StreamingProfiler.consume``/``profiles`` and
``predict_profiles`` from the benchmark's wrapper (traced.py).  The pass
also runs the bench-subset CLI traced (see bench_subset.py), so the layers
only ``repro-bench`` exercises (corpus generation, fits, the runner and the
fork scheduler) are measured by the listed workloads too.
"""

from __future__ import annotations

import csv
import json

import bench_subset
import common
from common import BenchError, Outcome, say
from inputs import cache_hit_profile, write_large_csv

#: One-row runs after each pair of large runs: spread over the run, the
#: set-up median samples the same host conditions as the large runs.
SETUPS_PER_PAIR = 2
#: The program's defaults, mirrored to predict which columns spill.
SKETCH_DISTINCT_CAP = 65_536
STREAM_CHUNK_ROWS = 16_384


def _infer(run, model, csv_path, stream: bool, out_name: str, traced=None):
    args = [str(csv_path), "--model", str(model), "--json"]
    if stream:
        args.append("--stream")
    if traced is not None:
        argv = common.bench_script("traced.py", str(traced), "infer", *args)
    else:
        argv = common.python_module("repro.cli", *args)
    out = run.path / out_name
    child = common.run_child(argv, run.env, out_path=out)
    predictions = None
    if child.returncode == 0:
        with open(out) as handle:
            predictions = json.load(handle)
    return child, predictions


def _column_facts(csv_path):
    """True distinct count per column and the scan-cache replay over the
    streamed chunks (input properties, computed untimed)."""
    with open(csv_path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = list(reader)
    distinct = {
        name: len({row[i] for row in rows}) for i, name in enumerate(header)
    }
    chunks = (
        [cell for row in rows[start:start + STREAM_CHUNK_ROWS] for cell in row]
        for start in range(0, len(rows), STREAM_CHUNK_ROWS)
    )
    cells, chunk_distinct, hits = cache_hit_profile(chunks)
    return distinct, cells, chunk_distinct, hits


def _expected(csv_path, model_path, distinct):
    """What the two CLI modes must print, from the library in-process.

    Buffered: the pipeline on ``profile_table`` of the loaded table.
    Streamed: the same profiles with the documented spill applied, i.e. a
    column with more distinct values than the sketch cap reports the cap as
    ``num_distinct`` (and ``pct_distinct`` from it); every other statistic is
    the buffered one.  Also returns the spilled columns whose feature type
    the spill changes (an input property, not a failure)."""
    from repro.core.featurize import profile_table
    from repro.core.persistence import load_model
    from repro.core.pipeline import TypeInferencePipeline
    from repro.core.stats import STAT_INDEX, DescriptiveStats
    from repro.tabular.csv_io import load_csv_table

    profiles = profile_table(load_csv_table(csv_path))
    pipeline = TypeInferencePipeline(load_model(model_path))
    buffered = [p.as_dict() for p in pipeline.predict_profiles(profiles)]
    for profile in profiles:
        if distinct[profile.name] > SKETCH_DISTINCT_CAP:
            values = profile.stats.values.copy()
            values[STAT_INDEX["num_distinct"]] = SKETCH_DISTINCT_CAP
            values[STAT_INDEX["pct_distinct"]] = (
                SKETCH_DISTINCT_CAP / values[STAT_INDEX["total_values"]]
            )
            profile.stats = DescriptiveStats(values)
    streamed = [p.as_dict() for p in pipeline.predict_profiles(profiles)]
    flipped = [
        s["column"] for s, b in zip(streamed, buffered)
        if s["feature_type"] != b["feature_type"]
    ]
    return {True: streamed, False: buffered}, flipped


def _check(outputs, expected, outcome: Outcome) -> None:
    """Every CLI run prints exactly the expected predictions of its mode."""
    for stream, runs in outputs.items():
        for predictions in runs:
            if predictions is not None and predictions != expected[stream]:
                outcome.op(False, f"repro-infer (stream={stream}) differs "
                                  f"from the library pipeline")


def _one_row_csv(run, csv_path):
    path = run.path / "one_row.csv"
    with open(csv_path, encoding="utf-8") as handle:
        path.write_text(handle.readline() + handle.readline(), encoding="utf-8")
    return path


def _prepare(run, seed):
    csv_path = run.path / f"large-{seed}.csv"
    size_mb = write_large_csv(csv_path, seed) / 1e6
    return csv_path, size_mb


def run_timed(run, seed: int, seconds: float, outcome: Outcome) -> None:
    model = common.model_fixtures()["rf"]
    csv_path, size_mb = _prepare(run, seed)
    one_row = _one_row_csv(run, csv_path)
    setups = []
    runs = {True: [], False: []}
    outputs = {True: [], False: []}
    measured = 0.0
    while measured < seconds:
        for stream in (True, False):
            child, predictions = _infer(
                run, model, csv_path, stream, f"out-{int(stream)}.json"
            )
            outcome.op(child.returncode == 0,
                       f"repro-infer (stream={stream}) exited "
                       f"{child.returncode}")
            runs[stream].append(child)
            outputs[stream].append(predictions)
            measured += child.wall_s
        for _ in range(SETUPS_PER_PAIR):
            child, predictions = _infer(run, model, one_row, False, "one.json")
            outcome.op(child.returncode == 0 and predictions is not None,
                       f"one-row repro-infer exited {child.returncode}")
            setups.append(child.wall_s)

    distinct, cells, chunk_distinct, hits = _column_facts(csv_path)
    expected, flipped = _expected(csv_path, model, distinct)
    _check(outputs, expected, outcome)

    stream_s = common.median([c.wall_s for c in runs[True]])
    buffered_s = common.median([c.wall_s for c in runs[False]])
    stream_rss = common.median([c.peak_rss_mb for c in runs[True]])
    buffered_rss = common.median([c.peak_rss_mb for c in runs[False]])
    n_runs = len(runs[True]) + len(runs[False])
    high = sum(1 for n in distinct.values() if n > SKETCH_DISTINCT_CAP)
    say(f"infer-large: {size_mb:.1f} MB CSV, {len(distinct)} columns "
        f"({high} above the sketch cap), {n_runs} runs in {measured:.1f} s")
    say(f"infer_stream_mb_per_s = {size_mb / stream_s:.2f} MB/s")
    say(f"infer_buffered_mb_per_s = {size_mb / buffered_s:.2f} MB/s")
    say(f"infer_stream_peak_rss_mb = {stream_rss:.1f} MB")
    say(f"infer_buffered_peak_rss_mb = {buffered_rss:.1f} MB")
    say(f"setup_s = {common.median(setups):.3f} s (repro-infer --model on a "
        f"one-row CSV; median of {len(setups)})")
    say(f"input: distinct share {sum(distinct.values()) / cells:.3f} of "
        f"cells, scan-cache hit ratio {hits / chunk_distinct:.3f}, spill "
        f"changes the feature type of {flipped or 'no column'}")
    outcome.metric("op_ms", 1000.0 * stream_s)
    outcome.metric("op_alt_ms", 1000.0 * buffered_s)
    outcome.metric("throughput_per_s", size_mb * n_runs / sum(
        c.wall_s for c in runs[True] + runs[False]))
    outcome.metric("peak_rss_mb", stream_rss)
    outcome.metric("alt_peak_rss_mb", buffered_rss)
    outcome.metric("setup_s", common.median(setups))


def _total(records, layer):
    return sum(r["s"] for r in records if r["layer"] == layer)


def run_traced(run, seed: int, seconds: float, outcome: Outcome) -> None:
    model = common.model_fixtures()["rf"]
    csv_path, _ = _prepare(run, seed)
    plain, traced = {}, {}
    outputs = {True: [], False: []}
    for stream in (True, False):
        child, predictions = _infer(run, model, csv_path, stream,
                                    f"plain-{int(stream)}.json")
        outcome.op(child.returncode == 0, f"repro-infer exited {child.returncode}")
        plain[stream] = child.wall_s
        record_file = run.path / f"trace-{int(stream)}.jsonl"
        child, traced_out = _infer(run, model, csv_path, stream,
                                   f"traced-{int(stream)}.json",
                                   traced=record_file)
        outcome.op(child.returncode == 0,
                   f"traced repro-infer exited {child.returncode}")
        traced[stream] = (child.wall_s, common.read_jsonl(record_file))
        outputs[stream] += [predictions, traced_out]
    distinct, _, chunk_distinct, hits = _column_facts(csv_path)
    expected, _ = _expected(csv_path, model, distinct)
    _check(outputs, expected, outcome)

    streamed = traced[True][1]
    buffered = traced[False][1]
    predicted = [r for r in buffered if r["layer"] == "models.predict"]
    if not predicted:
        raise BenchError("traced run recorded no predict call")
    layers = {
        "tabular.read_s": _total(buffered, "tabular.read"),
        "featurize.profile_s": _total(buffered, "featurize.profile"),
        "tabular.chunk_s": _total(streamed, "tabular.chunk"),
        "sketch.consume_s": _total(streamed, "sketch.consume"),
        "sketch.finalize_s": _total(streamed, "sketch.finalize"),
        "sketch.spilled_columns": float(sum(
            1 for r in streamed
            if r["layer"] == "sketch.column_finalize" and r["spilled"])),
        "stats.scan_cache_hit_ratio": hits / chunk_distinct,
        "models.predict_ms_per_col.rf": 1000.0 * sum(
            r["s"] for r in predicted) / sum(r["columns"] for r in predicted),
        "obs.trace_overhead_pct": 100.0 * (
            traced[True][0] + traced[False][0] - plain[True] - plain[False]
        ) / (plain[True] + plain[False]),
    }
    bench_layers, _ = bench_subset.traced_layers(run, seed, outcome)
    for name, value in bench_layers.items():
        outcome.metric(name, value)
    say(f"infer-large traced: plain {plain[True]:.2f}/{plain[False]:.2f} s, "
        f"traced {traced[True][0]:.2f}/{traced[False][0]:.2f} s "
        f"(stream/buffered)")
    for name, value in layers.items():
        outcome.metric(name, value)

