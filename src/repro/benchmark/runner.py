"""Experiment registry and CLI: ``repro-bench <experiment> [--scale N]``.

Each experiment regenerates one of the paper's tables or figures and prints
the same rows/series.  ``repro-bench all`` runs everything.  At ``--scale``
1200 or above (``SHAPE_CHECK_SCALE``) each experiment also checks its result
against the paper's shape with the ``check`` in its module; a broken shape
is listed on stderr and the run exits 1, while stdout keeps the tables.

Observability: ``--log-level``, ``--metrics-out PATH``, and
``--manifest PATH`` enable the :mod:`repro.obs` telemetry layer, so
``repro-bench all --manifest run.json`` emits a machine-readable record of an
entire reproduction run (per-experiment wall time, per-stage span breakdown,
counter values).  With the flags omitted, telemetry stays in no-op mode and
output is identical to previous releases.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable

from repro.benchmark.checkpoint import RunCheckpoint
from repro.benchmark.context import BenchmarkContext
from repro.cache import ArtifactCache
from repro.core.models import train_examples
from repro.faults import add_fault_flags, configure_faults
from repro.obs import (
    TRACEPARENT_ENV,
    RunManifest,
    TraceContext,
    add_observability_flags,
    configure_telemetry,
    set_process_context,
    telemetry,
)
from repro.obs.export import write_json, write_spans_jsonl


#: What an experiment returns: its rendered output, and the paper shapes
#: that output breaks (see ``BenchmarkContext.shape_failures``).
Outcome = tuple[str, list[str]]


def _table1(context: BenchmarkContext) -> Outcome:
    from repro.benchmark.table1 import check, render_table1, run_table1

    result = run_table1(context)
    return render_table1(result), context.shape_failures(check, result)


def _table2(context: BenchmarkContext) -> Outcome:
    from repro.benchmark.table2 import check, render_table2, run_table2

    result = run_table2(context)
    text = "\n".join(
        render_table2(result, split) for split in ("train", "validation", "test")
    )
    return text, context.shape_failures(check, result)


def _table3(context: BenchmarkContext) -> Outcome:
    from repro.benchmark.table3 import (
        check,
        render_datatype_confusion,
        render_table3,
        run_datatype_confusion,
        run_table3,
    )

    result = run_table3(context, max_examples=20)
    parts = [
        render_table3(result),
        render_datatype_confusion(run_datatype_confusion(context)),
    ]
    return "\n".join(parts), context.shape_failures(check, result)


def _downstream(context: BenchmarkContext) -> Outcome:
    from repro.benchmark.downstream_exp import (
        check,
        render_downstream,
        run_downstream_experiment,
    )

    result = run_downstream_experiment(context)
    return render_downstream(result), context.shape_failures(check, result)


def _table7(context: BenchmarkContext) -> Outcome:
    from repro.benchmark.table7 import check, render_table7, run_table7

    result = run_table7(context)
    return render_table7(result), context.shape_failures(check, result)


def _table11(context: BenchmarkContext) -> Outcome:
    from repro.benchmark.table11 import check, render_table11, run_table11

    rows = run_table11(context)
    return render_table11(rows), context.shape_failures(check, rows)


def _table12(context: BenchmarkContext) -> Outcome:
    from repro.benchmark.table12 import check, render_table12, run_table12

    rows = run_table12(context)
    return render_table12(rows), context.shape_failures(check, rows)


def _table15(context: BenchmarkContext) -> Outcome:
    from repro.benchmark.table15 import check, render_table15, run_table15

    rows = run_table15(context)
    return render_table15(rows), context.shape_failures(check, rows)


def _table14(context: BenchmarkContext) -> Outcome:
    from repro.benchmark.table14 import check, render_table14, run_table14

    rows = run_table14(context)
    return render_table14(rows), context.shape_failures(check, rows)


def _figure9(context: BenchmarkContext) -> Outcome:
    from repro.benchmark.robustness import check, render_table16, run_robustness

    result = run_robustness(context, n_runs=25, max_columns=100)
    return render_table16(result), context.shape_failures(check, result)


def _table17(context: BenchmarkContext) -> Outcome:
    from repro.benchmark.table17 import check, render_table17, run_table17

    result = run_table17(context)
    return render_table17(result), context.shape_failures(check, result)


def _table18(context: BenchmarkContext) -> Outcome:
    from repro.benchmark.datastats import check, render_table18, run_datastats

    result = run_datastats(context)
    return render_table18(result), context.shape_failures(check, result)


def _figure7(context: BenchmarkContext) -> Outcome:
    from repro.benchmark.runtime import check, render_figure7, run_runtimes

    breakdowns = run_runtimes(context)
    return render_figure7(breakdowns), context.shape_failures(check, breakdowns)


def _labeling(context: BenchmarkContext) -> Outcome:
    from repro.benchmark.labeling import (
        check,
        render_labeling,
        run_crowdsourcing_simulation,
        run_labeling_bootstrap,
    )

    result = (
        run_labeling_bootstrap(context), run_crowdsourcing_simulation(context)
    )
    return render_labeling(*result), context.shape_failures(check, result)


def _weak(context: BenchmarkContext) -> Outcome:
    from repro.benchmark.weak_exp import (
        check,
        render_weak_supervision,
        run_weak_supervision,
    )

    result = run_weak_supervision(context)
    return render_weak_supervision(result), context.shape_failures(check, result)


def _active(context: BenchmarkContext) -> Outcome:
    from repro.benchmark.active_exp import check, render_active, run_active

    curves = run_active(context)
    return render_active(curves), context.shape_failures(check, curves)


def _importance(context: BenchmarkContext) -> Outcome:
    from repro.benchmark.importance import (
        check,
        render_block_importance,
        run_block_importance,
    )

    rows = run_block_importance(context)
    return render_block_importance(rows), context.shape_failures(check, rows)


def _tuning(context: BenchmarkContext) -> Outcome:
    from repro.benchmark.tuning_exp import render_tuning, run_tuning

    return render_tuning(run_tuning(context)), []


def _leaderboard(context: BenchmarkContext) -> Outcome:
    from repro.benchmark.leaderboard import build_leaderboard

    return build_leaderboard(context).to_json(), []


EXPERIMENTS: dict[str, Callable[[BenchmarkContext], Outcome]] = {
    "table1": _table1,
    "table2": _table2,
    "table3": _table3,
    "downstream": _downstream,  # tables 4 & 5 + figure 8
    "table7": _table7,
    "table11": _table11,
    "table12": _table12,
    "table14": _table14,
    "table15": _table15,
    "figure9": _figure9,  # + table 16
    "table17": _table17,
    "table18": _table18,  # + figure 10
    "figure7": _figure7,
    "labeling": _labeling,
    "tuning": _tuning,  # nested-CV grid search (Section 4.1 protocol)
    "leaderboard": _leaderboard,
    "weak": _weak,  # weak-supervision amplification (Section 6.2)
    "active": _active,  # active labeling strategies (Sections 3.3, 6.2)
    "importance": _importance,  # feature-block importance (Section 6.2)
}


def run_experiment(name: str, context: BenchmarkContext) -> Outcome:
    """Run one experiment: its rendered output and the paper shapes it
    breaks (none below ``SHAPE_CHECK_SCALE``)."""
    try:
        experiment = EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}"
        ) from None
    return experiment(context)


def parse_size(text: str) -> int:
    """'500M' / '2G' / '750k' / plain bytes → int bytes."""
    text = text.strip()
    multipliers = {"k": 1024, "m": 1024**2, "g": 1024**3, "t": 1024**4}
    suffix = text[-1:].lower()
    if suffix in multipliers:
        return int(float(text[:-1]) * multipliers[suffix])
    return int(text)


def _cache_main(argv: list[str]) -> int:
    """``repro-bench cache prune --max-bytes 500M [--cache-dir PATH]``.

    Keeps long-lived deployments (cron'd benchmarks, ``repro-serve`` nodes
    training through a cache) from growing the artifact dir unboundedly:
    least-recently-*used* entries are evicted first (reads bump mtime).
    """
    parser = argparse.ArgumentParser(
        prog="repro-bench cache",
        description="Manage the content-addressed artifact cache.",
    )
    parser.add_argument("action", choices=["prune"])
    parser.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="cache directory (default: $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--max-bytes", required=True, metavar="SIZE", type=parse_size,
        help="evict LRU entries until the cache fits SIZE "
             "(suffixes k/M/G/T accepted)",
    )
    args = parser.parse_args(argv)
    cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
    if not cache_dir:
        parser.error("no cache directory: pass --cache-dir or set "
                     "$REPRO_CACHE_DIR")
    report = ArtifactCache(cache_dir).prune(args.max_bytes)
    print(
        f"pruned {report['removed']} of {report['entries_before']} entries "
        f"({report['bytes_removed']} bytes) from {report['root']}; "
        f"{report['bytes_after']} bytes in {report['entries_after']} "
        f"entries remain (limit {report['max_bytes']})"
    )
    return 0


def _goldens_main(argv: list[str]) -> int:
    """``repro-bench goldens record|check`` — the golden-prediction gate.

    ``record`` fits every requested model on the canonical corpus and
    freezes its per-column predictions (plus confusion matrix) into a
    committed JSON file; ``check`` re-runs the models and fails (exit 1)
    on drift below the similarity budget — or on *any* drift with
    ``--strict``.  See :mod:`repro.benchmark.goldens` for how drift is
    triaged via confusion-aware affinity.
    """
    from repro.benchmark.goldens import (
        DEFAULT_MODELS,
        GoldenMismatchError,
        check_goldens,
        default_golden_path,
        load_goldens,
        record_goldens,
        write_goldens,
    )

    parser = argparse.ArgumentParser(
        prog="repro-bench goldens",
        description="Record/check per-column golden predictions on the "
                    "canonical corpus.",
    )
    parser.add_argument("action", choices=["record", "check"])
    parser.add_argument(
        "--path", default=None, metavar="FILE",
        help="golden JSON file (default: "
             "benchmarks/goldens/corpus-s{scale}-seed{seed}.json)",
    )
    parser.add_argument(
        "--models", default=None, metavar="NAMES",
        help="comma-separated model names (default: record all of "
             f"{','.join(DEFAULT_MODELS)}; check whatever was recorded)",
    )
    parser.add_argument(
        "--scale", type=train_examples, default=300,
        help="labeled-corpus size (default 300: the committed CI corpus)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="content-addressed artifact cache directory (default: "
             "$REPRO_CACHE_DIR if set, else caching is off)",
    )
    parser.add_argument(
        "--similarity-floor", type=float, default=0.995, metavar="X",
        help="fail check when a model's confusion-aware similarity drops "
             "below X (default: 0.995)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="fail check on any drifted column, regardless of similarity",
    )
    args = parser.parse_args(argv)

    models = None
    if args.models:
        models = tuple(n.strip() for n in args.models.split(",") if n.strip())
    path = args.path or default_golden_path(args.scale, args.seed)
    cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
    cache = ArtifactCache(cache_dir) if cache_dir else None
    context = BenchmarkContext(n_examples=args.scale, seed=args.seed, cache=cache)

    if args.action == "record":
        payload = record_goldens(context, models or DEFAULT_MODELS)
        write_goldens(path, payload)
        recorded = payload["models"]
        print(
            f"recorded goldens for {len(recorded)} model(s) over "
            f"{len(payload['columns'])} columns -> {path}"
        )
        for name in sorted(recorded):
            print(f"  {name:<8} accuracy {recorded[name]['accuracy']:.4f}")
        return 0

    try:
        golden = load_goldens(path)
        report = check_goldens(
            context, golden, models=models,
            similarity_floor=args.similarity_floor, strict=args.strict,
            path=path,
        )
    except GoldenMismatchError as exc:
        print(f"goldens: ERROR: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    return 0 if report.ok else 1


def _add_queue_flags(parser: argparse.ArgumentParser) -> None:
    """Flags shared by the ``work`` and ``merge`` queue subcommands."""
    parser.add_argument(
        "--run-dir", required=True, metavar="DIR",
        help="shared coordination directory (the work queue): leases, "
             "checkpoints, and the published run spec all live here",
    )
    parser.add_argument(
        "--experiments", default="all", metavar="NAMES",
        help="experiment name, comma-separated list, or 'all' (default). "
             "The first worker publishes this as the run spec; later "
             "workers must agree or they exit with status 2",
    )
    parser.add_argument(
        "--scale", type=train_examples, default=None,
        help="labeled-corpus size (default 2400; must match across workers)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="content-addressed artifact cache directory (default: "
             "$REPRO_CACHE_DIR if set, else caching is off); point all "
             "workers at one cache to share warm artifacts",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the artifact cache even if --cache-dir/"
             "$REPRO_CACHE_DIR is set",
    )
    parser.add_argument(
        "--stale-after", type=float, default=None, metavar="SECONDS",
        help="steal a lease whose heartbeat is older than SECONDS "
             "(default: 30; raise it on slow shared filesystems)",
    )
    parser.add_argument(
        "--heartbeat", type=float, default=None, metavar="SECONDS",
        help="lease heartbeat refresh interval (default: 1)",
    )
    parser.add_argument(
        "--poll", type=float, default=None, metavar="SECONDS",
        help="queue re-scan interval while waiting (default: 0.5)",
    )


def _make_queue(args) -> "object":
    from repro.benchmark import queue as q

    kwargs = {}
    if args.stale_after is not None:
        kwargs["stale_after_s"] = args.stale_after
    if args.heartbeat is not None:
        kwargs["heartbeat_s"] = args.heartbeat
    if getattr(args, "owner", None):
        kwargs["owner"] = args.owner
    return q.WorkQueue(args.run_dir, **kwargs)


def _queue_context(args, spec: dict) -> BenchmarkContext:
    """Build the benchmark context from the *published* spec, so every
    worker and the coordinator compute over identical parameters."""
    kwargs = {"seed": spec.get("seed", 0)}
    if spec.get("scale") is not None:
        kwargs["n_examples"] = spec["scale"]
    cache_dir = None
    if not args.no_cache:
        cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
    cache = ArtifactCache(cache_dir) if cache_dir else None
    return BenchmarkContext(**kwargs, cache=cache)


def _resolve_names(parser: argparse.ArgumentParser, text: str) -> list[str]:
    if text == "all":
        return list(EXPERIMENTS)
    names = [n.strip() for n in text.split(",") if n.strip()]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown or not names:
        parser.error(
            f"unknown experiment(s) {', '.join(unknown) or text!r}; "
            f"available: {', '.join([*EXPERIMENTS, 'all'])}"
        )
    return names


def _print_records(records, names: list[str],
                   manifest: RunManifest) -> tuple[list[dict], bool]:
    """Print each record in order and add it to the manifest, then sum up
    the failed experiments and the broken paper shapes on stderr.  Returns
    (completed records without their output, whether every experiment
    completed with its shapes intact).

    A stored record reprints its stored output and wall time, and replays
    its shape failures, so a resumed run's stdout and exit status are
    those of an uninterrupted one.
    """
    done: list[dict] = []
    failures: list[dict] = []
    broken: list[dict] = []
    for record in records:
        name = record["name"]
        if record.get("failed"):
            print(f"\n######## {name} FAILED ########")
            print(record["error"])
            failures.append(record)
            manifest.add_experiment(
                name, wall_s=0.0, error=record["error"],
                attempts=record.get("attempts", 1),
            )
            telemetry.warning(
                "experiment.failed", experiment=name, error=record["error"]
            )
            continue
        print(f"\n######## {name} ({record['wall_s']:.1f}s) ########")
        print(record["output"])
        shape_failures = record.get("shape_failures") or []
        manifest.add_experiment(
            name, wall_s=record["wall_s"], cpu_s=record.get("cpu_s"),
            pid=record.get("pid"), resumed=bool(record.get("resumed")),
            shape_failures=shape_failures,
        )
        telemetry.info(
            "experiment.done", experiment=name, wall_s=record["wall_s"],
            resumed=bool(record.get("resumed")),
        )
        if shape_failures:
            broken.append(record)
            telemetry.warning(
                "experiment.shape_failed", experiment=name,
                shapes=len(shape_failures),
            )
        done.append({k: v for k, v in record.items() if k != "output"})

    if broken:
        print(
            f"\n{len(broken)} of {len(names)} experiment(s) broke a paper "
            "shape:",
            file=sys.stderr,
        )
        for record in broken:
            for failure in record["shape_failures"]:
                print(f"  - {record['name']}: {failure}", file=sys.stderr)
    if failures:
        print(
            f"\n{len(failures)} of {len(names)} experiment(s) failed:",
            file=sys.stderr,
        )
        for failure in failures:
            print(f"  - {failure['name']}: {failure['error']}", file=sys.stderr)
        first_with_tb = next(
            (f for f in failures if f.get("traceback")), None
        )
        if first_with_tb is not None:
            print(
                f"\nfirst failure ({first_with_tb['name']}) traceback:\n"
                f"{first_with_tb['traceback']}",
                file=sys.stderr, end="",
            )
        manifest.extra["failures"] = [
            {k: v for k, v in f.items() if k != "traceback"} for f in failures
        ]
    return done, not (failures or broken)


def _write_exports(args, manifest: RunManifest) -> None:
    """Write the ``--metrics-out``, ``--trace-out`` and ``--manifest``
    files that were asked for."""
    if args.metrics_out:
        write_json(args.metrics_out, telemetry.metrics.snapshot())
        telemetry.info("metrics.written", path=args.metrics_out)
    if args.trace_out:
        n = write_spans_jsonl(args.trace_out, telemetry.spans)
        telemetry.info(
            "trace.written", path=args.trace_out, spans=n,
            dropped=telemetry.tracer.dropped,
        )
    if args.manifest:
        manifest.finalize(telemetry)
        manifest.write(args.manifest)
        telemetry.info("manifest.written", path=args.manifest)


def _work_main(argv: list[str]) -> int:
    """``repro-bench work --run-dir DIR`` — one unsupervised queue worker.

    Start any number of these (on one host or many sharing a filesystem);
    they claim tasks with exclusive leases, heartbeat while running, steal
    from dead peers, and drain the queue together.  See
    :mod:`repro.benchmark.queue` and docs/robustness.md.
    """
    from repro.benchmark import queue as q

    parser = argparse.ArgumentParser(
        prog="repro-bench work",
        description="Pull-claim worker loop over a shared --run-dir queue.",
    )
    _add_queue_flags(parser)
    parser.add_argument(
        "--owner", default=None, metavar="ID",
        help="worker identity recorded in leases and summaries "
             "(default: host:pid:random — always unique)",
    )
    parser.add_argument(
        "--max-tasks", type=int, default=None, metavar="N",
        help="exit after completing N tasks instead of draining the queue",
    )
    robust = parser.add_argument_group("robustness")
    add_fault_flags(robust)
    add_observability_flags(parser)
    args = parser.parse_args(argv)
    names = _resolve_names(parser, args.experiments)

    observing = configure_telemetry(args)
    fault_plan = configure_faults(args)
    run_context = None
    inherited = None
    if observing:
        inherited = TraceContext.from_traceparent(
            os.environ.get(TRACEPARENT_ENV)
        )
        run_context = set_process_context(inherited or TraceContext.generate())

    queue = _make_queue(args)
    try:
        spec = queue.publish_spec({
            "experiments": names,
            "scale": args.scale,
            "seed": args.seed,
        })
    except q.QueueError as exc:
        print(f"work: ERROR: {exc}", file=sys.stderr)
        return 2
    context = _queue_context(args, spec)

    manifest = RunManifest(
        command="repro-bench work",
        argv=list(argv),
        seed=spec.get("seed", 0),
        scale=spec.get("scale"),
        jobs=1,
        cache_dir=args.cache_dir or os.environ.get("REPRO_CACHE_DIR"),
    )
    if run_context is not None:
        manifest.trace_id = run_context.trace_id
    if fault_plan is not None:
        manifest.extra["fault_plan"] = fault_plan.source

    telemetry.info(
        "queue.worker_start", run_dir=args.run_dir, owner=queue.owner,
        experiments=len(names),
    )
    worker = q.QueueWorker(
        queue, context,
        poll_s=args.poll if args.poll is not None else q.DEFAULT_POLL_S,
        max_tasks=args.max_tasks,
    )
    status = worker.run()
    summary = worker.summary
    print(
        f"worker {queue.owner}: {summary['completed']} task(s) completed "
        f"({summary['steals']} stolen), {summary['failed']} failed, "
        f"{summary['wall_s']:.1f}s task time"
    )

    if observing:
        manifest.extra["queue_worker"] = {
            k: summary[k] for k in (
                "owner", "claims", "steals", "completed", "failed",
                "stale_writes_rejected", "wall_s",
            )
        }
        _write_exports(args, manifest)
    if run_context is not None and inherited is None:
        set_process_context(None)
    return status


def _merge_main(argv: list[str]) -> int:
    """``repro-bench merge --run-dir DIR`` — the merging coordinator.

    Waits for the queue to drain (every task durably completed or
    terminally failed), folds shard records through the registered merges
    with the existing checksum/parent validation, and prints the run in
    canonical order — byte-identical to a serial ``repro-bench``.
    """
    from repro.benchmark import queue as q

    parser = argparse.ArgumentParser(
        prog="repro-bench merge",
        description="Wait for a --run-dir work queue to drain, then merge "
                    "and print results byte-identical to a serial run.",
    )
    _add_queue_flags(parser)
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="give up (exit 3) when tasks remain incomplete after SECONDS "
             "(default: wait forever)",
    )
    add_observability_flags(parser)
    args = parser.parse_args(argv)

    observing = configure_telemetry(args)
    run_context = None
    inherited = None
    if observing:
        inherited = TraceContext.from_traceparent(
            os.environ.get(TRACEPARENT_ENV)
        )
        run_context = set_process_context(inherited or TraceContext.generate())

    queue = _make_queue(args)
    try:
        if args.experiments != "all" or args.scale is not None:
            # Explicit parameters: validate them against the published spec
            # (same split-brain rejection workers get).
            spec = queue.publish_spec({
                "experiments": _resolve_names(parser, args.experiments),
                "scale": args.scale,
                "seed": args.seed,
            })
        else:
            spec = queue.load_spec()
    except q.QueueError as exc:
        print(f"merge: ERROR: {exc}", file=sys.stderr)
        return 2
    names = spec["experiments"]
    context = _queue_context(args, spec)
    tasks = q.expand_tasks(names, context)

    manifest = RunManifest(
        command="repro-bench merge",
        argv=list(argv),
        seed=spec.get("seed", 0),
        scale=spec.get("scale"),
        jobs=1,
        cache_dir=args.cache_dir or os.environ.get("REPRO_CACHE_DIR"),
    )
    if run_context is not None:
        manifest.trace_id = run_context.trace_id

    telemetry.info(
        "queue.merge_start", run_dir=args.run_dir, tasks=len(tasks),
    )
    try:
        q.wait_for_completion(
            queue, tasks, timeout_s=args.timeout,
            poll_s=args.poll if args.poll is not None else q.DEFAULT_POLL_S,
        )
    except q.MergeTimeout as exc:
        print(f"merge: ERROR: {exc}", file=sys.stderr)
        return 3

    _, ok = _print_records(
        q.merge_results(queue, context, names), names, manifest
    )
    report = q.queue_report(queue, context)
    print(file=sys.stderr)
    print(q.render_queue_report(report), file=sys.stderr)
    manifest.extra["queue"] = report
    if observing:
        _write_exports(args, manifest)
    if run_context is not None and inherited is None:
        set_process_context(None)
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # "cache", "goldens", "work", and "merge" are subcommand namespaces,
    # not experiments.
    if argv[:1] == ["cache"]:
        return _cache_main(argv[1:])
    if argv[:1] == ["goldens"]:
        return _goldens_main(argv[1:])
    if argv[:1] == ["work"]:
        return _work_main(argv[1:])
    if argv[:1] == ["merge"]:
        return _merge_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        metavar="experiment",
        help="which table/figure to regenerate: an experiment name, a "
             "comma-separated list of names, or 'all' "
             f"(available: {', '.join(EXPERIMENTS)})",
    )
    parser.add_argument(
        "--scale", type=train_examples, default=None,
        help="labeled-corpus size (default 2400; paper scale is 9921)",
    )
    parser.add_argument("--seed", type=int, default=0)
    perf = parser.add_argument_group("performance")
    perf.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run the experiments' work-queue tasks in N supervised worker "
             "processes, forked after a warm-up phase builds the shared "
             "artifacts (corpus, split, OurRF).  The heavy experiments "
             "(table15, downstream, tuning) split into per-cell tasks that "
             "merge deterministically.  With N=1 (the default), or at most "
             "one task to run, one worker runs the tasks in this process",
    )
    perf.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="content-addressed artifact cache directory (default: "
             "$REPRO_CACHE_DIR if set, else caching is off)",
    )
    perf.add_argument(
        "--no-cache", action="store_true",
        help="disable the artifact cache even if --cache-dir/$REPRO_CACHE_DIR "
             "is set",
    )
    robust = parser.add_argument_group("robustness")
    robust.add_argument(
        "--run-dir", default=None, metavar="DIR",
        help="keep the run's work queue in DIR: the run spec, task leases, "
             "and atomic per-shard and per-experiment completion records "
             "(default: a temporary dir removed on exit); enables --resume",
    )
    robust.add_argument(
        "--resume", action="store_true",
        help="join --run-dir instead of resetting it: replay checkpointed "
             "experiments verbatim, run only the shards and experiments "
             "still missing, and take over at once the tasks of a run on "
             "this host that was killed",
    )
    robust.add_argument(
        "--max-worker-restarts", type=int, default=1, metavar="N",
        help="re-run a task whose worker crashed or hung up to N times "
             "before recording it failed, counting from the first attempt "
             "this run saw (default: 1).  A serial run is its own worker: "
             "its crash ends the run, and --resume re-runs the task",
    )
    robust.add_argument(
        "--worker-timeout", type=float, default=None, metavar="SECONDS",
        help="kill (and retry) a --jobs worker that runs longer than "
             "SECONDS on one task (default: no hard timeout; stale "
             "heartbeats still catch wedged workers)",
    )
    add_fault_flags(robust)
    add_observability_flags(parser)
    args = parser.parse_args(argv)

    names = _resolve_names(parser, args.experiment)
    if args.resume and not args.run_dir:
        parser.error("--resume requires --run-dir")

    observing = configure_telemetry(args)
    fault_plan = configure_faults(args)
    run_context = None
    if observing:
        # One trace names the whole run.  Installing it as the process
        # default (and in the environment) before any fork means every
        # worker's spans — and any exec'd child's — share this trace_id.
        # Inherit only an *environment* context (we are someone's child);
        # a previous in-process run's context is never reused.
        inherited = TraceContext.from_traceparent(
            os.environ.get(TRACEPARENT_ENV)
        )
        run_context = set_process_context(inherited or TraceContext.generate())
    else:
        inherited = None

    kwargs = {"seed": args.seed}
    if args.scale is not None:
        kwargs["n_examples"] = args.scale
    cache_dir = None
    if not args.no_cache:
        cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
    cache = ArtifactCache(cache_dir) if cache_dir else None
    context = BenchmarkContext(**kwargs, cache=cache)

    manifest = RunManifest(
        command="repro-bench",
        argv=list(argv) if argv is not None else sys.argv[1:],
        seed=args.seed,
        scale=args.scale,
        jobs=args.jobs,
        cache_dir=str(cache_dir) if cache_dir else None,
    )
    if run_context is not None:
        manifest.trace_id = run_context.trace_id
    if fault_plan is not None:
        manifest.extra["fault_plan"] = fault_plan.source

    from repro.benchmark.parallel import run_parallel
    from repro.benchmark.queue import QueueError

    try:
        records = run_parallel(
            names, context, jobs=args.jobs,
            max_restarts=args.max_worker_restarts,
            worker_timeout_s=args.worker_timeout,
            checkpoint=RunCheckpoint(args.run_dir) if args.run_dir else None,
            resume=args.resume,
            trace_dir=args.trace_out + ".workers"
            if observing and args.trace_out else None,
            scale=args.scale,
        )
    except QueueError as exc:
        print(f"repro-bench: ERROR: {exc}", file=sys.stderr)
        if run_context is not None and inherited is None:
            set_process_context(None)
        return 2

    done, ok = _print_records(records, names, manifest)
    if observing:
        if args.jobs > 1:
            manifest.extra["workers"] = done
        _write_exports(args, manifest)
    if run_context is not None and inherited is None:
        # This run minted the process context; clear it (and the exported
        # env var) so a later in-process invocation starts its own trace.
        set_process_context(None)
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
