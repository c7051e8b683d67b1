"""Experiment registry and CLI: ``repro-bench <experiment> [--scale N]``.

Each experiment regenerates one of the paper's tables or figures and prints
the same rows/series.  ``repro-bench all`` runs everything.

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
import traceback
from typing import Callable, Iterator

from repro.benchmark.checkpoint import RunCheckpoint
from repro.benchmark.context import BenchmarkContext
from repro.benchmark.sharding import is_shardable
from repro.cache import ArtifactCache
from repro.faults import add_fault_flags, configure_faults, faults
from repro.obs import (
    TRACEPARENT_ENV,
    RunManifest,
    TraceContext,
    Tracer,
    add_observability_flags,
    configure_telemetry,
    set_process_context,
    telemetry,
)
from repro.obs.export import write_json, write_spans_jsonl


def _table1(context: BenchmarkContext) -> str:
    from repro.benchmark.table1 import render_table1, run_table1

    return render_table1(run_table1(context))


def _table2(context: BenchmarkContext) -> str:
    from repro.benchmark.table2 import render_table2, run_table2

    result = run_table2(context)
    return "\n".join(
        render_table2(result, split) for split in ("train", "validation", "test")
    )


def _table3(context: BenchmarkContext) -> str:
    from repro.benchmark.table3 import (
        render_datatype_confusion,
        render_table3,
        run_datatype_confusion,
        run_table3,
    )

    parts = [
        render_table3(run_table3(context, max_examples=20)),
        render_datatype_confusion(run_datatype_confusion(context)),
    ]
    return "\n".join(parts)


def _downstream(context: BenchmarkContext) -> str:
    from repro.benchmark.downstream_exp import (
        render_downstream,
        run_downstream_experiment,
    )

    return render_downstream(run_downstream_experiment(context))


def _table7(context: BenchmarkContext) -> str:
    from repro.benchmark.table7 import render_table7, run_table7

    return render_table7(run_table7(context))


def _table11(context: BenchmarkContext) -> str:
    from repro.benchmark.table11 import render_table11, run_table11

    return render_table11(run_table11(context))


def _table12(context: BenchmarkContext) -> str:
    from repro.benchmark.table12 import render_table12, run_table12

    return render_table12(run_table12(context))


def _table15(context: BenchmarkContext) -> str:
    from repro.benchmark.table15 import render_table15, run_table15

    return render_table15(run_table15(context))


def _table14(context: BenchmarkContext) -> str:
    from repro.benchmark.table14 import render_table14, run_table14

    return render_table14(run_table14(context))


def _figure9(context: BenchmarkContext) -> str:
    from repro.benchmark.robustness import render_table16, run_robustness

    return render_table16(run_robustness(context, n_runs=25, max_columns=100))


def _table17(context: BenchmarkContext) -> str:
    from repro.benchmark.table17 import render_table17, run_table17

    return render_table17(run_table17(context))


def _table18(context: BenchmarkContext) -> str:
    from repro.benchmark.datastats import render_table18, run_datastats

    return render_table18(run_datastats(context))


def _figure7(context: BenchmarkContext) -> str:
    from repro.benchmark.runtime import render_figure7, run_runtimes

    return render_figure7(run_runtimes(context))


def _labeling(context: BenchmarkContext) -> str:
    from repro.benchmark.labeling import (
        run_crowdsourcing_simulation,
        run_labeling_bootstrap,
    )

    bootstrap = run_labeling_bootstrap(context)
    crowd = run_crowdsourcing_simulation(context)
    return (
        f"labeling bootstrap: seed={bootstrap.seed_size} "
        f"5-fold CV accuracy={bootstrap.cv_accuracy:.3f}\n"
        f"predicted-class group sizes: {bootstrap.group_sizes}\n"
        f"crowdsourcing sim: worker acc={crowd.worker_accuracy:.2f} -> "
        f"majority vote acc={crowd.majority_vote_accuracy:.3f}, "
        f"{100 * crowd.pct_examples_with_3plus_labels:.0f}% of examples got "
        "3+ distinct labels"
    )


def _tuning(context: BenchmarkContext) -> str:
    from repro.benchmark.tuning_exp import render_tuning, run_tuning

    return render_tuning(run_tuning(context))


def _leaderboard(context: BenchmarkContext) -> str:
    from repro.benchmark.leaderboard import build_leaderboard

    return build_leaderboard(context).to_json()


EXPERIMENTS: dict[str, Callable[[BenchmarkContext], str]] = {
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
}


def run_experiment(name: str, context: BenchmarkContext) -> str:
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
    ``--strict``.  See :mod:`repro.benchmark.goldens` for how float32
    drift is triaged via confusion-aware affinity.
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
        "--scale", type=int, default=300,
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
    parser.add_argument(
        "--cnn-dtype", choices=["float32", "float64"], default="float64",
        help="numeric dtype for the CharCNN path (default: float64)",
    )
    parser.add_argument(
        "--knn-name-cap", type=int, default=None, metavar="CAP",
        help="route the k-NN name distance through the banded kernel "
             "with this cap (default: exact kernel)",
    )
    args = parser.parse_args(argv)

    models = None
    if args.models:
        models = tuple(n.strip() for n in args.models.split(",") if n.strip())
    path = args.path or default_golden_path(args.scale, args.seed)
    cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
    cache = ArtifactCache(cache_dir) if cache_dir else None
    context = BenchmarkContext(
        n_examples=args.scale, seed=args.seed, cache=cache,
        cnn_dtype=args.cnn_dtype, knn_name_cap=args.knn_name_cap,
    )

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
        "--scale", type=int, default=None,
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
        if args.metrics_out:
            write_json(args.metrics_out, telemetry.metrics.snapshot())
        if args.trace_out:
            write_spans_jsonl(args.trace_out, telemetry.spans)
        if args.manifest:
            manifest.finalize(telemetry)
            manifest.write(args.manifest)
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

    failures: list[dict] = []
    for record in q.merge_results(queue, context, names):
        name = record["name"]
        if record.get("failed"):
            print(f"\n######## {name} FAILED ########")
            print(record["error"])
            failures.append(record)
            manifest.add_experiment(
                name, wall_s=0.0, error=record["error"],
                attempts=record.get("attempts", 1),
            )
            continue
        print(f"\n######## {name} ({record['wall_s']:.1f}s) ########")
        print(record["output"])
        manifest.add_experiment(
            name, wall_s=record["wall_s"], cpu_s=record.get("cpu_s"),
            resumed=bool(record.get("resumed")),
        )

    report = q.queue_report(queue, context)
    print(file=sys.stderr)
    print(q.render_queue_report(report), file=sys.stderr)
    manifest.extra["queue"] = report
    if failures:
        print(
            f"\n{len(failures)} of {len(names)} experiment(s) failed:",
            file=sys.stderr,
        )
        for failure in failures:
            print(f"  - {failure['name']}: {failure['error']}", file=sys.stderr)
        manifest.extra["failures"] = [
            {k: v for k, v in f.items() if k != "traceback"} for f in failures
        ]

    if observing:
        if args.metrics_out:
            write_json(args.metrics_out, telemetry.metrics.snapshot())
        if args.trace_out:
            write_spans_jsonl(args.trace_out, telemetry.spans)
        if args.manifest:
            manifest.finalize(telemetry)
            manifest.write(args.manifest)
    if run_context is not None and inherited is None:
        set_process_context(None)
    return 1 if failures else 0


def _iter_serial(
    names: list[str], context: BenchmarkContext
) -> Iterator[dict]:
    """In-process execution yielding the same record shape as
    :func:`~repro.benchmark.parallel.run_parallel` (including failure
    records), so the CLI consumes one stream either way.

    A local, always-on tracer times each experiment; the printed elapsed
    seconds and the manifest entries read the same span, so they agree.
    """
    timer = Tracer()
    for name in names:
        telemetry.info("experiment.start", experiment=name)
        try:
            with timer.span(f"experiment.{name}") as sp:
                faults.point(
                    "worker.run", experiment=name, attempt=0, pid=os.getpid()
                )
                output = run_experiment(name, context)
        except Exception as exc:
            telemetry.warning(
                "experiment.failed", experiment=name, error=str(exc)
            )
            yield {
                "name": name,
                "failed": True,
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
                "attempts": 1,
            }
            continue
        yield {
            "name": name,
            "output": output,
            "wall_s": sp.wall_s,
            "cpu_s": sp.cpu_s,
            "pid": os.getpid(),
            "attempt": 0,
        }


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
        "--scale", type=int, default=None,
        help="labeled-corpus size (default 2400; paper scale is 9921)",
    )
    parser.add_argument("--seed", type=int, default=0)
    perf = parser.add_argument_group("performance")
    perf.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="after a warm-up phase builds the shared artifacts (corpus, "
             "split, OurRF), run N supervised work-queue processes; the heavy "
             "experiments (table15, downstream, tuning) split into per-cell "
             "tasks across them and merge deterministically",
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
        help="record per-experiment completion checkpoints under "
             "DIR/experiments/ (atomic writes; enables --resume)",
    )
    robust.add_argument(
        "--resume", action="store_true",
        help="skip experiments already checkpointed in --run-dir, replaying "
             "their stored output verbatim",
    )
    robust.add_argument(
        "--max-worker-restarts", type=int, default=1, metavar="N",
        help="with --jobs, re-run a task whose worker crashed or hung up to "
             "N times before recording it failed (default: 1)",
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

    if args.experiment == "all":
        names = list(EXPERIMENTS)
    else:
        names = [n.strip() for n in args.experiment.split(",") if n.strip()]
        unknown = [n for n in names if n not in EXPERIMENTS]
        if unknown or not names:
            parser.error(
                f"unknown experiment(s) {', '.join(unknown) or args.experiment!r}; "
                f"available: {', '.join([*EXPERIMENTS, 'all'])}"
            )
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

    checkpoint = RunCheckpoint(args.run_dir) if args.run_dir else None
    completed: dict[str, dict] = {}
    if args.resume and checkpoint is not None:
        completed = {
            name: rec for name, rec in checkpoint.completed().items()
            if name in names
        }
        if completed:
            telemetry.info(
                "run.resumed", run_dir=args.run_dir,
                skipped=sorted(completed),
            )

    fresh = [name for name in names if name not in completed]
    if args.jobs > 1 and (
        len(fresh) > 1 or any(is_shardable(name) for name in fresh)
    ):
        from repro.benchmark.parallel import run_parallel
        from repro.benchmark.queue import QueueError

        trace_dir = None
        if observing and args.trace_out:
            trace_dir = args.trace_out + ".workers"
        elif observing and args.run_dir:
            trace_dir = os.path.join(args.run_dir, "traces")
        try:
            fresh_iter = run_parallel(
                fresh, context, jobs=args.jobs,
                max_restarts=args.max_worker_restarts,
                worker_timeout_s=args.worker_timeout,
                checkpoint=checkpoint,
                resume=args.resume,
                trace_dir=trace_dir,
                experiments=names,
                scale=args.scale,
            )
        except QueueError as exc:
            print(f"repro-bench: ERROR: {exc}", file=sys.stderr)
            if run_context is not None and inherited is None:
                set_process_context(None)
            return 2
    else:
        fresh_iter = _iter_serial(fresh, context)

    def iter_records() -> Iterator[dict]:
        """Resumed records replayed in place + fresh records as they finish,
        merged back into canonical experiment order."""
        for name in names:
            if name in completed:
                yield {**completed[name], "resumed": True}
            else:
                yield next(fresh_iter)
        fresh_iter.close()  # stops --jobs workers before the run's exports

    workers: list[dict] = []
    failures: list[dict] = []
    for record in iter_records():
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
        # A resumed record reprints its stored output and wall time, so a
        # resumed run's stdout is byte-identical to an uninterrupted one.
        print(f"\n######## {name} ({record['wall_s']:.1f}s) ########")
        print(record["output"])
        manifest.add_experiment(
            name, wall_s=record["wall_s"], cpu_s=record.get("cpu_s"),
            pid=record.get("pid"), resumed=bool(record.get("resumed")),
        )
        telemetry.info(
            "experiment.done", experiment=name, wall_s=record["wall_s"],
            resumed=bool(record.get("resumed")),
        )
        if checkpoint is not None and not record.get("resumed"):
            checkpoint.record(record)
        workers.append(
            {k: v for k, v in record.items() if k != "output"}
        )
    if observing and args.jobs > 1:
        manifest.extra["workers"] = workers

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

    if observing:
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
    if run_context is not None and inherited is None:
        # This run minted the process context; clear it (and the exported
        # env var) so a later in-process invocation starts its own trace.
        set_process_context(None)
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
