"""Parallel experiment engine behind ``repro-bench all --jobs N``.

Experiments are independent given the shared artifacts (every experiment
seeds fresh RNGs from ``context.seed``), so they can run in worker
processes.  A warm-up phase first materializes the artifacts most
experiments share — the corpus, the 80:20 split, and the paper's RF — in
the parent process; forked workers inherit them copy-on-write, and with an
:class:`~repro.cache.ArtifactCache` enabled they are also persisted for
later runs.

Task DAG: the schedulable unit is a :class:`_TaskSpec` — either a whole
experiment or, for experiments registered in
:mod:`repro.benchmark.sharding`, one sub-task (shard) of it.  Sharding
(``shard_heavy=True``, the CLI's ``--shard-heavy``) expands each heavy
experiment into its seeded (dataset × model × fold) cells so they spread
across all workers instead of serializing inside one; a per-experiment
:class:`_Assembly` collects the shard payloads and runs the experiment's
declared merge in the parent.  Merges are pure functions of the payload
values, so the assembled output is byte-identical to a serial run
regardless of ``jobs`` or completion order.

Fault tolerance: each task gets its own forked :class:`Process` and result
pipe (not a ``Pool`` — a pool deadlocks when a worker is SIGKILLed
mid-task).  The parent detects workers that die (pipe EOF / process exit
without a result) or hang (``worker_timeout_s`` exceeded, or the worker's
heartbeat file going stale) and restarts them up to ``max_restarts`` times;
a task that still cannot finish fails its experiment with a *failure
record* — ``{"name", "failed": True, "error", "traceback", "attempts"}`` —
instead of hanging the run (remaining sub-tasks of a failed experiment are
cancelled).  Exceptions raised *inside* a task are deterministic and are
not retried; the worker reports them as a failure record directly.

Checkpointing: with a :class:`~repro.benchmark.checkpoint.RunCheckpoint`,
each completed shard is durably recorded (tagged with its parent
experiment) the moment it lands, and a resumed run replays those payloads
instead of recomputing them — only the missing cells rerun.

Output determinism: results are yielded in the canonical experiment order
regardless of completion order, so the rendered experiment text is
byte-identical to a serial run.

Cooperative mode: a resumed checkpointed run (``--run-dir D --resume``)
speaks the :mod:`repro.benchmark.queue` claim protocol — each task is
claimed with an O_EXCL lease before its worker forks (the lease file
doubles as the worker's heartbeat file), tasks a peer process holds are
*deferred* and adopted from the peer's checkpoint records when they land,
and stale peer leases are stolen.  Any mix of ``repro-bench all --jobs N
--run-dir D --resume`` engines and ``repro-bench work --run-dir D``
pull-workers therefore drains one queue together without duplicating
work.  A non-resume run asserts exclusive ownership of its run dir and
skips the protocol.
"""

from __future__ import annotations

import hashlib
import multiprocessing as mp
import os
import re
import shutil
import tempfile
import threading
import time
import traceback
from multiprocessing.connection import wait as _conn_wait
from typing import Iterator, NamedTuple, Sequence

from repro.benchmark.context import BenchmarkContext
from repro.faults import faults
from repro.obs import current_context, telemetry
from repro.obs.export import spans_summary, spans_to_records, write_jsonl
from repro.obs.trace import SpanRecord

#: Set in the parent just before forking; workers read it after the fork.
_CONTEXT: BenchmarkContext | None = None

#: A worker is declared hung when its heartbeat file has not been touched
#: for this many heartbeat intervals — but never sooner than
#: ``_MIN_STALE_S``, so a busy worker that shares the machine with the
#: parent is not shot for mere slowness.
_STALE_INTERVALS = 10
_MIN_STALE_S = 30.0
#: Parent scheduling-loop poll interval.
_POLL_S = 0.2


class _TaskSpec(NamedTuple):
    """One schedulable unit: a whole experiment, or one shard of one."""

    key: str  # unique across the run ("table18" or "table15::mushrooms")
    experiment: str
    shard: str | None

    def safe_stem(self) -> str:
        """Filesystem-safe unique stem for heartbeat files."""
        stem = re.sub(r"[^A-Za-z0-9._-]", "_", self.key)
        digest = hashlib.sha1(self.key.encode("utf-8")).hexdigest()[:6]
        return f"{stem}.{digest}"


def _clean_stale_heartbeat_dirs(max_age_s: float = 3600.0) -> int:
    """Remove ``repro-bench-hb-*`` tempdirs orphaned by crashed runs.

    A live run touches its heartbeat files every second, so any such dir
    whose newest entry is over ``max_age_s`` old belongs to a run that is
    long gone.  (New runs with a ``--run-dir`` keep heartbeats *inside*
    the run dir instead, so these tempdirs only appear for dir-less runs.)
    """
    root = tempfile.gettempdir()
    removed = 0
    try:
        entries = os.listdir(root)
    except OSError:
        return 0
    now = time.time()
    for name in entries:
        if not name.startswith("repro-bench-hb-"):
            continue
        path = os.path.join(root, name)
        try:
            newest = os.stat(path).st_mtime
            for child in os.listdir(path):
                try:
                    newest = max(
                        newest, os.stat(os.path.join(path, child)).st_mtime
                    )
                except OSError:
                    pass
        except OSError:
            continue
        if now - newest > max_age_s:
            shutil.rmtree(path, ignore_errors=True)
            removed += 1
    if removed:
        telemetry.info("parallel.stale_heartbeat_dirs_removed", n=removed)
        telemetry.count("parallel.stale_heartbeat_dirs_removed", removed)
    return removed


def warm_up(context: BenchmarkContext) -> None:
    """Materialize the artifacts every worker needs before forking."""
    with telemetry.span("parallel.warmup"):
        context.corpus
        context.train  # builds the split
        context.our_rf
        # logreg/SVM fits import scipy.optimize lazily; load it once here so
        # forked workers inherit it instead of each paying ~0.5 s on first fit.
        import scipy.optimize  # noqa: F401
    telemetry.info("parallel.warmup_done", n_examples=context.n_examples)


def _run_one(name: str, attempt: int = 0) -> dict:
    from repro.benchmark.runner import run_experiment

    faults.point(
        "worker.run", experiment=name, attempt=attempt, pid=os.getpid()
    )
    span_base = len(telemetry.spans)
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    with telemetry.span("parallel.task", experiment=name):
        output = run_experiment(name, _CONTEXT)
    record = {
        "name": name,
        "output": output,
        "wall_s": time.perf_counter() - wall0,
        "cpu_s": time.process_time() - cpu0,
        "pid": os.getpid(),
        "attempt": attempt,
    }
    if telemetry.enabled:
        record["spans"] = spans_summary(telemetry.spans[span_base:])
        record["metrics"] = telemetry.metrics.snapshot()
        # Full span records (with trace/span ids) ride the result pipe back
        # so the parent can stitch every worker's spans into one trace.
        record["trace_records"] = spans_to_records(telemetry.spans[span_base:])
        ambient = current_context()
        if ambient is not None:
            record["trace_id"] = ambient.trace_id
    return record


def _run_shard(name: str, shard_id: str, attempt: int = 0) -> dict:
    """Run one sub-task of a shardable experiment (in a worker)."""
    from repro.benchmark.sharding import get_shardable

    faults.point(
        "worker.run", experiment=name, shard=shard_id, attempt=attempt,
        pid=os.getpid(),
    )
    shardable = get_shardable(name)
    if shardable is None:
        raise ValueError(f"experiment {name!r} is not shardable")
    span_base = len(telemetry.spans)
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    with telemetry.span("parallel.shard", experiment=name, shard=shard_id):
        payload = shardable.run_shard(_CONTEXT, shard_id)
    record = {
        "name": name,
        "shard": shard_id,
        "payload": payload,
        "wall_s": time.perf_counter() - wall0,
        "cpu_s": time.process_time() - cpu0,
        "pid": os.getpid(),
        "attempt": attempt,
    }
    if telemetry.enabled:
        record["trace_records"] = spans_to_records(telemetry.spans[span_base:])
        ambient = current_context()
        if ambient is not None:
            record["trace_id"] = ambient.trace_id
    return record


def _run_task(experiment: str, shard: str | None, attempt: int) -> dict:
    if shard is None:
        return _run_one(experiment, attempt)
    return _run_shard(experiment, shard, attempt)


def _exception_record(
    name: str, attempt: int, exc: BaseException, shard: str | None = None
) -> dict:
    record = {
        "name": name,
        "failed": True,
        "error": f"{type(exc).__name__}: {exc}",
        "traceback": traceback.format_exc(),
        "pid": os.getpid(),
        "attempt": attempt,
    }
    if shard is not None:
        record["shard"] = shard
    return record


def _worker_main(
    experiment: str,
    shard: str | None,
    attempt: int,
    conn,
    heartbeat_path: str,
    heartbeat_s: float,
    trace_path: str | None = None,
) -> None:
    """Forked worker entry point: run one task, pipe back one record.

    A daemon thread touches ``heartbeat_path`` every ``heartbeat_s`` so the
    parent can tell a long-running worker from a wedged one even when the
    main thread is stuck in a C extension (or an injected ``hang``).
    """
    stop = threading.Event()
    try:
        # Create-without-truncate: in cooperative (queue) mode the heartbeat
        # path is the task's *lease file*, whose JSON body must survive.
        open(heartbeat_path, "ab").close()
    except OSError:
        pass
    else:
        def beat() -> None:
            while not stop.wait(heartbeat_s):
                try:
                    os.utime(heartbeat_path)
                except OSError:
                    return

        threading.Thread(target=beat, daemon=True, name="heartbeat").start()
    try:
        record = _run_task(experiment, shard, attempt)
    except Exception as exc:  # deterministic failure: report, don't retry
        record = _exception_record(experiment, attempt, exc, shard=shard)
    stop.set()
    if trace_path is not None and record.get("trace_records"):
        # Per-worker span export: survives even if the parent dies before
        # ingesting the piped copy, and gives `repro-obs trace merge` its
        # multi-process input files.
        try:
            write_jsonl(trace_path, record["trace_records"])
        except OSError:
            pass
    try:
        conn.send(record)
    finally:
        conn.close()


class _Assembly:
    """One sharded experiment's collection point.

    Accumulates ``{shard_id: payload}`` (plus timing provenance) as shard
    tasks land, and produces the experiment's final record by running the
    declared merge once every cell is present — or a failure record if any
    cell permanently failed.
    """

    def __init__(self, name, shardable, shard_ids, preloaded):
        self.name = name
        self.shardable = shardable
        self.shard_ids = list(shard_ids)
        self.payloads: dict[str, object] = dict(preloaded)
        self.resumed_shards = len(preloaded)
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.max_attempts = 1
        self.failure: dict | None = None

    @property
    def ready(self) -> bool:
        return self.failure is None and all(
            shard in self.payloads for shard in self.shard_ids
        )

    def add(self, shard_id: str, record: dict) -> None:
        self.payloads[shard_id] = record["payload"]
        self.wall_s += record.get("wall_s") or 0.0
        self.cpu_s += record.get("cpu_s") or 0.0
        self.max_attempts = max(self.max_attempts, record.get("attempt", 0) + 1)

    def fail(self, shard_id: str, error: str, tb: str, attempts: int) -> dict:
        if self.failure is None:
            self.failure = {
                "name": self.name,
                "failed": True,
                "error": f"shard {shard_id!r}: {error}",
                "traceback": tb,
                "attempts": max(attempts, self.max_attempts),
            }
        return self.failure

    def finish(self, context: BenchmarkContext) -> dict:
        """The experiment's final record (merge runs in the parent)."""
        if self.failure is not None:
            return self.failure
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        with telemetry.span(
            "parallel.merge", experiment=self.name, n_shards=len(self.shard_ids)
        ):
            output = self.shardable.merge(context, self.payloads)
        return {
            "name": self.name,
            "output": output,
            "wall_s": self.wall_s + (time.perf_counter() - wall0),
            "cpu_s": self.cpu_s + (time.process_time() - cpu0),
            "pid": os.getpid(),
            "attempt": 0,
            "attempts": self.max_attempts,
            "sharded": True,
            "n_shards": len(self.shard_ids),
            "resumed_shards": self.resumed_shards,
        }


def _expand_specs(
    names: list[str],
    context: BenchmarkContext,
    checkpoint,
) -> tuple[list[_TaskSpec], dict[str, _Assembly]]:
    """Experiment names → task specs, sharding the registered heavies.

    With a checkpoint, already-recorded shard payloads are preloaded into
    the assemblies (validated against their parent experiment name) and
    their tasks are not scheduled at all.
    """
    from repro.benchmark.sharding import get_shardable

    specs: list[_TaskSpec] = []
    assemblies: dict[str, _Assembly] = {}
    for name in names:
        shardable = get_shardable(name)
        if shardable is None:
            specs.append(_TaskSpec(name, name, None))
            continue
        shard_ids = shardable.shard_ids(context)
        preloaded: dict[str, object] = {}
        if checkpoint is not None:
            done = checkpoint.completed_shards(name)
            preloaded = {sid: done[sid] for sid in shard_ids if sid in done}
            if preloaded:
                telemetry.info(
                    "parallel.shards_resumed", experiment=name,
                    n=len(preloaded),
                )
        assemblies[name] = _Assembly(name, shardable, shard_ids, preloaded)
        for shard_id in shard_ids:
            if shard_id not in preloaded:
                specs.append(
                    _TaskSpec(f"{name}::{shard_id}", name, shard_id)
                )
        telemetry.info(
            "parallel.sharded", experiment=name, n_shards=len(shard_ids),
            resumed=len(preloaded),
        )
    return specs, assemblies


class _Task:
    """One in-flight worker: its process, result pipe, and liveness state."""

    __slots__ = ("spec", "attempt", "process", "conn", "heartbeat",
                 "started", "record", "eof", "lease")

    def __init__(self, spec, attempt, process, conn, heartbeat, lease=None):
        self.spec = spec
        self.attempt = attempt
        self.process = process
        self.conn = conn
        self.heartbeat = heartbeat
        self.started = time.monotonic()
        self.record = None
        self.eof = False
        # In cooperative (queue) mode: the held claim on this task.  The
        # lease file *is* the heartbeat file — the forked worker's beat
        # thread refreshes its mtime, so peers see this task as live.
        self.lease = lease

    def heartbeat_stale(self, stale_after: float) -> bool:
        try:
            age = time.time() - os.stat(self.heartbeat).st_mtime
        except OSError:
            # No heartbeat file (worker died before creating it, or an
            # unwritable tmpdir): only the hard timeout applies.
            return False
        return age > stale_after


def run_parallel(
    names: Sequence[str],
    context: BenchmarkContext,
    jobs: int,
    *,
    max_restarts: int = 1,
    worker_timeout_s: float | None = None,
    heartbeat_s: float = 1.0,
    warm: bool = True,
    shard_heavy: bool = True,
    checkpoint=None,
    resume: bool = False,
    trace_dir: str | None = None,
) -> Iterator[dict]:
    """Run experiments in ``jobs`` worker processes, yielding result (or
    failure) records in the order of ``names`` as they become available.

    With ``shard_heavy`` (the default), experiments registered in
    :mod:`repro.benchmark.sharding` are decomposed into per-cell sub-tasks
    scheduled across the same workers and deterministically merged.  A
    ``checkpoint`` (:class:`~repro.benchmark.checkpoint.RunCheckpoint`)
    durably records each completed shard; with ``resume`` the recorded
    payloads are replayed instead of recomputed.

    Falls back to in-process serial execution when only one job is asked
    for, there is only one task to run, or the platform cannot fork; in
    that mode an experiment exception becomes a failure record but
    crashes/hangs are not survivable.
    """
    global _CONTEXT
    names = list(names)
    if warm:
        warm_up(context)
    _CONTEXT = context
    try:
        can_fork = "fork" in mp.get_all_start_methods()
        specs = [_TaskSpec(name, name, None) for name in names]
        assemblies: dict[str, _Assembly] = {}
        if jobs > 1 and can_fork and shard_heavy:
            specs, assemblies = _expand_specs(
                names, context, checkpoint if resume else None
            )
        if jobs <= 1 or not can_fork or (len(specs) <= 1 and not assemblies):
            for name in names:
                try:
                    record = _run_one(name)
                    # In-process: spans are already in the live tracer.
                    record.pop("trace_records", None)
                    yield record
                except Exception as exc:
                    telemetry.warning(
                        "experiment.failed", experiment=name, error=str(exc)
                    )
                    record = _exception_record(name, 0, exc)
                    record["attempts"] = 1
                    yield record
            return
        yield from _run_forked(
            names, specs, assemblies, jobs, max_restarts, worker_timeout_s,
            heartbeat_s, checkpoint, trace_dir,
            # The claim protocol rides the resume contract: a resumed run
            # cooperates with peer processes on the same run dir; a fresh
            # (non-resume) run owns its dir outright and recomputes.
            use_queue=checkpoint is not None and resume,
        )
    finally:
        _CONTEXT = None


def _run_forked(
    names: list[str],
    specs: list[_TaskSpec],
    assemblies: dict[str, _Assembly],
    jobs: int,
    max_restarts: int,
    worker_timeout_s: float | None,
    heartbeat_s: float,
    checkpoint,
    trace_dir: str | None = None,
    use_queue: bool = False,
) -> Iterator[dict]:
    ctx = mp.get_context("fork")
    stale_after = max(_MIN_STALE_S, _STALE_INTERVALS * heartbeat_s)
    _clean_stale_heartbeat_dirs()
    if checkpoint is not None:
        # Heartbeats live inside the run dir: a crashed run leaves them
        # where the next resume (or an operator) can see them, instead of
        # leaking anonymous tempdirs.
        heartbeat_dir = str(checkpoint.run_dir / "heartbeats")
        os.makedirs(heartbeat_dir, exist_ok=True)
        owns_heartbeat_dir = False
    else:
        heartbeat_dir = tempfile.mkdtemp(prefix="repro-bench-hb-")
        owns_heartbeat_dir = True
    queue = None
    if use_queue:
        from repro.benchmark.queue import WorkQueue

        queue = WorkQueue(
            checkpoint.run_dir,
            stale_after_s=stale_after, heartbeat_s=heartbeat_s,
        )
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
    # pop() from the end → tasks start in canonical order.
    pending: list[tuple[_TaskSpec, int]] = [
        (spec, 0) for spec in reversed(specs)
    ]
    # Tasks a peer process currently holds: re-checked each poll, adopted
    # from the peer's durable records when they land, stolen when stale.
    deferred: list[tuple[_TaskSpec, int]] = []
    active: dict[object, _Task] = {}  # parent pipe end → task
    results: dict[str, dict] = {}  # experiment name → final record
    next_index = 0

    def finish_assembly(assembly: _Assembly) -> None:
        results[assembly.name] = assembly.finish(_CONTEXT)

    # Resume can leave an assembly fully populated before anything runs.
    for assembly in assemblies.values():
        if assembly.ready:
            finish_assembly(assembly)

    def spawn(spec: _TaskSpec, attempt: int) -> None:
        lease = None
        if queue is not None:
            from repro.benchmark.queue import QueueTask

            lease = queue.try_claim(
                QueueTask(spec.key, spec.experiment, spec.shard)
            )
            if lease is None:
                # Completed/failed/held elsewhere — a peer owns this task's
                # fate for now; adopt or steal from the deferred sweep.
                deferred.append((spec, attempt))
                return
            heartbeat = str(lease.path)
        else:
            heartbeat = os.path.join(
                heartbeat_dir, f"{spec.safe_stem()}.{attempt}.hb"
            )
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        trace_path = (
            os.path.join(trace_dir, f"{spec.safe_stem()}.{attempt}.jsonl")
            if trace_dir is not None else None
        )
        process = ctx.Process(
            target=_worker_main,
            args=(spec.experiment, spec.shard, attempt, child_conn,
                  heartbeat, heartbeat_s, trace_path),
            name=f"repro-bench-{spec.key}",
        )
        process.start()
        child_conn.close()
        active[parent_conn] = _Task(
            spec, attempt, process, parent_conn, heartbeat, lease
        )

    def release_lease(task: _Task, completed: bool) -> None:
        if task.lease is not None:
            queue.release(task.lease, completed=completed)
            task.lease = None

    def reap(task: _Task, grace_s: float = 10.0) -> None:
        task.process.join(timeout=grace_s)
        if task.process.is_alive():
            task.process.kill()
            task.process.join(timeout=5.0)
        task.conn.close()
        if task.lease is None:
            try:
                os.unlink(task.heartbeat)
            except OSError:
                pass

    def fail_experiment(
        spec: _TaskSpec, error: str, tb: str, attempts: int
    ) -> None:
        """One task is permanently lost → its whole experiment fails."""
        if spec.experiment in results:
            return  # already failed via a sibling shard
        if spec.shard is None:
            results[spec.experiment] = {
                "name": spec.experiment,
                "failed": True,
                "error": error,
                "traceback": tb,
                "attempts": attempts,
            }
        else:
            results[spec.experiment] = assemblies[spec.experiment].fail(
                spec.shard, error, tb, attempts
            )
        # Cancel the failed experiment's not-yet-started sibling tasks.
        pending[:] = [
            (s, a) for (s, a) in pending if s.experiment != spec.experiment
        ]

    def complete(task: _Task) -> None:
        """A worker piped back a record: file it into results/assemblies."""
        spec = task.spec
        record = dict(task.record)
        record["attempts"] = task.attempt + 1
        # Adopt the worker's spans (ids intact) so the parent's tracer — and
        # therefore the manifest and any --trace-out export — holds the
        # whole multi-process trace.
        trace_records = record.pop("trace_records", None)
        if trace_records and telemetry.enabled:
            telemetry.tracer.ingest(
                [SpanRecord.from_dict(r) for r in trace_records]
            )
        fence = task.lease.is_current if task.lease is not None else None
        if spec.shard is None:
            results[spec.experiment] = record
            if task.lease is not None and not record.get("failed"):
                # Record durably *before* releasing the lease, so peers
                # never observe this task as unclaimed-and-unrecorded.
                checkpoint.record(record, fence=fence)
            release_lease(task, completed=True)
            return
        if record.get("failed"):
            # Deterministic failure inside a shard: fails the experiment.
            release_lease(task, completed=True)
            fail_experiment(
                spec, record["error"], record.get("traceback", ""),
                task.attempt + 1,
            )
            return
        if spec.experiment in results:
            release_lease(task, completed=True)
            return  # experiment already failed; drop the stray payload
        assembly = assemblies[spec.experiment]
        assembly.add(spec.shard, record)
        telemetry.count("parallel.shards_completed")
        if checkpoint is not None:
            try:
                checkpoint.record_shard(
                    spec.experiment, spec.shard, record["payload"],
                    meta={
                        "wall_s": record.get("wall_s"),
                        "cpu_s": record.get("cpu_s"),
                        "pid": record.get("pid"),
                        "attempt": record.get("attempt", 0),
                        "trace_id": record.get("trace_id"),
                        "owner": queue.owner if queue is not None else None,
                    },
                    fence=fence,
                )
            except OSError as exc:
                telemetry.warning(
                    "checkpoint.shard_record_failed",
                    experiment=spec.experiment, shard=spec.shard,
                    error=str(exc),
                )
        release_lease(task, completed=True)
        if assembly.ready:
            finish_assembly(assembly)

    def retry_or_fail(task: _Task, reason: str) -> None:
        if task.spec.experiment in results:
            return  # experiment already failed; don't resurrect its shards
        if task.attempt < max_restarts:
            telemetry.count("worker.restart")
            telemetry.warning(
                "worker.restarted", experiment=task.spec.experiment,
                shard=task.spec.shard, attempt=task.attempt + 1,
                reason=reason,
            )
            pending.append((task.spec, task.attempt + 1))
        else:
            fail_experiment(
                task.spec,
                f"{reason} (after {task.attempt + 1} attempts)",
                "",
                task.attempt + 1,
            )

    def check_deferred() -> None:
        """Re-examine tasks a peer held: adopt, fail, or steal-and-run."""
        from repro.benchmark.queue import QueueTask

        still: list[tuple[_TaskSpec, int]] = []
        for spec, attempt in deferred:
            if spec.experiment in results:
                continue  # experiment already resolved; drop
            qtask = QueueTask(spec.key, spec.experiment, spec.shard)
            if queue.is_completed(qtask):
                _adopt(spec)
            elif queue.is_failed(qtask):
                stored = next(
                    (f for f in queue.failures() if f.get("task") == spec.key),
                    None,
                ) or {}
                fail_experiment(
                    spec,
                    stored.get("error", "failed in a peer worker"),
                    stored.get("traceback", ""),
                    stored.get("attempt", 0) + 1,
                )
            elif len(active) < jobs:
                lease = queue.try_claim(qtask)
                if lease is not None:
                    _spawn_claimed(spec, attempt, lease)
                    continue
                still.append((spec, attempt))
            else:
                still.append((spec, attempt))
        deferred[:] = still

    def _adopt(spec: _TaskSpec) -> None:
        """A peer durably completed this task: fold in its record."""
        if spec.shard is None:
            stored = checkpoint.completed().get(spec.experiment)
            if stored is None:
                return  # torn/invalid record: re-check next sweep
            results[spec.experiment] = {**stored, "resumed": True}
            telemetry.count("parallel.tasks_adopted")
            return
        recs = checkpoint.completed_shard_records(spec.experiment)
        rec = recs.get(spec.shard)
        if rec is None:
            return
        assembly = assemblies[spec.experiment]
        assembly.add(spec.shard, {"payload": rec["payload"], **rec["meta"]})
        telemetry.count("parallel.tasks_adopted")
        if assembly.ready:
            finish_assembly(assembly)

    def _spawn_claimed(spec: _TaskSpec, attempt: int, lease) -> None:
        """Start a worker on a lease already held (a successful steal)."""
        heartbeat = str(lease.path)
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        trace_path = (
            os.path.join(trace_dir, f"{spec.safe_stem()}.{attempt}.jsonl")
            if trace_dir is not None else None
        )
        process = ctx.Process(
            target=_worker_main,
            args=(spec.experiment, spec.shard, attempt, child_conn,
                  heartbeat, heartbeat_s, trace_path),
            name=f"repro-bench-{spec.key}",
        )
        process.start()
        child_conn.close()
        active[parent_conn] = _Task(
            spec, attempt, process, parent_conn, heartbeat, lease
        )

    try:
        while pending or active or deferred:
            while pending and len(active) < jobs:
                spawn(*pending.pop())
            if deferred and queue is not None:
                check_deferred()
            if active:
                _conn_wait(list(active), timeout=_POLL_S)
            elif pending or deferred:
                time.sleep(_POLL_S)
            now = time.monotonic()
            for conn, task in list(active.items()):
                # Drain here (not in the wait loop): a worker can send its
                # record and exit between the wait and this sweep, and it
                # must not be mistaken for a crash.
                if task.record is None and not task.eof:
                    try:
                        if conn.poll(0):
                            task.record = conn.recv()
                    except (EOFError, OSError):
                        task.eof = True
                if task.record is not None:
                    del active[conn]
                    reap(task)
                    complete(task)
                elif task.eof or not task.process.is_alive():
                    del active[conn]
                    reap(task, grace_s=5.0)
                    release_lease(task, completed=False)
                    exitcode = task.process.exitcode
                    telemetry.warning(
                        "worker.died", experiment=task.spec.experiment,
                        shard=task.spec.shard, attempt=task.attempt,
                        exitcode=exitcode,
                    )
                    retry_or_fail(
                        task,
                        f"worker died (exit code {exitcode}) before "
                        f"finishing {task.spec.key!r}",
                    )
                else:
                    elapsed = now - task.started
                    reason = None
                    if worker_timeout_s is not None and elapsed > worker_timeout_s:
                        reason = (
                            f"worker exceeded the {worker_timeout_s:.0f}s "
                            f"timeout on {task.spec.key!r}"
                        )
                    elif elapsed > stale_after and task.heartbeat_stale(stale_after):
                        reason = (
                            f"worker heartbeat stale for over "
                            f"{stale_after:.0f}s on {task.spec.key!r}"
                        )
                    if reason is not None:
                        del active[conn]
                        task.process.kill()
                        reap(task, grace_s=5.0)
                        release_lease(task, completed=False)
                        telemetry.warning(
                            "worker.hung", experiment=task.spec.experiment,
                            shard=task.spec.shard, attempt=task.attempt,
                            reason=reason,
                        )
                        retry_or_fail(task, reason)
            while next_index < len(names) and names[next_index] in results:
                yield results.pop(names[next_index])
                next_index += 1
        # Everything scheduled has finished; drain records that became
        # ready without any task running (fully-resumed assemblies).
        while next_index < len(names) and names[next_index] in results:
            yield results.pop(names[next_index])
            next_index += 1
    finally:
        for task in active.values():
            task.process.kill()
        for task in active.values():
            task.process.join(timeout=5.0)
            task.conn.close()
            if task.lease is not None:
                queue.release(task.lease, completed=False)
        if owns_heartbeat_dir:
            shutil.rmtree(heartbeat_dir, ignore_errors=True)
        else:
            # Our own *.hb files are reaped per-task; clear any stragglers
            # (a generator abandoned mid-run) but leave peers' files alone.
            for task in active.values():
                try:
                    os.unlink(task.heartbeat)
                except OSError:
                    pass
