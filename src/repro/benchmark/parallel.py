"""``repro-bench … --jobs N``: N supervised queue workers over one run dir.

Experiments are independent given the shared artifacts (every experiment
seeds fresh RNGs from ``context.seed``), so they can run in worker
processes.  A warm-up phase first materializes the artifacts most
experiments share — the corpus, the 80:20 split, and the paper's RF — in
the parent process; forked workers inherit them copy-on-write, and with an
:class:`~repro.cache.ArtifactCache` enabled they are also persisted for
later runs.

:func:`run_parallel` is a thin driver over the :mod:`repro.benchmark.queue`
protocol — the one ``repro-bench work``/``merge`` speak — so serial-equal
output, fencing and crash recovery have one implementation:

* it publishes the run spec into the run dir (the checkpoint's
  ``--run-dir``, or a temporary dir removed on exit) and forks N processes,
  each running :meth:`~repro.benchmark.queue.QueueWorker.run`;
* it yields each experiment's record in canonical order as soon as the
  experiment's tasks are terminal, built by
  :func:`~repro.benchmark.queue.merge_experiment` — the function
  ``repro-bench merge`` uses — so stdout is byte-identical to a serial run;
* it supervises the workers.  One that dies, stops heartbeating, or runs
  one task longer than ``worker_timeout_s`` is killed and its lease
  abandoned, so the next claim steals the task at attempt + 1.
  ``max_restarts`` is the queue's cap on attempts per task: past it the
  claim records a terminal failure (``worker died … (after N attempts)``)
  and the experiment's unstarted tasks are cancelled.  A replacement worker
  is forked while tasks remain.  An exception raised inside a task is
  deterministic: it fails the task at once, without a retry.  A worker
  whose driver dies finishes its task and stops claiming.

A run without ``resume`` owns its run dir: it replaces the spec, forgets
its own experiments' records, failures and leases (other experiments'
records stay), and recomputes every task.  With ``resume`` it joins the
dir: a spec that already covers its experiments at the same scale and seed
is kept, completed records are reused (a sharded record's
``resumed_shards`` counts the shards that were), its failure records are
cleared so failed tasks run again, and tasks a live peer holds are left to
it: any mix of ``--jobs`` drivers and ``repro-bench work`` processes on one
run dir drains it together, and ``repro-bench merge`` still folds the whole
run.  Each task's spans go to
``<trace_dir>/<task-stem>.a<attempt>.jsonl``; the parent ingests those of
the accepted attempts, so one trace covers the whole run.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterator, Sequence

from repro import lease as leases
from repro.benchmark.context import BenchmarkContext
from repro.benchmark.queue import (
    QueueError,
    QueueTask,
    QueueWorker,
    WorkQueue,
    expand_tasks,
    merge_experiment,
    task_stem,
)
from repro.obs import telemetry
from repro.obs.export import read_jsonl
from repro.obs.trace import SpanRecord

#: Supervisor and worker poll interval.
_POLL_S = 0.1


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


def run_parallel(
    names: Sequence[str],
    context: BenchmarkContext,
    jobs: int,
    *,
    max_restarts: int = 1,
    worker_timeout_s: float | None = None,
    warm: bool = True,
    checkpoint=None,
    resume: bool = False,
    trace_dir: str | None = None,
    experiments: Sequence[str] | None = None,
    scale: int | None = None,
) -> Iterator[dict]:
    """Run experiments in ``jobs`` queue workers, yielding result (or
    failure) records in the order of ``names`` as they become available.

    ``experiments`` (default ``names``) and ``scale`` are the whole run's
    experiment list and ``--scale`` as given, published in the run spec
    exactly as ``repro-bench work`` publishes them; a resumed run passes
    only its unfinished experiments as ``names``.  The run dir is set up
    before this returns, so a :class:`~repro.benchmark.queue.QueueError`
    (a resumed run dir that live workers are draining for a different
    run) is raised here.  Falls back to the in-process serial path when
    only one job is asked for or the platform cannot fork.
    """
    names = list(names)
    if warm:
        warm_up(context)
    if jobs <= 1 or "fork" not in mp.get_all_start_methods():
        from repro.benchmark.runner import _iter_serial

        return _iter_serial(names, context)
    if checkpoint is not None:
        run_dir, temporary = Path(checkpoint.run_dir), False
    else:
        run_dir = Path(tempfile.mkdtemp(prefix="repro-bench-run-"))
        temporary = True
    queue = WorkQueue(run_dir, max_restarts=max_restarts)
    spec = {
        "experiments": list(names if experiments is None else experiments),
        "scale": scale,
        "seed": getattr(context, "seed", 0),
    }
    tasks = expand_tasks(names, context)
    _install_spec(queue, spec, resume)  # a new temporary dir cannot conflict
    if resume:
        queue.clear_failures(names)
    else:
        queue.reset(tasks)
    if trace_dir is None and telemetry.enabled:
        trace_dir = str(run_dir / "traces")
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
    return _drive(
        queue, context, names, tasks, jobs, worker_timeout_s, trace_dir,
        run_dir if temporary else None,
    )


def _install_spec(queue: WorkQueue, spec: dict, resume: bool) -> None:
    """Put the run's spec in the run dir.

    A fresh run owns its dir and replaces any spec.  A resumed run joins:
    it keeps a spec at its scale and seed that lists all its experiments
    (a ``repro-bench work`` fleet's, say) and publishes one where there is
    none.  Any other spec is replaced when no lease is live; if workers
    are still draining a different run there, QueueError.
    """
    if not resume:
        queue.publish_spec(spec, replace=True)
        return
    if not queue.spec_path.exists():
        queue.publish_spec(spec)  # validates against a racing publisher
        return
    try:
        existing = queue.load_spec()
    except QueueError:
        existing = None  # unreadable or another schema: a conflict
    if (
        existing is not None
        and existing.get("scale") == spec["scale"]
        and existing.get("seed") == spec["seed"]
        and set(spec["experiments"]) <= set(existing.get("experiments", ()))
    ):
        return
    live = [
        body.get("task") for path, body in queue.held_leases()
        if (leases.age_s(path) or float("inf")) <= queue.stale_after_s
    ]
    if live:
        raise QueueError(
            f"run dir {queue.run_dir} is being drained for a different run "
            f"(live leases on {', '.join(map(str, live[:3]))}); use its "
            f"experiments, --scale and --seed, or a fresh --run-dir"
        )
    queue.publish_spec(spec, replace=True)


def _drive(queue: WorkQueue, context, names: list[str],
           tasks: list[QueueTask], jobs: int, worker_timeout_s, trace_dir,
           temporary_dir: Path | None) -> Iterator[dict]:
    resumed = {task.key for task in tasks if queue.is_completed(task)}
    fleet = _Fleet(
        queue, context, names, tasks, jobs, worker_timeout_s, trace_dir
    )
    try:
        for name in names:
            mine = [task for task in tasks if task.experiment == name]
            while queue.outstanding(mine):
                fleet.supervise()
                time.sleep(_POLL_S)
            record = merge_experiment(queue, context, name)
            if not record.get("failed"):
                fresh = [task for task in mine if task.key not in resumed]
                _ingest_spans(queue, trace_dir, fresh)
                if record.get("sharded"):
                    record["resumed_shards"] = len(mine) - len(fresh)
                elif not fresh:
                    record["resumed"] = True
            yield record
    finally:
        fleet.stop(grace_s=0.0 if queue.outstanding(tasks) else 5.0)
        if temporary_dir is not None:
            shutil.rmtree(temporary_dir, ignore_errors=True)


def _ingest_spans(queue: WorkQueue, trace_dir: str | None,
                  tasks: list[QueueTask]) -> None:
    """Adopt the spans of each task's accepted attempt into this process's
    tracer, so the manifest and ``--trace-out`` hold the whole run."""
    if trace_dir is None or not telemetry.enabled:
        return
    for task in tasks:
        attempt = (leases.read(queue.record_path(task)) or {}).get("attempt")
        try:
            records = read_jsonl(os.path.join(
                trace_dir, f"{task_stem(task.key)}.a{attempt or 0}.jsonl"
            ))
        except (OSError, ValueError):
            continue  # a peer's task, or an untraced one
        telemetry.tracer.ingest([SpanRecord.from_dict(r) for r in records])


def _work(run_dir, owner: str, context, max_restarts: int,
          trace_dir: str | None, names: list[str], parent_pid: int) -> None:
    """Forked worker entry point: one QueueWorker over this run's tasks,
    which stops claiming once the driver ``parent_pid`` is gone."""
    telemetry.metrics.reset()  # the summary reports this worker's counts
    queue = WorkQueue(run_dir, owner=owner, max_restarts=max_restarts)
    sys.exit(QueueWorker(
        queue, context, poll_s=_POLL_S, trace_dir=trace_dir,
        experiments=names, parent_pid=parent_pid,
    ).run())


class _Fleet:
    """The forked workers of one run: spawn, watch, kill, and reap."""

    def __init__(self, queue: WorkQueue, context, names: list[str],
                 tasks: list[QueueTask], jobs: int,
                 worker_timeout_s: float | None, trace_dir: str | None):
        self.queue = queue
        self.context = context
        self.names = names
        self.tasks = tasks
        self.jobs = jobs
        self.worker_timeout_s = worker_timeout_s
        self.trace_dir = trace_dir
        # Every death while holding a task spends one of its attempts, so
        # more forks than this means workers die before claiming anything.
        self.max_forks = jobs + len(tasks) * (queue.max_restarts + 1)
        self.workers: dict[str, mp.Process] = {}  # owner id → process
        self.forks = 0

    def _spawn(self) -> None:
        if self.forks >= self.max_forks:
            raise RuntimeError(
                f"{self.forks} queue workers died without finishing the "
                f"run in {self.queue.run_dir}"
            )
        owner = f"{self.queue.owner}/w{self.forks}"
        self.forks += 1
        process = mp.get_context("fork").Process(
            target=_work,
            args=(self.queue.run_dir, owner, self.context,
                  self.queue.max_restarts, self.trace_dir, self.names,
                  os.getpid()),
            name=f"repro-bench-worker-{self.forks}",
        )
        process.start()
        self.workers[owner] = process

    def _reap(self, owner: str) -> None:
        """Kill (if needed) and join one worker; fold its counters in."""
        process = self.workers.pop(owner)
        if process.is_alive():
            process.kill()
        process.join(timeout=5.0)
        path = self.queue.workers_dir / f"{task_stem(owner)}.json"
        summary = leases.read(path) or {}
        for name, value in summary.get("counters", {}).items():
            telemetry.count(name, value)

    def supervise(self) -> None:
        """One sweep: abandon the leases of dead, hung, or silent workers,
        then top the fleet back up to ``jobs`` while tasks remain."""
        # Liveness before the lease scan: a worker that claims and dies in
        # between must not look like one that exited between tasks.
        dead = {
            owner for owner, process in self.workers.items()
            if not process.is_alive()
        }
        held = {
            body.get("owner"): (path, body)
            for path, body in self.queue.held_leases()
        }
        for owner, process in list(self.workers.items()):
            path, body = held.get(owner, (None, None))
            reason = None
            if owner in dead:
                if body is not None:
                    reason = (
                        f"worker died (exit code {process.exitcode}) before "
                        f"finishing {body['task']!r}"
                    )
            elif body is None:
                continue
            elif (self.worker_timeout_s is not None and time.time()
                  - body["claimed_at"] > self.worker_timeout_s):
                reason = (
                    f"worker exceeded the {self.worker_timeout_s:.0f}s "
                    f"timeout on {body['task']!r}"
                )
            elif (leases.age_s(path) or 0.0) > self.queue.stale_after_s:
                reason = (
                    f"worker heartbeat stale for over "
                    f"{self.queue.stale_after_s:.0f}s on {body['task']!r}"
                )
            else:
                continue
            self._reap(owner)
            if reason is None:
                continue  # exited between tasks
            telemetry.warning(
                "worker.lost", task=body["task"], attempt=body["attempt"],
                reason=reason,
            )
            if (self.queue.abandon(path, reason)
                    and body["attempt"] < self.queue.max_restarts):
                telemetry.count("worker.restart")
        if self.queue.outstanding(self.tasks):
            while len(self.workers) < self.jobs:
                self._spawn()

    def stop(self, grace_s: float) -> None:
        """Let idle workers exit within ``grace_s``, kill the rest, and
        remove any lease a killed worker still held."""
        deadline = time.monotonic() + grace_s
        for process in self.workers.values():
            process.join(timeout=max(0.0, deadline - time.monotonic()))
        owners = {f"{self.queue.owner}/w{i}" for i in range(self.forks)}
        for owner in list(self.workers):
            self._reap(owner)
        for path, body in self.queue.held_leases():
            if body.get("owner") in owners:
                path.unlink(missing_ok=True)
