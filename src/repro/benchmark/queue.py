"""Pull-claim work queue over a shared ``--run-dir``: leases, heartbeats,
steal-on-stale, an attempt cap, and the merge that folds results back.

The run directory is the only coordination substrate.  Any number of
worker processes — the N forked by ``repro-bench … --jobs N``
(:mod:`repro.benchmark.parallel`), or independent ``repro-bench work``
processes on one host or many sharing a filesystem — drain one queue:

* the task list is the published run spec's experiments, one task per
  monolithic experiment and one per shard of every
  :class:`~repro.benchmark.sharding.Shardable` experiment
  (:func:`expand_tasks`);
* a :class:`QueueWorker` claims the next outstanding task, runs it,
  durably records the result (fenced), releases, and repeats;
* :func:`merge_experiment` folds one experiment's records into its final
  record — the ``--jobs`` driver calls it as each experiment finishes,
  ``repro-bench merge`` (:func:`merge_results`) once the queue drains —
  byte-identical to a serial run.

Leases are :class:`repro.lease.Lease` files (exclusive create, mtime
heartbeat), so the protocol needs only exclusive create, ``utime`` and
``unlink`` and works on any POSIX filesystem (and NFS v3+):

**Claims.**  A task's lease lives at
``<run-dir>/leases/<task-stem>.a<attempt>.lease``.  Claiming attempt *N* is
one exclusive create of that path: exactly one of any number of racing
workers wins; losers move on to the next task.  The lease body records the
owner id, pid, host, attempt, and claim time.

**Heartbeats.**  The winner refreshes the lease file's mtime every
``heartbeat_s``.  A lease whose mtime is older than the stale window is the
signature of a dead or wedged owner.  A supervisor that *knows* an owner
is dead (the ``--jobs`` driver reaping a killed worker) expires the lease
at once with :meth:`WorkQueue.abandon`, noting why.

**Steal-on-stale.**  A worker that finds a stale lease claims the *next*
attempt — one exclusive create of ``….a<N+1>.lease``; again exactly one
stealer wins.  Attempt numbers only grow: a dead owner's lease is
abandoned, never released, and a lease file is removed only by a stealer
(older attempts), by its owner once the task is terminal, or by the
``--jobs`` driver at the end of its run once the holder is reaped.  The
attempt therefore doubles as a **fencing token**: before recording a
result, an owner re-checks that its lease file still exists and that no
higher-attempt lease has appeared (:meth:`Lease.is_current`).  A zombie
— an owner that stalled long enough to be stolen from, then woke up and
tried to record — fails that check and its late write is rejected and
counted as ``checkpoint.stale_attempt``.

**Attempt cap.**  ``max_restarts`` (``--max-worker-restarts``; 1 for
``repro-bench work``) bounds the attempts per task.  The claim that would
start attempt ``max_restarts + 1`` instead records a terminal failure
(``worker died … (after N attempts)``).  A ``repro-bench`` run counts
each task's attempts from the first one its run saw
(:meth:`WorkQueue.note_first_attempts`), so the leases a killed run left
behind do not use up the attempts of the run that resumes it.

**Completion.**  A task is complete when its checkpoint record exists
(``<run-dir>/experiments/<name>.json`` or
``<run-dir>/shards/<experiment>/<shard>.json``); records are written
atomically, so existence is an all-or-nothing signal.  A shard task is
also complete once its experiment's merged record exists.  A deterministic
in-task exception is *not* retried: the worker records it under
``<run-dir>/failures/`` and the task is terminal.  Once one task of an
experiment has failed, the experiment's unstarted tasks are cancelled
(:meth:`WorkQueue.outstanding` drops them).

Fault points: ``queue.claim``, ``queue.steal``, and ``queue.release`` let a
chaos plan strike at each protocol edge (see docs/robustness.md).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import socket
import sys
import time
import traceback
import uuid
from pathlib import Path
from typing import Iterable, NamedTuple

from repro import lease as leases
from repro.benchmark.checkpoint import RunCheckpoint
from repro.faults import faults
from repro.obs import current_context, telemetry
from repro.obs.export import spans_to_records, write_json, write_jsonl

#: Bumped if the spec/lease layout changes incompatibly.
SCHEMA = 1

#: Default window after which a lease with an un-refreshed mtime may be
#: stolen: a worker heartbeats every second, so 30 s of silence means it
#: is dead or wedged, not busy.
DEFAULT_STALE_S = 30.0
DEFAULT_HEARTBEAT_S = 1.0
DEFAULT_POLL_S = 0.5
#: Default cap on re-runs of a task whose worker died (so at most two
#: attempts per task).
DEFAULT_MAX_RESTARTS = 1

_LEASE_RE = re.compile(r"^(?P<stem>.+)\.a(?P<attempt>\d+)\.lease$")


def task_stem(key: str) -> str:
    """Filesystem-safe, collision-resistant stem for a task key.

    Same construction as the checkpoint layer's sanitizer: readable prefix
    plus a short digest of the raw key, so distinct keys never alias.
    """
    stem = re.sub(r"[^A-Za-z0-9._-]", "_", key)
    digest = hashlib.sha1(key.encode("utf-8")).hexdigest()[:8]
    return f"{stem}-{digest}"


def default_owner() -> str:
    """A globally-unique worker identity: host, pid, and a random tag."""
    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:8]}"


class QueueTask(NamedTuple):
    """One claimable unit: a whole experiment, or one shard of one."""

    key: str  # "table18" or "table15::mushrooms" — unique across the run
    experiment: str
    shard: str | None


def expand_tasks(names: Iterable[str], context) -> list[QueueTask]:
    """Experiment names → canonical task list (shardables decompose)."""
    from repro.benchmark.sharding import get_shardable

    tasks: list[QueueTask] = []
    for name in names:
        shardable = get_shardable(name)
        if shardable is None:
            tasks.append(QueueTask(name, name, None))
            continue
        for shard_id in shardable.shard_ids(context):
            tasks.append(QueueTask(f"{name}::{shard_id}", name, shard_id))
    return tasks


class QueueError(RuntimeError):
    """A work-queue directory that cannot be used (bad/conflicting spec)."""


class Lease(leases.Lease):
    """A held claim on one task: its exclusively created lease file.

    The file's mtime is the owner's heartbeat; its ``a<attempt>`` filename
    component is the fencing token.  :meth:`is_current` is the fence check
    callers pass to the checkpoint layer before recording results.
    """

    def __init__(self, queue: "WorkQueue", task: QueueTask, path: Path,
                 attempt: int, stolen_from: dict | None = None):
        super().__init__(path)
        self.queue = queue
        self.task = task
        self.attempt = attempt
        self.stolen_from = stolen_from
        self.claimed_at = time.time()

    @property
    def stolen(self) -> bool:
        return self.stolen_from is not None

    def is_current(self) -> bool:
        """Fencing check: this lease still owns the task.

        False once the lease file is gone or any higher-attempt lease
        exists — i.e. a peer declared this owner dead and stole the task.
        A result write gated on this check can never clobber the stealer's
        world view with a zombie's stale attempt.
        """
        if not self.path.exists():
            return False
        top = self.queue._top_attempt(self.task)
        return top is not None and top[0] == self.attempt

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "task": self.task.key,
            "experiment": self.task.experiment,
            "shard": self.task.shard,
            "owner": self.queue.owner,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "attempt": self.attempt,
            "claimed_at": self.claimed_at,
            "stolen_from": self.stolen_from,
        }


class WorkQueue:
    """Shared-directory task queue speaking the lease/steal protocol."""

    def __init__(
        self,
        run_dir: str | os.PathLike,
        *,
        owner: str | None = None,
        stale_after_s: float = DEFAULT_STALE_S,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        max_restarts: int = DEFAULT_MAX_RESTARTS,
    ):
        self.run_dir = Path(run_dir)
        self.owner = owner or default_owner()
        self.stale_after_s = stale_after_s
        self.heartbeat_s = heartbeat_s
        self.max_restarts = max_restarts
        self.checkpoint = RunCheckpoint(self.run_dir)
        #: task key → the attempt its cap counts from (default 0).
        self.first_attempts: dict[str, int] = {}

    # -- directories ---------------------------------------------------------
    @property
    def leases_dir(self) -> Path:
        return self.run_dir / "leases"

    @property
    def failures_dir(self) -> Path:
        return self.run_dir / "failures"

    @property
    def workers_dir(self) -> Path:
        return self.run_dir / "workers"

    @property
    def spec_path(self) -> Path:
        return self.run_dir / "queue.json"

    def lease_path(self, task: QueueTask, attempt: int) -> Path:
        return self.leases_dir / f"{task_stem(task.key)}.a{attempt}.lease"

    def failure_path(self, task: QueueTask) -> Path:
        return self.failures_dir / f"{task_stem(task.key)}.json"

    def record_path(self, task: QueueTask) -> Path:
        """Where the task's completion record lands."""
        if task.shard is None:
            return self.checkpoint.path(task.experiment)
        return self.checkpoint.shard_path(task.experiment, task.shard)

    def reset(self, tasks: Iterable[QueueTask]) -> None:
        """Forget the given tasks' state so a fresh run recomputes them:
        their experiments' records and shard records, failure records and
        leases.  Other experiments' records stay.  Worker summaries describe
        earlier fleets, not results, and are dropped so the next report
        counts this run's workers only."""
        tasks = list(tasks)
        experiments = {task.experiment for task in tasks}
        for name in experiments:
            self.checkpoint.path(name).unlink(missing_ok=True)
            shutil.rmtree(self.checkpoint.shard_dir(name), ignore_errors=True)
        self.clear_failures(experiments)
        for task in tasks:
            for _, path in self._task_leases(task):
                path.unlink(missing_ok=True)
        shutil.rmtree(self.workers_dir, ignore_errors=True)

    def clear_failures(self, experiments: Iterable[str]) -> None:
        """Make the experiments' terminally failed tasks claimable again (a
        resumed run)."""
        experiments = set(experiments)
        for path in sorted(self.failures_dir.glob("*.json")):
            if (leases.read(path) or {}).get("experiment") in experiments:
                path.unlink(missing_ok=True)

    # -- run spec ------------------------------------------------------------
    def publish_spec(self, spec: dict, *, replace: bool = False) -> dict:
        """Install the run spec, or validate against the one already there.

        The first worker to arrive publishes (atomically: full temp file +
        ``os.link``, so a reader can never observe a torn spec); later
        workers and the coordinator must agree on the coordination-relevant
        fields — two workers with different seeds silently merging into one
        run dir is exactly the split-brain this rejects.  With ``replace``
        (the ``--jobs`` driver, which owns its run dir) the spec is
        overwritten atomically instead.
        """
        spec = {"schema": SCHEMA, **spec}
        self.run_dir.mkdir(parents=True, exist_ok=True)
        if replace:
            write_json(str(self.spec_path), spec)
            return spec
        if not self.spec_path.exists():
            tmp = self.spec_path.with_suffix(f".tmp-{uuid.uuid4().hex[:8]}")
            tmp.write_text(
                json.dumps(spec, indent=2, sort_keys=True), encoding="utf-8"
            )
            try:
                os.link(tmp, self.spec_path)
                telemetry.info(
                    "queue.spec_published", run_dir=str(self.run_dir),
                    owner=self.owner,
                )
            except FileExistsError:
                pass  # a peer won the publish race; validate theirs below
            finally:
                tmp.unlink(missing_ok=True)
        existing = self.load_spec()
        for field in ("schema", "experiments", "scale", "seed"):
            if existing.get(field) != spec.get(field):
                raise QueueError(
                    f"run dir {self.run_dir} already coordinates a different "
                    f"run: {field}={existing.get(field)!r} there vs "
                    f"{spec.get(field)!r} here (use a fresh --run-dir, or "
                    f"matching parameters)"
                )
        return existing

    def load_spec(self) -> dict:
        try:
            with open(self.spec_path, encoding="utf-8") as handle:
                spec = json.load(handle)
        except FileNotFoundError:
            raise QueueError(
                f"{self.spec_path} does not exist — no worker has published "
                f"a run spec for this directory yet"
            ) from None
        except (OSError, ValueError) as exc:
            raise QueueError(f"cannot read run spec {self.spec_path}: {exc}")
        if spec.get("schema") != SCHEMA:
            raise QueueError(
                f"{self.spec_path} has spec schema "
                f"{spec.get('schema')!r} (expected {SCHEMA})"
            )
        return spec

    # -- task state ----------------------------------------------------------
    def is_completed(self, task: QueueTask) -> bool:
        """Cheap durable-completion probe (record existence; writes are
        atomic, so existence is all-or-nothing).  A shard is also done once
        its experiment's merged record exists."""
        return self.checkpoint.path(task.experiment).is_file() or (
            task.shard is not None and self.record_path(task).is_file()
        )

    def is_failed(self, task: QueueTask) -> bool:
        return self.failure_path(task).is_file()

    def outstanding(self, tasks: Iterable[QueueTask]) -> list[QueueTask]:
        """The tasks still to run: not completed, and not cancelled by a
        terminal failure of any task of the same experiment."""
        failed = {failure.get("experiment") for failure in self.failures()}
        return [
            task for task in tasks
            if task.experiment not in failed and not self.is_completed(task)
        ]

    def _task_leases(self, task: QueueTask) -> list[tuple[int, Path]]:
        """(attempt, path) of every lease file for the task, sorted."""
        stem = task_stem(task.key)
        out: list[tuple[int, Path]] = []
        try:
            entries = list(self.leases_dir.iterdir())
        except OSError:
            return out
        for path in entries:
            match = _LEASE_RE.match(path.name)
            if match is not None and match.group("stem") == stem:
                out.append((int(match.group("attempt")), path))
        out.sort()
        return out

    def _top_attempt(self, task: QueueTask) -> tuple[int, Path] | None:
        leases = self._task_leases(task)
        return leases[-1] if leases else None

    def note_first_attempts(self, tasks: Iterable[QueueTask]) -> None:
        """Count each task's attempt cap from its top lease now on disk:
        the first attempt this run saw."""
        for task in tasks:
            top = self._top_attempt(task)
            self.first_attempts[task.key] = 0 if top is None else top[0]

    # -- the protocol --------------------------------------------------------
    def try_claim(self, task: QueueTask, *, steal: bool = True) -> Lease | None:
        """Claim the task, stealing a stale lease if allowed.

        Returns the held :class:`Lease`, or None when the task is already
        completed/failed, freshly leased by a live peer, or lost to a racer.
        A steal past the attempt cap records the task's terminal failure
        and also returns None.
        """
        if self.is_completed(task) or self.is_failed(task):
            return None
        top = self._top_attempt(task)
        if top is None:
            return self._create_lease(task, attempt=0, stolen_from=None)
        attempt, path = top
        age = leases.age_s(path)
        if age is None:
            # The top lease vanished between scan and stat: the owner
            # released it (completed or failed) or a stealer cleaned up.
            # Re-scan on the next pass rather than racing blind.
            return None
        if age <= self.stale_after_s or not steal:
            return None  # live peer owns it
        previous = leases.read(path) or {"attempt": attempt}
        faults.point(
            "queue.steal", task=task.key, attempt=attempt + 1,
            owner=self.owner,
        )
        lease = self._create_lease(
            task, attempt=attempt + 1, stolen_from=previous
        )
        if lease is None:
            return None
        # Dead owners' lease files are bookkeeping debris once a higher
        # attempt exists; removing them keeps scans O(live tasks).  The
        # zombie's fence no longer sees itself as top either way.
        for _, old in self._task_leases(task):
            if old != lease.path:
                old.unlink(missing_ok=True)
        attempts = lease.attempt - self.first_attempts.get(task.key, 0)
        if attempts > self.max_restarts:
            reason = previous.get("abandoned") or (
                f"worker died or hung (lease stale for {age:.0f}s) before "
                f"finishing {task.key!r}"
            )
            self.record_failure(
                lease, f"{reason} (after {attempts} attempts)", "",
                attempt=attempt,
            )
            self.release(lease)
            telemetry.warning(
                "queue.attempts_exhausted", task=task.key,
                attempts=attempts, reason=reason,
            )
            return None
        telemetry.count("queue.stolen")
        telemetry.warning(
            "queue.lease_stolen", task=task.key, attempt=lease.attempt,
            stale_s=round(age, 1), previous_owner=previous.get("owner"),
        )
        return lease

    def _create_lease(
        self, task: QueueTask, attempt: int, stolen_from: dict | None
    ) -> Lease | None:
        lease = Lease(
            self, task, self.lease_path(task, attempt), attempt,
            stolen_from=stolen_from,
        )
        faults.point(
            "queue.claim", task=task.key, attempt=attempt, owner=self.owner
        )
        if not lease.create(lease.to_dict()):
            telemetry.count("queue.claim_lost")
            return None
        if self.is_completed(task) or self.is_failed(task):
            # A peer finished the task after the caller's completion check:
            # it writes its record before unlinking its lease, so the lease
            # scan found nothing and this create re-opened the attempt.
            lease.release()
            telemetry.count("queue.claim_lost")
            return None
        telemetry.count("queue.claimed")
        telemetry.info(
            "queue.claimed", task=task.key, attempt=attempt, owner=self.owner
        )
        return lease

    def release(self, lease: Lease) -> None:
        """Give up a task that is terminal (its record or failure record
        exists): stop heartbeating and remove the lease file.

        A task whose owner merely died is never released — unlinking its
        top lease would let the next claim reuse the attempt number a
        zombie still holds.  It is :meth:`abandon`-ed instead.
        """
        lease.stop_heartbeat()
        faults.point(
            "queue.release", task=lease.task.key, attempt=lease.attempt,
            owner=self.owner,
        )
        lease.release()
        telemetry.count("queue.released")

    def held_leases(self) -> list[tuple[Path, dict]]:
        """(path, body) of every readable lease in the run dir."""
        out: list[tuple[Path, dict]] = []
        try:
            entries = sorted(self.leases_dir.iterdir())
        except OSError:
            return out
        for path in entries:
            if _LEASE_RE.match(path.name):
                body = leases.read(path)
                if body is not None:
                    out.append((path, body))
        return out

    def abandon(self, path: Path, reason: str) -> bool:
        """Hand a dead owner's lease back: the next claim steals the task at
        attempt + 1, or — past the attempt cap — fails it with ``reason``.

        A lease whose task is already terminal (the owner died between
        recording and releasing) is just removed; returns False then.
        """
        body = leases.read(path) or {}
        task = QueueTask(
            body.get("task", ""), body.get("experiment", ""), body.get("shard")
        )
        if body and (self.is_completed(task) or self.is_failed(task)):
            path.unlink(missing_ok=True)
            return False
        leases.expire(path, self.stale_after_s, abandoned=reason)
        return True

    def record_failure(
        self, lease: Lease, error: str, tb: str, *, attempt: int | None = None
    ) -> None:
        """Durably mark the task terminally failed; ``attempt`` is the last
        attempt that ran (default: the lease's)."""
        self.failures_dir.mkdir(parents=True, exist_ok=True)
        write_json(str(self.failure_path(lease.task)), {
            "schema": SCHEMA,
            "task": lease.task.key,
            "experiment": lease.task.experiment,
            "shard": lease.task.shard,
            "error": error,
            "traceback": tb,
            "owner": self.owner,
            "attempt": lease.attempt if attempt is None else attempt,
        })
        telemetry.count("queue.task_failed")

    def failures(self) -> list[dict]:
        """Every valid terminal-failure record in the run dir."""
        out: list[dict] = []
        if not self.failures_dir.is_dir():
            return out
        for path in sorted(self.failures_dir.glob("*.json")):
            try:
                with open(path, encoding="utf-8") as handle:
                    stored = json.load(handle)
            except (OSError, ValueError):
                continue
            if stored.get("schema") == SCHEMA:
                out.append(stored)
        return out

    def stale_leases(self) -> list[dict]:
        """Top-attempt leases whose heartbeat is past the stale window."""
        out: list[dict] = []
        seen: set[str] = set()
        try:
            entries = sorted(self.leases_dir.iterdir(), reverse=True)
        except OSError:
            return out
        for path in entries:
            match = _LEASE_RE.match(path.name)
            if match is None or match.group("stem") in seen:
                continue
            seen.add(match.group("stem"))
            age = leases.age_s(path)
            if age is not None and age > self.stale_after_s:
                info = leases.read(path) or {}
                info["stale_s"] = round(age, 1)
                out.append(info)
        return out

    def worker_summaries(self) -> list[dict]:
        """Every worker's self-reported summary (claims/steals/results)."""
        out: list[dict] = []
        if not self.workers_dir.is_dir():
            return out
        for path in sorted(self.workers_dir.glob("*.json")):
            try:
                with open(path, encoding="utf-8") as handle:
                    stored = json.load(handle)
            except (OSError, ValueError):
                continue
            out.append(stored)
        return out


# ---------------------------------------------------------------------------
# The pull-mode worker loop (repro-bench work)
# ---------------------------------------------------------------------------


class QueueWorker:
    """One queue peer: claim → run → record (fenced) → release.

    :meth:`run` drains the queue one :meth:`step` (one task) at a time; a
    serial ``repro-bench`` drives the steps itself, in-process.  It works
    on the run spec's experiments, or only on ``experiments`` when given
    (a ``repro-bench`` run joining a larger one).  A worker a
    ``--jobs`` driver forked gets the driver's pid as ``parent_pid``; it
    stops claiming once its parent pid changes (the driver died and the
    worker was reparented), after finishing the task it holds.  With
    ``trace_dir``, each task's spans are written to
    ``<trace_dir>/<task-stem>.a<attempt>.jsonl`` before its result is
    recorded, so a process that sees the record can ingest the spans.
    """

    def __init__(
        self,
        queue: WorkQueue,
        context,
        *,
        poll_s: float = DEFAULT_POLL_S,
        max_tasks: int | None = None,
        trace_dir: str | None = None,
        experiments: Iterable[str] | None = None,
        parent_pid: int | None = None,
    ):
        self.queue = queue
        self.context = context
        self.poll_s = poll_s
        self.max_tasks = max_tasks
        self.trace_dir = trace_dir
        self.experiments = None if experiments is None else list(experiments)
        self.parent_pid = parent_pid
        self.summary = {
            "schema": SCHEMA,
            "owner": queue.owner,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "started_at": time.time(),
            "claims": 0,
            "steals": 0,
            "completed": 0,
            "failed": 0,
            "stale_writes_rejected": 0,
            "duplicate_completions": 0,
            "wall_s": 0.0,
            "tasks": [],
        }

    def _write_summary(self) -> None:
        if telemetry.enabled:
            self.summary["counters"] = (
                telemetry.metrics.snapshot()["counters"]
            )
        self.queue.workers_dir.mkdir(parents=True, exist_ok=True)
        path = self.queue.workers_dir / f"{task_stem(self.queue.owner)}.json"
        try:
            write_json(str(path), self.summary)
        except OSError as exc:
            telemetry.warning("queue.summary_write_failed", error=str(exc))

    def _export_spans(self, task: QueueTask, lease: Lease, base: int) -> None:
        if self.trace_dir is None:
            return
        spans = telemetry.spans[base:]
        if not spans:
            return
        path = os.path.join(
            self.trace_dir, f"{task_stem(task.key)}.a{lease.attempt}.jsonl"
        )
        try:
            write_jsonl(path, spans_to_records(spans))
        except OSError as exc:
            telemetry.warning("queue.trace_write_failed", error=str(exc))

    def _run_task(self, task: QueueTask, lease: Lease) -> dict:
        """Execute one claimed task and (fenced) record its result."""
        from repro.benchmark.runner import run_experiment
        from repro.benchmark.sharding import get_shardable

        faults.point(
            "worker.run", experiment=task.experiment, shard=task.shard,
            attempt=lease.attempt, pid=os.getpid(),
        )
        span_base = len(telemetry.spans)
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        with telemetry.span(
            "queue.task", experiment=task.experiment, shard=task.shard
        ):
            if task.shard is None:
                output, shape_failures = run_experiment(
                    task.experiment, self.context
                )
            else:
                shardable = get_shardable(task.experiment)
                if shardable is None:
                    raise ValueError(
                        f"experiment {task.experiment!r} is not shardable"
                    )
                payload = shardable.run_shard(self.context, task.shard)
        ambient = current_context()
        record = {
            "wall_s": time.perf_counter() - wall0,
            "cpu_s": time.process_time() - cpu0,
            "pid": os.getpid(),
            "attempt": lease.attempt,
            "owner": self.queue.owner,
            "trace_id": ambient.trace_id if ambient is not None else None,
        }
        self._export_spans(task, lease, span_base)
        duplicate = self.queue.is_completed(task)
        if task.shard is None:
            accepted = self.queue.checkpoint.record(
                {"name": task.experiment, "output": output,
                 "shape_failures": shape_failures, **record},
                fence=lease.is_current,
            )
        else:
            accepted = self.queue.checkpoint.record_shard(
                task.experiment, task.shard, payload,
                meta=dict(record), fence=lease.is_current,
            )
        if not accepted:
            self.summary["stale_writes_rejected"] += 1
        elif duplicate:
            # Two holders both passed the fence: exactly-once broke.
            self.summary["duplicate_completions"] += 1
            telemetry.count("queue.duplicate_completion")
            telemetry.warning("queue.duplicate_completion", task=task.key)
        record["task"] = task.key
        record["accepted"] = accepted
        return record

    def step(self, outstanding: Iterable[QueueTask]) -> bool:
        """Claim the first claimable task of ``outstanding``, run it, record
        its result (fenced) and release it.  False when none was claimable
        (all leased by live peers, or lost to racers)."""
        queue = self.queue
        lease = None
        for task in outstanding:
            lease = queue.try_claim(task)
            if lease is not None:
                break
        if lease is None:
            return False
        task = lease.task
        self.summary["claims"] += 1
        if lease.stolen:
            self.summary["steals"] += 1
        lease.start_heartbeat(queue.heartbeat_s)
        try:
            record = self._run_task(task, lease)
        except Exception as exc:  # deterministic: terminal, not retried
            error = f"{type(exc).__name__}: {exc}"
            queue.record_failure(lease, error, traceback.format_exc())
            queue.release(lease)
            self.summary["failed"] += 1
            self.summary["tasks"].append({
                "task": task.key, "attempt": lease.attempt,
                "failed": True, "error": error,
            })
            telemetry.warning("queue.task_failed", task=task.key, error=error)
        else:
            queue.release(lease)
            if record["accepted"]:
                self.summary["completed"] += 1
                telemetry.count("queue.completed")
            self.summary["wall_s"] += record["wall_s"]
            self.summary["tasks"].append({
                "task": task.key, "attempt": lease.attempt,
                "stolen": lease.stolen,
                "wall_s": record["wall_s"],
                "accepted": record["accepted"],
            })
            telemetry.info(
                "queue.task_done", task=task.key,
                attempt=lease.attempt, stolen=lease.stolen,
            )
        self._write_summary()
        return True

    def run(self) -> int:
        """Drain the queue; 0 when every task completed, 1 on failures.

        The loop keeps polling while peers still hold live leases, so a
        worker whose peers all crash eventually steals and finishes their
        tasks — the queue drains as long as *any* worker survives.
        """
        queue = self.queue
        names = self.experiments
        if names is None:
            names = queue.load_spec()["experiments"]
        tasks = expand_tasks(names, self.context)
        self._write_summary()
        while outstanding := queue.outstanding(tasks):
            if (self.max_tasks is not None
                    and self.summary["completed"] >= self.max_tasks):
                break
            if (self.parent_pid is not None
                    and os.getppid() != self.parent_pid):
                telemetry.warning(
                    "queue.parent_gone", parent_pid=self.parent_pid
                )
                break
            if not self.step(outstanding):
                time.sleep(self.poll_s)
        self.finish()
        return 1 if self.summary["failed"] or queue.failures() else 0

    def finish(self) -> None:
        """Stamp the summary finished and write it."""
        self.summary["finished_at"] = time.time()
        self._write_summary()


# ---------------------------------------------------------------------------
# The merging coordinator (repro-bench merge)
# ---------------------------------------------------------------------------


class MergeTimeout(RuntimeError):
    """The queue did not drain within the coordinator's deadline."""


def wait_for_completion(
    queue: WorkQueue,
    tasks: list[QueueTask],
    *,
    timeout_s: float | None = None,
    poll_s: float = DEFAULT_POLL_S,
) -> None:
    """Block until every task is terminal (completed, failed, or cancelled
    by a failed sibling).

    Raises :class:`MergeTimeout` with a diagnosis — outstanding tasks and
    any stale leases — when the deadline passes first.  The coordinator
    never runs tasks itself: with no live workers left, waiting longer
    cannot help, and the error says exactly which shards are stranded.
    """
    deadline = None if timeout_s is None else time.monotonic() + timeout_s
    while True:
        outstanding = queue.outstanding(tasks)
        if not outstanding:
            return
        if deadline is not None and time.monotonic() > deadline:
            stale = queue.stale_leases()
            detail = ", ".join(t.key for t in outstanding[:8])
            if len(outstanding) > 8:
                detail += f", … ({len(outstanding)} total)"
            raise MergeTimeout(
                f"{len(outstanding)} task(s) still incomplete after "
                f"{timeout_s:.0f}s: {detail}"
                + (f"; {len(stale)} stale lease(s) with no worker to steal "
                   f"them — start another `repro-bench work` on this run dir"
                   if stale else "")
            )
        time.sleep(poll_s)


def merge_experiment(
    queue: WorkQueue, context, name: str, failures: list[dict] | None = None
) -> dict:
    """One terminal experiment's final record, folded from the run dir.

    A terminal failure of any of its tasks makes a failure record.  A
    stored experiment record — a monolithic experiment's, or a sharded
    one's earlier merge — is replayed as it is.  Otherwise a sharded
    experiment reloads its shard payloads through the checkpoint layer's
    validated reader (sha256 + parent-experiment attribution) and runs the
    experiment's registered pure merge — byte-identical to a serial run —
    then records the result under ``<run-dir>/experiments/<name>.json``.
    """
    from repro.benchmark.sharding import get_shardable

    if failures is None:
        failures = queue.failures()
    first = next((f for f in failures if f.get("experiment") == name), None)
    if first is not None:
        return {
            "name": name,
            "failed": True,
            "error": first["error"],
            "traceback": first.get("traceback", ""),
            "attempts": first.get("attempt", 0) + 1,
        }
    stored = queue.checkpoint.load(name)
    if stored is not None:
        return {
            **stored, "resumed": False,
            "attempts": (stored.get("attempt") or 0) + 1,
        }
    shardable = get_shardable(name)
    if shardable is None:
        return {
            "name": name,
            "failed": True,
            "error": f"no completion record for {name!r} in {queue.run_dir}",
            "traceback": "",
            "attempts": 0,
        }
    shard_records = queue.checkpoint.completed_shard_records(name)
    shard_ids = shardable.shard_ids(context)
    missing = [sid for sid in shard_ids if sid not in shard_records]
    if missing:
        return {
            "name": name,
            "failed": True,
            "error": f"{len(missing)} shard record(s) missing or invalid "
                     f"for {name!r}: {', '.join(missing[:5])}",
            "traceback": "",
            "attempts": 0,
        }
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    with telemetry.span(
        "queue.merge", experiment=name, n_shards=len(shard_ids)
    ):
        output, shape_failures = shardable.merge(
            context,
            {sid: rec["payload"] for sid, rec in shard_records.items()},
        )
    metas = [rec["meta"] for rec in shard_records.values()]
    record = {
        "name": name,
        "output": output,
        "shape_failures": shape_failures,
        "wall_s": sum(meta.get("wall_s") or 0.0 for meta in metas)
        + (time.perf_counter() - wall0),
        "cpu_s": sum(meta.get("cpu_s") or 0.0 for meta in metas)
        + (time.process_time() - cpu0),
        "pid": os.getpid(),
        "attempt": 0,
        "attempts": 1 + max((meta.get("attempt") or 0) for meta in metas),
        "sharded": True,
        "n_shards": len(shard_ids),
    }
    queue.checkpoint.record(record)
    return record


def merge_results(queue: WorkQueue, context, names: list[str]) -> list[dict]:
    """Fold the drained queue back into per-experiment records, in order."""
    failures = queue.failures()
    return [merge_experiment(queue, context, name, failures) for name in names]


def queue_report(queue: WorkQueue, context) -> dict:
    """Aggregate the run's coordination story for manifests and stdout.

    ``completed`` counts accepted (unfenced) result writes;
    ``duplicate_completions`` is the accepted writes beyond one per task —
    0 whenever exactly-once held.
    """
    workers = queue.worker_summaries()
    n_tasks = len(expand_tasks(queue.load_spec()["experiments"], context))
    completed = sum(w.get("completed", 0) for w in workers)
    return {
        "run_dir": str(queue.run_dir),
        "n_workers": len(workers),
        "claims": sum(w.get("claims", 0) for w in workers),
        "steals": sum(w.get("steals", 0) for w in workers),
        "completed": completed,
        "duplicate_completions": max(0, completed - n_tasks),
        "failed": sum(w.get("failed", 0) for w in workers),
        "stale_writes_rejected": sum(
            w.get("stale_writes_rejected", 0) for w in workers
        ),
        "workers": [
            {
                "owner": w.get("owner"),
                "host": w.get("host"),
                "pid": w.get("pid"),
                "claims": w.get("claims", 0),
                "steals": w.get("steals", 0),
                "completed": w.get("completed", 0),
                "failed": w.get("failed", 0),
                "wall_s": w.get("wall_s", 0.0),
                "finished": "finished_at" in w,
            }
            for w in workers
        ],
    }


def render_queue_report(report: dict) -> str:
    lines = [
        f"queue: {report['n_workers']} worker(s), "
        f"{report['completed']} task(s) completed, "
        f"{report['claims']} claim(s), {report['steals']} steal(s)"
        + (f", {report['failed']} failed" if report["failed"] else "")
        + (f", {report['stale_writes_rejected']} stale write(s) rejected"
           if report["stale_writes_rejected"] else "")
        + (f", {report['duplicate_completions']} duplicate completion(s)"
           if report["duplicate_completions"] else "")
    ]
    for worker in report["workers"]:
        state = "finished" if worker["finished"] else "did not finish"
        lines.append(
            f"  worker {worker['owner']}: {worker['completed']} completed, "
            f"{worker['steals']} stolen, {worker['wall_s']:.1f}s task time "
            f"({state})"
        )
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    sys.exit("use `repro-bench work` / `repro-bench merge`")
