"""Pull-claim work queue over a shared ``--run-dir``: leases, heartbeats,
steal-on-stale, and a merging coordinator.

PR 4/5 made ``--run-dir`` a *passive* checkpoint directory: a supervising
parent forked workers and recorded their results.  This module promotes the
same directory into the **coordination substrate** for multiple independent
worker processes — on one host or on many hosts sharing a filesystem — with
no supervisor at all:

* ``repro-bench work --run-dir DIR`` runs a pull-mode worker loop: scan the
  queue's tasks (one per monolithic experiment, one per shard of every
  :class:`~repro.benchmark.sharding.Shardable` experiment), claim the next
  unclaimed one, run it, durably record the result exactly as PR 5's engine
  does, release, repeat.
* ``repro-bench merge --run-dir DIR`` waits for every task to complete (or
  terminally fail), folds shard payloads through the registered merges with
  the existing checksum/parent validation, and prints output byte-identical
  to a serial run.

The protocol uses only three filesystem primitives — ``O_EXCL`` create,
``utime``, ``unlink`` — so it works on any POSIX filesystem (and NFS, where
exclusive create is atomic on v3+):

**Claims.**  A task's lease lives at
``<run-dir>/leases/<task-stem>.a<attempt>.lease``.  Claiming attempt *N* is
one ``O_EXCL`` create of that path: exactly one of any number of racing
workers wins; losers move on to the next task.  The lease body records the
owner id, pid, host, attempt, and claim time.

**Heartbeats.**  The winner's heartbeat thread (the same machinery PR 4
gave the engine's forked workers) refreshes the lease file's mtime every
``heartbeat_s``.  A lease whose mtime is older than the stale window is the
signature of a dead or wedged owner.

**Steal-on-stale.**  A worker that finds a stale lease claims the *next*
attempt — one ``O_EXCL`` create of ``….a<N+1>.lease``; again exactly one
stealer wins.  The attempt number is therefore monotone per task and doubles
as a **fencing token**: before recording a result, an owner re-checks that
its lease file still exists and that no higher-attempt lease has appeared
(:meth:`Lease.is_current`).  A zombie — an owner that stalled long enough
to be stolen from, then woke up and tried to record — fails that check and
its late write is rejected and counted as ``checkpoint.stale_attempt``.

**Completion.**  A task is complete when its checkpoint record exists
(``<run-dir>/experiments/<name>.json`` or
``<run-dir>/shards/<experiment>/<shard>.json``); records are written
atomically, so existence is an all-or-nothing signal.  A deterministic
in-task exception is *not* retried (same contract as the engine): the
worker records it under ``<run-dir>/failures/`` and the task is terminal.

The in-process ``--jobs`` engine (:mod:`repro.benchmark.parallel`) consumes
this same protocol whenever it has a run dir: it claims a lease before
forking each worker (the lease file doubles as the worker's heartbeat
file), defers tasks a peer holds, and steals stale ones — so
``repro-bench all --jobs N --run-dir D`` and any number of concurrent
``repro-bench work --run-dir D`` processes cooperate on one queue.

Fault points: ``queue.claim``, ``queue.steal``, and ``queue.release`` let a
chaos plan strike at each protocol edge (see docs/robustness.md).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import socket
import sys
import threading
import time
import uuid
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from repro.benchmark.checkpoint import RunCheckpoint
from repro.faults import faults
from repro.obs import telemetry
from repro.obs.export import write_json

#: Bumped if the spec/lease layout changes incompatibly.
SCHEMA = 1

#: Default window after which a lease with an un-refreshed mtime may be
#: stolen.  Matches the engine's minimum stale window: a worker heartbeats
#: every second, so 30 s of silence means it is dead or wedged, not busy.
DEFAULT_STALE_S = 30.0
DEFAULT_HEARTBEAT_S = 1.0
DEFAULT_POLL_S = 0.5

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


class Lease:
    """A held claim on one task: the ``O_EXCL``-created lease file.

    The file's mtime is the owner's heartbeat; its ``a<attempt>`` filename
    component is the fencing token.  :meth:`is_current` is the fence check
    callers pass to the checkpoint layer before recording results.
    """

    def __init__(self, queue: "WorkQueue", task: QueueTask, path: Path,
                 attempt: int, stolen_from: dict | None = None):
        self.queue = queue
        self.task = task
        self.path = path
        self.attempt = attempt
        self.stolen_from = stolen_from
        self.claimed_at = time.time()
        self._stop: threading.Event | None = None

    @property
    def stolen(self) -> bool:
        return self.stolen_from is not None

    def touch(self) -> None:
        """Refresh the heartbeat (lease file mtime)."""
        try:
            os.utime(self.path)
        except OSError:
            pass

    def start_heartbeat(self, interval_s: float) -> None:
        """Refresh the lease mtime from a daemon thread until released."""
        if self._stop is not None:
            return
        stop = threading.Event()
        self._stop = stop

        def beat() -> None:
            while not stop.wait(interval_s):
                try:
                    os.utime(self.path)
                except OSError:
                    return  # released (or stolen + cleaned): stop beating

        threading.Thread(target=beat, daemon=True, name="lease-heartbeat")\
            .start()

    def stop_heartbeat(self) -> None:
        if self._stop is not None:
            self._stop.set()
            self._stop = None

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
    ):
        self.run_dir = Path(run_dir)
        self.owner = owner or default_owner()
        self.stale_after_s = stale_after_s
        self.heartbeat_s = heartbeat_s
        self.checkpoint = RunCheckpoint(self.run_dir)

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

    # -- run spec ------------------------------------------------------------
    def publish_spec(self, spec: dict) -> dict:
        """Install the run spec, or validate against the one already there.

        The first worker to arrive publishes (atomically: full temp file +
        ``os.link``, so a reader can never observe a torn spec); later
        workers and the coordinator must agree on the coordination-relevant
        fields — two workers with different seeds silently merging into one
        run dir is exactly the split-brain this rejects.
        """
        spec = {"schema": SCHEMA, **spec}
        self.run_dir.mkdir(parents=True, exist_ok=True)
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
        atomic, so existence is all-or-nothing)."""
        if task.shard is None:
            return self.checkpoint.path(task.experiment).is_file()
        return self.checkpoint.shard_path(task.experiment, task.shard).is_file()

    def is_failed(self, task: QueueTask) -> bool:
        return self.failure_path(task).is_file()

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

    def _lease_age_s(self, path: Path) -> float | None:
        try:
            return time.time() - path.stat().st_mtime
        except OSError:
            return None  # vanished: released or stolen-and-cleaned

    def _read_lease(self, path: Path) -> dict | None:
        try:
            with open(path, encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    # -- the protocol --------------------------------------------------------
    def try_claim(self, task: QueueTask, *, steal: bool = True) -> Lease | None:
        """Claim the task, stealing a stale lease if allowed.

        Returns the held :class:`Lease`, or None when the task is already
        completed/failed, freshly leased by a live peer, or lost to a racer.
        """
        if self.is_completed(task) or self.is_failed(task):
            return None
        top = self._top_attempt(task)
        if top is None:
            return self._create_lease(task, attempt=0, stolen_from=None)
        attempt, path = top
        age = self._lease_age_s(path)
        if age is None:
            # The top lease vanished between scan and stat: the owner
            # released it (completed or failed) or a stealer cleaned up.
            # Re-scan on the next pass rather than racing blind.
            return None
        if age <= self.stale_after_s:
            return None  # live peer owns it
        if not steal:
            return None
        previous = self._read_lease(path)
        faults.point(
            "queue.steal", task=task.key, attempt=attempt + 1,
            owner=self.owner,
        )
        lease = self._create_lease(
            task, attempt=attempt + 1,
            stolen_from=previous or {"attempt": attempt},
        )
        if lease is not None:
            telemetry.count("queue.stolen")
            telemetry.warning(
                "queue.lease_stolen", task=task.key, attempt=lease.attempt,
                stale_s=round(age, 1),
                previous_owner=(previous or {}).get("owner"),
            )
            # Dead owners' lease files are bookkeeping debris once a higher
            # attempt exists; removing them keeps scans O(live tasks).  The
            # zombie's fence no longer sees itself as top either way.
            for _, old in self._task_leases(task):
                if old != lease.path:
                    old.unlink(missing_ok=True)
        return lease

    def _create_lease(
        self, task: QueueTask, attempt: int, stolen_from: dict | None
    ) -> Lease | None:
        path = self.lease_path(task, attempt)
        self.leases_dir.mkdir(parents=True, exist_ok=True)
        faults.point(
            "queue.claim", task=task.key, attempt=attempt, owner=self.owner
        )
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            telemetry.count("queue.claim_lost")
            return None
        if self.is_completed(task) or self.is_failed(task):
            # A peer finished the task after the caller's completion check:
            # it writes its record before unlinking its lease, so the lease
            # scan found nothing and this create re-opened the attempt.
            os.close(fd)
            path.unlink(missing_ok=True)
            telemetry.count("queue.claim_lost")
            return None
        lease = Lease(self, task, path, attempt, stolen_from=stolen_from)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(lease.to_dict(), handle)
        except OSError:
            path.unlink(missing_ok=True)
            raise
        telemetry.count("queue.claimed")
        telemetry.info(
            "queue.claimed", task=task.key, attempt=attempt, owner=self.owner
        )
        return lease

    def release(self, lease: Lease, *, completed: bool) -> None:
        """Give the task up: stop heartbeating and remove the lease file.

        With ``completed`` (a durable record or failure record exists) the
        task is terminal; otherwise it immediately becomes claimable again
        at attempt 0 — appropriate when the *supervisor* (not the task)
        decided to give up, e.g. the engine retiring a killed child.
        """
        lease.stop_heartbeat()
        faults.point(
            "queue.release", task=lease.task.key, attempt=lease.attempt,
            completed=completed, owner=self.owner,
        )
        lease.path.unlink(missing_ok=True)
        telemetry.count("queue.released")

    def record_failure(self, lease: Lease, error: str, tb: str) -> None:
        """Durably mark the task terminally failed (deterministic error)."""
        self.failures_dir.mkdir(parents=True, exist_ok=True)
        write_json(str(self.failure_path(lease.task)), {
            "schema": SCHEMA,
            "task": lease.task.key,
            "experiment": lease.task.experiment,
            "shard": lease.task.shard,
            "error": error,
            "traceback": tb,
            "owner": self.owner,
            "attempt": lease.attempt,
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
            age = self._lease_age_s(path)
            if age is not None and age > self.stale_after_s:
                info = self._read_lease(path) or {}
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
    """One unsupervised peer: claim → run → record (fenced) → release."""

    def __init__(
        self,
        queue: WorkQueue,
        context,
        *,
        poll_s: float = DEFAULT_POLL_S,
        max_tasks: int | None = None,
        on_task: Callable[[QueueTask, dict], None] | None = None,
    ):
        self.queue = queue
        self.context = context
        self.poll_s = poll_s
        self.max_tasks = max_tasks
        self.on_task = on_task
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
            "wall_s": 0.0,
            "tasks": [],
        }

    def _write_summary(self) -> None:
        self.queue.workers_dir.mkdir(parents=True, exist_ok=True)
        path = self.queue.workers_dir / f"{task_stem(self.queue.owner)}.json"
        try:
            write_json(str(path), self.summary)
        except OSError as exc:
            telemetry.warning("queue.summary_write_failed", error=str(exc))

    def _run_task(self, task: QueueTask, lease: Lease) -> dict:
        """Execute one claimed task and (fenced) record its result."""
        from repro.benchmark.runner import run_experiment
        from repro.benchmark.sharding import get_shardable

        faults.point(
            "worker.run", experiment=task.experiment, shard=task.shard,
            attempt=lease.attempt, pid=os.getpid(),
        )
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        meta = {
            "pid": os.getpid(),
            "attempt": lease.attempt,
            "owner": self.queue.owner,
        }
        if task.shard is None:
            with telemetry.span("queue.task", experiment=task.experiment):
                output = run_experiment(task.experiment, self.context)
            record = {
                "name": task.experiment,
                "output": output,
                "wall_s": time.perf_counter() - wall0,
                "cpu_s": time.process_time() - cpu0,
                **meta,
            }
            accepted = self.queue.checkpoint.record(
                record, fence=lease.is_current
            )
        else:
            shardable = get_shardable(task.experiment)
            if shardable is None:
                raise ValueError(
                    f"experiment {task.experiment!r} is not shardable"
                )
            with telemetry.span(
                "queue.task", experiment=task.experiment, shard=task.shard
            ):
                payload = shardable.run_shard(self.context, task.shard)
            record = {
                "wall_s": time.perf_counter() - wall0,
                "cpu_s": time.process_time() - cpu0,
                **meta,
            }
            accepted = self.queue.checkpoint.record_shard(
                task.experiment, task.shard, payload,
                meta=dict(record), fence=lease.is_current,
            )
        record["task"] = task.key
        record["accepted"] = accepted
        if not accepted:
            self.summary["stale_writes_rejected"] += 1
        return record

    def run(self) -> int:
        """Drain the queue; 0 when every task completed, 1 on failures.

        The loop keeps polling while peers still hold live leases, so a
        worker whose peers all crash eventually steals and finishes their
        tasks — the queue drains as long as *any* worker survives.
        """
        queue = self.queue
        tasks = expand_tasks(
            queue.load_spec()["experiments"], self.context
        )
        self._write_summary()
        done = 0
        while True:
            outstanding = [
                t for t in tasks
                if not (queue.is_completed(t) or queue.is_failed(t))
            ]
            if not outstanding:
                break
            if self.max_tasks is not None and done >= self.max_tasks:
                break
            claimed = None
            for task in outstanding:
                claimed = queue.try_claim(task)
                if claimed is not None:
                    break
            if claimed is None:
                time.sleep(self.poll_s)
                continue
            lease, task = claimed, claimed.task
            self.summary["claims"] += 1
            if lease.stolen:
                self.summary["steals"] += 1
            lease.start_heartbeat(queue.heartbeat_s)
            try:
                record = self._run_task(task, lease)
            except Exception as exc:  # deterministic: terminal, not retried
                import traceback as _tb

                error = f"{type(exc).__name__}: {exc}"
                queue.record_failure(lease, error, _tb.format_exc())
                queue.release(lease, completed=True)
                self.summary["failed"] += 1
                self.summary["tasks"].append({
                    "task": task.key, "attempt": lease.attempt,
                    "failed": True, "error": error,
                })
                telemetry.warning(
                    "queue.task_failed", task=task.key, error=error
                )
            else:
                queue.release(lease, completed=True)
                done += 1
                self.summary["completed"] += 1
                self.summary["wall_s"] += record.get("wall_s") or 0.0
                self.summary["tasks"].append({
                    "task": task.key, "attempt": lease.attempt,
                    "stolen": lease.stolen,
                    "wall_s": record.get("wall_s"),
                    "accepted": record.get("accepted", True),
                })
                telemetry.info(
                    "queue.task_done", task=task.key,
                    attempt=lease.attempt, stolen=lease.stolen,
                )
            self._write_summary()
        self.summary["finished_at"] = time.time()
        self._write_summary()
        return 1 if self.summary["failed"] or queue.failures() else 0


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
    """Block until every task is terminal (completed or failed).

    Raises :class:`MergeTimeout` with a diagnosis — outstanding tasks and
    any stale leases — when the deadline passes first.  The coordinator
    never runs tasks itself: with no live workers left, waiting longer
    cannot help, and the error says exactly which shards are stranded.
    """
    deadline = None if timeout_s is None else time.monotonic() + timeout_s
    while True:
        outstanding = [
            t for t in tasks
            if not (queue.is_completed(t) or queue.is_failed(t))
        ]
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


def merge_results(queue: WorkQueue, context, names: list[str]) -> list[dict]:
    """Fold the drained queue back into per-experiment records.

    Shard payloads are reloaded through the checkpoint layer's validated
    reader (sha256 + parent-experiment attribution), then merged by the
    experiment's registered pure merge — byte-identical to a serial run by
    the PR 5 parity contract.  Results land in
    ``<run-dir>/experiments/<name>.json`` like any engine run, so the run
    dir's final shape is indistinguishable from a supervised one.
    """
    from repro.benchmark.sharding import get_shardable

    failures_by_exp: dict[str, list[dict]] = {}
    for failure in queue.failures():
        failures_by_exp.setdefault(failure["experiment"], []).append(failure)

    records: list[dict] = []
    for name in names:
        if name in failures_by_exp:
            first = failures_by_exp[name][0]
            records.append({
                "name": name,
                "failed": True,
                "error": first["error"],
                "traceback": first.get("traceback", ""),
                "attempts": first.get("attempt", 0) + 1,
            })
            continue
        existing = queue.checkpoint.completed()
        shardable = get_shardable(name)
        if shardable is None or name in existing:
            stored = existing.get(name)
            if stored is None:
                records.append({
                    "name": name,
                    "failed": True,
                    "error": f"no completion record for {name!r} in "
                             f"{queue.run_dir}",
                    "traceback": "",
                    "attempts": 0,
                })
                continue
            records.append({**stored, "resumed": False})
            continue
        shard_records = queue.checkpoint.completed_shard_records(name)
        shard_ids = shardable.shard_ids(context)
        missing = [sid for sid in shard_ids if sid not in shard_records]
        if missing:
            records.append({
                "name": name,
                "failed": True,
                "error": f"{len(missing)} shard record(s) missing or invalid "
                         f"for {name!r}: {', '.join(missing[:5])}",
                "traceback": "",
                "attempts": 0,
            })
            continue
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        with telemetry.span(
            "queue.merge", experiment=name, n_shards=len(shard_ids)
        ):
            output = shardable.merge(
                context,
                {sid: rec["payload"] for sid, rec in shard_records.items()},
            )
        record = {
            "name": name,
            "output": output,
            "wall_s": sum(
                rec["meta"].get("wall_s") or 0.0
                for rec in shard_records.values()
            ) + (time.perf_counter() - wall0),
            "cpu_s": sum(
                rec["meta"].get("cpu_s") or 0.0
                for rec in shard_records.values()
            ) + (time.process_time() - cpu0),
            "pid": os.getpid(),
            "attempt": 0,
            "attempts": 1 + max(
                (rec["meta"].get("attempt") or 0)
                for rec in shard_records.values()
            ),
            "sharded": True,
            "n_shards": len(shard_ids),
        }
        queue.checkpoint.record(record)
        records.append(record)
    return records


def queue_report(queue: WorkQueue, context) -> dict:
    """Aggregate the run's coordination story for manifests and stdout.

    ``duplicate_completions`` counts completions beyond one per task plus
    one per steal: a task that ran twice without its lease going stale.
    """
    workers = queue.worker_summaries()
    n_tasks = len(expand_tasks(queue.load_spec()["experiments"], context))
    steals = sum(w.get("steals", 0) for w in workers)
    completed = sum(w.get("completed", 0) for w in workers)
    return {
        "run_dir": str(queue.run_dir),
        "n_workers": len(workers),
        "claims": sum(w.get("claims", 0) for w in workers),
        "steals": steals,
        "completed": completed,
        "duplicate_completions": max(0, completed - n_tasks - steals),
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
