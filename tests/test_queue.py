"""The pull-claim work queue: leases, heartbeats, steal-on-stale, fencing.

The contract under test (``docs/robustness.md``): any number of
unsupervised worker processes sharing one ``--run-dir`` must drain the
task queue **exactly once each** — no lost tasks, no double-merged shards
— and the merged output must be byte-identical to a serial run, even when
workers are SIGKILLed mid-task.  Each section pins one edge:

* claims are mutually exclusive under a real multi-process race;
* a stale lease is stolen with a bumped attempt, and the dead owner's
  late write is rejected by the fence (``checkpoint.stale_attempt``);
* a worker killed mid-shard is recovered by a surviving peer and the
  merged output equals serial;
* attempt numbers only grow, so a zombie stays fenced after its stealer
  dies too;
* a 3-worker queue run merges byte-identical to serial with exactly one
  completion per task;
* the ``--jobs`` driver cooperates on resumed runs (steals stale peer
  leases, adopts a live peer's result, leaves no lease debris);
* the ``--jobs`` driver's workers stop claiming once the driver is
  SIGKILLed;
* the advisory cache lock excludes concurrent pruners and survives a
  dead holder.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import signal
import sys
import time

import pytest

from repro.benchmark import parallel, runner, sharding
from repro.benchmark.checkpoint import RunCheckpoint
from repro.benchmark.parallel import run_parallel
from repro.benchmark.queue import (
    MergeTimeout,
    QueueError,
    QueueTask,
    QueueWorker,
    WorkQueue,
    expand_tasks,
    merge_results,
    queue_report,
    render_queue_report,
    task_stem,
    wait_for_completion,
)
from repro.benchmark.sharding import Shardable
from repro.cache import ArtifactCache, FileLock, LockTimeout
from repro.faults import FaultInjectedError, FaultPlan, faults
from repro.obs import telemetry

needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="needs fork"
)

_FORK = mp.get_context("fork") if "fork" in mp.get_all_start_methods() else mp


@pytest.fixture(autouse=True)
def _clean_slate():
    was_enabled = telemetry.enabled
    telemetry.enable()
    telemetry.reset()
    faults.clear()
    yield
    faults.clear()
    telemetry.reset()
    if not was_enabled:
        telemetry.disable()


def plan(*rules, seed=0) -> FaultPlan:
    return FaultPlan.from_dict({"seed": seed, "rules": list(rules)})


def counter(name: str) -> float:
    return telemetry.metrics.counter(name).value


# ---------------------------------------------------------------------------
# A cheap deterministic workload (inherited by forked workers)
# ---------------------------------------------------------------------------

FAKE_SHARDS = ("cell/a", "cell/b", "cell/c", "cell/d")


class FakeHeavyShards(Shardable):
    name = "fake_heavy"

    def shard_ids(self, context):
        return list(FAKE_SHARDS)

    def run_shard(self, context, shard_id):
        return {"cell": shard_id, "value": len(shard_id) * 7}

    def merge(self, context, shards):
        lines = [
            f"{sid}={shards[sid]['value']}" for sid in self.shard_ids(context)
        ]
        return "fake-heavy:\n" + "\n".join(lines), []


def fake_heavy_serial(context=None) -> str:
    sh = FakeHeavyShards()
    output, _ = sh.merge(
        context, {sid: sh.run_shard(context, sid) for sid in FAKE_SHARDS}
    )
    return output


def _fake_mono(context) -> tuple[str, list[str]]:
    return "mono-output", []


@pytest.fixture
def fake_shardable(monkeypatch):
    monkeypatch.setitem(
        runner.EXPERIMENTS, "fake_heavy", lambda ctx: (fake_heavy_serial(ctx), [])
    )
    monkeypatch.setitem(runner.EXPERIMENTS, "fake_mono", _fake_mono)
    original = sharding.get_shardable.__wrapped__  # bypass the lru_cache

    def patched(name):
        if name == "fake_heavy":
            return FakeHeavyShards()
        return original(name)

    monkeypatch.setattr(sharding, "get_shardable", patched)
    return "fake_heavy"


def _publish(queue: WorkQueue, names) -> None:
    queue.publish_spec({"experiments": list(names), "scale": None, "seed": 0})


def _drain_worker(run_dir, owner, plan_dict, stale_s, heartbeat_s, barrier):
    """Forked child: run one QueueWorker until the queue drains (or dies)."""
    if plan_dict is not None:
        faults.install(FaultPlan.from_dict(plan_dict))
    if barrier is not None:
        barrier.wait()
    queue = WorkQueue(
        run_dir, owner=owner, stale_after_s=stale_s, heartbeat_s=heartbeat_s
    )
    worker = QueueWorker(queue, None, poll_s=0.05)
    raise SystemExit(worker.run())


def _race_claimer(run_dir, owner, barrier, results):
    """Forked child: race one try_claim against siblings, report the win."""
    queue = WorkQueue(run_dir, owner=owner)
    task = QueueTask("fake_heavy::cell/a", "fake_heavy", "cell/a")
    barrier.wait()
    lease = queue.try_claim(task)
    results.put((owner, lease is not None))


# ---------------------------------------------------------------------------
# Claims: atomicity under a real multi-process race
# ---------------------------------------------------------------------------


class TestClaims:
    @needs_fork
    def test_racing_processes_exactly_one_claim_wins(self, tmp_path):
        run_dir = str(tmp_path / "run")
        WorkQueue(run_dir).leases_dir.mkdir(parents=True)
        n = 4
        barrier = _FORK.Barrier(n)
        results = _FORK.Queue()
        procs = [
            _FORK.Process(
                target=_race_claimer,
                args=(run_dir, f"w{i}", barrier, results),
            )
            for i in range(n)
        ]
        for p in procs:
            p.start()
        outcomes = [results.get(timeout=30) for _ in range(n)]
        for p in procs:
            p.join(timeout=10)
        winners = [owner for owner, won in outcomes if won]
        assert len(winners) == 1, f"expected one winner, got {winners}"

    def test_claim_creates_lease_and_release_frees_it(self, tmp_path):
        queue = WorkQueue(tmp_path / "run", owner="me")
        task = QueueTask("exp::s/1", "exp", "s/1")
        lease = queue.try_claim(task)
        assert lease is not None and lease.attempt == 0
        stored = json.loads(lease.path.read_text())
        assert stored["owner"] == "me" and stored["task"] == "exp::s/1"
        # held by a live (fresh) lease: nobody else can claim
        assert WorkQueue(tmp_path / "run", owner="peer").try_claim(task) is None
        queue.checkpoint.record_shard("exp", "s/1", {"v": 1})
        queue.release(lease)
        assert not lease.path.exists()
        # released once recorded: terminal, not claimable again
        assert WorkQueue(tmp_path / "run", owner="peer").try_claim(task) is None
        assert queue._task_leases(task) == []

    def test_completed_and_failed_tasks_are_not_claimable(self, tmp_path):
        queue = WorkQueue(tmp_path / "run", owner="me")
        done = QueueTask("expA", "expA", None)
        queue.checkpoint.record(
            {"name": "expA", "output": "x", "wall_s": 0.0}
        )
        assert queue.try_claim(done) is None
        bad = QueueTask("expB", "expB", None)
        lease = queue.try_claim(bad)
        queue.record_failure(lease, "ValueError: boom", "tb")
        queue.release(lease)
        assert queue.try_claim(bad) is None
        assert queue.failures()[0]["error"] == "ValueError: boom"

    def test_claim_backs_out_when_peer_completes_mid_claim(
        self, tmp_path, monkeypatch
    ):
        # The peer writes its record and unlinks its lease between this
        # claimer's completion check and its lease scan, so the scan finds
        # no lease and attempt 0 is created again: the claim must back out.
        queue = WorkQueue(tmp_path / "run", owner="me")
        task = QueueTask("expA", "expA", None)
        scan = queue._top_attempt

        def peer_finishes_then_scan(t):
            queue.checkpoint.record(
                {"name": "expA", "output": "x", "wall_s": 0.0}
            )
            return scan(t)

        monkeypatch.setattr(queue, "_top_attempt", peer_finishes_then_scan)
        assert queue.try_claim(task) is None
        assert queue._task_leases(task) == []
        assert counter("queue.claim_lost") == 1

    def test_task_stems_with_separators_do_not_collide(self):
        assert task_stem("exp::a/b") != task_stem("exp::a_b")

    def test_heartbeat_refreshes_lease_mtime(self, tmp_path):
        queue = WorkQueue(tmp_path / "run", owner="me", heartbeat_s=0.05)
        lease = queue.try_claim(QueueTask("exp", "exp", None))
        old = time.time() - 100
        os.utime(lease.path, (old, old))
        lease.start_heartbeat(0.05)
        try:
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                if lease.path.stat().st_mtime > old + 1:
                    break
                time.sleep(0.02)
            assert lease.path.stat().st_mtime > old + 1
        finally:
            lease.stop_heartbeat()

    def test_fault_point_can_fail_a_claim(self, tmp_path):
        faults.install(plan({"point": "queue.claim", "mode": "error"}))
        queue = WorkQueue(tmp_path / "run", owner="me")
        with pytest.raises(FaultInjectedError):
            queue.try_claim(QueueTask("exp", "exp", None))


# ---------------------------------------------------------------------------
# Steal-on-stale + attempt fencing (the zombie write)
# ---------------------------------------------------------------------------


class TestStealAndFence:
    def _stale_lease(self, tmp_path, stale_s=5.0):
        owner_a = WorkQueue(tmp_path / "run", owner="A", stale_after_s=stale_s)
        task = QueueTask("fake_heavy::cell/a", "fake_heavy", "cell/a")
        lease_a = owner_a.try_claim(task)
        assert lease_a is not None
        # A "dies": its heartbeat stops and the lease mtime ages out.
        old = time.time() - 1000
        os.utime(lease_a.path, (old, old))
        return owner_a, lease_a, task

    def test_stale_lease_is_stolen_with_bumped_attempt(self, tmp_path):
        _, lease_a, task = self._stale_lease(tmp_path)
        owner_b = WorkQueue(tmp_path / "run", owner="B", stale_after_s=5.0)
        lease_b = owner_b.try_claim(task)
        assert lease_b is not None
        assert lease_b.attempt == 1
        assert lease_b.stolen and lease_b.stolen_from["owner"] == "A"
        assert counter("queue.stolen") == 1
        # the dead owner's file is cleaned up; only the stealer's remains
        assert not lease_a.path.exists()
        assert lease_b.path.exists()

    def test_fresh_lease_is_not_stolen(self, tmp_path):
        owner_a = WorkQueue(tmp_path / "run", owner="A", stale_after_s=30.0)
        task = QueueTask("t", "t", None)
        assert owner_a.try_claim(task) is not None
        owner_b = WorkQueue(tmp_path / "run", owner="B", stale_after_s=30.0)
        assert owner_b.try_claim(task) is None
        assert counter("queue.stolen") == 0

    def test_zombie_late_write_rejected_by_fence(self, tmp_path):
        """The acceptance edge: A's lease is stolen while A is wedged; A
        wakes and tries to checkpoint — the write must be discarded."""
        owner_a, lease_a, task = self._stale_lease(tmp_path)
        owner_b = WorkQueue(tmp_path / "run", owner="B", stale_after_s=5.0)
        lease_b = owner_b.try_claim(task)

        # B (the stealer) records first — accepted.
        checkpoint = owner_b.checkpoint
        assert checkpoint.record_shard(
            "fake_heavy", "cell/a", {"value": 1},
            meta={"attempt": lease_b.attempt, "owner": "B"},
            fence=lease_b.is_current,
        )
        owner_b.release(lease_b)

        # The zombie wakes up and tries its late write — rejected.
        assert not owner_a.checkpoint.record_shard(
            "fake_heavy", "cell/a", {"value": 666},
            meta={"attempt": lease_a.attempt, "owner": "A"},
            fence=lease_a.is_current,
        )
        assert counter("checkpoint.stale_attempt") == 1
        # the surviving record is the stealer's
        recs = checkpoint.completed_shard_records("fake_heavy")
        assert recs["cell/a"]["payload"] == {"value": 1}
        assert recs["cell/a"]["meta"]["owner"] == "B"

    def test_zombie_monolith_record_rejected_by_fence(self, tmp_path):
        owner_a, lease_a, _ = self._stale_lease(tmp_path)
        task = QueueTask("mono", "mono", None)
        lease = WorkQueue(tmp_path / "run", owner="A").try_claim(task)
        # steal it from a peer
        old = time.time() - 1000
        os.utime(lease.path, (old, old))
        owner_b = WorkQueue(tmp_path / "run", owner="B", stale_after_s=5.0)
        lease_b = owner_b.try_claim(task)
        assert lease_b.attempt == 1
        assert not owner_b.checkpoint.record(
            {"name": "mono", "output": "zombie", "attempt": 0},
            fence=lease.is_current,
        )
        assert counter("checkpoint.stale_attempt") == 1
        assert owner_b.checkpoint.record(
            {"name": "mono", "output": "fresh", "attempt": 1},
            fence=lease_b.is_current,
        )
        assert owner_b.checkpoint.load("mono")["output"] == "fresh"

    def test_attempts_only_grow_so_a_zombie_stays_fenced(self, tmp_path):
        """Regression: zombie A holds a0, B steals a1 (a0 is unlinked), then
        B dies too.  Its lease is abandoned, never released, so the next
        claim is a2 — not a re-created a0 that would pass A's fence."""
        _, lease_a, task = self._stale_lease(tmp_path)
        owner_b = WorkQueue(tmp_path / "run", owner="B", stale_after_s=5.0)
        lease_b = owner_b.try_claim(task)
        assert lease_b.attempt == 1 and not lease_a.path.exists()
        owner_b.abandon(lease_b.path, "worker died (exit code -9)")

        owner_c = WorkQueue(
            tmp_path / "run", owner="C", stale_after_s=5.0, max_restarts=2
        )
        lease_c = owner_c.try_claim(task)
        assert lease_c is not None and lease_c.attempt == 2
        assert not lease_a.is_current()
        assert not owner_c.checkpoint.record_shard(
            "fake_heavy", "cell/a", {"value": 666},
            meta={"attempt": lease_a.attempt, "owner": "A"},
            fence=lease_a.is_current,
        )
        assert counter("checkpoint.stale_attempt") == 1
        assert owner_c.checkpoint.completed_shard_records("fake_heavy") == {}

    def test_steal_past_the_attempt_cap_records_failure(self, tmp_path):
        _, _, task = self._stale_lease(tmp_path)
        owner_b = WorkQueue(tmp_path / "run", owner="B", stale_after_s=5.0)
        lease_b = owner_b.try_claim(task)
        owner_b.abandon(lease_b.path, "worker died (exit code -9) before "
                                      "finishing 'fake_heavy::cell/a'")
        # default cap: one restart, so attempt 2 is never started
        assert owner_b.try_claim(task) is None
        (failure,) = owner_b.failures()
        assert failure["error"] == (
            "worker died (exit code -9) before finishing "
            "'fake_heavy::cell/a' (after 2 attempts)"
        )
        assert failure["attempt"] == 1
        assert owner_b._task_leases(task) == []

    def test_steal_fault_point_fires(self, tmp_path):
        faults.install(plan({"point": "queue.steal", "mode": "error"}))
        _, _, task = self._stale_lease(tmp_path)
        owner_b = WorkQueue(tmp_path / "run", owner="B", stale_after_s=5.0)
        with pytest.raises(FaultInjectedError):
            owner_b.try_claim(task)


# ---------------------------------------------------------------------------
# The run spec: split-brain rejection
# ---------------------------------------------------------------------------


class TestRunSpec:
    def test_first_worker_publishes_later_workers_validate(self, tmp_path):
        queue = WorkQueue(tmp_path / "run", owner="A")
        _publish(queue, ["fake_heavy"])
        peer = WorkQueue(tmp_path / "run", owner="B")
        spec = peer.publish_spec(
            {"experiments": ["fake_heavy"], "scale": None, "seed": 0}
        )
        assert spec["experiments"] == ["fake_heavy"]

    def test_conflicting_spec_is_rejected(self, tmp_path):
        queue = WorkQueue(tmp_path / "run", owner="A")
        _publish(queue, ["fake_heavy"])
        peer = WorkQueue(tmp_path / "run", owner="B")
        with pytest.raises(QueueError, match="different run"):
            peer.publish_spec(
                {"experiments": ["fake_heavy"], "scale": 99, "seed": 0}
            )

    def test_missing_spec_raises(self, tmp_path):
        with pytest.raises(QueueError, match="no worker has published"):
            WorkQueue(tmp_path / "run").load_spec()

    def test_report_counts_accepted_completions_beyond_one_per_task(
        self, fake_shardable, tmp_path
    ):
        queue = WorkQueue(tmp_path / "run", owner="A")
        _publish(queue, ["fake_heavy", "fake_mono"])
        n_tasks = len(FAKE_SHARDS) + 1
        queue.workers_dir.mkdir(parents=True)
        for owner, completed, steals in (("A", n_tasks - 1, 0), ("B", 3, 1)):
            (queue.workers_dir / f"{owner}.json").write_text(json.dumps(
                {"owner": owner, "claims": completed, "steals": steals,
                 "completed": completed}
            ))
        report = queue_report(queue, None)
        assert report["duplicate_completions"] == 2  # steals do not excuse
        assert "2 duplicate completion(s)" in render_queue_report(report)

        (queue.workers_dir / "B.json").write_text(json.dumps(
            {"owner": "B", "claims": 2, "steals": 1, "completed": 1}
        ))
        report = queue_report(queue, None)
        assert report["duplicate_completions"] == 0
        assert "duplicate" not in render_queue_report(report)


# ---------------------------------------------------------------------------
# Crash recovery: kill a worker mid-shard, a peer steals, merge == serial
# ---------------------------------------------------------------------------


class TestCrashRecovery:
    @needs_fork
    def test_killed_worker_recovered_by_peer_merge_equals_serial(
        self, fake_shardable, tmp_path
    ):
        run_dir = str(tmp_path / "run")
        queue = WorkQueue(run_dir, owner="coordinator", stale_after_s=1.0)
        _publish(queue, ["fake_heavy", "fake_mono"])

        # Worker A is fated to die mid-queue: SIGKILL on cell/b, attempt 0.
        kill_plan = {"seed": 0, "rules": [{
            "point": "worker.run", "mode": "kill",
            "match": {"experiment": "fake_heavy", "shard": "cell/b"},
        }]}
        a = _FORK.Process(
            target=_drain_worker,
            args=(run_dir, "worker-a", kill_plan, 1.0, 0.2, None),
        )
        a.start()
        a.join(timeout=60)
        assert a.exitcode == -9  # SIGKILLed mid-task, lease left behind

        # A held cell/b when it died; its lease must still be on disk.
        held = queue._task_leases(
            QueueTask("fake_heavy::cell/b", "fake_heavy", "cell/b")
        )
        assert held and held[-1][0] == 0

        # Worker B drains the rest, stealing A's stale lease.
        b = _FORK.Process(
            target=_drain_worker,
            args=(run_dir, "worker-b", None, 1.0, 0.2, None),
        )
        b.start()
        b.join(timeout=60)
        assert b.exitcode == 0

        tasks = expand_tasks(["fake_heavy", "fake_mono"], None)
        wait_for_completion(queue, tasks, timeout_s=5)
        records = merge_results(queue, None, ["fake_heavy", "fake_mono"])
        by_name = {r["name"]: r for r in records}
        assert by_name["fake_heavy"]["output"] == fake_heavy_serial()
        assert by_name["fake_mono"]["output"] == "mono-output"
        assert by_name["fake_heavy"]["attempts"] >= 2  # a steal happened

        report = queue_report(queue, None)
        assert report["steals"] >= 1
        summaries = {w["owner"]: w for w in report["workers"]}
        assert summaries["worker-b"]["steals"] >= 1
        assert not summaries["worker-a"]["finished"]
        # exactly one durable record per shard, each from a live attempt
        recs = queue.checkpoint.completed_shard_records("fake_heavy")
        assert set(recs) == set(FAKE_SHARDS)
        assert recs["cell/b"]["meta"]["owner"] == "worker-b"
        assert recs["cell/b"]["meta"]["attempt"] == 1

    @needs_fork
    def test_three_worker_queue_matches_engine_records(
        self, fake_shardable, tmp_path
    ):
        """Full-queue parity: 3 pull-workers merge byte-identical to serial,
        with exactly one accepted completion per task."""
        run_dir = str(tmp_path / "run")
        queue = WorkQueue(run_dir, owner="coordinator")
        _publish(queue, ["fake_heavy", "fake_mono"])
        workers = [
            _FORK.Process(
                target=_drain_worker,
                args=(run_dir, f"worker-{i}", None, 30.0, 0.5, None),
            )
            for i in range(3)
        ]
        for p in workers:
            p.start()
        for p in workers:
            p.join(timeout=60)
            assert p.exitcode == 0

        tasks = expand_tasks(["fake_heavy", "fake_mono"], None)
        wait_for_completion(queue, tasks, timeout_s=5)
        records = merge_results(queue, None, ["fake_heavy", "fake_mono"])
        by_name = {r["name"]: r["output"] for r in records}
        assert by_name == {
            "fake_heavy": fake_heavy_serial(), "fake_mono": "mono-output",
        }
        # Only accepted writes count as completions, so a steal (and the
        # fenced-out write of the worker it was stolen from) adds nothing.
        report = queue_report(queue, None)
        n_tasks = len(FAKE_SHARDS) + 1
        assert report["completed"] == n_tasks, report
        assert report["duplicate_completions"] == 0, report
        assert report["n_workers"] == 3

    def test_deterministic_failure_is_terminal_not_retried(
        self, fake_shardable, monkeypatch, tmp_path
    ):
        monkeypatch.setitem(
            runner.EXPERIMENTS, "fake_mono",
            lambda ctx: (_ for _ in ()).throw(ValueError("deterministic")),
        )
        queue = WorkQueue(tmp_path / "run", owner="w")
        _publish(queue, ["fake_mono"])
        worker = QueueWorker(queue, None, poll_s=0.05)
        assert worker.run() == 1
        assert worker.summary["failed"] == 1
        records = merge_results(queue, None, ["fake_mono"])
        assert records[0]["failed"] and "deterministic" in records[0]["error"]

    def test_wait_for_completion_times_out_with_diagnosis(self, tmp_path):
        queue = WorkQueue(tmp_path / "run", owner="w")
        tasks = [QueueTask("never", "never", None)]
        with pytest.raises(MergeTimeout, match="never"):
            wait_for_completion(queue, tasks, timeout_s=0.2, poll_s=0.05)


# ---------------------------------------------------------------------------
# The --jobs driver on a shared run dir (cooperative resumed runs)
# ---------------------------------------------------------------------------


class TestEngineCooperation:
    @needs_fork
    def test_engine_steals_stale_peer_lease_and_cleans_up(
        self, fake_shardable, tmp_path
    ):
        run_dir = tmp_path / "run"
        checkpoint = RunCheckpoint(run_dir)
        # A dead peer's lease on cell/a, long stale.
        peer = WorkQueue(run_dir, owner="dead-peer")
        lease = peer.try_claim(
            QueueTask("fake_heavy::cell/a", "fake_heavy", "cell/a")
        )
        old = time.time() - 1000
        os.utime(lease.path, (old, old))

        records = list(
            run_parallel(
                [fake_shardable, "fake_mono"], None, jobs=2, warm=False,
                checkpoint=checkpoint, resume=True,
            )
        )
        by_name = {r["name"]: r for r in records}
        assert by_name["fake_heavy"]["output"] == fake_heavy_serial()
        assert by_name["fake_mono"]["output"] == "mono-output"
        assert counter("queue.stolen") >= 1
        # all leases released: no coordination debris left behind
        leases = list((run_dir / "leases").iterdir())
        assert leases == []
        # the lease is the only heartbeat file
        assert not (run_dir / "heartbeats").exists()

    @needs_fork
    def test_engine_defers_to_live_peer_and_adopts_its_result(
        self, fake_shardable, tmp_path
    ):
        """A live peer holds cell/a and completes it mid-run; the engine
        must adopt the peer's durable record instead of recomputing."""
        run_dir = tmp_path / "run"
        checkpoint = RunCheckpoint(run_dir)
        peer = WorkQueue(run_dir, owner="live-peer")
        task = QueueTask("fake_heavy::cell/a", "fake_heavy", "cell/a")
        lease = peer.try_claim(task)
        lease.start_heartbeat(0.1)

        def complete_soon():
            time.sleep(1.0)
            peer.checkpoint.record_shard(
                "fake_heavy", "cell/a",
                FakeHeavyShards().run_shard(None, "cell/a"),
                meta={"attempt": 0, "owner": "live-peer", "wall_s": 0.0,
                      "cpu_s": 0.0},
                fence=lease.is_current,
            )
            peer.release(lease)

        import threading

        thread = threading.Thread(target=complete_soon)
        thread.start()
        try:
            records = list(
                run_parallel(
                    [fake_shardable], None, jobs=2, warm=False,
                    checkpoint=checkpoint, resume=True,
                )
            )
        finally:
            thread.join()
        assert records[0]["output"] == fake_heavy_serial()
        # adopted, not recomputed: the driver's workers ran the other three
        assert counter("queue.completed") == len(FAKE_SHARDS) - 1
        assert counter("queue.stolen") == 0
        recs = checkpoint.completed_shard_records("fake_heavy")
        assert recs["cell/a"]["meta"]["owner"] == "live-peer"


    @needs_fork
    def test_resumed_engine_joins_work_spec_without_narrowing_it(
        self, fake_shardable, tmp_path
    ):
        """A resumed driver running a subset of a ``repro-bench work``
        fleet's experiments keeps the fleet's spec, so later peers and the
        merge still see the whole run."""
        run_dir = tmp_path / "run"
        names = [fake_shardable, "fake_mono"]
        peer = WorkQueue(run_dir, owner="peer")
        _publish(peer, names)
        worker = QueueWorker(peer, None, poll_s=0.05, experiments=["fake_mono"])
        assert worker.run() == 0

        records = list(
            run_parallel(
                [fake_shardable], None, jobs=2, warm=False,
                checkpoint=RunCheckpoint(run_dir), resume=True,
            )
        )
        assert records[0]["output"] == fake_heavy_serial()
        assert peer.load_spec()["experiments"] == names
        _publish(WorkQueue(run_dir, owner="late-peer"), names)  # no QueueError
        merged = merge_results(peer, None, peer.load_spec()["experiments"])
        assert [r["output"] for r in merged] == [
            fake_heavy_serial(), "mono-output"
        ]

    @needs_fork
    def test_resumed_cli_run_publishes_the_same_spec_as_work(
        self, fake_shardable, monkeypatch, tmp_path, capsys
    ):
        """``repro-bench A,B --jobs 2 --resume`` on a ``work`` fleet's dir
        (B already done) runs A and leaves the fleet's spec as it was."""
        monkeypatch.setattr(parallel, "warm_up", lambda context: None)
        run_dir = tmp_path / "run"
        names = [fake_shardable, "fake_mono"]
        peer = WorkQueue(run_dir, owner="peer")
        _publish(peer, names)
        worker = QueueWorker(peer, None, poll_s=0.05, experiments=["fake_mono"])
        assert worker.run() == 0
        spec = peer.load_spec()

        argv = [",".join(names), "--jobs", "2", "--run-dir", str(run_dir),
                "--resume"]
        assert runner.main(argv) == 0
        out = capsys.readouterr().out
        assert fake_heavy_serial() in out and "mono-output" in out
        assert peer.load_spec() == spec
        merged = merge_results(peer, None, spec["experiments"])
        assert [r["output"] for r in merged] == [
            fake_heavy_serial(), "mono-output"
        ]

    @needs_fork
    def test_resumed_engine_replaces_a_different_spec_only_when_idle(
        self, fake_shardable, tmp_path
    ):
        run_dir = tmp_path / "run"
        peer = WorkQueue(run_dir, owner="live-peer")
        _publish(peer, ["fake_mono"])
        lease = peer.try_claim(QueueTask("fake_mono", "fake_mono", None))
        lease.start_heartbeat(0.1)
        with pytest.raises(QueueError, match="different run"):
            run_parallel(
                [fake_shardable], None, jobs=2, warm=False,
                checkpoint=RunCheckpoint(run_dir), resume=True,
            )
        assert peer.load_spec()["experiments"] == ["fake_mono"]
        # Once the peer is gone the resumed run takes the dir over.
        lease.stop_heartbeat()
        peer.abandon(lease.path, "peer left")
        records = list(
            run_parallel(
                [fake_shardable], None, jobs=2, warm=False,
                checkpoint=RunCheckpoint(run_dir), resume=True,
            )
        )
        assert records[0]["output"] == fake_heavy_serial()
        assert peer.load_spec()["experiments"] == [fake_shardable]

    @needs_fork
    def test_fresh_engine_run_resets_only_its_own_experiments(
        self, fake_shardable, tmp_path
    ):
        run_dir = tmp_path / "run"
        checkpoint = RunCheckpoint(run_dir)
        list(
            run_parallel(
                [fake_shardable, "fake_mono"], None, jobs=2, warm=False,
                checkpoint=checkpoint,
            )
        )
        mono = checkpoint.load("fake_mono")
        telemetry.reset()
        records = list(
            run_parallel(
                [fake_shardable], None, jobs=2, warm=False,
                checkpoint=checkpoint,
            )
        )
        assert records[0]["output"] == fake_heavy_serial()
        assert records[0]["resumed_shards"] == 0
        assert counter("queue.completed") == len(FAKE_SHARDS)  # recomputed
        assert checkpoint.load("fake_mono") == mono  # not this run's: kept


# ---------------------------------------------------------------------------
# A SIGKILLed --jobs driver
# ---------------------------------------------------------------------------

GATED_SHARDS = ("gate/a", "gate/b", "gate/c", "gate/d")


def _wait_for(condition, timeout_s: float = 60.0) -> bool:
    """Poll ``condition`` until it holds (True) or ``timeout_s`` passes."""
    deadline = time.monotonic() + timeout_s
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


class GatedShards(Shardable):
    """Each shard publishes its worker's pid, then waits for a go file."""

    name = "fake_gated"

    def __init__(self, gate_dir):
        self.gate_dir = gate_dir

    def shard_ids(self, context):
        return list(GATED_SHARDS)

    def run_shard(self, context, shard_id):
        path = self.gate_dir / f"{task_stem(shard_id)}.pid"
        path.with_suffix(".tmp").write_text(str(os.getpid()))
        os.replace(path.with_suffix(".tmp"), path)
        assert _wait_for(lambda: (self.gate_dir / "go").exists())
        return {"cell": shard_id}

    def merge(self, context, shards):
        return ",".join(shards[sid]["cell"] for sid in GATED_SHARDS), []


def _exited(pid: int) -> bool:
    """Whether a process that is not our child has exited (gone, or a
    zombie its new parent has not reaped yet)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return True
    return state in ("Z", "X")


def _drive_gated(run_dir) -> None:
    """Forked child: a ``--jobs 2`` driver over the gated experiment."""
    list(run_parallel(
        ["fake_gated"], None, jobs=2, warm=False,
        checkpoint=RunCheckpoint(run_dir),
    ))


class TestDriverDeath:
    @needs_fork
    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_workers_stop_claiming_when_the_driver_is_killed(
        self, monkeypatch, tmp_path
    ):
        gate_dir = tmp_path / "gate"
        gate_dir.mkdir()
        run_dir = tmp_path / "run"
        monkeypatch.setitem(runner.EXPERIMENTS, "fake_gated", _fake_mono)
        original = sharding.get_shardable.__wrapped__

        def patched(name):
            if name == "fake_gated":
                return GatedShards(gate_dir)
            return original(name)

        monkeypatch.setattr(sharding, "get_shardable", patched)
        pid_files = lambda: sorted(gate_dir.glob("*.pid"))  # noqa: E731

        driver = _FORK.Process(target=_drive_gated, args=(run_dir,))
        driver.start()
        try:
            # Both workers hold a task and wait at the gate.
            assert _wait_for(lambda: len(pid_files()) == 2)
            worker_pids = {int(path.read_text()) for path in pid_files()}
            os.kill(driver.pid, signal.SIGKILL)
            driver.join()
        finally:
            (gate_dir / "go").touch()
            if driver.is_alive():
                driver.kill()
                driver.join()
        assert driver.exitcode == -signal.SIGKILL

        # Orphaned, each worker finishes its task and then exits instead
        # of claiming the two tasks nobody holds.
        assert _wait_for(lambda: all(map(_exited, worker_pids)))
        queue = WorkQueue(run_dir, owner="observer")
        tasks = expand_tasks(["fake_gated"], None)
        assert sum(map(queue.is_completed, tasks)) == 2
        assert len(pid_files()) == 2
        assert list(queue.held_leases()) == []
        summaries = [
            json.loads(path.read_text())
            for path in queue.workers_dir.glob("*.json")
        ]
        assert len(summaries) == 2
        for summary in summaries:
            assert summary["claims"] == summary["completed"] == 1
            assert summary["pid"] in worker_pids
            assert "finished_at" in summary


#: Far longer than any join bound below: a resume that waited out the
#: stale window instead of taking over a dead run's leases would time out.
_LONG_STALE_S = 3600.0


def _gated_run(run_dir, jobs: int, resume: bool) -> None:
    """Forked child: ``repro-bench fake_gated`` as its own process group."""
    os.setpgid(0, 0)
    argv = ["fake_gated", "--run-dir", str(run_dir), "--jobs", str(jobs)]
    sys.exit(runner.main(argv + (["--resume"] if resume else [])))


class TestResumeAfterSigkill:
    @pytest.fixture
    def gate_dir(self, monkeypatch, tmp_path):
        gate_dir = tmp_path / "gate"
        gate_dir.mkdir()
        monkeypatch.setitem(runner.EXPERIMENTS, "fake_gated", _fake_mono)
        original = sharding.get_shardable.__wrapped__

        def patched(name):
            if name == "fake_gated":
                return GatedShards(gate_dir)
            return original(name)

        monkeypatch.setattr(sharding, "get_shardable", patched)
        monkeypatch.setitem(
            WorkQueue.__init__.__kwdefaults__, "stale_after_s", _LONG_STALE_S
        )
        return gate_dir

    @needs_fork
    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_killed_run_resumes_twice_without_the_stale_window(
        self, gate_dir, tmp_path, jobs
    ):
        """SIGKILL the run's process group while its tasks wait at the
        gate, twice: each resume takes over the dead owners' leases at
        once, and the second one still runs the tasks, whose attempt cap
        counts from the attempt it found."""
        run_dir = tmp_path / "run"
        held = 1 if jobs == 1 else 2
        pid_files = lambda: sorted(gate_dir.glob("*.pid"))  # noqa: E731
        for resume in (False, True):
            for path in pid_files():
                path.unlink()
            run = _FORK.Process(target=_gated_run, args=(run_dir, jobs, resume))
            run.start()
            try:
                assert _wait_for(lambda: len(pid_files()) == held)
            finally:
                os.killpg(run.pid, signal.SIGKILL)
                run.join(timeout=60.0)
            assert run.exitcode == -signal.SIGKILL
            leases = WorkQueue(run_dir, owner="observer").held_leases()
            assert len(leases) == held

        (gate_dir / "go").touch()
        run = _FORK.Process(target=_gated_run, args=(run_dir, jobs, True))
        run.start()
        run.join(timeout=60.0)
        if run.is_alive():
            os.killpg(run.pid, signal.SIGKILL)
            run.join(timeout=60.0)
        assert run.exitcode == 0
        checkpoint = RunCheckpoint(run_dir)
        assert checkpoint.load("fake_gated")["output"] == ",".join(GATED_SHARDS)
        attempts = sorted(
            record["meta"]["attempt"] for record
            in checkpoint.completed_shard_records("fake_gated").values()
        )
        assert attempts == [0] * (4 - held) + [2] * held
        assert WorkQueue(run_dir, owner="observer").held_leases() == []


# ---------------------------------------------------------------------------
# The advisory cache lock
# ---------------------------------------------------------------------------


def _locked_appender(path, lock_path, barrier, n_rounds):
    barrier.wait()
    for _ in range(n_rounds):
        with FileLock(lock_path, heartbeat_s=0.1):
            with open(path, "r", encoding="utf-8") as handle:
                value = int(handle.read())
            time.sleep(0.002)  # widen the lost-update window
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(str(value + 1))


class TestCacheLock:
    @needs_fork
    def test_lock_excludes_concurrent_mutators(self, tmp_path):
        target = tmp_path / "counter.txt"
        target.write_text("0")
        lock_path = tmp_path / "counter.lock"
        n_procs, n_rounds = 3, 10
        barrier = _FORK.Barrier(n_procs)
        procs = [
            _FORK.Process(
                target=_locked_appender,
                args=(str(target), str(lock_path), barrier, n_rounds),
            )
            for _ in range(n_procs)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        # read-modify-write under the lock: no lost updates
        assert int(target.read_text()) == n_procs * n_rounds

    def test_stale_lock_is_stolen(self, tmp_path):
        lock_path = tmp_path / "x.lock"
        lock_path.touch()
        old = time.time() - 1000
        os.utime(lock_path, (old, old))
        lock = FileLock(lock_path, stale_after_s=5.0, timeout_s=5.0)
        lock.acquire()
        assert lock.held
        assert counter("lock.stolen") == 1
        lock.release()
        assert not lock_path.exists()

    def test_live_lock_times_out(self, tmp_path):
        lock_path = tmp_path / "y.lock"
        lock_path.touch()  # fresh mtime: a live holder
        lock = FileLock(lock_path, stale_after_s=60.0, timeout_s=0.3)
        with pytest.raises(LockTimeout):
            lock.acquire()

    def test_prune_takes_and_releases_the_lock(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        for i in range(3):
            cache.put("corpus", f"key{i}" * 10, list(range(100)))
        report = cache.prune(1)
        assert report["removed"] == 3
        assert not (tmp_path / "cache" / "prune.lock").exists()
        assert counter("lock.acquired") == 1
        assert counter("lock.released") == 1
