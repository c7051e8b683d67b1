"""Differential parity layer for the sharded sub-experiment scheduler.

The contract under test (``docs/performance.md``): decomposing a heavy
experiment into sub-tasks and scheduling them across forked workers must
be *invisible* in the output — byte-identical to a serial run at any
``--jobs``, for any completion order, across worker crashes/restarts, and
across ``--resume`` of a partially sharded run.  Each section pins one
side of that contract:

* shard/merge round-trips of the real heavy experiments equal their
  serial entry points, with the merge insensitive to payload order;
* the ``--jobs`` driver's queue workers assemble sharded experiments into
  records identical to serial execution, interleaved with monolithic
  experiments in canonical order;
* per-shard checkpoint records carry their parent experiment name, a
  resumed partial run replays identically, and records that land under
  the wrong experiment are discarded, not grafted.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import random
import shutil

import pytest

from repro.benchmark import runner, sharding
from repro.benchmark.checkpoint import RunCheckpoint
from repro.benchmark.context import BenchmarkContext
from repro.benchmark.parallel import run_parallel
from repro.benchmark.sharding import Shardable, get_shardable, is_shardable
from repro.faults import FaultPlan, faults
from repro.obs import telemetry

needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="needs fork"
)


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
# A cheap, fully deterministic Shardable for engine-level tests
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
        return "fake-heavy:\n" + "\n".join(lines)


def fake_heavy_serial(context=None) -> str:
    sh = FakeHeavyShards()
    return sh.merge(
        context, {sid: sh.run_shard(context, sid) for sid in FAKE_SHARDS}
    )


def _fake_mono(context) -> str:
    return "mono-output"


@pytest.fixture
def fake_shardable(monkeypatch):
    """Register ``fake_heavy`` as a shardable experiment + a monolithic
    sibling, visible to forked workers through inherited memory."""
    monkeypatch.setitem(
        runner.EXPERIMENTS, "fake_heavy", lambda ctx: fake_heavy_serial(ctx)
    )
    monkeypatch.setitem(runner.EXPERIMENTS, "fake_mono", _fake_mono)
    original = sharding.get_shardable.__wrapped__  # bypass the lru_cache

    def patched(name):
        if name == "fake_heavy":
            return FakeHeavyShards()
        return original(name)

    monkeypatch.setattr(sharding, "get_shardable", patched)
    return "fake_heavy"


# ---------------------------------------------------------------------------
# Shard/merge round-trips of the real heavy experiments
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def shard_context():
    return BenchmarkContext(n_examples=240, seed=0)


class TestShardMergeParity:
    def test_registry_names_match_experiments(self, shard_context):
        for name in sharding.shardable_names():
            assert name in runner.EXPERIMENTS
            assert is_shardable(name)
            shardable = get_shardable(name)
            assert shardable is not None and shardable.name == name
            ids = shardable.shard_ids(shard_context)
            assert ids and len(ids) == len(set(ids))
        assert get_shardable("table18") is None
        assert not is_shardable("table18")

    def test_tuning_sharded_equals_serial_any_order(self, shard_context):
        from repro.benchmark.tuning_exp import render_tuning, run_tuning

        serial = render_tuning(run_tuning(shard_context))
        shardable = get_shardable("tuning")
        payloads = {
            sid: shardable.run_shard(shard_context, sid)
            for sid in shardable.shard_ids(shard_context)
        }
        for seed in (0, 1, 2):
            items = list(payloads.items())
            random.Random(seed).shuffle(items)
            assert shardable.merge(shard_context, dict(items)) == serial

    def test_table15_sharded_equals_serial_any_order(self, shard_context):
        from repro.benchmark.table15 import (
            Table15Shards,
            render_table15,
            run_table15,
        )

        subset = ("Hayes", "Supreme", "Boxing")
        serial = render_table15(run_table15(shard_context, dataset_names=subset))
        shardable = Table15Shards(dataset_names=subset)
        payloads = {
            sid: shardable.run_shard(shard_context, sid)
            for sid in shardable.shard_ids(shard_context)
        }
        items = list(payloads.items())
        random.Random(99).shuffle(items)
        assert shardable.merge(shard_context, dict(items)) == serial

    def test_downstream_sharded_equals_serial_any_order(self, shard_context):
        from repro.benchmark.downstream_exp import (
            DownstreamShards,
            render_downstream,
            run_downstream_experiment,
        )

        subset = ("Hayes", "Supreme", "Zoo", "MBA")
        serial = render_downstream(
            run_downstream_experiment(
                shard_context, dataset_names=subset, seed=3
            )
        )
        shardable = DownstreamShards(dataset_names=subset, seed=3)
        payloads = {
            sid: shardable.run_shard(shard_context, sid)
            for sid in shardable.shard_ids(shard_context)
        }
        items = list(payloads.items())
        random.Random(5).shuffle(items)
        assert shardable.merge(shard_context, dict(items)) == serial

    def test_merge_rejects_missing_shards(self, shard_context):
        shardable = get_shardable("tuning")
        with pytest.raises(ValueError, match="missing shard"):
            shardable.merge(shard_context, {"logreg/fold0": {}})


# ---------------------------------------------------------------------------
# The --jobs driver: sharded == serial, any --jobs, canonical order
# ---------------------------------------------------------------------------


class TestEngineShardParity:
    @needs_fork
    @pytest.mark.parametrize("jobs", [2, 3])
    def test_sharded_engine_output_identical_to_serial(
        self, fake_shardable, jobs
    ):
        records = list(
            run_parallel([fake_shardable], None, jobs=jobs, warm=False)
        )
        assert len(records) == 1
        assert records[0]["output"] == fake_heavy_serial()
        assert records[0]["sharded"] is True
        assert records[0]["n_shards"] == len(FAKE_SHARDS)
        assert counter("queue.completed") == len(FAKE_SHARDS)

    @needs_fork
    def test_mixed_monolithic_and_sharded_keep_canonical_order(
        self, fake_shardable
    ):
        names = ["fake_mono", "fake_heavy"]
        records = list(run_parallel(names, None, jobs=2, warm=False))
        assert [r["name"] for r in records] == names
        assert records[0]["output"] == "mono-output"
        assert "sharded" not in records[0]
        assert records[1]["output"] == fake_heavy_serial()

    @needs_fork
    def test_real_tuning_through_engine_equals_serial(self, shard_context):
        from repro.benchmark.tuning_exp import render_tuning, run_tuning

        serial = render_tuning(run_tuning(shard_context))
        records = list(
            run_parallel(["tuning"], shard_context, jobs=2, warm=False)
        )
        assert records[0]["output"] == serial
        assert records[0]["sharded"] is True

    @needs_fork
    def test_killed_shard_worker_restarts_and_output_unchanged(
        self, fake_shardable, tmp_path
    ):
        faults.install(plan({
            "point": "worker.run", "mode": "kill",
            "match": {"experiment": "fake_heavy", "attempt": "0"},
        }))
        checkpoint = RunCheckpoint(tmp_path / "run")
        records = list(
            run_parallel(
                [fake_shardable], None, jobs=2, warm=False,
                checkpoint=checkpoint,
            )
        )
        record = records[0]
        assert record["output"] == fake_heavy_serial()
        assert record["attempts"] == 2  # at least one shard was re-run
        assert counter("worker.restart") >= 1
        # every shard still checkpointed under its parent experiment
        done = checkpoint.completed_shards("fake_heavy")
        assert set(done) == set(FAKE_SHARDS)

    @needs_fork
    def test_shard_restarts_exhausted_fails_the_experiment(
        self, fake_shardable
    ):
        faults.install(plan({
            "point": "worker.run", "mode": "kill",
            "match": {"experiment": "fake_heavy", "shard": "cell/b"},
        }))
        records = list(
            run_parallel(
                ["fake_heavy", "fake_mono"], None, jobs=2, warm=False,
                max_restarts=1,
            )
        )
        by_name = {r["name"]: r for r in records}
        failure = by_name["fake_heavy"]
        assert failure["failed"] is True
        assert "cell/b" in failure["error"]
        assert failure["attempts"] == 2
        # the monolithic sibling is unaffected
        assert by_name["fake_mono"]["output"] == "mono-output"


# ---------------------------------------------------------------------------
# Checkpointed shards: parent attribution + partial-resume replay
# ---------------------------------------------------------------------------


class TestShardCheckpoints:
    def test_record_carries_parent_experiment(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path / "run")
        checkpoint.record_shard("expA", "logreg/fold0", {"score": 0.5})
        path = checkpoint.shard_path("expA", "logreg/fold0")
        assert path.is_file()
        stored = json.loads(path.read_text())
        assert stored["experiment"] == "expA"
        assert stored["shard"] == "logreg/fold0"
        assert checkpoint.completed_shards("expA") == {
            "logreg/fold0": {"score": 0.5}
        }

    def test_misattributed_record_is_discarded(self, tmp_path):
        """Regression: a shard record must only resume its own parent.

        Before attribution, a record copied (or hand-moved) into another
        experiment's shard directory would silently replay there."""
        checkpoint = RunCheckpoint(tmp_path / "run")
        checkpoint.record_shard("expA", "cell/a", {"value": 1})
        source = checkpoint.shard_path("expA", "cell/a")
        target = checkpoint.shard_path("expB", "cell/a")
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(source, target)
        assert checkpoint.completed_shards("expB") == {}
        assert counter("checkpoint.shard_misattributed") == 1
        # the rightful owner still resumes
        assert checkpoint.completed_shards("expA") == {"cell/a": {"value": 1}}

    def test_corrupt_payload_degrades_to_rerun(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path / "run")
        checkpoint.record_shard("expA", "cell/a", {"value": 1})
        path = checkpoint.shard_path("expA", "cell/a")
        stored = json.loads(path.read_text())
        stored["payload"] = stored["payload"][:-8] + "AAAAAAAA"
        path.write_text(json.dumps(stored))
        assert checkpoint.completed_shards("expA") == {}
        assert counter("checkpoint.invalid") == 1

    def test_shard_ids_with_separators_do_not_collide(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path / "run")
        checkpoint.record_shard("exp", "a/b", {"v": 1})
        checkpoint.record_shard("exp", "a_b", {"v": 2})
        done = checkpoint.completed_shards("exp")
        assert done == {"a/b": {"v": 1}, "a_b": {"v": 2}}

    @needs_fork
    def test_resume_of_partial_sharded_run_replays_identically(
        self, fake_shardable, tmp_path
    ):
        run_dir = tmp_path / "run"
        checkpoint = RunCheckpoint(run_dir)
        full = list(
            run_parallel(
                [fake_shardable], None, jobs=2, warm=False,
                checkpoint=checkpoint,
            )
        )[0]
        assert set(checkpoint.completed_shards("fake_heavy")) == set(FAKE_SHARDS)

        # Simulate a crash that lost half the shards: delete two records.
        for shard in FAKE_SHARDS[:2]:
            os.unlink(checkpoint.shard_path("fake_heavy", shard))

        resumed = list(
            run_parallel(
                [fake_shardable], None, jobs=2, warm=False,
                checkpoint=checkpoint, resume=True,
            )
        )[0]
        assert resumed["output"] == full["output"] == fake_heavy_serial()
        assert resumed["resumed_shards"] == 2
        # only the two missing cells were recomputed
        assert counter("queue.completed") == len(FAKE_SHARDS) + 2

    @needs_fork
    def test_fully_checkpointed_run_resumes_without_workers(
        self, fake_shardable, tmp_path
    ):
        checkpoint = RunCheckpoint(tmp_path / "run")
        shardable = FakeHeavyShards()
        for sid in FAKE_SHARDS:
            checkpoint.record_shard(
                "fake_heavy", sid, shardable.run_shard(None, sid)
            )
        records = list(
            run_parallel(
                [fake_shardable], None, jobs=2, warm=False,
                checkpoint=checkpoint, resume=True,
            )
        )
        assert records[0]["output"] == fake_heavy_serial()
        assert records[0]["resumed_shards"] == len(FAKE_SHARDS)
        assert counter("queue.completed") == 0
