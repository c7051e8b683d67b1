"""Chaos suite: deterministic fault injection and the recovery machinery.

Each section drives a real subsystem through :mod:`repro.faults` and
asserts the robustness contract from ``docs/robustness.md``: runs either
recover to the fault-free result or fail loudly with a typed error — never
hang, never return silently-corrupt data.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import random
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.benchmark import runner
from repro.benchmark.checkpoint import RunCheckpoint
from repro.benchmark.parallel import run_parallel
from repro.cache import ArtifactCache
from repro.core.featurize import ProfileError, profile_column, profile_table
from repro.faults import (
    FaultInjectedError,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    faults,
)
from repro.obs import telemetry
from repro.obs.export import write_json
from repro.serve import InferenceService, ModelRegistry, ServeClientError
from repro.serve.client import RetryPolicy, ServeClient
from repro.serve.http import make_server
from repro.tabular.column import Column
from repro.tabular.csv_io import (
    CSVReadError,
    decode_csv_bytes,
    load_csv_table,
    read_csv,
)
from repro.tabular.table import Table

REPO_ROOT = Path(__file__).resolve().parent.parent
MANGLED_DIR = Path(__file__).parent / "data" / "mangled"

CSV_TEXT = "id,salary,state\n" + "\n".join(
    f"{i},{1000 + 13 * i},{['CA', 'TX', 'NY', 'WA'][i % 4]}"
    for i in range(20)
)


@pytest.fixture(autouse=True)
def _clean_slate():
    """Every test starts fault-free with a fresh metrics registry."""
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
# Plans and the injector
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_rejects_unknown_mode(self):
        with pytest.raises(FaultPlanError):
            plan({"point": "x", "mode": "explode"})

    def test_rejects_probability_out_of_range(self):
        with pytest.raises(FaultPlanError):
            plan({"point": "x", "probability": 1.5})

    def test_rejects_probability_and_on_call_together(self):
        with pytest.raises(FaultPlanError):
            plan({"point": "x", "probability": 0.5, "on_call": 2})

    def test_load_missing_file_is_a_plan_error(self, tmp_path):
        with pytest.raises(FaultPlanError):
            FaultPlan.load(tmp_path / "nope.json")

    def test_load_invalid_json_is_a_plan_error(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{not json")
        with pytest.raises(FaultPlanError):
            FaultPlan.load(path)


class TestInjector:
    def test_inactive_point_is_a_noop(self):
        assert faults.active is None
        faults.point("anything.at.all", key="value")  # must not raise
        payload = b"untouched"
        assert faults.corrupt("anything.at.all", payload) is payload

    def test_on_call_fires_exactly_nth(self):
        injector = FaultInjector()
        injector.install(plan({"point": "p", "on_call": 2}))
        injector.point("p")  # call 1: no fire
        with pytest.raises(FaultInjectedError):
            injector.point("p")  # call 2: fires
        injector.point("p")  # call 3: no fire

    def test_max_fires_bounds_an_always_rule(self):
        injector = FaultInjector()
        injector.install(plan({"point": "p", "max_fires": 2}))
        for _ in range(2):
            with pytest.raises(FaultInjectedError):
                injector.point("p")
        injector.point("p")  # budget spent

    def test_probability_schedule_is_deterministic(self):
        def pattern() -> list[bool]:
            injector = FaultInjector()
            injector.install(plan({"point": "p", "probability": 0.5}, seed=7))
            fired = []
            for _ in range(30):
                try:
                    injector.point("p")
                except FaultInjectedError:
                    fired.append(True)
                else:
                    fired.append(False)
            return fired

        first, second = pattern(), pattern()
        assert first == second
        assert any(first) and not all(first)

    def test_match_filters_on_stringified_ctx(self):
        injector = FaultInjector()
        injector.install(
            plan({"point": "worker.run",
                  "match": {"experiment": "a", "attempt": "0"}})
        )
        injector.point("worker.run", experiment="b", attempt=0)
        injector.point("worker.run", experiment="a", attempt=1)
        with pytest.raises(FaultInjectedError):
            injector.point("worker.run", experiment="a", attempt=0)

    def test_error_mode_raises_named_builtin(self):
        injector = FaultInjector()
        injector.install(plan({"point": "p", "error": "PermissionError"}))
        with pytest.raises(PermissionError):
            injector.point("p")

    def test_env_var_activates_plan_in_subprocess(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(
            {"rules": [{"point": "csv.read"}]}
        ))
        code = (
            "from repro.faults import faults; "
            "assert faults.active is not None; "
            "print('plan-armed')"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "REPRO_FAULT_PLAN": str(path),
                 "PYTHONPATH": str(REPO_ROOT / "src")},
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "plan-armed" in proc.stdout

    def test_env_var_broken_plan_fails_loudly(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text('{"rules": [{"point": "x", "mode": "bogus"}]}')
        proc = subprocess.run(
            [sys.executable, "-c", "import repro.faults"],
            env={**os.environ, "REPRO_FAULT_PLAN": str(path),
                 "PYTHONPATH": str(REPO_ROOT / "src")},
            capture_output=True, text=True,
        )
        assert proc.returncode != 0
        assert "FaultPlanError" in proc.stderr


# ---------------------------------------------------------------------------
# Crash-safe cache
# ---------------------------------------------------------------------------


def _corrupt_file(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[-10] ^= 0xFF  # flip one payload bit
    path.write_bytes(bytes(data))


class TestCrashSafeCache:
    def test_bit_rot_is_quarantined_and_rebuilt(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cache.put("test", "k1", {"payload": list(range(100))})
        _corrupt_file(cache.path("test", "k1"))
        assert cache.get("test", "k1") is None
        assert counter("cache.corrupt") == 1
        assert not cache.path("test", "k1").exists()
        quarantined = list(cache.quarantine_root.iterdir())
        assert len(quarantined) == 1 and quarantined[0].name.startswith("test-")
        # A rebuilt entry stores and reads back cleanly.
        cache.put("test", "k1", {"payload": "fresh"})
        assert cache.get("test", "k1") == {"payload": "fresh"}

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        path = cache.put("test", "k1", {"x": 1})
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        assert cache.get("test", "k1") is None
        assert counter("cache.corrupt") == 1

    def test_quarantined_entries_are_excluded_from_prune_accounting(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cache.put("test", "good", {"x": 1})
        cache.put("test", "bad", {"y": 2})
        _corrupt_file(cache.path("test", "bad"))
        assert cache.get("test", "bad") is None  # quarantines it
        live = [p for p, _, _ in cache._entries()]
        assert cache.path("test", "good") in live
        assert all(
            "quarantine" not in p.relative_to(cache.root).parts for p in live
        )

    def test_injected_write_corruption_is_caught_on_read(self, tmp_path):
        faults.install(plan({"point": "cache.write", "mode": "corrupt",
                             "on_call": 1}))
        cache = ArtifactCache(tmp_path / "cache")
        builds = []

        def build():
            builds.append(1)
            return {"artifact": "value"}

        first = cache.fetch("corpus", {"n": 1}, build)
        assert first == {"artifact": "value"}  # build result unaffected
        assert counter("faults.corrupted") == 1
        faults.clear()
        # The stored bytes are damaged: the next fetch quarantines and
        # rebuilds instead of deserializing garbage.
        second = cache.fetch("corpus", {"n": 1}, build)
        assert second == {"artifact": "value"}
        assert len(builds) == 2
        assert counter("cache.corrupt") == 1
        # After the rebuild the entry is healthy again.
        assert cache.fetch("corpus", {"n": 1}, build) == {"artifact": "value"}
        assert len(builds) == 2

    def test_store_failure_degrades_to_warning(self, tmp_path):
        faults.install(plan({"point": "cache.write", "mode": "error",
                             "error": "PermissionError"}))
        cache = ArtifactCache(tmp_path / "cache")
        out = cache.fetch("corpus", {"n": 2}, lambda: {"built": True})
        assert out == {"built": True}
        assert counter("cache.store_failed") == 1

    def test_default_store_fault_also_degrades(self, tmp_path):
        # A plain {"point": "cache.write"} rule (default FaultInjectedError)
        # must degrade exactly like an OS-level failure, not crash fetch().
        faults.install(plan({"point": "cache.write"}))
        cache = ArtifactCache(tmp_path / "cache")
        out = cache.fetch("corpus", {"n": 3}, lambda: {"built": True})
        assert out == {"built": True}
        assert counter("cache.store_failed") == 1

    def test_injected_read_fault_is_a_counted_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cache.put("test", "k1", {"x": 1})
        faults.install(plan({"point": "cache.read", "max_fires": 1}))
        assert cache.get("test", "k1") is None
        assert counter("cache.read_error") == 1
        assert counter("cache.miss") == 1
        # The entry itself is fine — only the read failed; no quarantine,
        # and the next read succeeds.
        assert not cache.quarantine_root.exists()
        assert cache.get("test", "k1") == {"x": 1}


def _race_put(root: str, value: int) -> None:
    cache = ArtifactCache(root)
    for _ in range(25):
        cache.put("test", "shared-key", {"writer": value, "blob": "x" * 4096})


def _hammer_get(root: str) -> None:
    cache = ArtifactCache(root)
    deadline = time.monotonic() + 2.0
    while time.monotonic() < deadline:
        cache.get("test", "churn")


class TestCacheConcurrency:
    def test_two_process_same_key_write_race(self, tmp_path):
        if "fork" not in mp.get_all_start_methods():
            pytest.skip("needs fork")
        ctx = mp.get_context("fork")
        root = str(tmp_path / "cache")
        procs = [ctx.Process(target=_race_put, args=(root, i)) for i in (1, 2)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=30)
            assert p.exitcode == 0
        # Atomic rename means the survivor is one complete entry — never an
        # interleaving of the two writers.
        entry = ArtifactCache(root).get("test", "shared-key")
        assert entry is not None and entry["writer"] in (1, 2)
        assert counter("cache.corrupt") == 0

    def test_prune_during_concurrent_reads(self, tmp_path):
        if "fork" not in mp.get_all_start_methods():
            pytest.skip("needs fork")
        ctx = mp.get_context("fork")
        root = str(tmp_path / "cache")
        cache = ArtifactCache(root)
        cache.put("test", "churn", {"n": 0})
        reader = ctx.Process(target=_hammer_get, args=(root,))
        reader.start()
        deadline = time.monotonic() + 1.5
        n = 0
        while time.monotonic() < deadline:
            cache.put("test", "churn", {"n": n})
            cache.prune(max_bytes=0)
            n += 1
        reader.join(timeout=30)
        # The reader saw hits and misses but never crashed on a vanishing
        # or half-visible entry.
        assert reader.exitcode == 0


# ---------------------------------------------------------------------------
# Hardened ingestion (mangled CSV corpus + typed featurize errors)
# ---------------------------------------------------------------------------


class TestMangledCSV:
    @pytest.mark.parametrize(
        "path", sorted(MANGLED_DIR.glob("*.csv")), ids=lambda p: p.name
    )
    def test_any_bytes_parse_or_raise_typed(self, path):
        """The fuzz-corpus contract: a Table, CSVReadError, or
        ProfileError — never an untyped crash."""
        try:
            table = load_csv_table(path)
        except CSVReadError:
            return
        assert isinstance(table, Table)
        try:
            profiles = profile_table(table)
        except ProfileError:
            return
        assert len(profiles) == len(table.column_names)

    def test_nul_bytes_stripped_and_counted(self):
        table = load_csv_table(MANGLED_DIR / "nul_bytes.csv")
        assert table.column_names == ["name", "age"]
        assert counter("csv.nul_bytes") >= 1

    def test_non_utf8_replacement_decoded(self):
        table = load_csv_table(MANGLED_DIR / "latin1.csv")
        assert table.column_names == ["city", "temp"]
        assert counter("csv.decode_replaced") == 1

    def test_ragged_rows_padded_and_counted(self):
        table = load_csv_table(MANGLED_DIR / "ragged.csv")
        assert table.column_names == ["a", "b", "c"]
        assert counter("csv.ragged_rows") == 2

    def test_bom_stripped_from_header(self):
        table = load_csv_table(MANGLED_DIR / "bom.csv")
        assert table.column_names == ["x", "y"]

    @pytest.mark.parametrize("name", ["empty.csv", "only_newlines.csv"])
    def test_contentless_input_raises_typed(self, name):
        with pytest.raises(CSVReadError):
            load_csv_table(MANGLED_DIR / name)

    def test_missing_file_raises_typed(self, tmp_path):
        with pytest.raises(CSVReadError):
            load_csv_table(tmp_path / "ghost.csv")

    def test_bom_declared_codec_is_honored(self):
        text = decode_csv_bytes("a,b\n1,2\n".encode("utf-16"))
        assert text == "a,b\n1,2\n"

    def test_lying_bom_raises_typed(self):
        # A UTF-16 BOM followed by non-UTF-16 bytes: the file declares its
        # encoding and violates it — unsalvageable, not replacement-mush.
        with pytest.raises(CSVReadError, match="utf-16-le"):
            decode_csv_bytes(b"\xff\xfe\x00\x01garbage")

    def test_injected_read_fault_is_typed(self, tmp_path):
        path = tmp_path / "fine.csv"
        path.write_text(CSV_TEXT)
        faults.install(plan({"point": "csv.read", "max_fires": 1}))
        with pytest.raises(CSVReadError, match="injected"):
            load_csv_table(path)
        # One strike only: ingestion recovers on retry.
        assert load_csv_table(path).column_names == ["id", "salary", "state"]

    def test_one_csv_read_fire_per_load(self, tmp_path):
        path = tmp_path / "fine.csv"
        path.write_text(CSV_TEXT)
        # a zero-second hang fires on every call without failing the load
        faults.install(
            plan({"point": "csv.read", "mode": "hang", "seconds": 0})
        )
        load_csv_table(path)
        assert counter("faults.fired.csv.read") == 1
        load_csv_table(path)
        assert counter("faults.fired.csv.read") == 2
        # so an on_call plan strikes the load it names
        faults.install(plan({"point": "csv.read", "on_call": 2}))
        assert load_csv_table(path).column_names == ["id", "salary", "state"]
        with pytest.raises(CSVReadError, match="injected"):
            load_csv_table(path)

    def test_read_errors_keep_their_types_and_messages(self, tmp_path):
        ghost = tmp_path / "ghost.csv"
        with pytest.raises(FileNotFoundError):
            read_csv(ghost)
        with pytest.raises(IsADirectoryError):
            read_csv(tmp_path)
        with pytest.raises(CSVReadError) as exc_info:
            load_csv_table(ghost)
        assert str(exc_info.value) == (
            f"cannot read {str(ghost)!r}: No such file or directory"
        )
        assert isinstance(exc_info.value.__cause__, FileNotFoundError)


class TestProfileError:
    def test_lone_surrogate_raises_profile_error(self):
        column = Column("weird", ["\ud800oops", "ok", "fine", "x", "y"])
        with pytest.raises(ProfileError) as exc_info:
            profile_column(column, source_file="evil.csv")
        assert "weird" in str(exc_info.value)
        assert "evil.csv" in str(exc_info.value)

    def test_batch_path_raises_profile_error(self):
        table = Table(
            [Column("ok", ["1", "2", "3"]),
             Column("bad", ["\udfffx", "y", "z"])],
            name="evil",
        )
        with pytest.raises(ProfileError):
            profile_table(table)


# ---------------------------------------------------------------------------
# Atomic exports & checkpoints
# ---------------------------------------------------------------------------


class TestAtomicExports:
    def test_failed_write_preserves_previous_file(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_json(str(path), {"run": 1})
        with pytest.raises(TypeError):
            write_json(str(path), {"bad": object()})
        assert json.loads(path.read_text()) == {"run": 1}
        assert list(tmp_path.glob("*.tmp")) == []

    def test_checkpoint_roundtrip(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path / "run")
        checkpoint.record(
            {"name": "table1", "output": "rows\n", "wall_s": 1.25,
             "cpu_s": 1.0, "pid": 42, "attempt": 0}
        )
        completed = checkpoint.completed()
        assert completed["table1"]["output"] == "rows\n"
        assert completed["table1"]["wall_s"] == 1.25

    def test_checkpoint_skips_torn_records(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path / "run")
        checkpoint.record({"name": "good", "output": "ok"})
        (checkpoint.experiments_dir / "torn.json").write_text('{"name": "to')
        completed = checkpoint.completed()
        assert set(completed) == {"good"}
        assert counter("checkpoint.invalid") == 1


# ---------------------------------------------------------------------------
# Parallel engine: crash/hang detection and restart
# ---------------------------------------------------------------------------


def _fake_alpha(context) -> str:
    return "alpha-output"


def _fake_beta(context) -> str:
    return "beta-output"


def _fake_boom(context) -> str:
    raise ValueError("boom from inside the experiment")


@pytest.fixture
def fake_experiments(monkeypatch):
    monkeypatch.setitem(runner.EXPERIMENTS, "fake_alpha", _fake_alpha)
    monkeypatch.setitem(runner.EXPERIMENTS, "fake_beta", _fake_beta)
    monkeypatch.setitem(runner.EXPERIMENTS, "fake_boom", _fake_boom)
    return ["fake_alpha", "fake_beta"]


needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="needs fork"
)


class TestParallelEngine:
    @needs_fork
    def test_clean_run_yields_canonical_order(self, fake_experiments):
        records = list(
            run_parallel(fake_experiments, None, jobs=2, warm=False)
        )
        assert [r["name"] for r in records] == fake_experiments
        assert records[0]["output"] == "alpha-output"
        assert records[1]["output"] == "beta-output"
        assert all(r["attempts"] == 1 for r in records)

    @needs_fork
    def test_sigkilled_worker_is_restarted_and_recovers(self, fake_experiments):
        faults.install(plan({
            "point": "worker.run", "mode": "kill",
            "match": {"experiment": "fake_alpha", "attempt": "0"},
        }))
        records = list(
            run_parallel(fake_experiments, None, jobs=2, warm=False)
        )
        by_name = {r["name"]: r for r in records}
        assert by_name["fake_alpha"]["output"] == "alpha-output"
        assert by_name["fake_alpha"]["attempts"] == 2
        assert by_name["fake_beta"]["attempts"] == 1
        assert counter("worker.restart") == 1

    @needs_fork
    def test_hung_worker_is_killed_and_restarted(self, fake_experiments):
        faults.install(plan({
            "point": "worker.run", "mode": "hang", "seconds": 60,
            "match": {"experiment": "fake_beta", "attempt": "0"},
        }))
        records = list(run_parallel(
            fake_experiments, None, jobs=2, warm=False, worker_timeout_s=1.0
        ))
        by_name = {r["name"]: r for r in records}
        assert by_name["fake_beta"]["output"] == "beta-output"
        assert by_name["fake_beta"]["attempts"] == 2
        assert counter("worker.restart") == 1

    @needs_fork
    def test_restarts_exhausted_becomes_failure_record(self, fake_experiments):
        # Kill every attempt: no match clause, so restarts die too.
        faults.install(plan({
            "point": "worker.run", "mode": "kill",
            "match": {"experiment": "fake_alpha"},
        }))
        records = list(run_parallel(
            fake_experiments, None, jobs=2, warm=False, max_restarts=1
        ))
        by_name = {r["name"]: r for r in records}
        failure = by_name["fake_alpha"]
        assert failure["failed"] is True
        assert failure["attempts"] == 2
        assert "died" in failure["error"]
        assert by_name["fake_beta"]["output"] == "beta-output"

    @needs_fork
    def test_in_worker_exception_fails_without_retry(self, fake_experiments):
        names = ["fake_boom", "fake_alpha"]
        records = list(run_parallel(names, None, jobs=2, warm=False))
        by_name = {r["name"]: r for r in records}
        failure = by_name["fake_boom"]
        assert failure["failed"] is True
        assert failure["attempts"] == 1
        assert "boom from inside the experiment" in failure["error"]
        assert "Traceback" in failure["traceback"]
        assert counter("worker.restart") == 0

    def test_serial_fallback_reports_failures_too(self, fake_experiments):
        records = list(
            run_parallel(["fake_boom", "fake_alpha"], None, jobs=1, warm=False)
        )
        assert records[0]["failed"] is True
        assert records[1]["output"] == "alpha-output"


# ---------------------------------------------------------------------------
# Runner CLI: failure summary, exit codes, checkpoint/resume
# ---------------------------------------------------------------------------


class TestRunnerCLI:
    def test_unknown_experiment_in_list_errors(self):
        with pytest.raises(SystemExit):
            runner.main(["table1,definitely_not_real"])

    def test_resume_requires_run_dir(self):
        with pytest.raises(SystemExit):
            runner.main(["table1", "--resume"])

    def test_failure_exits_nonzero_with_summary(
        self, fake_experiments, capsys
    ):
        rc = runner.main(["fake_boom,fake_alpha"])
        out, err = capsys.readouterr()
        assert rc == 1
        assert "######## fake_boom FAILED ########" in out
        assert "######## fake_alpha (" in out  # the rest still ran
        assert "1 of 2 experiment(s) failed" in err
        assert "fake_boom: ValueError: boom" in err
        assert "Traceback" in err  # first failure's traceback propagated

    def test_run_dir_resume_skips_and_replays_verbatim(
        self, monkeypatch, tmp_path, capsys
    ):
        calls: list[str] = []

        def make_fake(name):
            def fake(context):
                calls.append(name)
                return f"{name}-output"
            return fake

        monkeypatch.setitem(runner.EXPERIMENTS, "fake_a", make_fake("fake_a"))
        monkeypatch.setitem(runner.EXPERIMENTS, "fake_b", make_fake("fake_b"))
        run_dir = tmp_path / "run"

        rc = runner.main(["fake_a,fake_b", "--run-dir", str(run_dir)])
        first_out = capsys.readouterr().out
        assert rc == 0
        assert calls == ["fake_a", "fake_b"]
        assert (run_dir / "experiments" / "fake_a.json").exists()

        rc = runner.main(
            ["fake_a,fake_b", "--run-dir", str(run_dir), "--resume"]
        )
        second_out = capsys.readouterr().out
        assert rc == 0
        assert calls == ["fake_a", "fake_b"]  # nothing reran
        # Stored wall times are replayed, so stdout is byte-identical.
        assert second_out == first_out

    def test_resume_runs_only_the_missing_experiment(
        self, monkeypatch, tmp_path, capsys
    ):
        calls: list[str] = []

        def make_fake(name):
            def fake(context):
                calls.append(name)
                return f"{name}-output"
            return fake

        monkeypatch.setitem(runner.EXPERIMENTS, "fake_a", make_fake("fake_a"))
        monkeypatch.setitem(runner.EXPERIMENTS, "fake_b", make_fake("fake_b"))
        run_dir = tmp_path / "run"
        assert runner.main(["fake_a", "--run-dir", str(run_dir)]) == 0
        capsys.readouterr()

        rc = runner.main(
            ["fake_a,fake_b", "--run-dir", str(run_dir), "--resume"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert calls == ["fake_a", "fake_b"]  # fake_a resumed, fake_b fresh
        assert "fake_a-output" in out and "fake_b-output" in out


# ---------------------------------------------------------------------------
# Serve: retrying client against an injected-fault server
# ---------------------------------------------------------------------------

FAST_RETRY = RetryPolicy(
    max_attempts=4, base_delay_s=0.01, max_delay_s=0.05,
    total_deadline_s=10.0, jitter=0.0,
)


@contextmanager
def degraded_server():
    """A live HTTP server answering via the rule-based degraded path (no
    model training), which is all the transport chaos tests need."""
    service = InferenceService(ModelRegistry(), max_wait_s=0.0)
    server = make_server("127.0.0.1", 0, service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    service.batcher.start()  # registry deliberately left "loading"
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        service.drain(timeout=5)
        server.server_close()
        thread.join(timeout=5)


class TestServeChaos:
    def test_injected_503_is_retried_to_success(self):
        faults.install(plan({"point": "serve.accept", "on_call": 1}))
        with degraded_server() as url:
            client = ServeClient(url, retry=FAST_RETRY, rng=random.Random(0))
            response = client.infer_csv_text(CSV_TEXT, table="chaos")
        assert response["degraded"] is True
        assert counter("serve.fault_reject") == 1
        assert counter("client.retry.status_503") == 1

    def test_injected_disconnect_is_retried_to_success(self):
        faults.install(plan({"point": "serve.respond", "on_call": 1}))
        with degraded_server() as url:
            client = ServeClient(url, retry=FAST_RETRY, rng=random.Random(0))
            response = client.infer_csv_text(CSV_TEXT, table="chaos")
        assert response["degraded"] is True
        assert counter("serve.fault_disconnect") == 1
        assert counter("client.retry.transport") == 1

    def test_retry_honors_server_retry_after_floor(self):
        faults.install(plan({"point": "serve.accept", "on_call": 1}))
        # Backoff delays are ~0.1ms; the server's retry_after_s=0.05 floor
        # must dominate.
        eager = RetryPolicy(max_attempts=2, base_delay_s=0.0001,
                            max_delay_s=0.001, total_deadline_s=10.0,
                            jitter=0.0)
        with degraded_server() as url:
            client = ServeClient(url, retry=eager, rng=random.Random(0))
            start = time.monotonic()
            client.infer_csv_text(CSV_TEXT)
            elapsed = time.monotonic() - start
        assert elapsed >= 0.05

    def test_persistent_faults_exhaust_attempts(self):
        faults.install(plan({"point": "serve.accept"}))  # every request
        with degraded_server() as url:
            client = ServeClient(url, retry=FAST_RETRY, rng=random.Random(0))
            with pytest.raises(ServeClientError) as exc_info:
                client.infer_csv_text(CSV_TEXT)
        assert exc_info.value.status == 503
        assert counter("client.retry") == FAST_RETRY.max_attempts - 1

    def test_injected_client_fault_is_transport_retried(self):
        faults.install(plan({"point": "client.request", "on_call": 1,
                             "match": {"method": "POST"}}))
        with degraded_server() as url:
            client = ServeClient(url, retry=FAST_RETRY, rng=random.Random(0))
            response = client.infer_csv_text(CSV_TEXT, table="chaos")
        assert response["degraded"] is True
        assert counter("client.retry.transport") == 1

    def test_connection_refused_is_transport_retried(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        policy = RetryPolicy(max_attempts=2, base_delay_s=0.01,
                             max_delay_s=0.02, total_deadline_s=5.0,
                             jitter=0.0)
        client = ServeClient(
            f"http://127.0.0.1:{dead_port}", timeout_s=2.0,
            retry=policy, rng=random.Random(0),
        )
        with pytest.raises(ServeClientError) as exc_info:
            client.healthz()
        assert exc_info.value.transport is True
        assert counter("client.retry.transport") == 1

    def test_model_load_fault_fails_health_not_hangs(self, tmp_path):
        faults.install(plan({"point": "model.load", "error": "OSError"}))
        artifact = tmp_path / "rf.model"
        artifact.write_bytes(b"never actually read")
        registry = ModelRegistry(model_path=str(artifact))
        registry.load(background=False)
        assert registry.ready is False
        assert registry.state == "failed"
        assert "OSError" in registry.error
