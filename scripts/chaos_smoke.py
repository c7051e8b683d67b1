#!/usr/bin/env python
"""Chaos smoke: a faulted benchmark run must recover to the fault-free result.

Stages (all at tiny scale, two experiments):

1. **Reference** — a fault-free ``repro-bench`` run with ``--run-dir``
   checkpointing; its per-experiment outputs are the ground truth.
2. **Chaos** — the same run under a fault plan that SIGKILLs the first
   experiment's worker on *every* attempt (exhausting restarts) and
   corrupts the first artifact-cache entry written (the corpus).  The run
   must exit nonzero with a per-experiment failure report — not hang — and
   checkpoint the surviving experiment.
3. **Resume** — the same command, fault-free, with ``--resume``: the
   corrupted cache entry is quarantined and rebuilt, only the failed
   experiment reruns, and the run exits 0.
4. **Verify** — every experiment's checkpointed output is byte-identical
   to the reference, and the poisoned cache quarantined at least one
   entry.
5. **Serial kill** — the same run without ``--jobs``, whose one queue
   worker is the ``repro-bench`` process itself, under a plan that
   SIGKILLs the first experiment at attempt 0: the run must exit nonzero.
   One fault-free ``--resume`` (which takes over the dead run's lease at
   once) must bring every checkpointed output back equal to the reference.
6. **Streamed ingestion** — ``repro-infer --stream`` over a CSV whose
   quoted fields span chunk boundaries: a ``csv.read_chunk`` fault plan
   must surface as a clean exit-2 ``CSVReadError`` (never a traceback),
   and the fault-free streamed rerun must print byte-identical output to
   the buffered path.
7. **Distributed queue** — two concurrent ``repro-bench work`` processes
   pull-claim the same experiments from a fresh shared run dir; a fault
   plan SIGKILLs whichever worker runs the first experiment at attempt 0.
   The survivor must steal the stale lease, and ``repro-bench merge``
   must exit 0 with outputs byte-identical to the stage-1 reference.
   (The CI ``queue-smoke`` job runs the bigger three-worker, sharded
   version: ``scripts/queue_smoke.py``.)

Run locally::

    python scripts/chaos_smoke.py

Exit code 0 means the whole robustness story held together end to end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def bench_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_FAULT_PLAN", None)  # each stage passes --fault-plan explicitly
    return env


def run_module(
    module: str, args: list[str], expect_rc: int | None = 0
) -> subprocess.CompletedProcess:
    env = bench_env()
    command = [sys.executable, "-m", module, *args]
    print(f"+ {' '.join(command)}", flush=True)
    proc = subprocess.run(
        command, env=env, cwd=REPO_ROOT, capture_output=True, text=True,
        timeout=1800,
    )
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if expect_rc is not None and proc.returncode != expect_rc:
        raise SystemExit(
            f"FAIL: expected exit code {expect_rc}, got {proc.returncode}"
        )
    return proc


def run_bench(args: list[str], expect_rc: int | None = 0) -> subprocess.CompletedProcess:
    return run_module("repro.benchmark.runner", args, expect_rc=expect_rc)


def serial_stage(
    workdir: Path, experiments: list[str], reference: dict[str, str],
    cache_dir: Path, scale: int, seed: int,
) -> None:
    """Stage 5: a SIGKILLed serial run, then one fault-free ``--resume``."""
    run_serial = workdir / "run-serial"
    plan_path = workdir / "serial-plan.json"
    plan_path.write_text(json.dumps({
        "seed": 0,
        "rules": [
            {"point": "worker.run", "mode": "kill",
             "match": {"experiment": experiments[0], "attempt": 0}},
        ],
    }, indent=2))
    base = [",".join(experiments), "--scale", str(scale), "--seed", str(seed),
            "--run-dir", str(run_serial), "--cache-dir", str(cache_dir)]
    killed = run_bench([*base, "--fault-plan", str(plan_path)], expect_rc=None)
    if killed.returncode == 0:
        raise SystemExit("FAIL: serial run exited 0 despite a SIGKILL")
    run_bench([*base, "--resume"])
    recovered = checkpoint_outputs(run_serial)
    for name in experiments:
        if recovered.get(name) != reference[name]:
            raise SystemExit(
                f"FAIL: serial {name!r} output after resume differs from "
                f"the fault-free reference"
            )


def stream_stage(workdir: Path) -> None:
    """Stage 6: streamed ingestion under ``csv.read_chunk`` chaos."""
    csv_path = workdir / "stream.csv"
    csv_path.write_bytes(
        b"id,comment,amount\n"
        + b"".join(
            b'%d,"line one\nline ""two"" of row %d",%d.5\n' % (i, i, i)
            for i in range(50)
        )
    )
    model_path = workdir / "tiny.model"
    base = [str(csv_path), "--model", str(model_path), "--json",
            "--trees", "5", "--train-examples", "80"]
    # Train once (buffered) and keep the artifact + reference output.
    reference = run_module("repro.cli", [*base, "--save", str(model_path)])

    plan_path = workdir / "stream-plan.json"
    plan_path.write_text(json.dumps({
        "seed": 0,
        "rules": [
            {"point": "csv.read_chunk", "mode": "error", "on_call": 1},
        ],
    }, indent=2))
    faulted = run_module(
        "repro.cli",
        [*base, "--stream", "--chunk-rows", "7",
         "--fault-plan", str(plan_path)],
        expect_rc=2,
    )
    if "Traceback" in faulted.stderr:
        raise SystemExit("FAIL: csv.read_chunk fault leaked a traceback")
    if "repro-infer:" not in faulted.stderr:
        raise SystemExit("FAIL: csv.read_chunk fault printed no typed error")

    streamed = run_module(
        "repro.cli", [*base, "--stream", "--chunk-rows", "7"]
    )
    if streamed.stdout != reference.stdout:
        raise SystemExit(
            "FAIL: streamed predictions differ from the buffered path"
        )


def queue_stage(
    workdir: Path, experiments: list[str], reference: dict[str, str],
    cache_dir: Path, scale: int, seed: int,
) -> None:
    """Stage 7: two pull-claim workers, one SIGKILLed, merge == reference.

    The attempt-0 match makes the chaos deterministic with a shared plan:
    exactly one process runs the target at attempt 0 (O_EXCL claim), and
    the steal reruns it at attempt 1, which no rule matches.
    """
    import time

    run_queue = workdir / "run-queue"
    kill_target = experiments[0]
    plan_path = workdir / "queue-plan.json"
    plan_path.write_text(json.dumps({
        "seed": 0,
        "rules": [
            {"point": "worker.run", "mode": "kill",
             "match": {"experiment": kill_target, "attempt": 0}},
        ],
    }, indent=2))
    queue_flags = [
        "--run-dir", str(run_queue), "--cache-dir", str(cache_dir),
        "--experiments", ",".join(experiments),
        "--scale", str(scale), "--seed", str(seed),
        "--stale-after", "4", "--heartbeat", "0.5", "--poll", "0.2",
    ]

    procs = []
    for index in range(2):
        command = [
            sys.executable, "-m", "repro.benchmark.runner", "work",
            *queue_flags, "--owner", f"chaos-worker-{index}",
            "--fault-plan", str(plan_path),
        ]
        print(f"+ {' '.join(command)} &", flush=True)
        procs.append(subprocess.Popen(
            command, env=bench_env(), cwd=REPO_ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        ))
        time.sleep(0.2)  # let the first worker publish the run spec
    exit_codes = []
    for proc in procs:
        out, _ = proc.communicate(timeout=1800)
        sys.stdout.write(out)
        exit_codes.append(proc.returncode)
    if sorted(exit_codes) != [-9, 0]:
        raise SystemExit(
            f"FAIL: expected one SIGKILLed and one clean worker, "
            f"exit codes {exit_codes}"
        )

    manifest_path = workdir / "queue-merge-manifest.json"
    merge = run_module("repro.benchmark.runner", [
        "merge", *queue_flags, "--timeout", "600",
        "--manifest", str(manifest_path),
    ])
    merged = checkpoint_outputs(run_queue)
    for name in experiments:
        if merged.get(name) != reference[name]:
            raise SystemExit(
                f"FAIL: merged {name!r} output differs from the reference"
            )
        if f"######## {name} (" not in merge.stdout:
            raise SystemExit(f"FAIL: merge stdout missing {name!r}")
    report = json.loads(manifest_path.read_text())["queue"]
    if report["steals"] < 1:
        raise SystemExit(f"FAIL: no steal-on-stale recorded: {report}")


def checkpoint_outputs(run_dir: Path) -> dict[str, str]:
    out = {}
    for path in sorted((run_dir / "experiments").glob("*.json")):
        record = json.loads(path.read_text())
        out[record["name"]] = record["output"]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--experiments", default="table18,labeling",
        help="comma-separated pair; the FIRST one's worker gets killed",
    )
    parser.add_argument(
        "--workdir", default=None,
        help="working directory (default: a fresh temp dir, removed on success)",
    )
    args = parser.parse_args(argv)

    experiments = args.experiments.split(",")
    kill_target = experiments[0]
    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="chaos-smoke-"))
    workdir.mkdir(parents=True, exist_ok=True)
    run_ref, run_chaos = workdir / "run-ref", workdir / "run-chaos"
    cache_ref, cache_chaos = workdir / "cache-ref", workdir / "cache-chaos"

    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps({
        "seed": 0,
        "rules": [
            # Every attempt dies -> restarts exhaust -> loud failure record.
            {"point": "worker.run", "mode": "kill",
             "match": {"experiment": kill_target}},
            # First artifact stored (the corpus) is bit-rotted on disk.
            {"point": "cache.write", "mode": "corrupt", "on_call": 1},
        ],
    }, indent=2))

    base = [args.experiments, "--scale", str(args.scale),
            "--seed", str(args.seed), "--jobs", "2"]

    print("=== stage 1: fault-free reference run ===", flush=True)
    run_bench([*base, "--run-dir", str(run_ref),
               "--cache-dir", str(cache_ref)])
    reference = checkpoint_outputs(run_ref)
    if sorted(reference) != sorted(experiments):
        raise SystemExit(f"FAIL: reference checkpointed {sorted(reference)}")

    print("=== stage 2: chaos run (worker killed, cache poisoned) ===",
          flush=True)
    chaos = run_bench(
        [*base, "--run-dir", str(run_chaos), "--cache-dir", str(cache_chaos),
         "--fault-plan", str(plan_path), "--max-worker-restarts", "1"],
        expect_rc=None,
    )
    if chaos.returncode == 0:
        raise SystemExit("FAIL: chaos run exited 0 despite a killed worker")
    if f"######## {kill_target} FAILED ########" not in chaos.stdout:
        raise SystemExit("FAIL: chaos run did not report the failed experiment")
    if "experiment(s) failed" not in chaos.stderr:
        raise SystemExit("FAIL: chaos run printed no per-experiment error summary")
    partial = checkpoint_outputs(run_chaos)
    if kill_target in partial:
        raise SystemExit(f"FAIL: killed experiment {kill_target!r} was checkpointed")

    print("=== stage 3: fault-free --resume run ===", flush=True)
    resume = run_bench(
        [*base, "--run-dir", str(run_chaos), "--cache-dir", str(cache_chaos),
         "--resume"],
    )

    print("=== stage 4: verify recovery ===", flush=True)
    recovered = checkpoint_outputs(run_chaos)
    for name in experiments:
        if recovered.get(name) != reference[name]:
            raise SystemExit(
                f"FAIL: {name!r} output after resume differs from the "
                f"fault-free reference"
            )
    quarantined = list((cache_chaos / "quarantine").glob("*.pkl"))
    if not quarantined:
        raise SystemExit(
            "FAIL: poisoned cache entry was never quarantined on resume"
        )
    for name in experiments:
        if f"######## {name} (" not in resume.stdout:
            raise SystemExit(f"FAIL: resume run stdout missing {name!r}")

    print("=== stage 5: serial run SIGKILLed, then --resume ===", flush=True)
    serial_stage(workdir, experiments, reference, cache_ref,
                 args.scale, args.seed)

    print("=== stage 6: streamed ingestion under csv.read_chunk chaos ===",
          flush=True)
    stream_stage(workdir)

    print("=== stage 7: distributed queue workers under SIGKILL chaos ===",
          flush=True)
    queue_stage(workdir, experiments, reference, cache_ref,
                args.scale, args.seed)

    print(f"chaos smoke OK: {len(experiments)} experiments recovered, "
          f"{len(quarantined)} cache entr{'y' if len(quarantined) == 1 else 'ies'} "
          f"quarantined")
    if args.workdir is None:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
