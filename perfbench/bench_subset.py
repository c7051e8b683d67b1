"""bench-subset: ``repro-bench table1,tuning,table18 --scale 300`` with no
artifact cache, serially and with ``--jobs 2``.

Corpus generation, corpus featurization, model fits and the fork scheduler
dominate, with no HTTP and no large ingestion.  The cache is off because a
warm cache measures only cache hits, and its keys change with the code.

Timed pass (``--trace 0``):
  op_ms            wall of the serial run
  op_alt_ms        wall of the ``--jobs 2`` run
  throughput_per_s experiments completed per second over both runs
  peak_rss_mb      serial run; alt_peak_rss_mb: ``--jobs 2`` run (largest
                   process of its tree)
  setup_s          ``repro-bench table18 --scale 300`` (median of 3): start-up
                   plus the cheapest experiment

Traced pass (``--trace 1``): a plain serial run, then serial and ``--jobs 2``
runs under the benchmark's wrapper (traced.py), which times corpus
generation and featurization, each estimator kind's ``fit``, ``warm_up`` and
every experiment or shard a worker runs.
"""

from __future__ import annotations

import re
import time

import common
from common import BenchError, Outcome, say

EXPERIMENTS = ("table1", "tuning", "table18")
SCALE = "300"
SETUP_RUNS = 3
FIT_KINDS = ("rf", "logreg", "cnn")
_WALL_HEADER = re.compile(r"^(######## \S+ )\(\d+(?:\.\d+)?s\)( ########)$",
                          re.MULTILINE)


def masked(text: str) -> str:
    """Output with the ``(N.Ns)`` timing of each experiment header masked."""
    return _WALL_HEADER.sub(r"\1(-)\2", text)


def _bench(run, seed: int, jobs: int, out_name: str, traced=None):
    args = [",".join(EXPERIMENTS), "--scale", SCALE, "--seed", str(seed),
            "--no-cache"]
    if jobs > 1:
        args += ["--jobs", str(jobs)]
    if traced is not None:
        argv = common.bench_script("traced.py", str(traced), "bench", *args)
    else:
        argv = common.python_module("repro.benchmark.runner", *args)
    out = run.path / out_name
    child = common.run_child(argv, run.env, out_path=out)
    return child, out.read_text(encoding="utf-8")


def _goldens(run, outcome: Outcome) -> None:
    """The strict goldens gate (recorded for scale 300, seed 1), untimed."""
    child = common.run_child(
        common.python_module("repro.benchmark.runner", "goldens", "check",
                             "--scale", SCALE, "--seed", "1", "--strict"),
        run.env, out_path=run.path / "goldens.txt",
    )
    outcome.op(child.returncode == 0,
               f"goldens check --strict exited {child.returncode}")


def _check_same(outcome: Outcome, reference: str, other: str, what: str):
    if masked(other) != masked(reference):
        outcome.op(False, f"{what} output differs from the serial run")


def run_timed(run, seed: int, seconds: float, outcome: Outcome) -> None:
    setups = []
    for _ in range(SETUP_RUNS):
        child = common.run_child(
            common.python_module("repro.benchmark.runner", "table18",
                                 "--scale", SCALE, "--no-cache"),
            run.env,
        )
        outcome.op(child.returncode == 0,
                   f"repro-bench table18 exited {child.returncode}")
        setups.append(child.wall_s)

    runs = {1: [], 2: []}
    reference = None
    start = time.perf_counter()
    while not runs[2] or time.perf_counter() - start < seconds:
        for jobs in (1, 2):
            child, text = _bench(run, seed, jobs, f"jobs{jobs}.txt")
            outcome.op(child.returncode == 0,
                       f"repro-bench --jobs {jobs} exited {child.returncode}")
            runs[jobs].append(child)
            if reference is None:
                reference = text
            else:
                _check_same(outcome, reference, text, f"--jobs {jobs}")
    _goldens(run, outcome)

    serial_s = common.median([c.wall_s for c in runs[1]])
    jobs2_s = common.median([c.wall_s for c in runs[2]])
    every = runs[1] + runs[2]
    say(f"bench-subset: {len(every)} runs of {','.join(EXPERIMENTS)} "
        f"--scale {SCALE} --seed {seed}")
    say(f"bench_serial_s = {serial_s:.3f} s")
    say(f"bench_jobs2_s = {jobs2_s:.3f} s")
    say(f"setup_s = {common.median(setups):.3f} s (repro-bench table18 "
        f"--scale {SCALE}; median of {len(setups)})")
    outcome.metric("op_ms", 1000.0 * serial_s)
    outcome.metric("op_alt_ms", 1000.0 * jobs2_s)
    outcome.metric("throughput_per_s", len(EXPERIMENTS) * len(every) / sum(
        c.wall_s for c in every))
    outcome.metric("peak_rss_mb", common.median(
        [c.peak_rss_mb for c in runs[1]]))
    outcome.metric("alt_peak_rss_mb", common.median(
        [c.peak_rss_mb for c in runs[2]]))
    outcome.metric("setup_s", common.median(setups))


def traced_layers(run, seed: int, outcome: Outcome,
                  reference: str | None = None):
    """Serial and ``--jobs 2`` runs under the benchmark's wrapper: the
    per-layer seconds of corpus generation, fits, warm-up, experiments and
    idle workers, plus the traced serial run's wall.  Outputs must match
    ``reference`` (or the traced serial run), and the strict goldens gate
    must pass."""
    serial_file = run.path / "serial.jsonl"
    jobs_file = run.path / "jobs2.jsonl"
    serial, text = _bench(run, seed, 1, "serial.txt", traced=serial_file)
    outcome.op(serial.returncode == 0,
               f"traced repro-bench exited {serial.returncode}")
    if reference is None:
        reference = text
    else:
        _check_same(outcome, reference, text, "traced serial")
    jobs, text = _bench(run, seed, 2, "jobs2.txt", traced=jobs_file)
    outcome.op(jobs.returncode == 0,
               f"traced repro-bench --jobs 2 exited {jobs.returncode}")
    _check_same(outcome, reference, text, "traced --jobs 2")
    _goldens(run, outcome)

    records = common.read_jsonl(serial_file)
    def total(layer, rows=records):
        return sum(r["s"] for r in rows if r["layer"] == layer)
    layers = {
        f"models.fit_s.{kind}": total(f"models.fit.{kind}")
        for kind in FIT_KINDS
    }
    profile_s = total("featurize.corpus_profile")
    layers["featurize.corpus_profile_s"] = profile_s
    layers["datagen.corpus_s"] = total("datagen.corpus") - profile_s
    for name in EXPERIMENTS:
        layers[f"runner.experiment_s.{name}"] = sum(
            r["s"] for r in records
            if r["layer"] == "runner.experiment" and r["name"] == name)

    parallel = common.read_jsonl(jobs_file)
    main = [r for r in parallel if r["layer"] == "main"]
    if len(main) != 1:
        raise BenchError("traced --jobs 2 run recorded no main wall")
    parent = main[0]["pid"]
    warmup = total("parallel.warmup", parallel)
    tasks = sum(
        r["s"] for r in parallel
        if r["layer"] in ("runner.experiment", "runner.shard")
        and r["pid"] != parent
    )
    if not warmup or not tasks:
        raise BenchError("traced --jobs 2 run recorded no warm-up or tasks")
    layers["parallel.warmup_s"] = warmup
    layers["parallel.idle_worker_s"] = 2 * (main[0]["s"] - warmup) - tasks
    say(f"bench-subset traced: serial {serial.wall_s:.2f} s, --jobs 2 "
        f"{jobs.wall_s:.2f} s")
    return layers, serial.wall_s


def run_traced(run, seed: int, seconds: float, outcome: Outcome) -> None:
    plain, reference = _bench(run, seed, 1, "plain.txt")
    outcome.op(plain.returncode == 0, f"repro-bench exited {plain.returncode}")
    layers, traced_s = traced_layers(run, seed, outcome, reference)
    layers["obs.trace_overhead_pct"] = (
        100.0 * (traced_s - plain.wall_s) / plain.wall_s
    )
    for name, value in layers.items():
        outcome.metric(name, value)
