"""Run one of the program's CLIs with the benchmark's timers around the
public functions of each layer.

Usage::

    python perfbench/traced.py RECORD_FILE infer <repro-infer args...>
    python perfbench/traced.py RECORD_FILE bench <repro-bench args...>

Every timed call appends one JSON line ``{"layer", "s", "pid", ...}`` to
RECORD_FILE the moment it returns.  Appending per call (rather than at
exit) keeps the records of forked ``--jobs`` workers, which never return
through this script.  The program itself is unchanged: the timers are
installed from here, on module attributes, before its ``main`` runs.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

RECORD_FILE = ""


def emit(layer: str, seconds: float, **extra) -> None:
    line = json.dumps({"layer": layer, "s": seconds, "pid": os.getpid(),
                       **extra}) + "\n"
    fd = os.open(RECORD_FILE, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, line.encode())
    finally:
        os.close(fd)


def timed(owner, attribute: str, layer: str, describe=None) -> None:
    """Replace ``owner.attribute`` with a wrapper that emits its wall time
    (once: wrapping an already wrapped attribute is a no-op)."""
    original = getattr(owner, attribute)
    if getattr(original, "perfbench_timed", False):
        return

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            extra = describe(*args, **kwargs) if describe else {}
            emit(layer, time.perf_counter() - start, **extra)

    wrapper.perfbench_timed = True
    setattr(owner, attribute, wrapper)


def timed_iterator(owner, attribute: str, layer: str) -> None:
    """Wrap a generator function so the time spent advancing it is emitted
    once, summed, when it is exhausted or closed."""
    original = getattr(owner, attribute)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        iterator = original(*args, **kwargs)
        spent = 0.0
        try:
            while True:
                start = time.perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    spent += time.perf_counter() - start
                    return
                spent += time.perf_counter() - start
                yield item
        finally:
            emit(layer, spent)

    setattr(owner, attribute, wrapper)


def install_infer() -> None:
    import repro.cli
    import repro.core.pipeline
    import repro.sketch.profiler
    from repro.core.pipeline import TypeInferencePipeline
    from repro.sketch.column import ColumnSketch
    from repro.sketch.profiler import StreamingProfiler

    timed(repro.cli, "load_csv_table", "tabular.read")
    timed(repro.core.pipeline, "profile_table", "featurize.profile")
    timed_iterator(repro.sketch.profiler, "iter_csv_chunks", "tabular.chunk")
    timed(StreamingProfiler, "consume", "sketch.consume")
    timed(StreamingProfiler, "profiles", "sketch.finalize")
    timed(ColumnSketch, "finalize", "sketch.column_finalize",
          describe=lambda sketch, *a, **k: {
              "spilled": bool(sketch.distinct_overflowed)})
    timed(TypeInferencePipeline, "predict_profiles", "models.predict",
          describe=lambda pipeline, profiles, *a, **k: {
              "columns": len(profiles)})


def install_bench() -> None:
    import repro.benchmark.context
    import repro.benchmark.parallel
    import repro.benchmark.runner
    import repro.benchmark.sharding
    import repro.datagen.corpus
    from repro.core.models import CNNModel
    from repro.ml.forest import RandomForestClassifier
    from repro.ml.linear import LogisticRegression

    timed(repro.benchmark.context, "generate_corpus", "datagen.corpus")
    timed(repro.datagen.corpus, "profile_columns", "featurize.corpus_profile")
    timed(RandomForestClassifier, "fit", "models.fit.rf")
    timed(LogisticRegression, "fit", "models.fit.logreg")
    timed(CNNModel, "fit", "models.fit.cnn")
    timed(repro.benchmark.parallel, "warm_up", "parallel.warmup")
    timed(repro.benchmark.runner, "run_experiment", "runner.experiment",
          describe=lambda name, *a, **k: {"name": name})
    get_shardable = repro.benchmark.sharding.get_shardable

    def traced_get_shardable(name):
        shardable = get_shardable(name)
        if shardable is not None:
            timed(shardable, "run_shard", "runner.shard",
                  describe=lambda context, shard_id: {"name": name,
                                                      "shard": shard_id})
        return shardable

    repro.benchmark.sharding.get_shardable = traced_get_shardable


def main() -> int:
    global RECORD_FILE
    RECORD_FILE = sys.argv[1]
    mode, args = sys.argv[2], sys.argv[3:]
    if mode == "infer":
        install_infer()
        from repro.cli import main as program
    elif mode == "bench":
        install_bench()
        from repro.benchmark.runner import main as program
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    start = time.perf_counter()
    code = program(args)
    emit("main", time.perf_counter() - start)
    return code


if __name__ == "__main__":
    sys.exit(main())
