"""Shared plumbing for the repository benchmark.

Everything here runs in the benchmark's own processes: locating the source
tree, launching the program's CLIs as child processes with a private temp
dir, measuring each child's peak RSS, building the untimed fixtures, and
summarising samples.  Nothing in this module adds spans or counters to the
program under test.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Everything the benchmark writes lives under this ignored directory.
WORK = ROOT / ".perfbench"

#: Training knobs of the served/loaded artifacts (those of
#: scripts/bench_serve.py).
TRAIN_EXAMPLES = 600
TRAIN_TREES = 25
TRAIN_SEED = 0


class BenchError(RuntimeError):
    """A condition that makes the whole run invalid (no result printed)."""


def require_source_tree() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source under {SRC}")
    sys.path.insert(0, str(SRC))


def child_env(tmpdir: Path) -> dict:
    """Environment for every child: the source tree, a private temp dir, and
    no user-level artifact cache, so runs read and write only the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmpdir)
    env.pop("REPRO_CACHE_DIR", None)
    env.pop("REPRO_FAULTS", None)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class Child:
    """One child process whose exit status and peak RSS are collected with
    ``wait4`` (``ru_maxrss`` covers the child and its reaped descendants)."""

    def __init__(self, argv, env, stdout=None, stderr=None):
        self.argv = list(argv)
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv, env=env, cwd=ROOT,
            stdout=stdout if stdout is not None else subprocess.DEVNULL,
            stderr=stderr if stderr is not None else subprocess.DEVNULL,
            text=True,
        )
        self.returncode: int | None = None
        self.peak_rss_mb = 0.0
        self.wall_s = 0.0

    def wait(self, timeout_s: float = 170.0) -> int:
        """Reap the child (killing it after ``timeout_s``) and record its
        wall time, exit code and peak RSS."""
        expired = threading.Event()

        def expire() -> None:
            expired.set()
            self.proc.kill()

        timer = threading.Timer(timeout_s, expire)
        timer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        except BaseException:
            # Interrupted (SIGTERM to the benchmark): never leave it running.
            self.proc.kill()
            os.waitpid(self.proc.pid, 0)
            raise
        finally:
            timer.cancel()
        self.wall_s = time.perf_counter() - self.started
        self.returncode = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.returncode
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        if expired.is_set():
            raise BenchError(f"timed out: {' '.join(self.argv)}")
        return self.returncode

    def terminate(self, timeout_s: float = 60.0) -> int:
        if self.returncode is None:
            try:
                self.proc.send_signal(signal.SIGTERM)
            except ProcessLookupError:
                pass
            return self.wait(timeout_s)
        return self.returncode


def run_child(argv, env, out_path: Path | None = None,
              timeout_s: float = 170.0) -> Child:
    """Run ``argv`` to completion; stdout goes to ``out_path`` if given."""
    handle = open(out_path, "w") if out_path is not None else None
    try:
        child = Child(argv, env, stdout=handle)
        child.wait(timeout_s)
    finally:
        if handle is not None:
            handle.close()
    return child


def python_module(module: str, *args: str) -> list[str]:
    return [sys.executable, "-m", module, *args]


def bench_script(name: str, *args: str) -> list[str]:
    return [sys.executable, str(BENCH_DIR / name), *args]


# -- fixtures -----------------------------------------------------------------
def source_digest() -> str:
    """Hash of the program's source, so cached fixtures never outlive the
    code that produced them."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def model_fixtures() -> dict[str, Path]:
    """``{"rf": path, "logreg": path}``: artifacts trained on the seed-0
    training corpus with the serve benchmark's knobs.  Built once per source
    tree and kept under ``.perfbench/fixtures`` (never timed)."""
    fixture_dir = WORK / "fixtures" / source_digest()
    paths = {kind: fixture_dir / f"{kind}.model" for kind in ("rf", "logreg")}
    if all(path.is_file() for path in paths.values()):
        return paths
    from repro.core.models import LogRegModel, RandomForestModel
    from repro.core.persistence import save_model
    from repro.datagen.corpus import generate_corpus

    fixture_dir.mkdir(parents=True, exist_ok=True)
    corpus = generate_corpus(n_examples=TRAIN_EXAMPLES, seed=TRAIN_SEED)
    models = {
        "rf": RandomForestModel(
            n_estimators=TRAIN_TREES, random_state=TRAIN_SEED
        ),
        "logreg": LogRegModel(),
    }
    for kind, model in models.items():
        model.fit(corpus.dataset)
        partial = paths[kind].with_suffix(".tmp")
        save_model(model, partial)
        os.replace(partial, paths[kind])
    return paths


class RunDir:
    """A private scratch directory for one benchmark run, removed on exit."""

    def __init__(self, workload: str):
        self.path = WORK / f"run-{workload}-{os.getpid()}"
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        self.tmp = self.path / "tmp"
        self.tmp.mkdir()
        self.env = child_env(self.tmp)

    def __enter__(self) -> "RunDir":
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


# -- statistics ----------------------------------------------------------------
def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of no samples")
    pos = (q / 100.0) * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    if not values:
        raise BenchError("median of no samples")
    return statistics.median(values)


class Outcome:
    """Operations attempted/failed plus the metrics of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, float] = {}

    def op(self, ok: bool, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if problem and len(self.problems) < 20:
                self.problems.append(problem)

    def metric(self, name: str, value: float) -> None:
        self.metrics[name] = float(value)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def report(self, specs: list[dict]) -> dict:
        """The result line: every metric of ``specs`` (BENCHMARK.json
        entries), with the unit declared there."""
        names = [m["name"] for m in specs]
        missing = [name for name in names if name not in self.metrics]
        unknown = sorted(set(self.metrics) - set(names))
        if missing or unknown:
            raise BenchError(f"metrics not measured: {missing}, "
                             f"not in BENCHMARK.json: {unknown}")
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                m["name"]: {"value": self.metrics[m["name"]], "unit": m["unit"]}
                for m in specs
            },
        }


def read_jsonl(path) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle]


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def say(message: str) -> None:
    """Human-readable progress and named metrics, on stdout before the
    final JSON line."""
    print(message, flush=True)
