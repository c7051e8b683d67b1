"""JSON run manifests: the machine-readable record of one reproduction run.

A manifest captures everything needed to cite (or re-run) a benchmark
invocation: command + arguments, seed and corpus scale, git SHA, interpreter
and platform, per-experiment wall times, the aggregated span breakdown, and
the full metrics snapshot.  ``repro-bench all --manifest run.json`` writes
one; ``repro-obs trend old.json new.json`` diffs two of them per experiment
and per span.
"""

from __future__ import annotations

import platform
import subprocess
import sys
import time

from repro.obs.export import spans_summary, write_json

MANIFEST_SCHEMA_VERSION = 1


def git_sha(cwd: str | None = None) -> str | None:
    """Current git commit SHA, or None outside a repo / without git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


class RunManifest:
    """Accumulates one run's provenance and timings, then writes JSON."""

    def __init__(
        self,
        command: str,
        argv: list[str] | None = None,
        seed: int | None = None,
        scale: int | None = None,
        **extra,
    ):
        self.command = command
        self.argv = list(argv) if argv is not None else None
        self.seed = seed
        self.scale = scale
        self.extra = extra
        self.started_at = time.time()
        self.finished_at: float | None = None
        self.experiments: list[dict] = []
        self.spans: dict = {}
        self.metrics: dict = {}
        self.trace_id: str | None = None
        self.spans_dropped: int = 0

    def add_experiment(self, name: str, wall_s: float, **fields) -> None:
        self.experiments.append({"name": name, "wall_s": wall_s, **fields})

    def finalize(self, telemetry=None) -> "RunManifest":
        """Stamp the end time and snapshot the telemetry singleton's state."""
        self.finished_at = time.time()
        if telemetry is not None:
            self.spans = spans_summary(telemetry.spans)
            self.metrics = telemetry.metrics.snapshot()
            self.spans_dropped = telemetry.tracer.dropped
            if self.trace_id is None:
                for record in telemetry.spans:
                    if record.trace_id is not None:
                        self.trace_id = record.trace_id
                        break
        return self

    def to_dict(self) -> dict:
        finished = (
            self.finished_at if self.finished_at is not None else time.time()
        )
        out = {
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "command": self.command,
            "argv": self.argv,
            "seed": self.seed,
            "scale": self.scale,
            "git_sha": git_sha(),
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "started_at": self.started_at,
            "finished_at": finished,
            "wall_s": finished - self.started_at,
            "experiments": self.experiments,
            "spans": self.spans,
            "metrics": self.metrics,
            "trace_id": self.trace_id,
            "spans_dropped": self.spans_dropped,
        }
        out.update(self.extra)
        return out

    def write(self, path: str) -> dict:
        """Write the manifest JSON; returns the written dict."""
        payload = self.to_dict()
        write_json(path, payload)
        return payload
