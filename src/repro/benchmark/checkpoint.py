"""Checkpoint records for ``repro-bench`` runs: the run dir's results.

Every ``repro-bench`` run keeps a work queue (:mod:`repro.benchmark.queue`)
in ``--run-dir DIR`` or a temporary dir.  Each completed monolithic
experiment, and each sharded experiment once merged, is one small JSON
record under ``DIR/experiments/``; each completed shard of a sharded
experiment is one under ``DIR/shards/<experiment>/``
(:meth:`RunCheckpoint.record_shard`).  Records are written atomically
(temp file + ``os.replace`` via :func:`repro.obs.export.write_json`), so a
crash — or a chaos plan killing the whole process — can never leave a
half-written record: a task is either durably complete or not recorded at
all.

``repro-bench … --run-dir DIR --resume`` then skips the completed tasks:
an experiment record is replayed verbatim (:meth:`RunCheckpoint.load`), so
the rendered run is byte-identical to an uninterrupted one, and a sharded
experiment with no merged record re-runs only its missing shards.  Shard
records are reloaded with :meth:`RunCheckpoint.completed_shard_records`,
which validates each payload's checksum and that the record's stored
parent experiment matches the directory it was found in — a record that
disagrees (hand-moved files, colliding sanitized names) is discarded with
a ``checkpoint.shard_misattributed`` warning rather than letting one
experiment resume from another's payloads.

The queue adds **attempt fencing**: both writers accept an optional
``fence`` callable, evaluated immediately before the atomic write.  A
writer whose lease was stolen while it was busy — a zombie — fails its
fence, the write is skipped, and the event is counted as
``checkpoint.stale_attempt``; the stealer's record (same bytes, higher
attempt) is the one that lands.  Writers also stamp the owning worker id
into the record so the merged run's provenance names who produced each
shard.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import re
from pathlib import Path

from repro.obs import telemetry
from repro.obs.export import write_json

#: Bumped if the record layout changes incompatibly; mismatched records are
#: ignored (the experiment simply reruns) rather than misread.
SCHEMA = 1


def _safe_component(name: str) -> str:
    """A filesystem-safe, collision-resistant file stem for a shard id.

    Shard ids may contain path separators (``"logreg/fold0"``) or any other
    punctuation; sanitizing can alias distinct ids, so a short digest of
    the raw id keeps stems unique.
    """
    stem = re.sub(r"[^A-Za-z0-9._-]", "_", name)
    digest = hashlib.sha1(name.encode("utf-8")).hexdigest()[:8]
    return f"{stem}-{digest}"


class RunCheckpoint:
    """Per-experiment completion records under ``<run_dir>/experiments/``."""

    def __init__(self, run_dir: str | os.PathLike):
        self.run_dir = Path(run_dir)

    @property
    def experiments_dir(self) -> Path:
        return self.run_dir / "experiments"

    def path(self, name: str) -> Path:
        return self.experiments_dir / f"{name}.json"

    @property
    def shards_dir(self) -> Path:
        return self.run_dir / "shards"

    def shard_dir(self, experiment: str) -> Path:
        return self.shards_dir / _safe_component(experiment)

    def shard_path(self, experiment: str, shard_id: str) -> Path:
        return self.shard_dir(experiment) / f"{_safe_component(shard_id)}.json"

    def record(self, rec: dict, *, fence=None) -> bool:
        """Durably mark one experiment complete (atomic write).

        ``rec`` is a run's result record; the stored subset is what
        resume needs to replay the run: the rendered output, the paper
        shapes it breaks, and timing provenance.  When ``fence`` is given
        it is consulted immediately before the write; a False verdict (the
        writer's lease was stolen) skips the write, counts
        ``checkpoint.stale_attempt``, and returns False.
        """
        stored = {
            "schema": SCHEMA,
            "name": rec["name"],
            "output": rec["output"],
            "shape_failures": rec.get("shape_failures", []),
            "wall_s": rec.get("wall_s"),
            "cpu_s": rec.get("cpu_s"),
            "pid": rec.get("pid"),
            "attempt": rec.get("attempt", 0),
            # Provenance link into the run's trace (additive; schema stays
            # unchanged — older readers ignore unknown keys).
            "trace_id": rec.get("trace_id"),
            "owner": rec.get("owner"),
        }
        if fence is not None and not fence():
            telemetry.count("checkpoint.stale_attempt")
            telemetry.warning(
                "checkpoint.stale_attempt",
                name=rec["name"], attempt=rec.get("attempt", 0),
                owner=rec.get("owner"),
            )
            return False
        self.experiments_dir.mkdir(parents=True, exist_ok=True)
        write_json(str(self.path(rec["name"])), stored)
        telemetry.count("checkpoint.recorded")
        return True

    def load(self, name: str) -> dict | None:
        """The stored record for one experiment, or None when it is absent
        or invalid (an invalid record is counted and warned about)."""
        path = self.path(name)
        if not path.is_file():
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                stored = json.load(handle)
            if stored.get("schema") != SCHEMA or "output" not in stored:
                raise ValueError(f"unrecognized record schema in {path}")
        except (OSError, ValueError) as exc:
            telemetry.count("checkpoint.invalid")
            telemetry.warning(
                "checkpoint.record_invalid", path=str(path), error=str(exc)
            )
            return None
        return stored

    def record_shard(self, experiment: str, shard_id: str, payload,
                     meta: dict | None = None, *, fence=None) -> bool:
        """Durably mark one sub-task complete (atomic write).

        The payload (an arbitrary picklable object) is stored pickled +
        base64 with a sha256 checksum, tagged with the *parent experiment
        name* so resume can detect records that landed under the wrong
        experiment's directory.  ``fence`` behaves as in :meth:`record`:
        a stolen-lease writer's late record is skipped (returns False)
        and counted as ``checkpoint.stale_attempt``.
        """
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        stored = {
            "schema": SCHEMA,
            "experiment": experiment,
            "shard": shard_id,
            "payload": base64.b64encode(blob).decode("ascii"),
            "payload_sha256": hashlib.sha256(blob).hexdigest(),
        }
        if meta:
            stored.update(meta)
        if fence is not None and not fence():
            telemetry.count("checkpoint.stale_attempt")
            telemetry.warning(
                "checkpoint.stale_attempt",
                experiment=experiment, shard=shard_id,
                attempt=stored.get("attempt"), owner=stored.get("owner"),
            )
            return False
        path = self.shard_path(experiment, shard_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_json(str(path), stored)
        telemetry.count("checkpoint.shard_recorded")
        return True

    _SHARD_META_KEYS = (
        "wall_s", "cpu_s", "pid", "attempt", "owner", "trace_id"
    )

    def completed_shard_records(self, experiment: str) -> dict[str, dict]:
        """shard id → ``{"payload": obj, "meta": {...}}`` for the
        experiment's durable sub-tasks.

        Only load run dirs you produced yourself — payloads are pickles.
        Invalid records (torn, or a payload whose sha256 disagrees) degrade
        to "not completed" (the shard reruns); records whose stored parent
        experiment disagrees with the directory they sit in are *discarded*
        and counted as ``checkpoint.shard_misattributed`` — replaying them
        would graft one experiment's payloads onto another.  ``meta`` holds
        each record's timing and ownership, so the merge can aggregate
        wall/cpu time and attempt provenance across workers.
        """
        out: dict[str, dict] = {}
        shard_dir = self.shard_dir(experiment)
        if not shard_dir.is_dir():
            return out
        for path in sorted(shard_dir.glob("*.json")):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    stored = json.load(handle)
                if stored.get("schema") != SCHEMA or "payload" not in stored:
                    raise ValueError(f"unrecognized shard record schema in {path}")
                blob = base64.b64decode(stored["payload"].encode("ascii"))
                if hashlib.sha256(blob).hexdigest() != stored.get("payload_sha256"):
                    raise ValueError(f"shard payload checksum mismatch in {path}")
            except (OSError, ValueError, KeyError) as exc:
                telemetry.count("checkpoint.invalid")
                telemetry.warning(
                    "checkpoint.shard_record_invalid",
                    path=str(path), error=str(exc),
                )
                continue
            if stored.get("experiment") != experiment:
                telemetry.count("checkpoint.shard_misattributed")
                telemetry.warning(
                    "checkpoint.shard_misattributed",
                    path=str(path), expected=experiment,
                    found=stored.get("experiment"),
                )
                continue
            out[stored["shard"]] = {
                "payload": pickle.loads(blob),
                "meta": {
                    key: stored.get(key) for key in self._SHARD_META_KEYS
                },
            }
        return out
