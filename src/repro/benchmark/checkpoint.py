"""Checkpoint/resume records for ``repro-bench all`` runs.

A run pointed at ``--run-dir DIR`` records each completed experiment as one
small JSON file under ``DIR/experiments/`` the moment it finishes.  Records
are written atomically (temp file + ``os.replace`` via
:func:`repro.obs.export.write_json`), so a crash — or a chaos plan killing
the whole process — can never leave a half-written record: an experiment is
either durably complete or not recorded at all.

``repro-bench all --run-dir DIR --resume`` then reloads the records and
skips the completed experiments, replaying their stored output verbatim so
the rendered run is byte-identical to an uninterrupted one.

Sharded experiments additionally checkpoint each completed *sub-task*
under ``DIR/shards/<experiment>/`` (:meth:`RunCheckpoint.record_shard`).
A resumed run reloads them with :meth:`RunCheckpoint.completed_shards`,
which validates that each record's stored parent experiment matches the
directory it was found in — a record that disagrees (hand-moved files,
colliding sanitized names) is discarded with a
``checkpoint.shard_misattributed`` warning rather than letting one
experiment resume from another's payloads.

Distributed runs (:mod:`repro.benchmark.queue`) add **attempt fencing**:
both writers accept an optional ``fence`` callable, evaluated immediately
before the atomic write.  A writer whose lease was stolen while it was
busy — a zombie — fails its fence, the write is skipped, and the event is
counted as ``checkpoint.stale_attempt``; the stealer's record (same bytes,
higher attempt) is the one that lands.  Writers also stamp the owning
worker id into the record so the merged run's provenance names who
produced each shard.
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
        resume needs to replay the run: the rendered output plus timing
        provenance.  When ``fence`` is given it is consulted immediately
        before the write; a False verdict (the writer's lease was stolen)
        skips the write, counts ``checkpoint.stale_attempt``, and returns
        False.
        """
        stored = {
            "schema": SCHEMA,
            "name": rec["name"],
            "output": rec["output"],
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
        return self._load(path)

    def _load(self, path: Path) -> dict | None:
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

    def completed(self) -> dict[str, dict]:
        """name → stored record for every valid completion record on disk.

        Records that fail to parse (torn by an older non-atomic writer, or
        from a different schema) are skipped with a warning — the worst
        case is rerunning an experiment, never trusting garbage.
        """
        out: dict[str, dict] = {}
        if not self.experiments_dir.is_dir():
            return out
        for path in sorted(self.experiments_dir.glob("*.json")):
            stored = self._load(path)
            if stored is not None:
                out[stored["name"]] = stored
        return out

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

    def completed_shards(self, experiment: str) -> dict[str, object]:
        """shard id → payload for the experiment's durable sub-tasks.

        Only load run dirs you produced yourself — payloads are pickles.
        Invalid records degrade to "not completed" (the shard reruns);
        records whose stored parent experiment disagrees with the directory
        they sit in are *discarded* and counted as
        ``checkpoint.shard_misattributed`` — replaying them would graft one
        experiment's payloads onto another.
        """
        return {
            shard_id: rec["payload"]
            for shard_id, rec in self.completed_shard_records(experiment).items()
        }

    def completed_shard_records(self, experiment: str) -> dict[str, dict]:
        """shard id → ``{"payload": obj, "meta": {...}}`` with validation.

        Same checksum/parent-attribution gauntlet as
        :meth:`completed_shards`, but also surfaces each record's timing
        and ownership metadata so a merging coordinator can aggregate
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
