"""Lease files: the one "O_EXCL create + mtime heartbeat + age" primitive.

A lease is a small JSON file.  Acquiring it is one ``O_EXCL`` create, so
exactly one of any number of racing processes wins (on any POSIX
filesystem, and on NFS v3+).  While held, a daemon thread refreshes the
file's mtime every ``interval_s``; a lease whose mtime is older than the
holder's agreed stale window belongs to a dead or wedged holder.

Two users build on it, and neither opens lease files or runs heartbeat
threads of its own:

* :class:`repro.benchmark.queue.WorkQueue` — one lease per task attempt,
  stolen at attempt + 1 when stale (the attempt number is the fence);
* :class:`repro.cache.lock.FileLock` — one lease per lock path, broken
  (unlinked and re-raced) when stale.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path


def age_s(path: str | os.PathLike) -> float | None:
    """Seconds since the lease's last heartbeat; None when it is gone."""
    try:
        return time.time() - os.stat(path).st_mtime
    except OSError:
        return None


def read(path: str | os.PathLike) -> dict | None:
    """The lease's JSON body, or None when it is gone or torn."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def expire(path: str | os.PathLike, stale_after_s: float, **note) -> None:
    """Make a dead holder's lease stale now, recording ``note`` in its body.

    The body is rewritten in place (a lease that is already gone is never
    re-created) and the mtime is aged past ``stale_after_s``, so the next
    contender treats the lease as stale and can read why it was given up.
    """
    try:
        with open(path, "r+", encoding="utf-8") as handle:
            body = json.load(handle)
            body.update(note)
            handle.seek(0)
            handle.truncate()
            json.dump(body, handle)
    except (OSError, ValueError):
        pass
    then = time.time() - stale_after_s - 1.0
    try:
        os.utime(path, (then, then))
    except OSError:
        pass


class Lease:
    """One lease file, acquired with :meth:`create`."""

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self._stop: threading.Event | None = None

    def create(self, body: dict) -> bool:
        """Exclusively create the lease holding ``body``; False if taken."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(
                self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
            )
        except FileExistsError:
            return False
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(body, handle)
        except OSError:
            self.path.unlink(missing_ok=True)
            raise
        return True

    @property
    def heartbeating(self) -> bool:
        return self._stop is not None

    def start_heartbeat(self, interval_s: float) -> None:
        """Refresh the mtime from a daemon thread until stopped."""
        if self._stop is not None:
            return
        stop = threading.Event()
        self._stop = stop
        path = self.path

        def beat() -> None:
            while not stop.wait(interval_s):
                try:
                    os.utime(path)
                except OSError:
                    return  # released, or stolen and cleaned up

        threading.Thread(target=beat, daemon=True, name="lease-heartbeat")\
            .start()

    def stop_heartbeat(self) -> None:
        if self._stop is not None:
            self._stop.set()
            self._stop = None

    def release(self) -> None:
        """Stop heartbeating and remove the lease file."""
        self.stop_heartbeat()
        self.path.unlink(missing_ok=True)
