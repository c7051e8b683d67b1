"""Advisory cross-process file lock built on :mod:`repro.lease`.

A tiny context manager for mutating cache maintenance:
``ArtifactCache.prune`` must not race a sibling worker's prune when N
``repro-bench work`` processes (or N ``repro-serve`` nodes) share one
artifact directory.

Acquisition is one lease create of ``<name>.lock``; the holder heartbeats
the file's mtime, and a contender may break a lock whose mtime is older
than the stale window (the holder crashed without unlinking).  Breaking is
unlink-then-retry: the racing contenders then fight over one exclusive
create again, so exactly one wins.

This is *advisory*: only callers that take the lock are excluded.  Reads
(:meth:`ArtifactCache.get`) stay lock-free — entry checksums already make
torn reads safe, and a reader racing a prune just sees a miss.
"""

from __future__ import annotations

import os
import socket
import time

from repro import lease
from repro.obs import telemetry

DEFAULT_STALE_S = 30.0
DEFAULT_HEARTBEAT_S = 1.0
_RETRY_S = 0.1


class LockTimeout(RuntimeError):
    """The lock could not be acquired within the caller's deadline."""


class FileLock:
    """Advisory exclusive lock at ``path``, stealable when stale.

    Usage::

        with FileLock(cache.root / "prune.lock"):
            ...  # exclusive among cooperating processes
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        stale_after_s: float = DEFAULT_STALE_S,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        timeout_s: float | None = None,
    ):
        self._lease = lease.Lease(path)
        self.path = self._lease.path
        self.stale_after_s = stale_after_s
        self.heartbeat_s = heartbeat_s
        self.timeout_s = timeout_s

    @property
    def held(self) -> bool:
        return self._lease.heartbeating

    def acquire(self) -> "FileLock":
        deadline = (
            None if self.timeout_s is None
            else time.monotonic() + self.timeout_s
        )
        body = {"pid": os.getpid(), "host": socket.gethostname()}
        while not self._lease.create({**body, "acquired_at": time.time()}):
            if self._break_if_stale():
                continue  # stolen: retry the exclusive create immediately
            if deadline is not None and time.monotonic() > deadline:
                raise LockTimeout(
                    f"could not acquire {self.path} within "
                    f"{self.timeout_s:.0f}s (held by a live process)"
                )
            time.sleep(_RETRY_S)
        self._lease.start_heartbeat(self.heartbeat_s)
        telemetry.count("lock.acquired")
        return self

    def _break_if_stale(self) -> bool:
        age = lease.age_s(self.path)
        if age is None:
            return True  # holder released between create and stat: retry
        if age <= self.stale_after_s:
            return False
        # The holder has not heartbeated for the whole stale window: it is
        # dead.  Unlink and let every contender race one exclusive create.
        try:
            self.path.unlink()
        except OSError:
            pass
        telemetry.count("lock.stolen")
        telemetry.warning(
            "lock.stale_broken", path=str(self.path), stale_s=round(age, 1)
        )
        return True

    def release(self) -> None:
        self._lease.release()
        telemetry.count("lock.released")

    def __enter__(self) -> "FileLock":
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()
