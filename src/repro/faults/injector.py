"""The fault injector: named failure points driven by a :class:`FaultPlan`.

Call sites throughout the stack declare *where* a fault could strike::

    from repro.faults import faults

    faults.point("cache.read", kind=kind, key=key)      # may raise/kill/hang
    payload = faults.corrupt("cache.write", payload)    # may mangle bytes

With no plan installed (the production default) both calls are a single
``is None`` check — no allocation, no locking, no behavior change.  With a
plan active (``--fault-plan plan.json`` or ``$REPRO_FAULT_PLAN``) each call
consults the plan's rules for that point; firing is deterministic given the
plan (seeded RNG / fire-on-Nth-call counters), so a chaos run replays
exactly.  Fired faults are counted (``faults.fired`` /
``faults.fired.<point>``) so they show up in metrics snapshots and run
manifests.

Registered points (see ``docs/robustness.md``):

================  =====================================================
``cache.read``    :meth:`ArtifactCache.get`, before the entry is read
``cache.write``   :meth:`ArtifactCache.put`; ``corrupt`` mangles payload
``csv.read``      :func:`load_csv_table` / :func:`iter_csv_chunks` on a
                  path, once per load, before the file is opened
``csv.read_chunk``  chunked reader (streamed and buffered loads), before
                  each chunk read (ctx: ``source``, ``index``)
``model.load``    :func:`core.persistence.load_model`
``worker.run``    benchmark worker, before its task (ctx:
                  ``experiment``, ``shard``, ``attempt``, ``pid``)
``queue.claim``   work queue, before the exclusive lease create (ctx:
                  ``task``, ``attempt``, ``owner``)
``queue.steal``   work queue, before stealing a stale lease (ctx:
                  ``task``, ``attempt``, ``owner``)
``queue.release`` work queue, before a terminal task's lease is released
                  (ctx: ``task``, ``attempt``, ``owner``)
``serve.accept``  HTTP POST handler (an injected error answers 503)
``serve.respond`` HTTP response writer (an injected error drops the
                  connection mid-response)
``client.request``  :class:`ServeClient` transport, per attempt
================  =====================================================
"""

from __future__ import annotations

import builtins
import os
import random
import signal
import threading
import time

from repro.faults.plan import FaultPlan, FaultRule
from repro.obs import telemetry


class FaultInjectedError(RuntimeError):
    """The default exception raised by ``mode: error`` rules."""


class _RuleState:
    """Mutable firing state for one rule (calls seen, fires spent, RNG)."""

    __slots__ = ("rule", "calls", "fires", "rng")

    def __init__(self, rule: FaultRule, plan_seed: int, index: int):
        self.rule = rule
        self.calls = 0
        self.fires = 0
        self.rng = random.Random(f"{plan_seed}:{index}:{rule.point}")

    def should_fire(self) -> bool:
        """Count one matching call and decide (deterministically) on firing."""
        self.calls += 1
        rule = self.rule
        if rule.max_fires is not None and self.fires >= rule.max_fires:
            return False
        if rule.on_call is not None:
            fire = self.calls == rule.on_call
        elif rule.probability is not None:
            fire = self.rng.random() < rule.probability
        else:
            fire = True
        if fire:
            self.fires += 1
        return fire


class FaultInjector:
    """Process-wide registry of failure points and the active plan."""

    def __init__(self):
        self._plan: FaultPlan | None = None
        self._states: dict[str, list[_RuleState]] = {}
        self._lock = threading.Lock()

    # -- plan lifecycle ------------------------------------------------------
    @property
    def active(self) -> FaultPlan | None:
        return self._plan

    def install(self, plan: FaultPlan) -> None:
        """Activate a plan (replacing any previous one, counters reset)."""
        states: dict[str, list[_RuleState]] = {}
        for index, rule in enumerate(plan.rules):
            states.setdefault(rule.point, []).append(
                _RuleState(rule, plan.seed, index)
            )
        with self._lock:
            self._states = states
            self._plan = plan

    def clear(self) -> None:
        """Deactivate fault injection (back to the zero-overhead path)."""
        with self._lock:
            self._plan = None
            self._states = {}

    # -- injection sites -----------------------------------------------------
    def point(self, name: str, **ctx) -> None:
        """Declare a failure point; may raise, kill, or hang per the plan.

        ``corrupt`` rules are ignored here — they only apply to
        :meth:`corrupt` sites.
        """
        if self._plan is None:
            return
        self._hit(name, ctx, corrupting=False)

    def corrupt(self, name: str, data: bytes) -> bytes:
        """A byte-corruption point: returns ``data``, possibly mangled.

        Only ``mode: corrupt`` rules apply; the transform keeps the first
        half of the payload and appends a garbage tail, simulating a torn
        write / bit rot that a checksum must catch.
        """
        if self._plan is None:
            return data
        if self._hit(name, ctx={}, corrupting=True):
            telemetry.count("faults.corrupted")
            return data[: max(1, len(data) // 2)] + b"\xde\xad\xbe\xef"
        return data

    # -- internals -----------------------------------------------------------
    def _hit(self, name: str, ctx: dict, corrupting: bool) -> bool:
        for state in self._states.get(name, ()):
            rule = state.rule
            if (rule.mode == "corrupt") != corrupting:
                continue
            if not rule.matches(ctx):
                continue
            with self._lock:
                fire = state.should_fire()
            if not fire:
                continue
            telemetry.count("faults.fired")
            telemetry.count(f"faults.fired.{name}")
            telemetry.warning(
                "faults.fired", point=name, mode=rule.mode, **ctx
            )
            if corrupting:
                return True
            self._strike(rule, name, ctx)
        return False

    def _strike(self, rule: FaultRule, name: str, ctx: dict) -> None:
        if rule.mode == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if rule.mode == "hang":
            time.sleep(rule.seconds)
            return
        raise self._make_error(rule, name, ctx)

    @staticmethod
    def _make_error(rule: FaultRule, name: str, ctx: dict) -> BaseException:
        detail = f" ({rule.message})" if rule.message else ""
        message = f"injected fault at {name}{detail}"
        exc_type = getattr(builtins, rule.error, None)
        if isinstance(exc_type, type) and issubclass(exc_type, BaseException):
            try:
                return exc_type(message)
            except TypeError:
                pass  # exceptions needing structured args fall through
        return FaultInjectedError(message)


#: Process-wide singleton every instrumented site imports.
faults = FaultInjector()
