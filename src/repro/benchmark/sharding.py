"""Shardable experiments: decompose heavy experiments into sub-tasks.

Scheduling whole experiments leaves warm-cache wall time dominated by the
monolithic heavy experiments (``table15``, ``downstream``, ``tuning``) —
one worker grinds through 16–30 independent (dataset × model × fold)
cells while the other workers idle.  These suites
are embarrassingly parallel at the cell grain: every cell seeds its own
RNGs, so the cells can run anywhere in any order as long as the merge is
deterministic.

A :class:`Shardable` declares that decomposition:

* :meth:`~Shardable.shard_ids` — the canonical, ordered list of sub-task
  ids (one per cell; stable across runs for a given seed/scale);
* :meth:`~Shardable.run_shard` — compute one cell; the returned payload
  must be picklable (it is checkpointed, pickled, under the run dir, where
  the merge reads it back);
* :meth:`~Shardable.merge` — fold the ``{shard_id: payload}`` mapping back
  into the experiment's rendered output.  Merge MUST be a pure function of
  the payload *values* (never of completion order), so sharded output is
  byte-identical to a serial run at any ``--jobs``.

Tracing: ``--jobs`` workers are forked after the runner installs the run's
:class:`~repro.obs.context.TraceContext` as the process default, so every
``queue.task`` span (and everything beneath it) carries the run's
trace_id; each worker writes its task's spans to a per-attempt file that
the parent ingests into its tracer, the run manifest, and ``--trace-out``.

The serial experiment entry points (``run_table15``,
``run_downstream_experiment``, ``run_tuning``) are themselves implemented
as "run every shard in canonical order, then merge", so the serial and
sharded paths share one code path and parity holds by construction —
``tests/test_shard_parity.py`` locks this down differentially.

Registration is lazy (module path + attribute) so importing this module
does not pull in the heavy experiment modules; the registry is consulted
by :func:`repro.benchmark.queue.expand_tasks`, which turns the run's
experiments into queue tasks for ``--jobs`` and ``repro-bench work``.
"""

from __future__ import annotations

import importlib
from abc import ABC, abstractmethod
from functools import lru_cache
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:  # pragma: no cover
    from repro.benchmark.context import BenchmarkContext


class Shardable(ABC):
    """One heavy experiment's decomposition into seeded sub-tasks."""

    #: The experiment's registry name (must match ``EXPERIMENTS``).
    name: str

    @abstractmethod
    def shard_ids(self, context: "BenchmarkContext") -> list[str]:
        """Canonical ordered sub-task ids for this context."""

    @abstractmethod
    def run_shard(self, context: "BenchmarkContext", shard_id: str):
        """Compute one sub-task; the payload must be picklable."""

    @abstractmethod
    def merge(
        self, context: "BenchmarkContext", shards: Mapping[str, object]
    ) -> str:
        """Deterministically fold shard payloads into the rendered output."""


#: experiment name → (module, attribute) of its Shardable class.  Lazy so
#: that consulting the registry never imports an experiment module.
_SHARDABLE_FACTORIES: dict[str, tuple[str, str]] = {
    "table15": ("repro.benchmark.table15", "Table15Shards"),
    "downstream": ("repro.benchmark.downstream_exp", "DownstreamShards"),
    "tuning": ("repro.benchmark.tuning_exp", "TuningShards"),
}


def is_shardable(name: str) -> bool:
    """True when the named experiment declares a shard decomposition."""
    return name in _SHARDABLE_FACTORIES


def shardable_names() -> list[str]:
    return list(_SHARDABLE_FACTORIES)


@lru_cache(maxsize=None)
def get_shardable(name: str) -> Shardable | None:
    """The Shardable instance for an experiment, or None if monolithic."""
    try:
        module_name, attribute = _SHARDABLE_FACTORIES[name]
    except KeyError:
        return None
    module = importlib.import_module(module_name)
    shardable = getattr(module, attribute)()
    if shardable.name != name:
        raise ValueError(
            f"shardable {module_name}.{attribute} declares name "
            f"{shardable.name!r}, registered as {name!r}"
        )
    return shardable
