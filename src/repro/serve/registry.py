"""Multi-model registry: several fingerprinted artifacts resident at once.

The registry owns the service's model lifecycle.  Each named
:class:`ModelEntry` loads in the background — either
``core/persistence.load_model`` on a saved artifact or, for a default entry
with no artifact, ``core/models.train_default_forest`` — while the service
answers requests for a still-loading model with the paper's 11-rule
flowchart baseline marked ``degraded: true``.

Requests route to an entry by name (``X-Repro-Model`` header or
``/v1/models/<name>/infer`` path); ``resolve(None)`` is the default model,
so single-model deployments keep working unchanged.

Zero-downtime hot swap (:meth:`ModelEntry.swap`): the replacement artifact
loads on a background thread while the old model keeps answering; when
resident, the route flips atomically under the entry lock and the entry's
``generation`` bumps.  Batches *lease* the model they run against
(:meth:`ModelEntry.lease`), so the swap can wait for every in-flight batch
of the old generation to finish — the drain — before declaring the old
artifact released.  No request is ever dropped, and once a response carries
the new fingerprint no later-completed response carries the old one (the
batch runner is a single worker, so completions are ordered).

``/healthz`` surfaces every entry with its name, state, fingerprint and
swap generation, so a deployment can be tied to the exact artifact bytes
each route answers with.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.models import (
    DEFAULT_SEED,
    DEFAULT_TRAIN_EXAMPLES,
    DEFAULT_TREES,
    train_default_forest,
)
from repro.core.persistence import (
    fingerprint_model,
    load_model,
    model_fingerprint,
)
from repro.obs import telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.models import TypeInferenceModel

#: Registry key of the entry created by ``ModelRegistry()`` when no model
#: path names it (the train-at-startup path).
DEFAULT_MODEL_NAME = "default"


class UnknownModelError(KeyError):
    """A request named a model the registry does not hold (HTTP 404)."""

    def __init__(self, name: str, known: list[str]):
        super().__init__(name)
        self.name = name
        self.known = list(known)

    def __str__(self) -> str:
        return (
            f"unknown model {self.name!r} "
            f"(registered: {', '.join(self.known) or 'none'})"
        )


class SwapInProgressError(RuntimeError):
    """A swap was requested while another one is still loading (HTTP 409)."""


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters for the default train-at-startup path."""

    n_examples: int = DEFAULT_TRAIN_EXAMPLES
    trees: int = DEFAULT_TREES
    seed: int = DEFAULT_SEED


class SwapHandle:
    """Progress of one hot swap: loaded → flipped → drained (or failed)."""

    def __init__(self, model: str, target_generation: int):
        self.model = model
        self.target_generation = target_generation
        self.error: str | None = None
        self._flipped = threading.Event()
        self._drained = threading.Event()

    @property
    def flipped(self) -> bool:
        return self.error is None and self._flipped.is_set()

    @property
    def drained(self) -> bool:
        return self.error is None and self._drained.is_set()

    @property
    def failed(self) -> bool:
        return self.error is not None

    def wait_flipped(self, timeout: float | None = None) -> bool:
        """Block until the route flipped (or the swap failed); True on flip."""
        self._flipped.wait(timeout=timeout)
        return self.flipped

    def wait_drained(self, timeout: float | None = None) -> bool:
        """Block until the old artifact fully drained; True when it did."""
        self._drained.wait(timeout=timeout)
        return self.drained


class _Lease:
    """One batch's hold on an entry's (model, fingerprint, generation).

    Context manager so the entry can count in-flight uses per generation:
    a swap drains by waiting for every lease of the old generation to be
    released.
    """

    def __init__(self, entry: "ModelEntry"):
        self._entry = entry
        self.model: "TypeInferenceModel | None" = None
        self.fingerprint: str | None = None
        self.generation = 0

    def __enter__(self) -> "_Lease":
        entry = self._entry
        with entry._cv:
            self.model = entry._model
            self.fingerprint = entry.fingerprint
            self.generation = entry.generation
            if self.model is not None:
                entry._inflight[self.generation] = (
                    entry._inflight.get(self.generation, 0) + 1
                )
        return self

    def __exit__(self, *exc_info) -> None:
        entry = self._entry
        if self.model is None:
            return
        with entry._cv:
            count = entry._inflight[self.generation] - 1
            if count:
                entry._inflight[self.generation] = count
            else:
                del entry._inflight[self.generation]
                entry._cv.notify_all()


class ModelEntry:
    """One named, fingerprinted model slot inside the registry.

    States: ``loading`` → ``ready`` | ``failed``; :meth:`describe` reports
    ``draining`` while a superseded generation still has in-flight leases.
    """

    def __init__(
        self,
        name: str,
        model_path: str | None = None,
        train: TrainConfig | None = None,
    ):
        self.name = name
        self.model_path = model_path
        self.train = train or TrainConfig()
        self._model: "TypeInferenceModel | None" = None
        self._cv = threading.Condition()
        self._ready = threading.Event()
        self._thread: threading.Thread | None = None
        self.state = "loading"
        self.fingerprint: str | None = None
        self.source: str | None = None
        self.model_label: str | None = None
        self.error: str | None = None
        self.generation = 0
        self.swap_in_progress = False
        self.last_swap_error: str | None = None
        self._inflight: dict[int, int] = {}

    # -- loading -------------------------------------------------------------
    def load(self, background: bool = True) -> "ModelEntry":
        """Start loading this entry (idempotent, no-op once ready)."""
        with self._cv:
            if self._ready.is_set():
                return self
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._load,
                    name=f"serve-model-loader-{self.name}",
                    daemon=True,
                )
                self._thread.start()
        if not background:
            self._ready.wait()
        return self

    def _load(self) -> None:
        with telemetry.span(
            "serve.model_load", model=self.name, path=self.model_path or ""
        ):
            try:
                model, fingerprint, source = self._load_payload(
                    self.model_path, self.train
                )
            except BaseException as exc:
                with self._cv:
                    self.state = "failed"
                    self.error = f"{type(exc).__name__}: {exc}"
                telemetry.count("serve.model_load_failed")
                telemetry.error(
                    "serve.model_load_failed", model=self.name, error=self.error
                )
                self._ready.set()
                return
        with self._cv:
            self._model = model
            self.state = "ready"
            self.fingerprint = fingerprint
            self.source = source
            self.model_label = getattr(model, "name", type(model).__name__)
        telemetry.count("serve.model_loaded")
        telemetry.info(
            "serve.model_ready", model=self.name, source=source,
            fingerprint=fingerprint[:12],
        )
        self._ready.set()

    def _preload(self, model: "TypeInferenceModel") -> None:
        """Make this not-yet-started entry ready with an in-memory model."""
        self._model = model
        self.state = "ready"
        self.fingerprint = fingerprint_model(model)
        self.source = "preloaded"
        self.model_label = getattr(model, "name", type(model).__name__)
        self._ready.set()

    @staticmethod
    def _load_payload(
        model_path: str | None, train: TrainConfig
    ) -> tuple["TypeInferenceModel", str, str]:
        """(model, fingerprint, source) for an artifact or a startup train."""
        if model_path is not None:
            model = load_model(model_path)
            return model, model_fingerprint(model_path), f"artifact:{model_path}"
        model = train_default_forest(train.n_examples, train.trees, train.seed)
        return model, fingerprint_model(model), "trained"

    # -- access --------------------------------------------------------------
    def wait_ready(self, timeout: float | None = None) -> bool:
        """Block until loading finished (either way); True when ready."""
        self._ready.wait(timeout=timeout)
        return self.state == "ready"

    @property
    def ready(self) -> bool:
        return self.state == "ready"

    def current(self) -> "TypeInferenceModel | None":
        """The resident model, or None while loading / after failure."""
        with self._cv:
            return self._model

    def lease(self) -> _Lease:
        """A context-managed hold on the current (model, fp, generation)."""
        return _Lease(self)

    @property
    def draining(self) -> bool:
        """True while a superseded generation still has in-flight leases."""
        with self._cv:
            return any(gen < self.generation for gen in self._inflight)

    # -- hot swap ------------------------------------------------------------
    def swap(
        self,
        model_path: str | None = None,
        model: "TypeInferenceModel | None" = None,
    ) -> SwapHandle:
        """Replace this entry's artifact (a saved path or an in-memory
        model) with zero downtime.

        The replacement loads on a background thread while the old model
        keeps serving; on success the route flips atomically, ``generation``
        bumps, and the old artifact is released once every in-flight batch
        leased against it has finished.  On a load failure the old model
        keeps serving untouched (``handle.failed``, ``last_swap_error``).
        """
        if model_path is None and model is None:
            raise ValueError("swap() needs a model_path or a model")
        with self._cv:
            if self.swap_in_progress:
                raise SwapInProgressError(
                    f"model {self.name!r} already has a swap loading"
                )
            if self._thread is not None and not self._ready.is_set():
                raise SwapInProgressError(
                    f"model {self.name!r} is still loading its first artifact"
                )
            self.swap_in_progress = True
            handle = SwapHandle(self.name, self.generation + 1)
        thread = threading.Thread(
            target=self._swap_worker,
            args=(handle, model_path, model),
            name=f"serve-model-swap-{self.name}",
            daemon=True,
        )
        thread.start()
        return handle

    def _swap_worker(self, handle: SwapHandle, model_path, model) -> None:
        with telemetry.span(
            "serve.model_swap", model=self.name,
            target_generation=handle.target_generation,
        ):
            try:
                if model is not None:
                    payload = (
                        model, fingerprint_model(model), "swapped (in-memory)"
                    )
                else:
                    payload = self._load_payload(model_path, self.train)
            except BaseException as exc:
                error = f"{type(exc).__name__}: {exc}"
                with self._cv:
                    self.swap_in_progress = False
                    self.last_swap_error = error
                handle.error = error
                telemetry.count("serve.swap_failed")
                telemetry.error(
                    "serve.swap_failed", model=self.name, error=error
                )
                handle._flipped.set()
                handle._drained.set()
                return
            new_model, fingerprint, source = payload
            with self._cv:
                old_fingerprint = self.fingerprint
                self._model = new_model
                self.fingerprint = fingerprint
                self.source = source
                self.model_label = getattr(
                    new_model, "name", type(new_model).__name__
                )
                self.state = "ready"
                self.error = None
                self.last_swap_error = None
                self.generation += 1
                self.swap_in_progress = False
            self._ready.set()
            telemetry.count("serve.swap_flipped")
            telemetry.info(
                "serve.swap_flipped", model=self.name,
                generation=self.generation,
                old_fingerprint=(old_fingerprint or "")[:12],
                fingerprint=fingerprint[:12],
            )
            handle._flipped.set()
            # Drain: wait for every in-flight lease of a superseded
            # generation to be released, then the old artifact is gone.
            with self._cv:
                while any(gen < self.generation for gen in self._inflight):
                    self._cv.wait(timeout=0.5)
            telemetry.count("serve.swap_drained")
            telemetry.info(
                "serve.swap_drained", model=self.name,
                generation=self.generation,
            )
        handle._drained.set()

    # -- status --------------------------------------------------------------
    def describe(self) -> dict:
        """One model block of ``/healthz``: state, fingerprint, swap info."""
        with self._cv:
            state = self.state
            if state == "ready" and any(
                gen < self.generation for gen in self._inflight
            ):
                state = "draining"
            return {
                "state": state,
                "name": self.model_label,
                "source": self.source,
                "fingerprint": self.fingerprint,
                "error": self.error,
                "generation": self.generation,
                "swap_in_progress": self.swap_in_progress,
                "last_swap_error": self.last_swap_error,
            }


class ModelRegistry:
    """Named, fingerprinted model slots with per-request routing.

    ``ModelRegistry(model_path=...)`` / ``ModelRegistry(train=...)`` create
    the *default* entry from a saved artifact or a startup train;
    :meth:`register` adds more resident models, :meth:`resolve` routes a
    request's model name (None → default) to its entry, and
    :meth:`swap` hot-swaps one entry's artifact with zero downtime.
    """

    def __init__(
        self,
        model_path: str | None = None,
        train: TrainConfig | None = None,
        default_name: str | None = None,
    ):
        self.train = train or TrainConfig()
        if default_name is None:
            default_name = (
                os.path.splitext(os.path.basename(model_path))[0]
                if model_path else DEFAULT_MODEL_NAME
            )
        self._lock = threading.Lock()
        self._entries: dict[str, ModelEntry] = {}
        self.default_name = default_name
        self._started = False
        self._entries[default_name] = ModelEntry(
            default_name, model_path=model_path, train=self.train
        )

    @classmethod
    def preloaded(
        cls, model: "TypeInferenceModel", name: str | None = None
    ) -> "ModelRegistry":
        """A registry that is already ``ready`` with an in-memory model.

        For embedding the service in-process (tests, notebooks) without a
        disk artifact or a startup train.
        """
        name = name or getattr(model, "name", type(model).__name__)
        registry = cls(default_name=name)
        registry._started = True
        registry._entries[name]._preload(model)
        return registry

    # -- membership ----------------------------------------------------------
    def register(
        self,
        name: str,
        model_path: str | None = None,
        model: "TypeInferenceModel | None" = None,
    ) -> ModelEntry:
        """Add a named model: a saved artifact, an in-memory model, or
        (neither given) the registry's startup train.  Loads in the
        background once the registry has been started (:meth:`load`)."""
        with self._lock:
            if name in self._entries:
                raise ValueError(
                    f"model {name!r} is already registered; use swap() to "
                    f"replace its artifact"
                )
            entry = ModelEntry(name, model_path=model_path, train=self.train)
            if model is not None:
                entry._preload(model)
            self._entries[name] = entry
            started = self._started
        if started and model is None:
            entry.load()
        telemetry.count("serve.model_registered")
        return entry

    def resolve(self, name: str | None = None) -> ModelEntry:
        """The entry a request routes to (None → the default model)."""
        with self._lock:
            key = name or self.default_name
            try:
                return self._entries[key]
            except KeyError:
                raise UnknownModelError(key, list(self._entries)) from None

    def names(self) -> list[str]:
        with self._lock:
            return list(self._entries)

    def swap(
        self,
        name: str | None = None,
        model_path: str | None = None,
        model: "TypeInferenceModel | None" = None,
    ) -> SwapHandle:
        """Hot-swap one entry's artifact (None → the default model)."""
        return self.resolve(name).swap(model_path=model_path, model=model)

    # -- loading -------------------------------------------------------------
    def load(self, background: bool = True) -> "ModelRegistry":
        """Start loading every registered entry (idempotent).

        ``background=False`` blocks until every entry is ready or failed —
        used by tests and by ``repro-serve --wait-ready``.
        """
        with self._lock:
            self._started = True
            entries = list(self._entries.values())
        for entry in entries:
            entry.load()
        if not background:
            for entry in entries:
                entry.wait_ready()
        return self

    def describe_all(self) -> dict:
        """Every registered model's status block, keyed by registry name."""
        with self._lock:
            entries = dict(self._entries)
        return {name: entry.describe() for name, entry in entries.items()}
