"""repro.serve — long-lived batched feature-type inference service.

The serving layer the ROADMAP calls for: load fitted models once through a
multi-model :class:`~repro.serve.registry.ModelRegistry` (named,
fingerprinted artifacts with per-request routing and zero-downtime hot
swap), profile every upload as it streams in through
:class:`~repro.sketch.StreamingProfiler`, micro-batch the profiles of
concurrent uploads through :class:`~repro.serve.batching.MicroBatcher`
(amortizing one ``predict_proba`` call across requests), and expose it
all over stdlib HTTP (``POST /v1/infer``, ``POST /v1/models/<name>/infer``,
``GET /healthz``, ``GET /metrics``).  A deployment is one such process
holding its saved artifacts.  See ``docs/serving.md``.
"""

import importlib

#: Public name -> defining submodule.  Resolved on first attribute access,
#: so a client-only process (``from repro.serve.client import
#: ServeClient``) never imports the service stack, numpy or the models.
_EXPORTS = {
    "DeadlineExceededError": "repro.serve.batching",
    "InferenceRequest": "repro.serve.batching",
    "MicroBatcher": "repro.serve.batching",
    "QueueFullError": "repro.serve.batching",
    "ServiceClosedError": "repro.serve.batching",
    "RetryPolicy": "repro.serve.client",
    "ServeClient": "repro.serve.client",
    "ServeClientError": "repro.serve.client",
    "ModelRegistry": "repro.serve.registry",
    "SwapHandle": "repro.serve.registry",
    "SwapInProgressError": "repro.serve.registry",
    "TrainConfig": "repro.serve.registry",
    "UnknownModelError": "repro.serve.registry",
    "InferenceService": "repro.serve.service",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
