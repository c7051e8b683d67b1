"""Save/load trained type-inference models.

The paper's public repository ships pre-trained models (k-NN, logistic
regression, RBF-SVM, Random Forest, CNN) so platforms can integrate type
inference without retraining.  This module provides the same artifact:
a versioned pickle with an integrity header.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle

from repro.core.models import TypeInferenceModel
from repro.faults import faults

_MAGIC = b"REPRO-SORTINGHAT-MODEL\x00"
_FORMAT_VERSION = 1


class ModelPersistenceError(RuntimeError):
    """Raised when a model artifact cannot be read."""


class ModelFormatError(ModelPersistenceError):
    """Raised when an artifact is readable but its format is wrong: bad
    magic header, missing/unknown ``format_version``, or a payload that is
    not a model.  Lets callers distinguish "not our file / wrong version"
    from I/O-level corruption."""


def _payload(model: TypeInferenceModel) -> dict:
    """The exact dict both :func:`save_model` and
    :func:`fingerprint_model` serialize, so on-disk and in-memory
    fingerprints agree."""
    return {"format_version": _FORMAT_VERSION, "model": model}


def save_model(model: TypeInferenceModel, path: str | os.PathLike) -> None:
    """Serialize a fitted model to ``path``."""
    buffer = io.BytesIO()
    pickle.dump(_payload(model), buffer, protocol=pickle.HIGHEST_PROTOCOL)
    with open(path, "wb") as handle:
        handle.write(_MAGIC)
        handle.write(buffer.getvalue())


def load_model(path: str | os.PathLike) -> TypeInferenceModel:
    """Load a model previously written by :func:`save_model`.

    Only load artifacts you produced yourself — this uses pickle.
    """
    faults.point("model.load", path=os.fspath(path))
    with open(path, "rb") as handle:
        header = handle.read(len(_MAGIC))
        if header != _MAGIC:
            raise ModelFormatError(
                f"{os.fspath(path)!r} is not a repro model artifact"
            )
        payload = pickle.load(handle)
    if not isinstance(payload, dict) or "format_version" not in payload:
        raise ModelFormatError(
            f"{os.fspath(path)!r} has no format_version header"
        )
    version = payload["format_version"]
    if version != _FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format version {version!r} "
            f"(expected {_FORMAT_VERSION})"
        )
    model = payload["model"]
    if not isinstance(model, TypeInferenceModel):
        raise ModelFormatError("artifact does not contain a model")
    return model


def model_fingerprint(path: str | os.PathLike) -> str:
    """sha256 hex digest of an artifact's payload (header excluded).

    Two artifacts with the same fingerprint decode to byte-identical model
    payloads; surfaced in ``/healthz`` and run manifests so a serving
    deployment can be tied back to the exact model it answered with.
    """
    with open(path, "rb") as handle:
        header = handle.read(len(_MAGIC))
        if header != _MAGIC:
            raise ModelFormatError(
                f"{os.fspath(path)!r} is not a repro model artifact"
            )
        return hashlib.sha256(handle.read()).hexdigest()


def fingerprint_model(model: TypeInferenceModel) -> str:
    """sha256 of the payload :func:`save_model` would write for ``model``.

    Matches :func:`model_fingerprint` of the saved file, so freshly trained
    (never-saved) models report the same identity they would have on disk.
    """
    return hashlib.sha256(
        pickle.dumps(_payload(model), protocol=pickle.HIGHEST_PROTOCOL)
    ).hexdigest()
