"""Shared fixtures: small corpora and a small benchmark context.

Session-scoped so the (relatively) expensive corpus generation and model
fits are paid once per test run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.benchmark.context import BenchmarkContext
from repro.datagen.corpus import LabeledCorpus, generate_corpus

SMALL_CORPUS_SIZE = 350


@pytest.fixture(scope="session")
def small_corpus() -> LabeledCorpus:
    return generate_corpus(n_examples=SMALL_CORPUS_SIZE, seed=42)


@pytest.fixture(scope="session")
def small_context() -> BenchmarkContext:
    """A context small enough for test-time model fits."""
    return BenchmarkContext(n_examples=500, seed=7, rf_estimators=15, cnn_epochs=4)


@pytest.fixture(scope="session")
def saved_model(tmp_path_factory):
    """Path of a small saved Random Forest artifact for the CLI tests."""
    from repro.core.models import RandomForestModel
    from repro.core.persistence import save_model

    corpus = generate_corpus(n_examples=200, seed=2)
    model = RandomForestModel(n_estimators=8, random_state=0)
    model.fit(corpus.dataset)
    path = tmp_path_factory.mktemp("models") / "rf.model"
    save_model(model, path)
    return path


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0)
