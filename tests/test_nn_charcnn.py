"""Tests for the end-to-end char-CNN classifier."""

import numpy as np
import pytest

from repro.nn.charcnn import CharCNNClassifier


@pytest.fixture(scope="module")
def name_task():
    rng = np.random.default_rng(3)
    names = [f"zip_{i}" for i in range(120)] + [f"amount_{i}" for i in range(120)]
    stats = np.vstack(
        [rng.normal(0, 1, (120, 4)), rng.normal(2.5, 1, (120, 4))]
    )
    labels = ["CA"] * 120 + ["NU"] * 120
    return names, stats, labels


def _small_cnn(**overrides):
    params = dict(
        embed_dim=16, num_filters=16, hidden_units=32, max_len=12,
        epochs=8, random_state=0,
    )
    params.update(overrides)
    return CharCNNClassifier(**params)


class TestCharCNN:
    def test_learns_name_plus_stats(self, name_task):
        names, stats, labels = name_task
        model = _small_cnn().fit([names], stats, labels)
        assert model.score([names], stats, labels) > 0.9

    def test_stats_only(self, name_task):
        _names, stats, labels = name_task
        model = _small_cnn(epochs=15).fit([], stats, labels)
        assert model.score([], stats, labels) > 0.85

    def test_proba_simplex(self, name_task):
        names, stats, labels = name_task
        model = _small_cnn(epochs=2).fit([names], stats, labels)
        probs = model.predict_proba([names], stats)
        assert probs.shape == (len(names), 2)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_loss_decreases(self, name_task):
        names, stats, labels = name_task
        model = _small_cnn(epochs=6).fit([names], stats, labels)
        assert model.history_[-1] < model.history_[0]

    def test_requires_some_input(self):
        with pytest.raises(ValueError, match="at least one"):
            CharCNNClassifier().fit([], None, ["a", "b"])

    def test_field_count_checked_at_predict(self, name_task):
        names, stats, labels = name_task
        model = _small_cnn(epochs=1).fit([names], stats, labels)
        with pytest.raises(ValueError, match="text fields"):
            model.predict([names, names], stats)

    def test_field_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            CharCNNClassifier().fit([["a"]], None, ["x", "y"])

    def test_deterministic_given_seed(self, name_task):
        names, stats, labels = name_task
        a = _small_cnn(epochs=2).fit([names], stats, labels)
        b = _small_cnn(epochs=2).fit([names], stats, labels)
        assert a.predict([names], stats) == b.predict([names], stats)
