"""Tests for k-NN (plain + name/stats) and the estimator base contracts."""

import numpy as np
import pytest

from repro.ml.base import BaseEstimator, NotFittedError, clone
from repro.ml.linear import LogisticRegression
from repro.ml.neighbors import KNeighborsClassifier, NameStatsKNN


class TestKNeighbors:
    def test_nearest_wins(self):
        X = np.array([[0.0], [0.1], [10.0]])
        y = ["a", "a", "b"]
        model = KNeighborsClassifier(n_neighbors=1).fit(X, y)
        assert model.predict(np.array([[0.05], [9.0]])) == ["a", "b"]

    def test_majority_vote(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0]])
        y = ["a", "a", "b", "b"]
        model = KNeighborsClassifier(n_neighbors=3).fit(X, y)
        assert model.predict(np.array([[0.5]])) == ["a"]

    def test_k_larger_than_train(self):
        X = np.array([[0.0], [1.0]])
        model = KNeighborsClassifier(n_neighbors=10).fit(X, ["a", "b"])
        assert model.predict(np.array([[0.1]]))[0] in ("a", "b")

    def test_proba(self):
        X = np.array([[0.0], [0.2], [10.0]])
        model = KNeighborsClassifier(n_neighbors=3).fit(X, ["a", "a", "b"])
        probs = model.predict_proba(np.array([[0.1]]))
        assert probs.shape == (1, 2)
        assert probs[0].sum() == pytest.approx(1.0)


class TestNameStatsKNN:
    def test_name_signal(self):
        names = ["salary", "income", "zipcode", "zip"]
        stats = np.zeros((4, 2))
        labels = ["NU", "NU", "CA", "CA"]
        model = NameStatsKNN(n_neighbors=1, gamma=0.0).fit(names, stats, labels)
        assert model.predict(["salaries"], np.zeros((1, 2))) == ["NU"]

    def test_stats_signal_with_gamma(self):
        names = ["x", "y", "z", "w"]
        stats = np.array([[0.0], [0.0], [10.0], [10.0]])
        labels = ["low", "low", "high", "high"]
        model = NameStatsKNN(n_neighbors=1, gamma=100.0).fit(names, stats, labels)
        assert model.predict(["q"], np.array([[9.5]])) == ["high"]

    def test_requires_some_signal(self):
        with pytest.raises(ValueError):
            NameStatsKNN(use_stats=False, use_name=False)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            NameStatsKNN().fit(["a"], np.zeros((2, 1)), ["x", "y"])

    def test_score(self):
        names = ["alpha", "beta"]
        stats = np.zeros((2, 1))
        model = NameStatsKNN(n_neighbors=1).fit(names, stats, ["A", "B"])
        assert model.score(names, stats, ["A", "B"]) == 1.0


class TestBaseEstimator:
    def test_get_set_params(self):
        model = LogisticRegression(C=2.0)
        assert model.get_params()["C"] == 2.0
        model.set_params(C=5.0)
        assert model.C == 5.0

    def test_set_unknown_param_raises(self):
        with pytest.raises(ValueError, match="invalid parameter"):
            LogisticRegression().set_params(bogus=1)

    def test_clone_is_unfitted_copy(self, rng):
        X = np.vstack([rng.normal(0, 1, (20, 2)), rng.normal(3, 1, (20, 2))])
        y = ["a"] * 20 + ["b"] * 20
        model = LogisticRegression(C=0.5).fit(X, y)
        fresh = clone(model)
        assert fresh.C == 0.5
        with pytest.raises(NotFittedError):
            fresh.predict(X)

    def test_check_fitted_message_names_class(self):
        class Dummy(BaseEstimator):
            def __init__(self):
                pass

        with pytest.raises(NotFittedError, match="Dummy"):
            Dummy()._check_fitted("anything_")
