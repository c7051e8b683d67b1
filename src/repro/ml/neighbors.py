"""k-nearest-neighbor classification with pluggable distances.

Supports both plain euclidean k-NN on feature matrices and the paper's
task-adapted k-NN (Section 3.3.3) whose distance between columns is

    d = ED(X_name) + gamma * EC(X_stats)

(edit distance between attribute names plus weighted euclidean distance
between descriptive-stats vectors).
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from repro.ml.base import BaseEstimator, ClassifierMixin, check_array, check_X_y
from repro.ml.distances import (
    euclidean_many_vs_many,
    levenshtein_many_vs_many,
    pairwise_euclidean,
)
from repro.obs import telemetry


def _vote_fractions(
    distances: np.ndarray, y: Sequence, classes: Sequence, k: int
) -> np.ndarray:
    """Neighbor-vote fractions per query row of a (q, n_train) matrix."""
    index = {label: i for i, label in enumerate(classes)}
    y_codes = np.array([index[label] for label in y], dtype=np.intp)
    nearest = np.argsort(distances, axis=1, kind="stable")[:, :k]
    probs = np.zeros((distances.shape[0], len(classes)))
    rows = np.repeat(np.arange(distances.shape[0]), nearest.shape[1])
    np.add.at(probs, (rows, y_codes[nearest].ravel()), 1.0)
    return probs / k


def _vote(labels: Sequence, distances: np.ndarray) -> object:
    """Majority vote; ties broken by the nearer neighbor."""
    counts = Counter(labels)
    top = max(counts.values())
    tied = {label for label, count in counts.items() if count == top}
    if len(tied) == 1:
        return next(iter(tied))
    for label, _dist in sorted(zip(labels, distances), key=lambda item: item[1]):
        if label in tied:
            return label
    return labels[0]  # pragma: no cover - unreachable


class KNeighborsClassifier(BaseEstimator, ClassifierMixin):
    """Plain k-NN on a numeric feature matrix (euclidean distance)."""

    def __init__(self, n_neighbors: int = 5):
        self.n_neighbors = n_neighbors

    def fit(self, X, y) -> "KNeighborsClassifier":
        X, y = check_X_y(X, y)
        self._X = X
        self._y = list(y)
        self.classes_ = sorted(set(self._y), key=str)
        return self

    def predict(self, X) -> list:
        self._check_fitted("_X")
        X = check_array(X)
        with telemetry.span(
            "knn.predict", n_queries=X.shape[0], n_train=len(self._y)
        ) as sp:
            distances = pairwise_euclidean(X, self._X)
            k = min(self.n_neighbors, len(self._y))
            order = np.argsort(distances, axis=1, kind="stable")[:, :k]
            out = [
                _vote([self._y[i] for i in nearest], row[nearest])
                for nearest, row in zip(order, distances)
            ]
        if telemetry.enabled:
            telemetry.count("knn.queries", X.shape[0])
            telemetry.observe("knn.batch_s", sp.wall_s)
        return out

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted("_X")
        X = check_array(X)
        distances = pairwise_euclidean(X, self._X)
        k = min(self.n_neighbors, len(self._y))
        return _vote_fractions(distances, self._y, self.classes_, k)


class NameStatsKNN(BaseEstimator, ClassifierMixin):
    """The paper's k-NN: weighted edit + euclidean distance over columns.

    ``fit`` takes attribute names, standardized stats vectors, and labels.
    ``gamma`` weights the stats term; both ``n_neighbors`` (1..10) and
    ``gamma`` ({1e-3 .. 1e3}) are tuned by grid search in the paper.
    The name term is the exact edit distance, as in the paper.
    """

    def __init__(
        self, n_neighbors: int = 5, gamma: float = 1.0, use_stats: bool = True,
        use_name: bool = True,
    ):
        if not (use_stats or use_name):
            raise ValueError("at least one of use_stats/use_name must be set")
        self.n_neighbors = n_neighbors
        self.gamma = gamma
        self.use_stats = use_stats
        self.use_name = use_name

    def fit(
        self, names: Sequence[str], stats: np.ndarray, y: Sequence
    ) -> "NameStatsKNN":
        if len(names) != len(y):
            raise ValueError("names and y must have equal length")
        self._names = [str(n) for n in names]
        self._stats = np.asarray(stats, dtype=float)
        if self._stats.shape[0] != len(self._names):
            raise ValueError("stats and names must have equal length")
        self._y = list(y)
        self.classes_ = sorted(set(self._y), key=str)
        return self

    def distance_matrix(
        self, names: Sequence[str], stats: np.ndarray
    ) -> np.ndarray:
        """Weighted distances from every query to every training column.

        Bit-identical to stacking ``levenshtein_one_vs_many`` plus
        ``gamma * euclidean_one_vs_many`` per query (the row-wise reference
        that ``tests/test_ml_distances.py`` checks): both terms broadcast the
        same per-row kernels over the full train matrix, and repeated query
        names share one edit-distance computation.
        """
        stats = np.asarray(stats, dtype=float)
        total = np.zeros((len(names), len(self._y)))
        if self.use_name:
            name_strings = [str(n) for n in names]
            total += levenshtein_many_vs_many(name_strings, self._names).astype(float)
        if self.use_stats:
            total += self.gamma * euclidean_many_vs_many(stats, self._stats)
        return total

    def predict(self, names: Sequence[str], stats: np.ndarray) -> list:
        self._check_fitted("_names")
        k = min(self.n_neighbors, len(self._y))
        with telemetry.span(
            "knn.name_stats.predict", n_queries=len(names), n_train=len(self._y)
        ) as sp:
            distances = self.distance_matrix(names, stats)
            order = np.argsort(distances, axis=1, kind="stable")[:, :k]
            out = [
                _vote([self._y[i] for i in nearest], row[nearest])
                for nearest, row in zip(order, distances)
            ]
        if telemetry.enabled:
            telemetry.count("knn.queries", len(names))
            telemetry.observe("knn.batch_s", sp.wall_s)
        return out

    def predict_proba(
        self, names: Sequence[str], stats: np.ndarray
    ) -> np.ndarray:
        """Neighbor-vote fractions over ``classes_`` per query."""
        self._check_fitted("_names")
        k = min(self.n_neighbors, len(self._y))
        distances = self.distance_matrix(names, stats)
        return _vote_fractions(distances, self._y, self.classes_, k)

    def score(self, names: Sequence[str], stats: np.ndarray, y: Sequence) -> float:
        pred = self.predict(names, stats)
        return float(np.mean(np.asarray(pred, dtype=object) == np.asarray(y, dtype=object)))
