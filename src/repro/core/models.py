"""Type-inference model wrappers (the "models trained on our data").

Every wrapper shares one interface: ``fit(dataset)``, ``predict(profiles)``,
``predict_proba(profiles)`` — mapping column profiles to feature types.  The
classical models consume :class:`~repro.core.feature_sets.FeatureSetBuilder`
output (scale-sensitive ones standardized); the CNN consumes raw characters;
the k-NN uses the paper's weighted name/stats distance.

``PAPER_GRIDS`` reproduces the Appendix B hyper-parameter grids.
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.core.feature_sets import FeatureSetBuilder
from repro.core.featurize import ColumnProfile, LabeledDataset
from repro.core.stats import compress_stats
from repro.ml.base import BaseEstimator
from repro.ml.forest import RandomForestClassifier
from repro.ml.linear import LogisticRegression
from repro.ml.neighbors import NameStatsKNN
from repro.ml.preprocessing import StandardScaler
from repro.ml.svm import RBFSVM
from repro.nn.charcnn import CharCNNClassifier
from repro.types import FeatureType

#: Appendix B grids (abbreviated names match the paper's).
PAPER_GRIDS: dict[str, dict[str, list]] = {
    "logreg": {"C": [1e-3, 1e-2, 1e-1, 1, 10, 100, 1e3]},
    "svm": {"C": [1e-1, 1, 10, 100, 1e3], "gamma": [1e-4, 1e-3, 0.01, 0.1, 1, 10]},
    "rf": {"n_estimators": [5, 25, 50, 75, 100], "max_depth": [5, 10, 25, 50, 100]},
    "knn": {"n_neighbors": list(range(1, 11)), "gamma": [1e-3, 0.01, 0.1, 1, 10, 100, 1e3]},
    "cnn": {
        "embed_dim": [64, 128, 256],
        "num_filters": [32, 64, 128],
        "filter_size": [2],
        "hidden_units": [250, 500, 1000],
        "dropout": [0.25],
    },
}


class TypeInferenceModel:
    """Shared plumbing for type-inference models."""

    name: str = "base"

    def fit(self, dataset: LabeledDataset) -> "TypeInferenceModel":
        raise NotImplementedError

    def predict(self, profiles: list[ColumnProfile]) -> list[FeatureType]:
        raise NotImplementedError

    def predict_proba(self, profiles: list[ColumnProfile]) -> np.ndarray:
        raise NotImplementedError

    def score(self, dataset: LabeledDataset) -> float:
        predictions = self.predict(dataset.profiles)
        truth = dataset.labels
        return float(np.mean([p == t for p, t in zip(predictions, truth)]))

    @property
    def classes_(self) -> list[FeatureType]:
        raise NotImplementedError


class _ClassicalModel(TypeInferenceModel):
    """A classical estimator over a FeatureSetBuilder matrix."""

    def __init__(
        self,
        estimator: BaseEstimator,
        feature_set: tuple[str, ...] = ("stats", "name"),
        standardize: bool = False,
        hash_dim: int = 192,
        drop_stat_indices: tuple[int, ...] = (),
    ):
        self.estimator = estimator
        self.builder = FeatureSetBuilder(
            parts=feature_set, hash_dim=hash_dim, drop_stat_indices=drop_stat_indices
        )
        self.standardize = standardize
        self._scaler: StandardScaler | None = None

    def _matrix(self, profiles: list[ColumnProfile], fit: bool) -> np.ndarray:
        X = self.builder.transform(profiles)
        if self.standardize:
            if fit:
                self._scaler = StandardScaler().fit(X)
            X = self._scaler.transform(X)
        return X

    def fit(self, dataset: LabeledDataset):
        X = self._matrix(dataset.profiles, fit=True)
        self.estimator.fit(X, dataset.labels)
        return self

    def predict(self, profiles: list[ColumnProfile]) -> list[FeatureType]:
        X = self._matrix(profiles, fit=False)
        return self.estimator.predict(X)

    def predict_proba(self, profiles: list[ColumnProfile]) -> np.ndarray:
        X = self._matrix(profiles, fit=False)
        return self.estimator.predict_proba(X)

    @property
    def classes_(self) -> list[FeatureType]:
        return list(self.estimator.classes_)


class LogRegModel(_ClassicalModel):
    """L2 multinomial logistic regression on a hashed feature set."""

    name = "logreg"

    def __init__(self, C: float = 1.0, feature_set=("stats", "name"), **kwargs):
        super().__init__(
            LogisticRegression(C=C), feature_set=feature_set, standardize=True,
            **kwargs,
        )


class SVMModel(_ClassicalModel):
    """RBF-SVM on a hashed feature set (standardized)."""

    name = "svm"

    def __init__(
        self, C: float = 10.0, gamma: float = 0.01,
        feature_set=("stats", "name"), max_landmarks: int = 1200, **kwargs,
    ):
        super().__init__(
            RBFSVM(C=C, gamma=gamma, max_landmarks=max_landmarks),
            feature_set=feature_set,
            standardize=True,
            **kwargs,
        )


class RandomForestModel(_ClassicalModel):
    """Random Forest — the paper's best type-inference model ("OurRF")."""

    name = "rf"

    def __init__(
        self, n_estimators: int = 75, max_depth: int = 25,
        feature_set=("stats", "name"), random_state: int = 0, **kwargs,
    ):
        super().__init__(
            RandomForestClassifier(
                n_estimators=n_estimators,
                max_depth=max_depth,
                random_state=random_state,
            ),
            feature_set=feature_set,
            standardize=False,
            **kwargs,
        )


class KNNModel(TypeInferenceModel):
    """The paper's k-NN with d = ED(X_name) + gamma * EC(X_stats)."""

    name = "knn"

    def __init__(
        self, n_neighbors: int = 5, gamma: float = 1.0,
        use_stats: bool = True, use_name: bool = True,
    ):
        self.knn = NameStatsKNN(
            n_neighbors=n_neighbors, gamma=gamma,
            use_stats=use_stats, use_name=use_name,
        )
        self._scaler = StandardScaler()

    def _stats(self, profiles: list[ColumnProfile], fit: bool) -> np.ndarray:
        stats = compress_stats(np.stack([p.stats_vector for p in profiles]))
        if fit:
            self._scaler.fit(stats)
        return self._scaler.transform(stats)

    def fit(self, dataset: LabeledDataset):
        stats = self._stats(dataset.profiles, fit=True)
        self.knn.fit(dataset.names, stats, dataset.labels)
        return self

    def predict(self, profiles: list[ColumnProfile]) -> list[FeatureType]:
        stats = self._stats(profiles, fit=False)
        return self.knn.predict([p.name for p in profiles], stats)

    def predict_proba(self, profiles: list[ColumnProfile]) -> np.ndarray:
        # Vote fractions over the k neighbors (batched distance matrix).
        stats = self._stats(profiles, fit=False)
        return self.knn.predict_proba([p.name for p in profiles], stats)

    @property
    def classes_(self) -> list[FeatureType]:
        return list(self.knn.classes_)


class CNNModel(TypeInferenceModel):
    """Character-level CNN over raw name/sample characters + stats."""

    name = "cnn"

    def __init__(
        self,
        feature_set: tuple[str, ...] = ("stats", "name", "sample1"),
        embed_dim: int = 32,
        num_filters: int = 32,
        hidden_units: int = 128,
        epochs: int = 15,
        random_state: int = 0,
    ):
        self.feature_set = feature_set
        self.cnn = CharCNNClassifier(
            embed_dim=embed_dim,
            num_filters=num_filters,
            hidden_units=hidden_units,
            epochs=epochs,
            random_state=random_state,
        )

    def _inputs(self, profiles: list[ColumnProfile]):
        text_fields: list[list[str]] = []
        if "name" in self.feature_set:
            text_fields.append([p.name for p in profiles])
        if "sample1" in self.feature_set:
            text_fields.append([p.sample(0) for p in profiles])
        if "sample2" in self.feature_set:
            text_fields.append([p.sample(1) for p in profiles])
        stats = None
        if "stats" in self.feature_set:
            stats = compress_stats(np.stack([p.stats_vector for p in profiles]))
        return text_fields, stats

    def fit(self, dataset: LabeledDataset):
        text_fields, stats = self._inputs(dataset.profiles)
        self.cnn.fit(text_fields, stats, dataset.labels)
        return self

    def predict(self, profiles: list[ColumnProfile]) -> list[FeatureType]:
        text_fields, stats = self._inputs(profiles)
        return self.cnn.predict(text_fields, stats)

    def predict_proba(self, profiles: list[ColumnProfile]) -> np.ndarray:
        text_fields, stats = self._inputs(profiles)
        return self.cnn.predict_proba(text_fields, stats)

    @property
    def classes_(self) -> list[FeatureType]:
        return list(self.cnn.classes_)


#: Knobs of the forest ``repro-infer`` and ``repro-serve`` train when they
#: are given no saved artifact.
DEFAULT_TRAIN_EXAMPLES = 1500
DEFAULT_TREES = 50
DEFAULT_SEED = 0
#: The smallest corpus ``generate_corpus`` builds: fewer examples cannot
#: cover the nine classes.
MIN_TRAIN_EXAMPLES = 50


def train_examples(text: str) -> int:
    """``argparse`` type of ``--train-examples``: an int of at least
    :data:`MIN_TRAIN_EXAMPLES`, so a too-small corpus fails when the
    arguments are parsed rather than when the model trains."""
    value = int(text)
    if value < MIN_TRAIN_EXAMPLES:
        raise argparse.ArgumentTypeError(
            f"must be at least {MIN_TRAIN_EXAMPLES} to cover the nine "
            f"classes, got {value}"
        )
    return value


def positive_int(text: str) -> int:
    """``argparse`` type of a count that must be at least 1, so a zero or
    negative size fails when the arguments are parsed."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def train_default_forest(
    n_examples: int = DEFAULT_TRAIN_EXAMPLES,
    trees: int = DEFAULT_TREES,
    seed: int = DEFAULT_SEED,
) -> RandomForestModel:
    """The default Random Forest, fitted on the seed's synthetic corpus."""
    # Imported here: loading a saved artifact never needs the generator.
    from repro.datagen.corpus import generate_corpus

    corpus = generate_corpus(n_examples=n_examples, seed=seed)
    return RandomForestModel(n_estimators=trees, random_state=seed).fit(
        corpus.dataset
    )


def default_models(feature_set=("stats", "name")) -> dict[str, TypeInferenceModel]:
    """The paper's five model families with sensible laptop-scale defaults."""
    return {
        "logreg": LogRegModel(feature_set=feature_set),
        "svm": SVMModel(feature_set=feature_set),
        "rf": RandomForestModel(feature_set=feature_set),
        "cnn": CNNModel(feature_set=feature_set),
        "knn": KNNModel(),
    }
