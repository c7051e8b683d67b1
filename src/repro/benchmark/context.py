"""Shared benchmark context: corpus, splits, raw columns, fitted models.

Experiments share one corpus and one 80:20 split (the paper's methodology,
Section 4.1).  Heavy artifacts (the corpus, fitted models, the Sherlock
simulator) are built lazily and cached on the context so a benchmark session
that regenerates several tables pays each cost once.
"""

from __future__ import annotations

import numpy as np

from repro.cache import ArtifactCache, set_active_cache
from repro.core.featurize import LabeledDataset
from repro.core.models import (
    CNNModel,
    KNNModel,
    LogRegModel,
    RandomForestModel,
    SVMModel,
    TypeInferenceModel,
)
from repro.datagen.corpus import LabeledCorpus, generate_corpus
from repro.ml.model_selection import train_test_split
from repro.obs import telemetry
from repro.tabular.column import Column
from repro.tools import (
    AutoGluonTool,
    PandasTool,
    RuleBaselineTool,
    SherlockTool,
    TFDVTool,
    TransmogrifAITool,
)
from repro.types import FeatureType

#: Default corpus size for benchmarks; pass scale="paper" for all 9,921.
DEFAULT_N_EXAMPLES = 2400

#: The corpus scale the paper's shapes were recorded at.  Each experiment's
#: ``check`` runs at this scale or above; a smaller corpus is too noisy to
#: hold a shape, so its runs check nothing.
SHAPE_CHECK_SCALE = 1200


class BenchmarkContext:
    """Lazily-built shared state for the experiment suite."""

    def __init__(
        self,
        n_examples: int = DEFAULT_N_EXAMPLES,
        seed: int = 0,
        rf_estimators: int = 50,
        cnn_epochs: int = 10,
        cache: "ArtifactCache | None" = None,
    ):
        self.n_examples = n_examples
        self.seed = seed
        self.rf_estimators = rf_estimators
        self.cnn_epochs = cnn_epochs
        self.cache = cache
        set_active_cache(cache)
        self._corpus: LabeledCorpus | None = None
        self._split: tuple[LabeledDataset, LabeledDataset] | None = None
        self._models: dict[str, TypeInferenceModel] = {}
        self._sherlock: SherlockTool | None = None
        self._column_index: dict[tuple[str, str], Column] | None = None

    def shape_failures(self, check, result) -> list[str]:
        """``check(result)``: the paper shapes ``result`` breaks, or none
        below :data:`SHAPE_CHECK_SCALE`."""
        if self.n_examples < SHAPE_CHECK_SCALE:
            return []
        return check(result)

    def _data_params(self) -> dict:
        """The code-relevant parameters addressing corpus/split artifacts."""
        return {"n_examples": self.n_examples, "seed": self.seed}

    # -- data ------------------------------------------------------------------
    @property
    def corpus(self) -> LabeledCorpus:
        if self._corpus is None:
            with telemetry.span(
                "context.corpus", n_examples=self.n_examples, seed=self.seed
            ):
                build = lambda: generate_corpus(  # noqa: E731
                    n_examples=self.n_examples, seed=self.seed,
                )
                if self.cache is not None:
                    self._corpus = self.cache.fetch(
                        "corpus", self._data_params(), build
                    )
                else:
                    self._corpus = build()
            telemetry.info(
                "context.corpus_built", n_examples=self.n_examples,
                seed=self.seed,
            )
        return self._corpus

    @property
    def dataset(self) -> LabeledDataset:
        return self.corpus.dataset

    def _split_indices(self) -> tuple[np.ndarray, np.ndarray]:
        labels = [label.value for label in self.dataset.labels]
        index = np.arange(len(self.dataset))
        return train_test_split(
            index, test_size=0.2, random_state=self.seed, stratify=labels
        )

    def _ensure_split(self) -> tuple[LabeledDataset, LabeledDataset]:
        if self._split is None:
            with telemetry.span("context.split", n_examples=len(self.dataset)):
                if self.cache is not None:
                    params = {**self._data_params(), "test_size": 0.2}
                    train_idx, test_idx = self.cache.fetch(
                        "split", params, self._split_indices
                    )
                else:
                    train_idx, test_idx = self._split_indices()
                self._split = (
                    self.dataset.subset(train_idx),
                    self.dataset.subset(test_idx),
                )
        return self._split

    @property
    def train(self) -> LabeledDataset:
        return self._ensure_split()[0]

    @property
    def test(self) -> LabeledDataset:
        return self._ensure_split()[1]

    def _column_lookup(self) -> dict[tuple[str, str], Column]:
        """(file name, column name) → raw Column, built once per context."""
        if self._column_index is None:
            self._column_index = {
                (table.name, column.name): column
                for table in self.corpus.files
                for column in table
            }
        return self._column_index

    def raw_column(self, profile) -> Column:
        """The raw column a profile was featurized from."""
        try:
            return self._column_lookup()[(profile.source_file, profile.name)]
        except KeyError:
            raise KeyError(
                f"no raw column for {profile.source_file}/{profile.name}"
            ) from None

    def raw_columns(self, dataset: LabeledDataset) -> list[Column]:
        by_key = self._column_lookup()
        return [by_key[(p.source_file, p.name)] for p in dataset.profiles]

    # -- models ------------------------------------------------------------------
    def model(self, name: str, feature_set=("stats", "name")) -> TypeInferenceModel:
        """A fitted type-inference model, cached by (name, feature set)."""
        key = f"{name}:{','.join(feature_set)}"
        if key not in self._models:
            with telemetry.span(
                "context.fit", model=name, features=",".join(feature_set),
                n_train=len(self.train),
            ) as sp:
                if self.cache is not None:
                    params = {
                        **self._data_params(),
                        "model": name,
                        "features": list(feature_set),
                        "rf_estimators": self.rf_estimators,
                        "cnn_epochs": self.cnn_epochs,
                    }
                    model = self.cache.fetch(
                        "model", params, lambda: self._fit_model(name, feature_set)
                    )
                else:
                    model = self._fit_model(name, feature_set)
            self._models[key] = model
            telemetry.info("context.model_fit", model=key, wall_s=sp.wall_s)
        else:
            telemetry.count("context.model_cache_hits")
        return self._models[key]

    def _fit_model(self, name: str, feature_set) -> TypeInferenceModel:
        """Actually fit a model (the cache-miss path); counted as a fit."""
        model = self._build_model(name, feature_set)
        model.fit(self.train)
        telemetry.count("context.model_fits")
        return model

    def _build_model(self, name: str, feature_set) -> TypeInferenceModel:
        if name == "rf":
            return RandomForestModel(
                n_estimators=self.rf_estimators, feature_set=feature_set,
                random_state=self.seed,
            )
        if name == "logreg":
            return LogRegModel(feature_set=feature_set)
        if name == "svm":
            return SVMModel(feature_set=feature_set)
        if name == "cnn":
            return CNNModel(
                feature_set=feature_set, epochs=self.cnn_epochs,
                random_state=self.seed,
            )
        if name == "knn":
            return KNNModel()
        raise ValueError(f"unknown model name: {name!r}")

    @property
    def our_rf(self) -> TypeInferenceModel:
        """The paper's best model ("OurRF"): RF on stats + name bigrams."""
        return self.model("rf", ("stats", "name"))

    # -- tools ------------------------------------------------------------------
    def tools(self) -> dict[str, object]:
        """Fresh instances of the four industrial tools + rule baseline."""
        return {
            "tfdv": TFDVTool(),
            "pandas": PandasTool(),
            "transmogrifai": TransmogrifAITool(),
            "autogluon": AutoGluonTool(),
            "rules": RuleBaselineTool(),
        }

    @property
    def sherlock(self) -> SherlockTool:
        if self._sherlock is None:
            self._sherlock = SherlockTool()
        return self._sherlock

    # -- predictions ---------------------------------------------------------
    def tool_predictions(
        self, dataset: LabeledDataset
    ) -> dict[str, list[FeatureType]]:
        """Predictions of every rule/syntax tool + Sherlock on a dataset."""
        columns = self.raw_columns(dataset)
        out: dict[str, list[FeatureType]] = {}
        for name, tool in self.tools().items():
            with telemetry.span(
                "context.tool_predict", tool=name, n_columns=len(columns)
            ):
                out[name] = [tool.infer_column(column) for column in columns]
        with telemetry.span(
            "context.tool_predict", tool="sherlock",
            n_columns=len(dataset.profiles),
        ):
            out["sherlock"] = self.sherlock.infer_profiles(dataset.profiles)
        return out
