"""Experiment E2 — Tables 2 and 9: feature-set ablation of the ML models.

Sweeps the nine feature-set combinations for the classical models and the
CNN, and the two k-NN-compatible sets (stats-only, name-only, stats+name),
reporting train / validation / held-out-test 9-class accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.benchmark.context import BenchmarkContext
from repro.benchmark.formatting import format_table
from repro.core.feature_sets import TABLE2_FEATURE_SETS, feature_set_label
from repro.core.models import KNNModel
from repro.ml.model_selection import train_test_split

#: Models swept over all nine feature sets.
TABLE2_MODELS = ("logreg", "svm", "rf", "cnn")

#: k-NN supports only the distance-compatible sets (paper leaves the rest "-").
KNN_FEATURE_SETS = (("stats",), ("name",), ("stats", "name"))


@dataclass
class Table2Result:
    """accuracy[model][feature-set label] -> {train, validation, test}."""

    accuracy: dict[str, dict[str, dict[str, float]]] = field(default_factory=dict)

    def best_feature_set(self, model: str) -> tuple[str, float]:
        cells = self.accuracy[model]
        label = max(cells, key=lambda key: cells[key]["test"])
        return label, cells[label]["test"]


def _knn_for(feature_set: tuple[str, ...]) -> KNNModel:
    return KNNModel(
        use_stats="stats" in feature_set, use_name="name" in feature_set
    )


def run_table2(
    context: BenchmarkContext,
    models: tuple[str, ...] = TABLE2_MODELS,
    feature_sets: tuple[tuple[str, ...], ...] = TABLE2_FEATURE_SETS,
) -> Table2Result:
    """Train every (model, feature set) pair; report train/val/test accuracy."""
    result = Table2Result()
    labels = [label.value for label in context.train.labels]
    index = np.arange(len(context.train))
    fit_idx, val_idx = train_test_split(
        index, test_size=0.25, random_state=context.seed, stratify=labels
    )
    fit_split = context.train.subset(fit_idx)
    val_split = context.train.subset(val_idx)

    for model_name in models:
        result.accuracy[model_name] = {}
        for feature_set in feature_sets:
            model = context._build_model(model_name, feature_set)
            model.fit(fit_split)
            result.accuracy[model_name][feature_set_label(feature_set)] = {
                "train": model.score(fit_split),
                "validation": model.score(val_split),
                "test": model.score(context.test),
            }

    result.accuracy["knn"] = {}
    for feature_set in KNN_FEATURE_SETS:
        model = _knn_for(feature_set)
        model.fit(fit_split)
        result.accuracy["knn"][feature_set_label(feature_set)] = {
            "train": model.score(fit_split),
            "validation": model.score(val_split),
            "test": model.score(context.test),
        }
    return result


def render_table2(result: Table2Result, split: str = "test") -> str:
    """Render one split (Table 2 = test; Table 9 adds train/validation)."""
    feature_labels: list[str] = []
    for model_cells in result.accuracy.values():
        for label in model_cells:
            if label not in feature_labels:
                feature_labels.append(label)
    rows = []
    for model_name, cells in result.accuracy.items():
        row: list[object] = [model_name]
        for label in feature_labels:
            cell = cells.get(label)
            row.append(None if cell is None else cell[split])
        rows.append(row)
    return format_table(
        ["model", *feature_labels],
        rows,
        title=f"\n== 9-class {split} accuracy by feature set ==",
    )


def check(result: Table2Result) -> list[str]:
    """Table 2's shape: the Random Forest's best feature set scores above
    0.85 and holds the stats or the name."""
    label, best = result.best_feature_set("rf")
    failures = []
    if not best > 0.85:
        failures.append(
            f"rf's best feature set {label} scores {best:.3f} test "
            "accuracy, not above 0.85"
        )
    if "X_stats" not in label and "X2_name" not in label:
        failures.append(
            f"rf's best feature set {label} holds neither X_stats nor X2_name"
        )
    return failures
