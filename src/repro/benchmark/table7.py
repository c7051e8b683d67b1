"""Experiment E6 — Table 7: leave-datafile-out cross-validation.

"Stress-tests" the models on columns from entirely unseen source files:
files are split into folds (GroupKFold on the source file), so a test fold
never shares a file with training.  Reports train / validation / test
accuracy per model on the [X_stats, X2_name] feature set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.benchmark.context import BenchmarkContext
from repro.benchmark.formatting import format_table
from repro.core.models import KNNModel
from repro.ml.model_selection import GroupKFold

TABLE7_MODELS = ("logreg", "svm", "rf", "knn")


@dataclass
class Table7Result:
    """accuracy[model] -> {train, validation, test} (mean over folds)."""

    accuracy: dict[str, dict[str, float]] = field(default_factory=dict)
    n_splits: int = 0


def run_table7(
    context: BenchmarkContext,
    n_splits: int = 5,
    models: tuple[str, ...] = TABLE7_MODELS,
) -> Table7Result:
    dataset = context.dataset
    groups = dataset.groups
    splitter = GroupKFold(n_splits=n_splits, random_state=context.seed)
    result = Table7Result(n_splits=n_splits)
    for model_name in models:
        train_scores, val_scores, test_scores = [], [], []
        for train_idx, test_idx in splitter.split(groups):
            # carve a validation slice out of the training files (20% of files)
            train_groups = sorted({groups[i] for i in train_idx})
            rng = np.random.default_rng(context.seed)
            rng.shuffle(train_groups)
            n_val_groups = max(1, len(train_groups) // 4)
            val_files = set(train_groups[:n_val_groups])
            fit_idx = [i for i in train_idx if groups[i] not in val_files]
            val_idx = [i for i in train_idx if groups[i] in val_files]

            fit_split = dataset.subset(fit_idx)
            val_split = dataset.subset(val_idx)
            test_split = dataset.subset(test_idx)

            if model_name == "knn":
                model = KNNModel()
            else:
                model = context._build_model(model_name, ("stats", "name"))
            model.fit(fit_split)
            if model_name != "knn":  # paper reports no train acc for k-NN
                train_scores.append(model.score(fit_split))
            val_scores.append(model.score(val_split))
            test_scores.append(model.score(test_split))
        result.accuracy[model_name] = {
            "train": float(np.mean(train_scores)) if train_scores else float("nan"),
            "validation": float(np.mean(val_scores)),
            "test": float(np.mean(test_scores)),
        }
    return result


def render_table7(result: Table7Result) -> str:
    rows = []
    for model_name, cells in result.accuracy.items():
        rows.append(
            [model_name, cells["train"], cells["validation"], cells["test"]]
        )
    return format_table(
        ["model", "train", "validation", "test"],
        rows,
        title=(
            f"\n== Table 7: leave-datafile-out {result.n_splits}-fold CV "
            "on [X_stats, X2_name] =="
        ),
    )


def check(result: Table7Result) -> list[str]:
    """Table 7's shape: on unseen files the Random Forest stays the best
    model and above 0.8 test accuracy."""
    rf = result.accuracy["rf"]["test"]
    logreg = result.accuracy["logreg"]["test"]
    failures = []
    if not rf > logreg - 0.02:
        failures.append(
            f"rf leave-datafile-out test accuracy {rf:.3f} is not above "
            f"logreg's {logreg:.3f} - 0.02"
        )
    if not rf > 0.8:
        failures.append(
            f"rf leave-datafile-out test accuracy {rf:.3f} is not above 0.8"
        )
    return failures
