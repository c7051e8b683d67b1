"""Experiment E11 — Table 17: full confusion matrices.

Actual class on rows, predicted on columns, for (A) the rule-based baseline,
(B) the Random Forest, and (C) Sherlock + mapping rules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.benchmark.context import BenchmarkContext
from repro.benchmark.formatting import format_table
from repro.ml.metrics import confusion_matrix
from repro.types import ALL_FEATURE_TYPES


@dataclass
class Table17Result:
    matrices: dict[str, np.ndarray]  # approach -> 9x9 confusion matrix

    def matrix(self, approach: str) -> np.ndarray:
        return self.matrices[approach]


def run_table17(context: BenchmarkContext) -> Table17Result:
    test = context.test
    truth = [label.value for label in test.labels]
    labels = [ft.value for ft in ALL_FEATURE_TYPES]

    columns = context.raw_columns(test)
    rules = context.tools()["rules"]
    predictions = {
        "rules": [rules.infer_column(c).value for c in columns],
        "rf": [p.value for p in context.our_rf.predict(test.profiles)],
        "sherlock": [
            p.value for p in context.sherlock.infer_profiles(test.profiles)
        ],
    }
    matrices = {
        name: confusion_matrix(truth, preds, labels=labels)
        for name, preds in predictions.items()
    }
    return Table17Result(matrices=matrices)


def render_table17(result: Table17Result) -> str:
    shorts = [ft.short for ft in ALL_FEATURE_TYPES]
    blocks = []
    for name, matrix in result.matrices.items():
        rows = [
            [shorts[i], *[int(v) for v in matrix[i]]]
            for i in range(len(shorts))
        ]
        blocks.append(
            format_table(
                ["actual \\ predicted", *shorts],
                rows,
                title=f"\n== Table 17 ({name}): confusion matrix ==",
            )
        )
    return "\n".join(blocks)


def check(result: Table17Result) -> list[str]:
    """Table 17's shape: the Random Forest's matrix is more diagonal than
    the rules', and the rules' more than Sherlock's, less 0.15."""
    n = int(result.matrix("rf").sum())
    diag = {
        name: float(np.trace(result.matrix(name))) / n
        for name in ("rules", "rf", "sherlock")
    }
    failures = []
    if not diag["rf"] > diag["rules"]:
        failures.append(
            f"rf diagonal share {diag['rf']:.3f} is not above the rules' "
            f"{diag['rules']:.3f}"
        )
    if not diag["rules"] > diag["sherlock"] - 0.15:
        failures.append(
            f"rules diagonal share {diag['rules']:.3f} is not above "
            f"sherlock's {diag['sherlock']:.3f} - 0.15"
        )
    return failures
