"""Experiment E1 — Table 1 (and Table 8): binarized class-specific metrics.

Compares the four industrial tools, Sherlock+rules, the rule baseline, and
the ML models (LogReg, CNN, Random Forest) on the held-out test set, with
one-vs-rest precision / recall / binarized accuracy / F1 per class.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.benchmark.context import BenchmarkContext
from repro.benchmark.formatting import format_table
from repro.core.vocabulary import TABLE1_CLASSES, tool_covers
from repro.ml.metrics import BinarizedMetrics, accuracy_score, binarized_metrics
from repro.types import FeatureType

#: Approaches reported in Table 1, in the paper's column order.
TABLE1_APPROACHES = (
    "tfdv",
    "pandas",
    "transmogrifai",
    "autogluon",
    "sherlock",
    "rules",
    "logreg",
    "cnn",
    "rf",
)

_ML_APPROACHES = ("logreg", "cnn", "rf")


@dataclass
class Table1Result:
    """metrics[approach][feature type] plus 9-class accuracy per approach."""

    metrics: dict[str, dict[FeatureType, BinarizedMetrics]]
    nine_class: dict[str, float]

    def cell(self, approach: str, feature_type: FeatureType) -> BinarizedMetrics | None:
        return self.metrics.get(approach, {}).get(feature_type)


def run_table1(context: BenchmarkContext) -> Table1Result:
    """Compute every Table 1 / Table 8 cell on the held-out test set."""
    test = context.test
    truth = test.labels
    predictions = context.tool_predictions(test)
    for name in _ML_APPROACHES:
        predictions[name] = context.model(name).predict(test.profiles)

    metrics: dict[str, dict[FeatureType, BinarizedMetrics]] = {}
    nine_class: dict[str, float] = {}
    for approach, preds in predictions.items():
        nine_class[approach] = accuracy_score(
            [t.value for t in truth], [p.value for p in preds]
        )
        per_class: dict[FeatureType, BinarizedMetrics] = {}
        for feature_type in TABLE1_CLASSES:
            if approach in ("tfdv", "pandas", "transmogrifai", "autogluon"):
                # blank cells: the tool's vocabulary cannot express the class
                if not tool_covers(approach, feature_type):
                    continue
            per_class[feature_type] = binarized_metrics(truth, preds, feature_type)
        metrics[approach] = per_class
    return Table1Result(metrics=metrics, nine_class=nine_class)


def render_table1(result: Table1Result) -> str:
    """Print Table 1's precision/recall/accuracy rows."""
    blocks = []
    for feature_type in TABLE1_CLASSES:
        rows = []
        for metric in ("precision", "recall", "accuracy", "f1"):
            row: list[object] = [metric]
            for approach in TABLE1_APPROACHES:
                cell = result.cell(approach, feature_type)
                row.append(None if cell is None else getattr(cell, metric))
            rows.append(row)
        blocks.append(
            format_table(
                ["metric", *TABLE1_APPROACHES],
                rows,
                title=f"\n== {feature_type.value} (binarized, held-out test) ==",
            )
        )
    acc_rows = [
        [approach, result.nine_class[approach]]
        for approach in TABLE1_APPROACHES
        if approach in result.nine_class
    ]
    blocks.append(
        format_table(
            ["approach", "9-class accuracy"],
            acc_rows,
            title="\n== Full 9-class accuracy ==",
        )
    )
    return "\n".join(blocks)


def check(result: Table1Result) -> list[str]:
    """Table 1's shape: the Random Forest beats every prior tool on 9-class
    accuracy."""
    rf = result.nine_class["rf"]
    return [
        f"rf 9-class accuracy {rf:.3f} does not beat {tool}'s "
        f"{result.nine_class[tool]:.3f}"
        for tool in ("tfdv", "pandas", "transmogrifai", "autogluon",
                     "sherlock", "rules")
        if not rf > result.nine_class[tool]
    ]
