"""Experiment E8 — Table 12: ablation of the type-specific stats features.

Drops the three custom boolean probes (list / URL / datetime checks) from
X_stats one at a time, retrains Logistic Regression and Random Forest on
[X_stats, X2_name, X2_sample1], and reports 9-class accuracy plus
precision/recall/F1 of the three affected classes.  The paper finds the
drops marginal — evidence the featurization is robust.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.benchmark.context import BenchmarkContext
from repro.benchmark.formatting import format_table
from repro.core.models import LogRegModel, RandomForestModel
from repro.core.stats import (
    DATETIME_FEATURE_INDEX,
    LIST_FEATURE_INDEX,
    URL_FEATURE_INDEX,
)
from repro.ml.metrics import binarized_metrics
from repro.types import FeatureType

#: The ablation variants: full feature set, then minus each custom probe.
ABLATIONS: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("full", ()),
    ("minus list feature", (LIST_FEATURE_INDEX,)),
    ("minus url feature", (URL_FEATURE_INDEX,)),
    ("minus datetime feature", (DATETIME_FEATURE_INDEX,)),
)

_TRACKED_CLASSES = (FeatureType.DATETIME, FeatureType.URL, FeatureType.LIST)

_FEATURE_SET = ("stats", "name", "sample1")


@dataclass(frozen=True)
class Table12Row:
    model: str
    ablation: str
    nine_class_accuracy: float
    class_f1: dict[FeatureType, float]
    class_precision: dict[FeatureType, float]
    class_recall: dict[FeatureType, float]


def run_table12(context: BenchmarkContext) -> list[Table12Row]:
    rows = []
    for model_name in ("logreg", "rf"):
        for ablation_name, dropped in ABLATIONS:
            if model_name == "logreg":
                model = LogRegModel(
                    feature_set=_FEATURE_SET, drop_stat_indices=dropped
                )
            else:
                model = RandomForestModel(
                    n_estimators=context.rf_estimators,
                    feature_set=_FEATURE_SET,
                    drop_stat_indices=dropped,
                    random_state=context.seed,
                )
            model.fit(context.train)
            predictions = model.predict(context.test.profiles)
            truth = context.test.labels
            f1, precision, recall = {}, {}, {}
            for feature_type in _TRACKED_CLASSES:
                metrics = binarized_metrics(truth, predictions, feature_type)
                f1[feature_type] = metrics.f1
                precision[feature_type] = metrics.precision
                recall[feature_type] = metrics.recall
            accuracy = sum(
                1 for p, t in zip(predictions, truth) if p == t
            ) / len(truth)
            rows.append(
                Table12Row(
                    model=model_name,
                    ablation=ablation_name,
                    nine_class_accuracy=accuracy,
                    class_f1=f1,
                    class_precision=precision,
                    class_recall=recall,
                )
            )
    return rows


def render_table12(rows: list[Table12Row]) -> str:
    body = []
    for row in rows:
        body.append(
            [
                row.model,
                row.ablation,
                row.nine_class_accuracy,
                row.class_precision[FeatureType.DATETIME],
                row.class_recall[FeatureType.DATETIME],
                row.class_precision[FeatureType.URL],
                row.class_recall[FeatureType.URL],
                row.class_precision[FeatureType.LIST],
                row.class_recall[FeatureType.LIST],
            ]
        )
    return format_table(
        ["model", "ablation", "9-class acc", "DT prec", "DT rec",
         "URL prec", "URL rec", "LST prec", "LST rec"],
        body,
        title="\n== Table 12: ablation of type-specific stats features ==",
    )


def check(rows: list[Table12Row]) -> list[str]:
    """Table 12's shape: dropping one probe moves 9-class accuracy by less
    than 0.1."""
    by_key = {(r.model, r.ablation): r for r in rows}
    failures = []
    for model in ("logreg", "rf"):
        full = by_key[(model, "full")].nine_class_accuracy
        for ablation, _dropped in ABLATIONS[1:]:
            ablated = by_key[(model, ablation)].nine_class_accuracy
            if not abs(full - ablated) < 0.1:
                failures.append(
                    f"{model} {ablation} moves 9-class accuracy from "
                    f"{full:.3f} to {ablated:.3f}, not less than 0.1"
                )
    return failures
