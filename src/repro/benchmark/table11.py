"""Experiment E7 — Table 11: extending the vocabulary with semantic types.

Adds a tenth class (*Country* or *State*) to the label vocabulary: relabels
the corpus's matching Categorical examples, augments train/test with weakly
labeled examples from the (simulated) Sherlock data repository, retrains the
Random Forest on (X_stats, X2_sample1), and reports the new class's
precision / recall / F1 / binarized accuracy alongside 10-class accuracy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.benchmark.context import BenchmarkContext
from repro.benchmark.formatting import format_table
from repro.core.feature_sets import FeatureSetBuilder
from repro.core.featurize import ColumnProfile, LabeledDataset
from repro.datagen import lexicon
from repro.ml.forest import RandomForestClassifier
from repro.ml.metrics import accuracy_score, binarized_metrics
from repro.tools.sherlock.generator import sample_columns_of_type
from repro.types import FeatureType


class ExtendedType(enum.Enum):
    """The tenth classes of the Table 11 experiment."""

    COUNTRY = "Country"
    STATE = "State"


_DOMAINS = {
    ExtendedType.COUNTRY: frozenset(lexicon.COUNTRIES),
    ExtendedType.STATE: frozenset(lexicon.US_STATES) | frozenset(lexicon.STATE_CODES),
}

_SHERLOCK_TYPE = {
    ExtendedType.COUNTRY: "country",
    ExtendedType.STATE: "state",
}


@dataclass(frozen=True)
class Table11Row:
    extended_type: ExtendedType
    n_extra_train: int
    ten_class_accuracy: float
    precision: float
    recall: float
    f1: float
    binarized_accuracy: float
    n_train_examples: int
    n_test_examples: int


def _is_extended(profile: ColumnProfile, domain: frozenset[str]) -> bool:
    samples = [s for s in profile.samples if s]
    return bool(samples) and all(s in domain for s in samples)


def _labels_with_extension(
    dataset: LabeledDataset, extended: ExtendedType
) -> list[str]:
    """Relabel matching Categorical examples to the tenth class."""
    domain = _DOMAINS[extended]
    out = []
    for profile in dataset.profiles:
        if profile.label is FeatureType.CATEGORICAL and _is_extended(
            profile, domain
        ):
            out.append(extended.value)
        else:
            out.append(profile.label.value)
    return out


def run_table11(
    context: BenchmarkContext,
    extra_train_counts: tuple[int, ...] = (100, 200),
    extra_test: int = 100,
) -> list[Table11Row]:
    rows = []
    builder_parts = ("stats", "sample1")
    for extended in ExtendedType:
        sherlock_name = _SHERLOCK_TYPE[extended]
        test_extra = sample_columns_of_type(
            sherlock_name, extra_test, seed=context.seed + 1
        )
        test_profiles = list(context.test.profiles) + test_extra
        test_labels = _labels_with_extension(context.test, extended)
        test_labels += [extended.value] * len(test_extra)

        for n_extra in extra_train_counts:
            train_extra = sample_columns_of_type(
                sherlock_name, n_extra, seed=context.seed + 2
            )
            train_profiles = list(context.train.profiles) + train_extra
            train_labels = _labels_with_extension(context.train, extended)
            train_labels += [extended.value] * len(train_extra)

            builder = FeatureSetBuilder(parts=builder_parts)
            X_train = builder.transform(train_profiles)
            X_test = builder.transform(test_profiles)
            forest = RandomForestClassifier(
                n_estimators=context.rf_estimators,
                max_depth=25,
                random_state=context.seed,
            )
            forest.fit(X_train, train_labels)
            predictions = forest.predict(X_test)

            metrics = binarized_metrics(test_labels, predictions, extended.value)
            rows.append(
                Table11Row(
                    extended_type=extended,
                    n_extra_train=n_extra,
                    ten_class_accuracy=accuracy_score(test_labels, predictions),
                    precision=metrics.precision,
                    recall=metrics.recall,
                    f1=metrics.f1,
                    binarized_accuracy=metrics.accuracy,
                    n_train_examples=train_labels.count(extended.value),
                    n_test_examples=test_labels.count(extended.value),
                )
            )
    return rows


def render_table11(rows: list[Table11Row]) -> str:
    body = [
        [
            row.extended_type.value,
            f"N={row.n_extra_train}",
            row.ten_class_accuracy,
            row.precision,
            row.recall,
            row.f1,
            row.binarized_accuracy,
            row.n_train_examples,
            row.n_test_examples,
        ]
        for row in rows
    ]
    return format_table(
        ["type", "extra labels", "10-class acc", "precision", "recall", "F1",
         "binarized acc", "#train", "#test"],
        body,
        title="\n== Table 11: vocabulary extension with Country / State ==",
    )


def check(rows: list[Table11Row]) -> list[str]:
    """Table 11's shape: with 100 extra labels a new class is found with
    precision above 0.6, and doubling the labels keeps its recall (within
    0.05)."""
    by_key = {(r.extended_type.value, r.n_extra_train): r for r in rows}
    failures = []
    for name in ("Country", "State"):
        small = by_key[(name, 100)]
        large = by_key[(name, 200)]
        if not small.precision > 0.6:
            failures.append(
                f"{name} precision with N=100 is {small.precision:.3f}, "
                "not above 0.6"
            )
        if not large.recall >= small.recall - 0.05:
            failures.append(
                f"{name} recall falls from {small.recall:.3f} at N=100 to "
                f"{large.recall:.3f} at N=200, more than 0.05"
            )
    return failures
