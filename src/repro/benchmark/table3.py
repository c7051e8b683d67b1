"""Experiment E3 — Table 3 / Section 4.4: error analysis of the best RF.

Lists the held-out test columns the Random Forest gets wrong, with the
signals a human would inspect (sample value, totals, %distinct, %NaN), and
aggregates the confusion patterns the paper narrates (Numeric vs
Context-Specific integers, Categorical vs Sentence, ...).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.benchmark.context import BenchmarkContext
from repro.benchmark.formatting import format_table
from repro.types import FeatureType


@dataclass(frozen=True)
class ErrorExample:
    """One misclassified column, in Table 3's layout."""

    attribute_name: str
    sample_value: str
    total_values: int
    pct_distinct: float
    pct_nans: float
    label: FeatureType
    prediction: FeatureType


@dataclass
class Table3Result:
    examples: list[ErrorExample]
    confusion_pairs: Counter  # (label, prediction) -> count
    test_size: int

    @property
    def error_rate(self) -> float:
        """Every error over the test size; ``examples`` may be truncated."""
        n_errors = sum(self.confusion_pairs.values())
        return n_errors / self.test_size if self.test_size else 0.0


def run_table3(context: BenchmarkContext, max_examples: int = 50) -> Table3Result:
    """Collect the RF's held-out errors with their inspection signals."""
    test = context.test
    predictions = context.our_rf.predict(test.profiles)
    examples = []
    pairs: Counter = Counter()
    for profile, prediction in zip(test.profiles, predictions):
        if prediction == profile.label:
            continue
        pairs[(profile.label, prediction)] += 1
        examples.append(
            ErrorExample(
                attribute_name=profile.name,
                sample_value=profile.sample(0),
                total_values=int(profile.stats["total_values"]),
                pct_distinct=100.0 * profile.stats["pct_distinct"],
                pct_nans=100.0 * profile.stats["pct_nans"],
                label=profile.label,
                prediction=prediction,
            )
        )
    examples.sort(key=lambda e: (e.label.value, e.prediction.value))
    return Table3Result(
        examples=examples[:max_examples],
        confusion_pairs=pairs,
        test_size=len(test),
    )


def run_datatype_confusion(context: BenchmarkContext) -> dict:
    """Predicted feature type × raw syntactic datatype counts (§4.4).

    The paper's appendix crosses OurRF's predictions with the raw datatype
    of the column values — e.g. showing that misclassified Numerics are
    mostly integers, not floats.  Returns ``{(feature type, syntactic type):
    count}`` over the held-out test set.
    """
    from repro.tabular.dtypes import column_syntactic_type

    test = context.test
    predictions = context.our_rf.predict(test.profiles)
    columns = context.raw_columns(test)
    counts: Counter = Counter()
    for prediction, column in zip(predictions, columns):
        syntactic = column_syntactic_type(list(column.cells))
        counts[(prediction, syntactic)] += 1
    return dict(counts)


def render_datatype_confusion(counts: dict) -> str:
    """Render the prediction × raw-datatype cross table."""
    from repro.tabular.dtypes import SyntacticType

    syntactic_order = list(SyntacticType)
    rows = []
    for feature_type in FeatureType:
        row: list[object] = [feature_type.short]
        total = 0
        for syntactic in syntactic_order:
            count = counts.get((feature_type, syntactic), 0)
            row.append(count)
            total += count
        if total:
            rows.append(row)
    return format_table(
        ["predicted \\ raw dtype", *[s.value for s in syntactic_order]],
        rows,
        title="\n== Predicted feature type vs raw syntactic datatype ==",
    )


def render_table3(result: Table3Result) -> str:
    rows = [
        [
            e.attribute_name,
            e.sample_value[:24],
            e.total_values,
            f"{e.pct_distinct:.2f}",
            f"{e.pct_nans:.1f}",
            e.label.short,
            e.prediction.short,
        ]
        for e in result.examples
    ]
    table = format_table(
        ["Attribute Name", "Sample Value", "Total", "%Distinct", "%NaNs",
         "Label", "RF Prediction"],
        rows,
        title="\n== Errors made by RandomForest (held-out test) ==",
    )
    pair_rows = [
        [label.short, prediction.short, count]
        for (label, prediction), count in result.confusion_pairs.most_common(12)
    ]
    pair_table = format_table(
        ["Label", "Predicted", "Count"],
        pair_rows,
        title="\n== Most common confusion pairs ==",
    )
    return f"{table}\n{pair_table}\nerror rate: {result.error_rate:.3f}"


def check(result: Table3Result) -> list[str]:
    """Table 3's shape: the Random Forest's errors are a tail, under 20%."""
    if result.error_rate < 0.2:
        return []
    return [f"rf error rate {result.error_rate:.3f} is not below 0.2"]
