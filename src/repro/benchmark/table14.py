"""Experiment — Tables 13/14 (Appendix I.4 Part C): Sherlock complementarity.

Shows that Sherlock can be layered on top of our feature-type model to
recover fine-grained semantic types: take the test columns whose true
semantic type is unambiguous (Country / State / Gender), check how many our
Random Forest calls Categorical, and measure Sherlock's semantic-type recall
both standalone and gated behind OurRF's Categorical predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.benchmark.context import BenchmarkContext
from repro.benchmark.formatting import format_table
from repro.core.featurize import ColumnProfile
from repro.datagen import lexicon
from repro.tools.sherlock.generator import sample_columns_of_type
from repro.types import FeatureType

#: The semantic types whose ground truth we can identify unambiguously.
TABLE14_TYPES = ("country", "state", "gender")

_DOMAINS = {
    "country": frozenset(lexicon.COUNTRIES),
    "state": frozenset(lexicon.US_STATES) | frozenset(lexicon.STATE_CODES),
    "gender": frozenset({"Male", "Female", "M", "F"}),
}


@dataclass(frozen=True)
class Table14Row:
    semantic_type: str
    n_examples: int
    sherlock_standalone_correct: int
    ourrf_categorical: int
    sherlock_given_categorical_correct: int

    @property
    def standalone_recall(self) -> float:
        return (
            self.sherlock_standalone_correct / self.n_examples
            if self.n_examples
            else 0.0
        )

    @property
    def gated_recall(self) -> float:
        return (
            self.sherlock_given_categorical_correct / self.n_examples
            if self.n_examples
            else 0.0
        )


def _test_examples(
    context: BenchmarkContext, semantic_type: str, minimum: int = 12
) -> list[ColumnProfile]:
    """Held-out columns of this semantic type; padded from Sherlock data."""
    domain = _DOMAINS[semantic_type]
    found = [
        profile
        for profile in context.test.profiles
        if profile.label is FeatureType.CATEGORICAL
        and profile.samples
        and all(s in domain for s in profile.samples)
    ]
    if len(found) < minimum:
        found = found + sample_columns_of_type(
            semantic_type, minimum - len(found), seed=context.seed + 5
        )
    return found


def run_table14(context: BenchmarkContext) -> list[Table14Row]:
    sherlock = context.sherlock
    our_rf = context.our_rf
    rows = []
    for semantic_type in TABLE14_TYPES:
        profiles = _test_examples(context, semantic_type)
        semantic_predictions = sherlock.model.predict(profiles)
        standalone = sum(
            1 for p in semantic_predictions if p == semantic_type
        )
        rf_predictions = our_rf.predict(profiles)
        categorical_mask = [
            p is FeatureType.CATEGORICAL for p in rf_predictions
        ]
        gated = sum(
            1
            for semantic, is_cat in zip(semantic_predictions, categorical_mask)
            if is_cat and semantic == semantic_type
        )
        rows.append(
            Table14Row(
                semantic_type=semantic_type,
                n_examples=len(profiles),
                sherlock_standalone_correct=standalone,
                ourrf_categorical=sum(categorical_mask),
                sherlock_given_categorical_correct=gated,
            )
        )
    return rows


def render_table14(rows: list[Table14Row]) -> str:
    body = [
        [
            row.semantic_type,
            row.n_examples,
            row.sherlock_standalone_correct,
            f"{100 * row.standalone_recall:.1f}%",
            row.ourrf_categorical,
            row.sherlock_given_categorical_correct,
            f"{100 * row.gated_recall:.1f}%",
        ]
        for row in rows
    ]
    return format_table(
        ["semantic type", "#examples", "sherlock correct", "recall",
         "OurRF said CA", "correct given CA", "gated recall"],
        body,
        title="\n== Table 14: Sherlock on top of OurRF's Categorical calls ==",
    )


def check(rows: list[Table14Row]) -> list[str]:
    """Table 14's shape: gating Sherlock behind OurRF's Categorical calls
    keeps its recall (within 0.25), and OurRF calls at least half of the
    columns Categorical."""
    failures = []
    for row in rows:
        if not row.gated_recall >= row.standalone_recall - 0.25:
            failures.append(
                f"{row.semantic_type} gated recall {row.gated_recall:.3f} "
                f"is more than 0.25 below standalone "
                f"{row.standalone_recall:.3f}"
            )
        if not row.ourrf_categorical >= row.n_examples * 0.5:
            failures.append(
                f"OurRF calls {row.ourrf_categorical} of {row.n_examples} "
                f"{row.semantic_type} columns Categorical, under half"
            )
    return failures
