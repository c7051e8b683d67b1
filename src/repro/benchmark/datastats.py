"""Experiment E12 — Table 18 / Figure 10: descriptive stats by class.

Average / median / standard deviation / maximum of key descriptive stats per
feature type (Table 18), and their per-class CDFs (Figure 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.benchmark.context import BenchmarkContext
from repro.benchmark.formatting import format_table
from repro.types import ALL_FEATURE_TYPES, FeatureType

#: The Table 18 stat columns (a readable subset of the 25).
TABLE18_STATS = (
    "mean_char_count",
    "mean_word_count",
    "mean_value",
    "pct_distinct",
    "pct_nans",
)


@dataclass
class DataStatsResult:
    """values[feature type][stat name] -> raw per-example values."""

    values: dict[FeatureType, dict[str, np.ndarray]] = field(default_factory=dict)

    def summary(
        self, feature_type: FeatureType, stat: str
    ) -> dict[str, float]:
        arr = self.values[feature_type][stat]
        return {
            "avg": float(arr.mean()),
            "median": float(np.median(arr)),
            "std": float(arr.std()),
            "max": float(arr.max()),
        }

    def cdf(
        self, feature_type: FeatureType, stat: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """(sorted values, cumulative fraction) — one Figure 10 curve."""
        xs = np.sort(self.values[feature_type][stat])
        ys = np.arange(1, len(xs) + 1) / len(xs)
        return xs, ys


def run_datastats(
    context: BenchmarkContext, stats: tuple[str, ...] = TABLE18_STATS
) -> DataStatsResult:
    result = DataStatsResult()
    dataset = context.dataset
    labels = dataset.labels
    for feature_type in ALL_FEATURE_TYPES:
        index = [i for i, label in enumerate(labels) if label is feature_type]
        per_stat = {}
        for stat in stats:
            per_stat[stat] = np.array(
                [dataset.profiles[i].stats[stat] for i in index]
            )
        result.values[feature_type] = per_stat
    return result


def render_table18(result: DataStatsResult) -> str:
    blocks = []
    for stat in TABLE18_STATS:
        rows = []
        for feature_type in ALL_FEATURE_TYPES:
            summary = result.summary(feature_type, stat)
            rows.append(
                [
                    feature_type.value,
                    summary["avg"],
                    summary["median"],
                    summary["std"],
                    summary["max"],
                ]
            )
        blocks.append(
            format_table(
                ["class", "avg", "median", "std dev", "max"],
                rows,
                title=f"\n== Table 18 / Figure 10: {stat} by class ==",
            )
        )
    return "\n".join(blocks)


def check(result: DataStatsResult) -> list[str]:
    """Table 18's shape: Sentence values are long and Numeric values single
    tokens, and Not-Generalizable columns miss more values than Datetime
    columns."""
    failures = []
    sentence = result.summary(FeatureType.SENTENCE, "mean_char_count")["avg"]
    numeric = result.summary(FeatureType.NUMERIC, "mean_char_count")["avg"]
    if not sentence > 3 * numeric:
        failures.append(
            f"Sentence mean_char_count {sentence:.2f} is not above 3x "
            f"Numeric's {numeric:.2f}"
        )
    ng_nans = result.summary(FeatureType.NOT_GENERALIZABLE, "pct_nans")["avg"]
    dt_nans = result.summary(FeatureType.DATETIME, "pct_nans")["avg"]
    if not ng_nans > dt_nans:
        failures.append(
            f"Not-Generalizable pct_nans {ng_nans:.3f} is not above "
            f"Datetime's {dt_nans:.3f}"
        )
    words = result.summary(FeatureType.NUMERIC, "mean_word_count")["avg"]
    if not words < 1.1:
        failures.append(
            f"Numeric mean_word_count {words:.3f} is not below 1.1"
        )
    return failures
