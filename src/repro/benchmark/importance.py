"""Feature-block importance analysis (paper Section 6.2).

"We found that descriptive stats and attribute names are most useful for
prediction, while raw attribute values have only marginal utility."  We
quantify that with block permutation importance: shuffle all columns of one
feature block (stats / name bigrams / sample bigrams) at once and measure
the held-out accuracy drop of a Random Forest trained on the full set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.benchmark.context import BenchmarkContext
from repro.benchmark.formatting import format_table
from repro.core.feature_sets import FeatureSetBuilder
from repro.core.stats import N_STATS
from repro.ml.forest import RandomForestClassifier
from repro.ml.metrics import accuracy_score

_FEATURE_SET = ("stats", "name", "sample1")


@dataclass(frozen=True)
class BlockImportance:
    block: str
    baseline_accuracy: float
    permuted_accuracy: float

    @property
    def drop(self) -> float:
        return self.baseline_accuracy - self.permuted_accuracy


def run_block_importance(
    context: BenchmarkContext, n_repeats: int = 3
) -> list[BlockImportance]:
    """Permute each feature block on the test matrix; report accuracy drops."""
    builder = FeatureSetBuilder(parts=_FEATURE_SET)
    X_train = builder.transform(context.train.profiles)
    X_test = builder.transform(context.test.profiles)
    y_train = [label.value for label in context.train.labels]
    y_test = [label.value for label in context.test.labels]

    forest = RandomForestClassifier(
        n_estimators=context.rf_estimators, max_depth=25,
        random_state=context.seed,
    )
    forest.fit(X_train, y_train)
    baseline = accuracy_score(y_test, forest.predict(X_test))

    blocks = {
        "stats": (0, N_STATS),
        "name_bigrams": (N_STATS, N_STATS + builder.hash_dim),
        "sample1_bigrams": (
            N_STATS + builder.hash_dim,
            N_STATS + 2 * builder.hash_dim,
        ),
    }
    rng = np.random.default_rng(context.seed)
    out = []
    for block, (start, stop) in blocks.items():
        accuracies = []
        for _ in range(n_repeats):
            permuted = X_test.copy()
            order = rng.permutation(permuted.shape[0])
            permuted[:, start:stop] = permuted[order, start:stop]
            accuracies.append(
                accuracy_score(y_test, forest.predict(permuted))
            )
        out.append(
            BlockImportance(
                block=block,
                baseline_accuracy=baseline,
                permuted_accuracy=float(np.mean(accuracies)),
            )
        )
    return out


def render_block_importance(rows: list[BlockImportance]) -> str:
    body = [
        [row.block, row.baseline_accuracy, row.permuted_accuracy, row.drop]
        for row in sorted(rows, key=lambda r: -r.drop)
    ]
    return format_table(
        ["feature block", "baseline acc", "permuted acc", "drop"],
        body,
        title="\n== Feature-block permutation importance (RF, stats+name+sample1) ==",
    )


def check(rows: list[BlockImportance]) -> list[str]:
    """Section 6.2's shape: the stats block carries real signal, and more
    of it than the raw sample values."""
    by_block = {row.block: row for row in rows}
    stats = by_block["stats"].drop
    sample = by_block["sample1_bigrams"].drop
    failures = []
    if not stats >= sample - 0.01:
        failures.append(
            f"permuting stats drops accuracy by {stats:.3f}, less than "
            f"sample1_bigrams' {sample:.3f} - 0.01"
        )
    if not stats > 0.02:
        failures.append(
            f"permuting stats drops accuracy by {stats:.3f}, not above 0.02"
        )
    return failures
