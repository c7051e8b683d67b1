"""Experiment E16 — Section 2.4 / Appendix C: labeling-process simulations.

(1) The bootstrap: train a Random Forest on 500 seed labels, measure its
5-fold CV accuracy (the paper saw ~74%), and use it to group the remaining
unlabeled examples by predicted class — the cognitive-load reduction trick.

(2) The crowdsourcing trial: simulate noisy annotators on a 5-class
collapsed vocabulary and measure label agreement / majority-vote quality,
mirroring why the FigureEight effort was abandoned.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.benchmark.context import BenchmarkContext
from repro.core.feature_sets import FeatureSetBuilder
from repro.ml.forest import RandomForestClassifier
from repro.ml.model_selection import cross_val_score
from repro.types import FeatureType

#: Appendix C's collapsed 5-class crowdsourcing vocabulary.
CROWD_CLASSES = {
    FeatureType.NUMERIC: "Numeric",
    FeatureType.CATEGORICAL: "Categorical",
    FeatureType.DATETIME: "Needs-Extraction",
    FeatureType.SENTENCE: "Needs-Extraction",
    FeatureType.URL: "Needs-Extraction",
    FeatureType.EMBEDDED_NUMBER: "Needs-Extraction",
    FeatureType.LIST: "Needs-Extraction",
    FeatureType.NOT_GENERALIZABLE: "Not-Generalizable",
    FeatureType.CONTEXT_SPECIFIC: "Context-Specific",
}


@dataclass(frozen=True)
class BootstrapResult:
    seed_size: int
    cv_accuracy: float
    group_sizes: dict[str, int]  # predicted-class group sizes over the rest


def run_labeling_bootstrap(
    context: BenchmarkContext, seed_size: int = 500
) -> BootstrapResult:
    dataset = context.dataset
    seed_size = min(seed_size, len(dataset) // 2)
    rng = np.random.default_rng(context.seed)
    order = rng.permutation(len(dataset))
    seed_idx = order[:seed_size]
    rest_idx = order[seed_size:]

    builder = FeatureSetBuilder(parts=("stats", "name"))
    seed_split = dataset.subset(seed_idx)
    X_seed = builder.transform(seed_split.profiles)
    y_seed = [label.value for label in seed_split.labels]

    forest = RandomForestClassifier(n_estimators=100, max_depth=25,
                                    random_state=context.seed)
    cv_accuracy = float(
        np.mean(cross_val_score(forest, X_seed, y_seed, cv=5,
                                random_state=context.seed))
    )

    forest.fit(X_seed, y_seed)
    rest = dataset.subset(rest_idx)
    predictions = forest.predict(builder.transform(rest.profiles))
    # the forest predicts numpy strings; the groups are keyed by plain str
    group_sizes = dict(Counter(map(str, predictions)))
    return BootstrapResult(
        seed_size=seed_size, cv_accuracy=cv_accuracy, group_sizes=group_sizes
    )


@dataclass(frozen=True)
class CrowdsourcingResult:
    n_workers: int
    worker_accuracy: float
    majority_vote_accuracy: float
    pct_examples_with_3plus_labels: float


def run_crowdsourcing_simulation(
    context: BenchmarkContext,
    n_workers: int = 5,
    worker_accuracy: float = 0.55,
    n_examples: int = 400,
) -> CrowdsourcingResult:
    """Noisy annotators over the collapsed 5-class vocabulary."""
    dataset = context.dataset
    rng = np.random.default_rng(context.seed + 99)
    index = rng.choice(len(dataset), size=min(n_examples, len(dataset)),
                       replace=False)
    truth = [CROWD_CLASSES[dataset.profiles[int(i)].label] for i in index]
    vocabulary = sorted(set(CROWD_CLASSES.values()))

    majority_correct = 0
    many_labels = 0
    for true_label in truth:
        votes = []
        for _worker in range(n_workers):
            if rng.random() < worker_accuracy:
                votes.append(true_label)
            else:
                votes.append(vocabulary[int(rng.integers(len(vocabulary)))])
        counts = Counter(votes)
        if len(counts) >= 3:
            many_labels += 1
        if counts.most_common(1)[0][0] == true_label:
            majority_correct += 1
    return CrowdsourcingResult(
        n_workers=n_workers,
        worker_accuracy=worker_accuracy,
        majority_vote_accuracy=majority_correct / len(truth),
        pct_examples_with_3plus_labels=many_labels / len(truth),
    )


def render_labeling(
    bootstrap: BootstrapResult, crowd: CrowdsourcingResult
) -> str:
    return (
        f"labeling bootstrap: seed={bootstrap.seed_size} "
        f"5-fold CV accuracy={bootstrap.cv_accuracy:.3f}\n"
        f"predicted-class group sizes: {bootstrap.group_sizes}\n"
        f"crowdsourcing sim: worker acc={crowd.worker_accuracy:.2f} -> "
        f"majority vote acc={crowd.majority_vote_accuracy:.3f}, "
        f"{100 * crowd.pct_examples_with_3plus_labels:.0f}% of examples got "
        "3+ distinct labels"
    )


def check(result: tuple[BootstrapResult, CrowdsourcingResult]) -> list[str]:
    """Section 2.4's shape: a 500-label seed forest reaches the paper's ~74%
    (above 0.65), and majority votes of noisy crowd labels stay too poor to
    use (below 0.95)."""
    bootstrap, crowd = result
    failures = []
    if not bootstrap.cv_accuracy > 0.65:
        failures.append(
            f"bootstrap 5-fold CV accuracy {bootstrap.cv_accuracy:.3f} is "
            "not above 0.65"
        )
    if not crowd.majority_vote_accuracy < 0.95:
        failures.append(
            f"crowd majority-vote accuracy {crowd.majority_vote_accuracy:.3f} "
            "is not below 0.95"
        )
    return failures
