"""Experiment "active" — Sections 3.3/6.2: confidence-driven annotation
prioritization.

Simulates the user-in-the-loop labeling campaign (:mod:`repro.active`):
from an 80-label seed, three rounds of 60 labels each, picked at random or
by the Random Forest's least confidence or smallest margin, scored on a
fresh 300-column corpus.  The shape: the uncertainty strategies are at
least competitive with random labeling under the same budget.
"""

from __future__ import annotations

from repro.active import ActiveLearningCurve, compare_strategies
from repro.benchmark.context import BenchmarkContext
from repro.datagen.corpus import generate_corpus

ACTIVE_STRATEGIES = ("random", "least_confidence", "margin")


def run_active(context: BenchmarkContext) -> dict[str, ActiveLearningCurve]:
    test_corpus = generate_corpus(n_examples=300, seed=context.seed + 55)
    return compare_strategies(
        context.dataset,
        test_corpus.dataset,
        strategies=ACTIVE_STRATEGIES,
        seed_size=80,
        batch_size=60,
        n_rounds=3,
        n_estimators=20,
        random_state=context.seed,
    )


def render_active(curves: dict[str, ActiveLearningCurve]) -> str:
    lines = ["\n== Active labeling curves (labels -> test accuracy) =="]
    for strategy, curve in curves.items():
        series = ", ".join(
            f"{spent}->{acc:.3f}"
            for spent, acc in zip(curve.labels_spent, curve.test_accuracy)
        )
        lines.append(f"{strategy:<18} {series}")
    return "\n".join(lines)


def check(curves: dict[str, ActiveLearningCurve]) -> list[str]:
    """The shape: each uncertainty strategy ends no more than 0.05 below
    random labeling."""
    random_final = curves["random"].final_accuracy()
    return [
        f"{strategy} ends at {curves[strategy].final_accuracy():.3f} "
        f"accuracy, more than 0.05 below random's {random_final:.3f}"
        for strategy in ("least_confidence", "margin")
        if not curves[strategy].final_accuracy() >= random_final - 0.05
    ]
