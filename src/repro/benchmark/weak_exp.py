"""Experiment "weak" — Section 6.2 future work: weak-supervision
amplification.

Trains on a small labeled dev set (a tenth of the corpus, at least 100
columns), weak-labels the rest of the corpus with labeling functions (the
tool heuristics + signal probes), and scores the dev-only and the amplified
Random Forest on a fresh corpus.  The shape: the weak labels are far better
than chance, and amplification does not hurt.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.benchmark.context import BenchmarkContext
from repro.datagen.corpus import generate_corpus
from repro.weak import AmplificationResult, amplify


@dataclass(frozen=True)
class WeakSupervisionResult:
    amplification: AmplificationResult
    dev_only_accuracy: float  # on a fresh 400-column corpus
    amplified_accuracy: float


def run_weak_supervision(context: BenchmarkContext) -> WeakSupervisionResult:
    corpus = context.corpus
    by_key = {(t.name, c.name): c for t in corpus.files for c in t}
    columns = [
        by_key[(p.source_file, p.name)] for p in corpus.dataset.profiles
    ]
    n_dev = max(100, len(corpus.dataset) // 10)
    result = amplify(
        corpus.dataset.subset(range(n_dev)), columns[:n_dev],
        corpus.dataset.profiles[n_dev:], columns[n_dev:],
        n_estimators=30,
    )
    eval_corpus = generate_corpus(n_examples=400, seed=context.seed + 100)
    return WeakSupervisionResult(
        amplification=result,
        dev_only_accuracy=result.dev_only_model.score(eval_corpus.dataset),
        amplified_accuracy=result.amplified_model.score(eval_corpus.dataset),
    )


def render_weak_supervision(result: WeakSupervisionResult) -> str:
    amplification = result.amplification
    return (
        "\n== Weak-supervision amplification (Section 6.2) ==\n"
        f"dev labels: {amplification.n_dev}\n"
        f"weakly labeled kept: {amplification.n_weakly_labeled} "
        f"(abstained on {amplification.n_abstained})\n"
        f"weak-label accuracy vs hidden truth: "
        f"{amplification.weak_label_accuracy:.3f}\n"
        f"dev-only model on fresh corpus:  {result.dev_only_accuracy:.3f}\n"
        f"amplified model on fresh corpus: {result.amplified_accuracy:.3f}"
    )


def check(result: WeakSupervisionResult) -> list[str]:
    """The shape: weak labels are right more than 60% of the time, and the
    amplified model scores no more than 0.05 below the dev-only one."""
    failures = []
    weak = result.amplification.weak_label_accuracy
    if not weak > 0.6:
        failures.append(f"weak-label accuracy {weak:.3f} is not above 0.6")
    if not result.amplified_accuracy >= result.dev_only_accuracy - 0.05:
        failures.append(
            f"amplified model accuracy {result.amplified_accuracy:.3f} is "
            f"more than 0.05 below dev-only {result.dev_only_accuracy:.3f}"
        )
    return failures
