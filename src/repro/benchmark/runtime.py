"""Experiment E13 — Figure 7: per-column prediction runtime breakdown.

Measures the online phase per column: base featurization, model-specific
feature extraction (classical models only), and inference, averaged over the
held-out test columns.  The paper reports all models under 0.2 s/column.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.benchmark.context import BenchmarkContext
from repro.benchmark.formatting import format_table
from repro.core.featurize import profile_column
from repro.core.models import _ClassicalModel


@dataclass(frozen=True)
class RuntimeBreakdown:
    """Per-column average seconds for each online-phase stage."""

    model: str
    base_featurization: float
    feature_extraction: float
    inference: float

    @property
    def total(self) -> float:
        return self.base_featurization + self.feature_extraction + self.inference


def run_runtimes(
    context: BenchmarkContext,
    models: tuple[str, ...] = ("logreg", "svm", "rf", "cnn", "knn"),
    max_columns: int = 100,
) -> list[RuntimeBreakdown]:
    test = context.test
    profiles = test.profiles[:max_columns]
    columns = [context.raw_column(p) for p in profiles]
    n = len(columns)

    start = time.perf_counter()
    fresh_profiles = [profile_column(c) for c in columns]
    base_time = (time.perf_counter() - start) / n

    breakdowns = []
    for name in models:
        model = context.model(name)
        extraction_time = 0.0
        if isinstance(model, _ClassicalModel):
            start = time.perf_counter()
            X = model._matrix(fresh_profiles, fit=False)
            extraction_time = (time.perf_counter() - start) / n
            start = time.perf_counter()
            model.estimator.predict(X)
            inference_time = (time.perf_counter() - start) / n
        else:
            start = time.perf_counter()
            model.predict(fresh_profiles)
            inference_time = (time.perf_counter() - start) / n
        breakdowns.append(
            RuntimeBreakdown(
                model=name,
                base_featurization=base_time,
                feature_extraction=extraction_time,
                inference=inference_time,
            )
        )
    return breakdowns


def render_figure7(breakdowns: list[RuntimeBreakdown]) -> str:
    rows = [
        [
            b.model,
            f"{1e3 * b.base_featurization:.2f}",
            f"{1e3 * b.feature_extraction:.2f}",
            f"{1e3 * b.inference:.2f}",
            f"{1e3 * b.total:.2f}",
        ]
        for b in breakdowns
    ]
    return format_table(
        ["model", "base featurization (ms)", "feature extraction (ms)",
         "inference (ms)", "total (ms/column)"],
        rows,
        title="\n== Figure 7: online prediction runtime per column ==",
    )


def check(breakdowns: list[RuntimeBreakdown]) -> list[str]:
    """Figure 7's shape: every model predicts in under 0.2 s per column."""
    return [
        f"{b.model} takes {b.total:.3f} s per column, not under 0.2 s"
        for b in breakdowns
        if not b.total < 0.2
    ]
