"""The 30-task downstream benchmark suite runner (Tables 4 and 5).

Compares type assignments from ground truth, the industrial tools, and a
trained model ("OurRF") by the downstream performance they yield.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.featurize import profile_table
from repro.core.models import TypeInferenceModel
from repro.datagen.downstream import DownstreamDataset
from repro.downstream.featurize import TypeAssignment
from repro.downstream.harness import (
    FOREST,
    LINEAR,
    DownstreamScore,
    evaluate_assignment,
)
from repro.tools.base import InferenceTool
from repro.types import FeatureType

#: Score differences within these tolerances count as "matching the truth".
CLASSIFICATION_TOLERANCE = 0.5  # accuracy points (of 100)
REGRESSION_TOLERANCE = 0.02  # relative RMSE


def truth_assignments(dataset: DownstreamDataset) -> TypeAssignment:
    """The hand-labeled ground-truth types."""
    return dict(dataset.true_types)


def tool_assignments(
    dataset: DownstreamDataset, tool: InferenceTool
) -> TypeAssignment:
    """Types inferred by a rule/syntax-based tool."""
    return dict(tool.infer_table(dataset.table))


def model_assignments(
    dataset: DownstreamDataset, model: TypeInferenceModel
) -> TypeAssignment:
    """Types inferred by a trained type-inference model."""
    profiles = profile_table(dataset.table)
    predictions = model.predict(profiles)
    return {p.name: pred for p, pred in zip(profiles, predictions)}


def served_assignments(
    dataset: DownstreamDataset, client, model: str | None = None
) -> TypeAssignment:
    """Types inferred by a live ``repro-serve`` instance.

    ``client`` is a :class:`~repro.serve.client.ServeClient`; ``model``
    optionally routes to one registered model.  This closes the ROADMAP's "Table 5 against a
    live server" gap: the downstream harness consumes served predictions
    exactly like offline ones, so offline-vs-served score parity is a
    one-line comparison (see ``tests/test_serve_fleet.py``).
    """
    columns = [
        {"name": column.name, "cells": list(column)}
        for column in dataset.table
    ]
    response = client.infer_columns(
        columns, table=dataset.name, model=model
    )
    return {
        p["column"]: FeatureType(p["feature_type"])
        for p in response["predictions"]
    }


@dataclass(frozen=True)
class InferenceAccuracy:
    """Table 4(A) row: column coverage and accuracy given coverage."""

    approach: str
    covered: int
    total: int
    correct_given_coverage: int

    @property
    def accuracy(self) -> float:
        if self.covered == 0:
            return 0.0
        return self.correct_given_coverage / self.covered


def inference_accuracy_on_suite(
    datasets: list[DownstreamDataset],
    approach: str,
    assignment_fn: Callable[[DownstreamDataset], TypeAssignment],
    coverage_fn: Callable[[DownstreamDataset, str], bool] | None = None,
) -> InferenceAccuracy:
    """Type-inference coverage/accuracy over all suite columns (Table 4A)."""
    covered = correct = total = 0
    for dataset in datasets:
        assignments = assignment_fn(dataset)
        for name, truth in dataset.true_types.items():
            total += 1
            is_covered = (
                coverage_fn(dataset, name) if coverage_fn is not None else True
            )
            if not is_covered:
                continue
            covered += 1
            if assignments.get(name) == truth:
                correct += 1
    return InferenceAccuracy(approach, covered, total, correct)


@dataclass
class SuiteResult:
    """All scores: result[approach][model_kind][dataset] -> DownstreamScore."""

    scores: dict[str, dict[str, dict[str, DownstreamScore]]] = field(
        default_factory=dict
    )

    def add(self, approach: str, score: DownstreamScore) -> None:
        self.scores.setdefault(approach, {}).setdefault(score.model_kind, {})[
            score.dataset
        ] = score

    def approaches(self) -> list[str]:
        return list(self.scores)

    def delta_vs_truth(
        self, approach: str, model_kind: str, dataset: str
    ) -> float:
        """Signed improvement over truth (positive = outperforms truth)."""
        score = self.scores[approach][model_kind][dataset]
        truth = self.scores["truth"][model_kind][dataset]
        return score.delta_vs(truth)


def _matches(score: DownstreamScore, truth: DownstreamScore) -> bool:
    if score.higher_is_better:
        return abs(score.value - truth.value) <= CLASSIFICATION_TOLERANCE
    scale = max(abs(truth.value), 1e-9)
    return abs(score.value - truth.value) / scale <= REGRESSION_TOLERANCE


@dataclass(frozen=True)
class TruthComparison:
    """Table 4(B) row: datasets where an approach under/matches/outperforms."""

    approach: str
    model_kind: str
    underperform: int
    match: int
    outperform: int
    best_tool_count: int


def compare_to_truth(
    result: SuiteResult, approaches: list[str], model_kind: str
) -> list[TruthComparison]:
    """Summarize each approach against truth and against the other tools."""
    truth_scores = result.scores["truth"][model_kind]
    rows = []
    for approach in approaches:
        under = match = over = best = 0
        for dataset, truth in truth_scores.items():
            score = result.scores[approach][model_kind][dataset]
            if _matches(score, truth):
                match += 1
            elif score.delta_vs(truth) > 0:
                over += 1
            else:
                under += 1
            rival_deltas = [
                result.scores[other][model_kind][dataset].delta_vs(truth)
                for other in approaches
            ]
            if score.delta_vs(truth) >= max(rival_deltas) - 1e-12:
                best += 1
        rows.append(
            TruthComparison(approach, model_kind, under, match, over, best)
        )
    return rows


def run_suite(
    datasets: list[DownstreamDataset],
    approaches: dict[str, Callable[[DownstreamDataset], TypeAssignment]],
    model_kinds: tuple[str, ...] = (LINEAR, FOREST),
    seed: int = 0,
) -> SuiteResult:
    """Evaluate every (approach, model kind, dataset) combination.

    ``approaches`` must include a "truth" entry for the comparisons.
    """
    if "truth" not in approaches:
        raise ValueError('approaches must include a "truth" assignment')
    result = SuiteResult()
    for dataset in datasets:
        assignment_cache = {
            name: fn(dataset) for name, fn in approaches.items()
        }
        for model_kind in model_kinds:
            for name, assignments in assignment_cache.items():
                score = evaluate_assignment(
                    dataset, assignments, model_kind=model_kind, seed=seed
                )
                result.add(name, score)
    return result
