"""Experiments E4/E5/E14 — Tables 4, 5 and Figure 8: the downstream suite.

Builds the 30 downstream datasets, infers types with Pandas / TFDV /
AutoGluon / OurRF, trains linear and forest downstream models under each
assignment, and reports per-dataset deltas vs the true types (Table 5),
the coverage/accuracy and under/match/outperform summaries (Table 4), and
the CDFs of performance deltas (Figure 8).

Sharding: the suite decomposes per dataset (:class:`DownstreamShards`) —
each shard generates one dataset, infers every approach's assignment once
(reused for both scoring and the Table 4A coverage/accuracy counts, where
the monolithic path used to infer twice), and evaluates both downstream
models.  :func:`merge_downstream` rebuilds the
:class:`DownstreamExperimentResult` from the per-dataset payloads in
canonical suite order, so sharded output is byte-identical to serial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.benchmark.context import BenchmarkContext
from repro.benchmark.formatting import format_table
from repro.benchmark.sharding import Shardable
from repro.datagen.downstream import DOWNSTREAM_SPECS, DownstreamDataset, make_dataset
from repro.downstream.harness import FOREST, LINEAR, evaluate_assignment
from repro.downstream.suite import (
    InferenceAccuracy,
    SuiteResult,
    TruthComparison,
    compare_to_truth,
    model_assignments,
    tool_assignments,
    truth_assignments,
)
from repro.tools import AutoGluonTool, PandasTool, TFDVTool

#: Table 4/5 approaches, in paper order (plus truth).
DOWNSTREAM_APPROACHES = ("pandas", "tfdv", "autogluon", "ourrf")


@dataclass
class DownstreamExperimentResult:
    suite: SuiteResult
    inference: list[InferenceAccuracy]
    comparisons: dict[str, list[TruthComparison]]  # by model kind
    datasets: list[DownstreamDataset] = field(default_factory=list)

    def deltas_vs_truth(self, approach: str, model_kind: str) -> np.ndarray:
        """Signed deltas vs truth across datasets (Figure 8's raw series)."""
        truth_scores = self.suite.scores["truth"][model_kind]
        return np.array(
            [
                self.suite.delta_vs_truth(approach, model_kind, name)
                for name in truth_scores
            ]
        )

    def delta_cdf(
        self, approach: str, model_kind: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """(sorted drop magnitudes, cumulative fraction) — Figure 8."""
        drops = np.maximum(0.0, -self.deltas_vs_truth(approach, model_kind))
        xs = np.sort(drops)
        ys = np.arange(1, len(xs) + 1) / len(xs)
        return xs, ys


def downstream_specs(dataset_names: tuple[str, ...] | None = None) -> tuple:
    """The suite specs, optionally filtered, in canonical suite order."""
    specs = DOWNSTREAM_SPECS
    if dataset_names is not None:
        wanted = set(dataset_names)
        specs = tuple(s for s in specs if s.name in wanted)
    return tuple(specs)


def _shard_impl(
    context: BenchmarkContext,
    shard_id: str,
    dataset_names: tuple[str, ...] | None,
    seed: int,
) -> tuple[dict, DownstreamDataset]:
    """One suite cell: (payload, the generated dataset).

    The payload holds every approach's scores for both model kinds plus
    the per-dataset Table 4A coverage/accuracy counts.  Assignments are
    inferred once and reused for scoring and coverage — the tools and the
    trained model are deterministic, so this matches inferring twice.
    """
    specs = downstream_specs(dataset_names)
    index = next((i for i, s in enumerate(specs) if s.name == shard_id), None)
    if index is None:
        raise ValueError(f"unknown downstream shard {shard_id!r}")
    dataset = make_dataset(specs[index], seed=seed + index)

    our_rf = context.our_rf
    tools = {"pandas": PandasTool(), "tfdv": TFDVTool(), "autogluon": AutoGluonTool()}
    assignments = {
        "truth": truth_assignments(dataset),
        "pandas": tool_assignments(dataset, tools["pandas"]),
        "tfdv": tool_assignments(dataset, tools["tfdv"]),
        "autogluon": tool_assignments(dataset, tools["autogluon"]),
        "ourrf": model_assignments(dataset, our_rf),
    }

    scores: dict[str, dict[str, object]] = {}
    for model_kind in (LINEAR, FOREST):
        for approach, assignment in assignments.items():
            scores.setdefault(approach, {})[model_kind] = evaluate_assignment(
                dataset, assignment, model_kind=model_kind, seed=seed
            )

    inference: dict[str, tuple[int, int, int]] = {}
    for approach in DOWNSTREAM_APPROACHES:
        assignment = assignments[approach]
        tool = tools.get(approach)
        covered = correct = total = 0
        for column, truth in dataset.true_types.items():
            total += 1
            if tool is not None and not tool.covers_column(dataset.table[column]):
                continue
            covered += 1
            if assignment.get(column) == truth:
                correct += 1
        inference[approach] = (covered, total, correct)

    return {"scores": scores, "inference": inference}, dataset


def run_downstream_shard(
    context: BenchmarkContext,
    shard_id: str,
    dataset_names: tuple[str, ...] | None = None,
    seed: int = 0,
) -> dict:
    """Compute one dataset's payload (the picklable sub-task body)."""
    payload, _ = _shard_impl(context, shard_id, dataset_names, seed)
    return payload


def merge_downstream(
    shards: Mapping[str, dict],
    dataset_names: tuple[str, ...] | None = None,
    datasets: list[DownstreamDataset] | None = None,
) -> DownstreamExperimentResult:
    """Rebuild the experiment result from per-dataset payloads.

    Iterates the canonical spec order (never the mapping's insertion
    order), so the result — and everything rendered from it — is
    independent of shard completion order.
    """
    specs = downstream_specs(dataset_names)
    missing = [s.name for s in specs if s.name not in shards]
    if missing:
        raise ValueError(f"downstream merge missing shard(s): {missing}")

    suite = SuiteResult()
    for spec in specs:
        payload = shards[spec.name]
        for model_kind in (LINEAR, FOREST):
            for approach in ("truth", *DOWNSTREAM_APPROACHES):
                suite.add(approach, payload["scores"][approach][model_kind])

    inference = []
    for approach in DOWNSTREAM_APPROACHES:
        covered = total = correct = 0
        for spec in specs:
            c, t, r = shards[spec.name]["inference"][approach]
            covered += c
            total += t
            correct += r
        inference.append(InferenceAccuracy(approach, covered, total, correct))

    comparisons = {
        kind: compare_to_truth(suite, list(DOWNSTREAM_APPROACHES), kind)
        for kind in ("linear", "forest")
    }
    return DownstreamExperimentResult(
        suite=suite, inference=inference, comparisons=comparisons,
        datasets=list(datasets or []),
    )


def run_downstream_experiment(
    context: BenchmarkContext,
    dataset_names: tuple[str, ...] | None = None,
    seed: int = 0,
) -> DownstreamExperimentResult:
    """Run the full downstream comparison (or a named subset of datasets).

    Serial path: every shard in canonical order, then the shared merge.
    """
    shards: dict[str, dict] = {}
    datasets: list[DownstreamDataset] = []
    for spec in downstream_specs(dataset_names):
        payload, dataset = _shard_impl(context, spec.name, dataset_names, seed)
        shards[spec.name] = payload
        datasets.append(dataset)
    return merge_downstream(shards, dataset_names, datasets=datasets)


def render_downstream(result: DownstreamExperimentResult) -> str:
    """The experiment's full rendered output (Tables 4, 5 and Figure 8)."""
    return "\n".join(
        [render_table4(result), render_table5(result), render_figure8(result)]
    )


class DownstreamShards(Shardable):
    """Shard the downstream suite per dataset (default runner arguments)."""

    name = "downstream"

    def __init__(
        self,
        dataset_names: tuple[str, ...] | None = None,
        seed: int = 0,
    ):
        self.dataset_names = dataset_names
        self.seed = seed

    def shard_ids(self, context: BenchmarkContext) -> list[str]:
        return [s.name for s in downstream_specs(self.dataset_names)]

    def run_shard(self, context: BenchmarkContext, shard_id: str):
        return run_downstream_shard(
            context, shard_id, self.dataset_names, self.seed
        )

    def merge(
        self, context: BenchmarkContext, shards: Mapping[str, object]
    ) -> tuple[str, list[str]]:
        result = merge_downstream(shards, self.dataset_names)
        return render_downstream(result), context.shape_failures(check, result)


def render_table4(result: DownstreamExperimentResult) -> str:
    coverage_rows = [
        [row.approach, row.covered, row.total, f"{100 * row.accuracy:.1f}%"]
        for row in result.inference
    ]
    blocks = [
        format_table(
            ["approach", "column coverage", "total columns",
             "accuracy given coverage"],
            coverage_rows,
            title="\n== Table 4(A): type inference on the downstream suite ==",
        )
    ]
    for kind, rows in result.comparisons.items():
        body = [
            [r.approach, r.underperform, r.match, r.outperform, r.best_tool_count]
            for r in rows
        ]
        blocks.append(
            format_table(
                ["approach", "underperform truth", "match truth",
                 "outperform truth", "best tool count"],
                body,
                title=f"\n== Table 4(B): vs truth, downstream {kind} model ==",
            )
        )
    return "\n".join(blocks)


def render_table5(result: DownstreamExperimentResult) -> str:
    blocks = []
    for kind in ("linear", "forest"):
        rows = []
        truth_scores = result.suite.scores["truth"][kind]
        for name, truth in truth_scores.items():
            row: list[object] = [name, f"{truth.value:.2f}"]
            for approach in DOWNSTREAM_APPROACHES:
                delta = result.suite.delta_vs_truth(approach, kind, name)
                row.append(f"{delta:+.2f}")
            rows.append(row)
        blocks.append(
            format_table(
                ["dataset", "truth", *DOWNSTREAM_APPROACHES],
                rows,
                title=(
                    f"\n== Table 5: downstream {kind} model "
                    "(deltas vs truth; classification in accuracy points, "
                    "regression deltas sign-flipped so negative = worse) =="
                ),
            )
        )
    return "\n".join(blocks)


def render_figure8(result: DownstreamExperimentResult) -> str:
    """Figure 8 as quantile series of the drop-vs-truth CDFs."""
    quantiles = (0.25, 0.5, 0.75, 0.9)
    blocks = []
    for kind in ("linear", "forest"):
        rows = []
        for approach in DOWNSTREAM_APPROACHES:
            xs, _ys = result.delta_cdf(approach, kind)
            row: list[object] = [approach]
            row.extend(float(np.quantile(xs, q)) for q in quantiles)
            rows.append(row)
        blocks.append(
            format_table(
                ["approach", *[f"p{int(100 * q)} drop" for q in quantiles]],
                rows,
                title=f"\n== Figure 8: CDF of drop vs truth ({kind} model) ==",
            )
        )
    return "\n".join(blocks)


def check(result: DownstreamExperimentResult) -> list[str]:
    """The shapes of Tables 4 and 5 and Figure 8: Pandas covers fewer
    columns than AutoGluon and OurRF covers all; OurRF underperforms truth
    on the fewest datasets and its median drop is no worse than the worst
    tool's (linear model); on Hayes OurRF stays at least as close to truth
    as TFDV."""
    failures = []
    rows = {row.approach: row for row in result.inference}
    if not rows["pandas"].covered < rows["autogluon"].covered:
        failures.append(
            f"Table 4(A): pandas covers {rows['pandas'].covered} columns, "
            f"not fewer than autogluon's {rows['autogluon'].covered}"
        )
    if rows["ourrf"].covered != rows["ourrf"].total:
        failures.append(
            f"Table 4(A): ourrf covers {rows['ourrf'].covered} of "
            f"{rows['ourrf'].total} columns"
        )
    comparison = {c.approach: c for c in result.comparisons["linear"]}
    fewest = min(
        comparison[t].underperform for t in ("pandas", "tfdv", "autogluon")
    )
    if not comparison["ourrf"].underperform <= fewest:
        failures.append(
            f"Table 4(B): ourrf underperforms truth on "
            f"{comparison['ourrf'].underperform} datasets (linear), more "
            f"than the best tool's {fewest}"
        )
    suite = result.suite
    if "Hayes" in suite.scores["truth"]["linear"]:
        ourrf = suite.delta_vs_truth("ourrf", "linear", "Hayes")
        tfdv = suite.delta_vs_truth("tfdv", "linear", "Hayes")
        if not ourrf >= tfdv:
            failures.append(
                f"Table 5: on Hayes ourrf's linear delta {ourrf:+.2f} is "
                f"below tfdv's {tfdv:+.2f}"
            )

    def median_drop(approach: str) -> float:
        drops = np.maximum(0.0, -result.deltas_vs_truth(approach, "linear"))
        return float(np.median(drops))

    worst_tool = max(median_drop(t) for t in ("pandas", "tfdv", "autogluon"))
    if not median_drop("ourrf") <= worst_tool + 1e-9:
        failures.append(
            f"Figure 8: ourrf's median linear drop "
            f"{median_drop('ourrf'):.3f} is above the worst tool's "
            f"{worst_tool:.3f}"
        )
    return failures
