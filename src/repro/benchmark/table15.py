"""Experiment E9 — Table 15: double representation of integer columns.

Routes integer columns to BOTH numeric and one-hot representations — for
the tools unconditionally, for NewRF only when the type-inference confidence
falls below the 0.4 threshold — and compares against truth and the
exclusive-representation baselines on the classification datasets.

Sharding: the experiment decomposes per dataset
(:class:`Table15Shards`) — each shard generates its dataset, evaluates
every approach under both downstream models (all evaluations seed their
RNGs locally, so the cells are order-independent), and
:func:`merge_table15` folds the per-dataset score maps back into the
table rows.  ``run_table15`` runs the same shard/merge code serially, so
sharded and serial output are identical by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.benchmark.context import BenchmarkContext
from repro.benchmark.formatting import format_table
from repro.benchmark.sharding import Shardable
from repro.core.featurize import profile_table
from repro.core.newrf import NewRF, Representation
from repro.datagen.downstream import DOWNSTREAM_SPECS, make_dataset
from repro.downstream.featurize import TypeAssignment
from repro.downstream.harness import evaluate_assignment
from repro.downstream.suite import tool_assignments, truth_assignments
from repro.tabular.dtypes import is_integer_literal
from repro.tools import AutoGluonTool, PandasTool, TFDVTool
from repro.types import FeatureType


def _is_integer_column(column) -> bool:
    sample = column.head_distinct(5)
    return bool(sample) and all(is_integer_literal(s) for s in sample)


def doubled_tool_assignments(dataset, tool) -> TypeAssignment:
    """Tool assignment with every integer column double-represented."""
    base = tool_assignments(dataset, tool)
    out: TypeAssignment = {}
    for name, feature_type in base.items():
        if feature_type in (
            FeatureType.NUMERIC,
            FeatureType.CATEGORICAL,
        ) and _is_integer_column(dataset.table[name]):
            out[name] = Representation(feature_type, double=True)
        else:
            out[name] = feature_type
    return out


def newrf_assignments(dataset, newrf: NewRF) -> TypeAssignment:
    profiles = profile_table(dataset.table)
    representations = newrf.predict(profiles)
    return {p.name: rep for p, rep in zip(profiles, representations)}


@dataclass(frozen=True)
class Table15Row:
    approach: str
    model_kind: str
    underperform_truth: int
    underperform_exclusive_baseline: int
    outperform_exclusive_baseline: int
    best_tool_count: int


#: Tool column order is load-bearing: it fixes the approach row order.
TABLE15_TOOLS = ("pandas", "tfdv", "autogluon")


def _make_tools() -> dict:
    return {"pandas": PandasTool(), "tfdv": TFDVTool(), "autogluon": AutoGluonTool()}


def classification_specs(dataset_names: tuple[str, ...] | None = None) -> list:
    """The classification dataset specs, optionally filtered, in suite order.

    The per-dataset generation seed is ``seed + index`` *within this
    filtered list*, so filtering changes the seeds (as it always has).
    """
    specs = [s for s in DOWNSTREAM_SPECS if s.task == "classification"]
    if dataset_names is not None:
        wanted = set(dataset_names)
        specs = [s for s in specs if s.name in wanted]
    return specs


def run_table15_shard(
    context: BenchmarkContext,
    shard_id: str,
    dataset_names: tuple[str, ...] | None = None,
    seed: int = 0,
) -> dict[str, dict[str, float]]:
    """One Table 15 cell: every approach's score on one dataset.

    Returns ``{model_kind: {approach: score}}``.  Every
    ``evaluate_assignment`` call seeds its RNGs locally, so the payload is
    identical whether this runs serially, in a forked worker, or out of
    order relative to its sibling shards.
    """
    specs = classification_specs(dataset_names)
    index = next(
        (i for i, s in enumerate(specs) if s.name == shard_id), None
    )
    if index is None:
        raise ValueError(f"unknown table15 shard {shard_id!r}")
    dataset = make_dataset(specs[index], seed=seed + index)

    tools = _make_tools()
    newrf = NewRF(context.our_rf)
    payload: dict[str, dict[str, float]] = {}
    for model_kind in ("linear", "forest"):
        scores: dict[str, float] = {}
        scores["truth"] = evaluate_assignment(
            dataset, truth_assignments(dataset), model_kind, seed=seed
        ).value
        for name, tool in tools.items():
            scores[f"{name}:exclusive"] = evaluate_assignment(
                dataset, tool_assignments(dataset, tool), model_kind, seed=seed
            ).value
            scores[f"{name}:double"] = evaluate_assignment(
                dataset, doubled_tool_assignments(dataset, tool),
                model_kind, seed=seed,
            ).value
        scores["newrf"] = evaluate_assignment(
            dataset, newrf_assignments(dataset, newrf), model_kind, seed=seed
        ).value
        payload[model_kind] = scores
    return payload


def merge_table15(
    shards: Mapping[str, Mapping[str, Mapping[str, float]]],
    dataset_names: tuple[str, ...] | None = None,
) -> list[Table15Row]:
    """Fold per-dataset shard payloads into the Table 15 rows.

    Pure function of the payload values — iteration follows the canonical
    spec order, never the mapping's insertion order.
    """
    specs = classification_specs(dataset_names)
    names = [s.name for s in specs]
    missing = [n for n in names if n not in shards]
    if missing:
        raise ValueError(f"table15 merge missing shard(s): {missing}")

    rows = []
    for model_kind in ("linear", "forest"):
        scores: dict[str, dict[str, float]] = {}
        for name in names:
            for approach, value in shards[name][model_kind].items():
                scores.setdefault(approach, {})[name] = value

        approaches = [f"{name}:double" for name in TABLE15_TOOLS] + ["newrf"]
        for approach in approaches:
            under_truth = under_base = over_base = best = 0
            baseline_key = (
                approach.replace(":double", ":exclusive")
                if approach != "newrf"
                else None
            )
            for name in names:
                value = scores[approach][name]
                truth_value = scores["truth"][name]
                if value < truth_value - 0.5:
                    under_truth += 1
                if baseline_key is not None:
                    baseline_value = scores[baseline_key][name]
                    if value < baseline_value - 0.5:
                        under_base += 1
                    elif value > baseline_value + 0.5:
                        over_base += 1
                rivals = [scores[a][name] for a in approaches]
                if value >= max(rivals) - 1e-12:
                    best += 1
            rows.append(
                Table15Row(
                    approach=approach,
                    model_kind=model_kind,
                    underperform_truth=under_truth,
                    underperform_exclusive_baseline=under_base,
                    outperform_exclusive_baseline=over_base,
                    best_tool_count=best,
                )
            )
    return rows


def run_table15(
    context: BenchmarkContext,
    dataset_names: tuple[str, ...] | None = None,
    seed: int = 0,
) -> list[Table15Row]:
    """Serial path: every shard in canonical order, then the shared merge."""
    shards = {
        spec.name: run_table15_shard(context, spec.name, dataset_names, seed)
        for spec in classification_specs(dataset_names)
    }
    return merge_table15(shards, dataset_names)


class Table15Shards(Shardable):
    """Shard Table 15 per classification dataset (default runner arguments)."""

    name = "table15"

    def __init__(
        self,
        dataset_names: tuple[str, ...] | None = None,
        seed: int = 0,
    ):
        self.dataset_names = dataset_names
        self.seed = seed

    def shard_ids(self, context: BenchmarkContext) -> list[str]:
        return [s.name for s in classification_specs(self.dataset_names)]

    def run_shard(self, context: BenchmarkContext, shard_id: str):
        return run_table15_shard(
            context, shard_id, self.dataset_names, self.seed
        )

    def merge(
        self, context: BenchmarkContext, shards: Mapping[str, object]
    ) -> tuple[str, list[str]]:
        rows = merge_table15(shards, self.dataset_names)
        return render_table15(rows), context.shape_failures(check, rows)


def render_table15(rows: list[Table15Row]) -> str:
    body = [
        [
            row.model_kind,
            row.approach,
            row.underperform_truth,
            row.underperform_exclusive_baseline,
            row.outperform_exclusive_baseline,
            row.best_tool_count,
        ]
        for row in rows
    ]
    return format_table(
        ["downstream model", "approach", "under truth", "under own baseline",
         "over own baseline", "best tool"],
        body,
        title="\n== Table 15: double representation of integer columns ==",
    )


def check(rows: list[Table15Row]) -> list[str]:
    """Table 15's shape: NewRF, which doubles only when unsure, underperforms
    truth on no more datasets than the doubled tools do."""
    by_key = {(r.approach, r.model_kind): r for r in rows}
    failures = []
    for kind in ("linear", "forest"):
        newrf = by_key[("newrf", kind)].underperform_truth
        tools = max(
            by_key[(f"{tool}:double", kind)].underperform_truth
            for tool in TABLE15_TOOLS
        )
        if not newrf <= tools:
            failures.append(
                f"newrf underperforms truth on {newrf} datasets ({kind}), "
                f"more than the worst doubled tool's {tools}"
            )
    return failures
