"""Experiment "tuning" — nested-CV grid search over the classical models.

Exercises the paper's Section 4.1 tuning protocol (and PR 5's cache-aware
grid search) end-to-end: logreg and rf are tuned on the shared train split
with small grids, reporting per-fold test scores, the selected params, and
the mean nested-CV score per model.

Sharding: tuning decomposes per ``(model, outer fold)`` cell
(:class:`TuningShards`) — folds are independent given the deterministic
splitter, so each cell runs :func:`repro.core.tuning.tune_classical_fold`
in any worker, and :func:`merge_tuning` reduces the fold records with
:func:`repro.core.tuning.reduce_tuning_folds` into exactly the serial
:class:`~repro.core.tuning.TuningResult`.  Every grid point a shard
computes is memoized through the artifact cache (kind ``"tune"``), so
shards never repeat each other's fits on a warm cache.
"""

from __future__ import annotations

from typing import Mapping

from repro.benchmark.context import BenchmarkContext
from repro.benchmark.formatting import format_table
from repro.benchmark.sharding import Shardable
from repro.core.tuning import (
    TuningResult,
    reduce_tuning_folds,
    tune_classical_fold,
)

#: Models × grids this experiment tunes.  Deliberately small grids — the
#: experiment demonstrates the protocol (and keeps ``repro-bench all``
#: tractable); pass-through to Appendix B sizes happens in repro.core.
TUNING_MODELS = ("logreg", "rf")
TUNING_GRIDS: dict[str, dict] = {
    "logreg": {"C": [0.1, 1.0, 10.0]},
    "rf": {"n_estimators": [25, 50], "max_depth": [10, 25]},
}
TUNING_FOLDS = 3


def tuning_shard_ids() -> list[str]:
    """Canonical ``model/foldN`` cell ids, model-major."""
    return [
        f"{model}/fold{index}"
        for model in TUNING_MODELS
        for index in range(TUNING_FOLDS)
    ]


def run_tuning_shard(context: BenchmarkContext, shard_id: str) -> dict:
    """One ``(model, fold)`` cell: the fold's tuning record."""
    model, _, fold = shard_id.partition("/fold")
    if model not in TUNING_MODELS or not fold.isdigit():
        raise ValueError(f"unknown tuning shard {shard_id!r}")
    return tune_classical_fold(
        model,
        context.train,
        int(fold),
        param_grid=TUNING_GRIDS[model],
        n_folds=TUNING_FOLDS,
        random_state=context.seed,
    )


def merge_tuning(shards: Mapping[str, dict]) -> dict[str, TuningResult]:
    """Fold records → per-model :class:`TuningResult`, in canonical order."""
    missing = [sid for sid in tuning_shard_ids() if sid not in shards]
    if missing:
        raise ValueError(f"tuning merge missing shard(s): {missing}")
    return {
        model: reduce_tuning_folds(
            model,
            [shards[f"{model}/fold{i}"] for i in range(TUNING_FOLDS)],
        )
        for model in TUNING_MODELS
    }


def run_tuning(context: BenchmarkContext) -> dict[str, TuningResult]:
    """Serial path: every shard in canonical order, then the shared merge."""
    shards = {
        shard_id: run_tuning_shard(context, shard_id)
        for shard_id in tuning_shard_ids()
    }
    return merge_tuning(shards)


def render_tuning(results: dict[str, TuningResult]) -> str:
    rows = []
    for model in TUNING_MODELS:
        result = results[model]
        params = " ".join(
            f"{k}={result.best_params[k]}" for k in sorted(result.best_params)
        )
        rows.append(
            [
                model,
                params,
                " ".join(f"{s:.3f}" for s in result.fold_scores),
                f"{result.mean_score:.3f}",
            ]
        )
    return format_table(
        ["model", "best params", "fold test scores", "mean"],
        rows,
        title=(
            "\n== Tuning: nested-CV grid search on the train split "
            f"({TUNING_FOLDS} outer folds) =="
        ),
    )


class TuningShards(Shardable):
    """Shard the tuning experiment per ``(model, outer fold)`` cell."""

    name = "tuning"

    def shard_ids(self, context: BenchmarkContext) -> list[str]:
        return tuning_shard_ids()

    def run_shard(self, context: BenchmarkContext, shard_id: str):
        return run_tuning_shard(context, shard_id)

    def merge(
        self, context: BenchmarkContext, shards: Mapping[str, object]
    ) -> tuple[str, list[str]]:
        return render_tuning(merge_tuning(shards)), []  # no paper shape
