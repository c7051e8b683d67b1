"""Experiment E10 — Figure 9 / Table 16: robustness to sample perturbation.

Monte Carlo study: every held-out column is re-sampled ``n_runs`` times (new
random distinct sample values → new base features), and we count how often
each model's prediction matches its prediction on the unperturbed column.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.benchmark.context import BenchmarkContext
from repro.benchmark.formatting import format_table
from repro.core.featurize import profile_column

#: Table 16's percentiles over the per-column stability counts.
TABLE16_PERCENTILES = (50, 20, 10, 5, 1, 0.1, 0.01)


@dataclass
class RobustnessResult:
    """stability[model] = per-column % of runs with unchanged prediction."""

    stability: dict[str, np.ndarray] = field(default_factory=dict)
    n_runs: int = 0

    def percentile_rows(
        self, percentiles=TABLE16_PERCENTILES
    ) -> list[list[object]]:
        rows = []
        for pct in percentiles:
            row: list[object] = [pct]
            for model, values in self.stability.items():
                row.append(float(np.percentile(values, pct)))
            rows.append(row)
        return rows

    def cdf(self, model: str) -> tuple[np.ndarray, np.ndarray]:
        """(sorted stability %, cumulative fraction) — Figure 9."""
        xs = np.sort(self.stability[model])
        ys = np.arange(1, len(xs) + 1) / len(xs)
        return xs, ys


def run_robustness(
    context: BenchmarkContext,
    models: tuple[str, ...] = ("logreg", "rf"),
    n_runs: int = 100,
    max_columns: int | None = 200,
    seed: int = 1234,
) -> RobustnessResult:
    """Perturb held-out columns and measure prediction stability."""
    test = context.test
    profiles = test.profiles
    if max_columns is not None and len(profiles) > max_columns:
        rng = np.random.default_rng(seed)
        keep = sorted(rng.choice(len(profiles), size=max_columns, replace=False))
        profiles = [profiles[i] for i in keep]
    columns = [context.raw_column(p) for p in profiles]

    fitted = {name: context.model(name) for name in models}
    base_predictions = {
        name: model.predict(profiles) for name, model in fitted.items()
    }

    unchanged = {name: np.zeros(len(profiles)) for name in models}
    rng = np.random.default_rng(seed)
    for _run in range(n_runs):
        perturbed = [
            profile_column(column, source_file=p.source_file, rng=rng)
            for column, p in zip(columns, profiles)
        ]
        for name, model in fitted.items():
            predictions = model.predict(perturbed)
            for i, (pred, base) in enumerate(
                zip(predictions, base_predictions[name])
            ):
                if pred == base:
                    unchanged[name][i] += 1.0

    result = RobustnessResult(n_runs=n_runs)
    for name in models:
        result.stability[name] = 100.0 * unchanged[name] / n_runs
    return result


def render_table16(result: RobustnessResult) -> str:
    models = list(result.stability)
    rows = result.percentile_rows()
    return format_table(
        ["nth percentile", *models],
        rows,
        title=(
            f"\n== Table 16: % of {result.n_runs} perturbation runs with "
            "unchanged prediction =="
        ),
    )


def check(result: RobustnessResult) -> list[str]:
    """Figure 9's shape: logreg and rf keep their prediction in at least
    90% of the runs for the median column."""
    failures = []
    for model in ("logreg", "rf"):
        median = float(np.median(result.stability[model]))
        if not median >= 90.0:
            failures.append(
                f"{model} median stability {median:.1f}% is below 90%"
            )
    return failures
