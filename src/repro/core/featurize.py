"""Base featurization: raw column → (name, 5 sample values, 25 stats).

This is the paper's Section 2.3 step.  A :class:`ColumnProfile` is the unit
"example" of the benchmark: everything downstream (hand labeling, the ML
models, the error analyses) operates on profiles, never on raw columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.stats import (
    DescriptiveStats,
    compute_stats,
    compute_stats_batch,
)
from repro.obs import telemetry
from repro.tabular.column import Column
from repro.tabular.table import Table
from repro.types import FeatureType

N_SAMPLE_VALUES = 5

#: Low-level failures the stats kernels can hit on pathological cells
#: (lone surrogates that cannot encode, degenerate shapes); re-raised as
#: the typed :class:`ProfileError` so ingestion surfaces (CLI exit codes,
#: HTTP 400s) never leak an ``IndexError``/``UnicodeDecodeError``.
_KERNEL_ERRORS = (IndexError, KeyError, UnicodeError, OverflowError,
                  ZeroDivisionError)


class ProfileError(ValueError):
    """A column whose cells cannot be base-featurized.

    Raised by :func:`profile_column` / :func:`profile_columns` in place of
    the untyped kernel-level exception, with the offending table/column
    named in the message and the original exception chained as the cause.
    """


@dataclass
class ColumnProfile:
    """A base-featurized column: one labeled example of the benchmark."""

    name: str
    samples: list[str]
    stats: DescriptiveStats
    source_file: str = ""
    label: FeatureType | None = None

    def sample(self, index: int) -> str:
        """The index-th sample value, or "" when the column has fewer."""
        if index < len(self.samples):
            return self.samples[index]
        return ""

    @property
    def stats_vector(self) -> np.ndarray:
        return self.stats.values


def profile_column(
    column: Column,
    source_file: str = "",
    label: FeatureType | None = None,
    rng: np.random.Generator | None = None,
) -> ColumnProfile:
    """Base-featurize one raw column.

    With an ``rng``, sample values are 5 randomly chosen distinct values
    (the paper's procedure); without one, the first 5 distinct values are
    used, which keeps profiling deterministic.
    """
    with telemetry.span("featurize.column", column=column.name):
        if rng is None:
            samples = column.head_distinct(N_SAMPLE_VALUES)
        else:
            samples = column.sample_distinct(N_SAMPLE_VALUES, rng)
        try:
            stats = compute_stats(column, samples=samples)
        except _KERNEL_ERRORS as exc:
            raise ProfileError(
                f"cannot featurize column {column.name!r}"
                f"{f' of {source_file!r}' if source_file else ''}: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
    telemetry.count("featurize.columns")
    return ColumnProfile(
        name=column.name,
        samples=samples,
        stats=stats,
        source_file=source_file,
        label=label,
    )


def profile_columns(
    columns: list[Column],
    source_file: str = "",
    labels: list[FeatureType | None] | None = None,
    rng: np.random.Generator | None = None,
    probe_cache: dict[str, tuple[bool, bool, bool, bool, bool]] | None = None,
) -> list[ColumnProfile]:
    """Base-featurize a batch of raw columns through the vectorized kernel.

    Sample values are drawn per column in order (so the ``rng`` stream is
    identical to featurizing the columns one at a time), then the descriptive
    stats of the whole batch are computed in one
    :func:`~repro.core.stats.compute_stats_batch` call, which amortizes the
    character-scan kernel across every column of the table.  A
    ``probe_cache`` carried across calls memoizes the sample probes across
    tables.
    """
    if labels is None:
        labels = [None] * len(columns)
    samples_list: list[list[str]] = []
    for column in columns:
        with telemetry.span("featurize.column", column=column.name):
            if rng is None:
                samples_list.append(column.head_distinct(N_SAMPLE_VALUES))
            else:
                samples_list.append(column.sample_distinct(N_SAMPLE_VALUES, rng))
    try:
        stats_list = compute_stats_batch(
            columns, list(samples_list), probe_cache
        )
    except _KERNEL_ERRORS as exc:
        names = ", ".join(repr(c.name) for c in columns[:5])
        raise ProfileError(
            f"cannot featurize columns [{names}{', ...' if len(columns) > 5 else ''}]"
            f"{f' of {source_file!r}' if source_file else ''}: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    telemetry.count("featurize.columns", len(columns))
    return [
        ColumnProfile(
            name=column.name,
            samples=samples,
            stats=stats,
            source_file=source_file,
            label=label,
        )
        for column, samples, stats, label in zip(
            columns, samples_list, stats_list, labels
        )
    ]


def profile_table(
    table: Table, rng: np.random.Generator | None = None
) -> list[ColumnProfile]:
    """Base-featurize every column of a raw table."""
    with telemetry.span(
        "featurize.table", table=table.name, n_columns=len(table.column_names)
    ):
        profiles = profile_columns(
            list(table), source_file=table.name, rng=rng
        )
    telemetry.count("featurize.tables")
    return profiles


@dataclass
class LabeledDataset:
    """A set of labeled profiles — the benchmark's "labeled dataset"."""

    profiles: list[ColumnProfile] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.profiles)

    def __iter__(self):
        return iter(self.profiles)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return LabeledDataset(self.profiles[index])
        return self.profiles[index]

    @property
    def names(self) -> list[str]:
        return [p.name for p in self.profiles]

    @property
    def labels(self) -> list[FeatureType]:
        missing = [p.name for p in self.profiles if p.label is None]
        if missing:
            raise ValueError(f"unlabeled profiles present: {missing[:5]}")
        return [p.label for p in self.profiles]

    @property
    def groups(self) -> list[str]:
        """Source-file of each profile (for leave-datafile-out CV)."""
        return [p.source_file for p in self.profiles]

    def stats_matrix(self) -> np.ndarray:
        return np.stack([p.stats_vector for p in self.profiles])

    def sample_column(self, index: int) -> list[str]:
        """The index-th sample value of every profile."""
        return [p.sample(index) for p in self.profiles]

    def subset(self, indices) -> "LabeledDataset":
        return LabeledDataset([self.profiles[int(i)] for i in indices])

    def class_distribution(self) -> dict[FeatureType, float]:
        labels = self.labels
        total = len(labels)
        out: dict[FeatureType, float] = {}
        for label in labels:
            out[label] = out.get(label, 0.0) + 1.0
        return {k: v / total for k, v in out.items()}
