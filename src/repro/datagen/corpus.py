"""The synthetic benchmark labeled corpus.

Substitutes the paper's ML Data Prep Zoo dataset (9,921 hand-labeled columns
from 1,240 raw CSV files).  The generator emits raw files (Tables) whose
columns are drawn from the nine class generators with the paper's class
distribution (Section 2.5), then base-featurizes every column into a
:class:`~repro.core.featurize.LabeledDataset` through
:func:`~repro.core.featurize.profile_columns`, the same stats engine
``repro-infer`` and ``repro-serve`` run (buffered or streamed, the stats
are bit-identical).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.featurize import LabeledDataset, profile_columns
from repro.datagen.values import generate_column
from repro.tabular.column import Column
from repro.tabular.table import Table
from repro.types import ALL_FEATURE_TYPES, PAPER_CLASS_DISTRIBUTION, FeatureType

PAPER_N_EXAMPLES = 9921
PAPER_N_FILES = 1240


@dataclass
class LabeledCorpus:
    """Raw files plus the base-featurized labeled dataset over their columns."""

    files: list[Table] = field(default_factory=list)
    dataset: LabeledDataset = field(default_factory=LabeledDataset)
    #: ground-truth label per (file name, column name)
    truth: dict[tuple[str, str], FeatureType] = field(default_factory=dict)

    @property
    def n_examples(self) -> int:
        return len(self.dataset)

    @property
    def n_files(self) -> int:
        return len(self.files)


def sample_class_sequence(
    n_examples: int, rng: np.random.Generator
) -> list[FeatureType]:
    """Class labels following the paper's distribution, in random order.

    Uses exact proportional allocation (largest remainder) so even small
    corpora contain every class.
    """
    quotas: dict[FeatureType, float] = {
        ftype: PAPER_CLASS_DISTRIBUTION[ftype] * n_examples
        for ftype in ALL_FEATURE_TYPES
    }
    counts = {ftype: int(q) for ftype, q in quotas.items()}
    remainder = n_examples - sum(counts.values())
    by_fraction = sorted(
        ALL_FEATURE_TYPES, key=lambda ft: quotas[ft] - counts[ft], reverse=True
    )
    for ftype in by_fraction[:remainder]:
        counts[ftype] += 1
    labels: list[FeatureType] = []
    for ftype, count in counts.items():
        labels.extend([ftype] * count)
    rng.shuffle(labels)
    return labels


def generate_corpus(
    n_examples: int = 2500,
    seed: int = 0,
    min_rows: int = 40,
    max_rows: int = 200,
    min_cols: int = 4,
    max_cols: int = 12,
) -> LabeledCorpus:
    """Generate a labeled corpus of raw files.

    ``n_examples`` counts columns (the paper's full scale is 9,921; the
    default is laptop-friendly).  Columns are grouped into files of
    ``min_cols..max_cols`` columns sharing a row count, mirroring how the
    paper's examples come from whole CSV files.
    """
    if n_examples < 50:
        raise ValueError("corpus needs at least 50 examples to cover 9 classes")
    rng = np.random.default_rng(seed)
    labels = sample_class_sequence(n_examples, rng)

    corpus = LabeledCorpus()
    probe_cache: dict = {}  # sample probes, memoized across the corpus
    cursor = 0
    file_index = 0
    while cursor < len(labels):
        n_cols = int(rng.integers(min_cols, max_cols + 1))
        n_cols = min(n_cols, len(labels) - cursor)
        n_rows = int(rng.integers(min_rows, max_rows + 1))
        file_name = f"file_{file_index:05d}"
        columns: list[Column] = []
        used_names: set[str] = set()
        for label in labels[cursor : cursor + n_cols]:
            generated = generate_column(label, rng, n_rows)
            name = generated.name
            while name in used_names:  # headers must be unique within a file
                name = f"{generated.name}_{int(rng.integers(100))}"
            used_names.add(name)
            columns.append(Column(name, generated.cells))
            corpus.truth[(file_name, name)] = label
        table = Table(columns, name=file_name)
        corpus.files.append(table)
        file_profiles = profile_columns(
            list(table),
            source_file=file_name,
            labels=list(labels[cursor : cursor + n_cols]),
            rng=rng,
            probe_cache=probe_cache,
        )
        corpus.dataset.profiles.extend(file_profiles)
        cursor += n_cols
        file_index += 1
    return corpus


def paper_scale_corpus(seed: int = 0) -> LabeledCorpus:
    """The full 9,921-example corpus at the paper's scale."""
    return generate_corpus(n_examples=PAPER_N_EXAMPLES, seed=seed)
