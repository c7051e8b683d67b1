"""A mergeable, bounded-memory sketch of one column's 25 descriptive stats.

:class:`ColumnSketch` is the streaming form of
:func:`repro.core.stats.compute_stats_batch`, built from the same two
steps: each chunk that arrives through :meth:`ColumnSketch.update` is
tallied by :func:`~repro.core.stats.tally_columns` and added to the
sketch's running totals (:class:`~repro.sketch.StreamingProfiler` tallies
the columns of a chunk together, through :meth:`ColumnSketch.admit` and
:meth:`ColumnSketch.add_tally`), shard sketches combine through
:meth:`ColumnSketch.merge` (order-independently), and
:meth:`ColumnSketch.finalize` hands the totals to
:func:`~repro.core.stats.finalize_stats`.

Parity contract (asserted in ``tests/test_sketch.py``): all 25 statistics
are **bit-identical** to the batch kernel on the same rows, however the
rows are chunked or merged.  Every total is exact: integer shape-count
sums, and the numeric moments as :class:`~repro.core.moments.ExactMoments`.
The one exception is ``num_distinct`` (and ``pct_distinct``), which is
exact until ``distinct_cap`` values have been seen; past the cap the
sketch spills (drops the value set, reports exactly the cap) and raises
the ``distinct_overflowed`` flag.  Spilling is a sticky state, so merge
stays order-independent.

Bounded state: the distinct-value dict is capped, sample candidates are
capped at ``sample_k``, and the moment accumulators are O(1).  Each chunk
is counted into one ``Counter`` of its present values, which the tally
scans and then drops.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import repeat

from repro.core.moments import ExactMoments
from repro.core.stats import (
    ColumnTally,
    DescriptiveStats,
    finalize_stats,
    tally_columns,
)
from repro.obs import telemetry
from repro.tabular.dtypes import MISSING_TOKENS

#: Distinct values tracked per column before the sketch spills.  Sized so
#: benchmark-scale columns (hundreds of rows) never spill while a single
#: high-cardinality column stays under ~10 MB of interned strings.
DEFAULT_DISTINCT_CAP = 65_536

#: The paper samples five distinct values per column (Section 2.3).
N_SAMPLE_VALUES = 5

#: Cell types :meth:`ColumnSketch.admit` counts without normalizing.
_RAW_TYPES = {str, type(None)}


@dataclass(frozen=True)
class SketchConfig:
    """Shared knobs of a sketch family; merging requires equal configs.

    The ``sample_k`` sample values are the first distinct values in global
    cell order, matching ``Column.head_distinct`` (and therefore the batch
    profiler's deterministic default) exactly, even across merges.
    """

    distinct_cap: int = DEFAULT_DISTINCT_CAP
    sample_k: int = N_SAMPLE_VALUES

    def __post_init__(self):
        if self.distinct_cap < 1:
            raise ValueError("distinct_cap must be positive")
        if self.sample_k < 0:
            raise ValueError("sample_k must be >= 0")


class ColumnSketch:
    """Streaming accumulator of the 25 descriptive statistics of one column."""

    def __init__(self, name: str, config: SketchConfig | None = None):
        self.name = name
        self.config = config if config is not None else SketchConfig()
        self.n_total = 0
        self.n_present = 0
        self.n_chunks = 0
        self.distinct_overflowed = False
        #: distinct value -> None, insertion-ordered = global first-seen
        #: order (for sequentially-updated sketches).
        self._distinct: dict[str, None] = {}
        # Exact integer sums/sum-of-squares of the 5 shape counts
        # (word/stopword/char/whitespace/delimiter), over present cells.
        self._count_sums = [0, 0, 0, 0, 0]
        self._count_sumsqs = [0, 0, 0, 0, 0]
        self._moments = ExactMoments()
        #: head-sample candidates: value -> global first-occurrence cell
        #: index; while fewer than ``sample_k`` distinct values have been
        #: seen (``_head_open``) every distinct value is a candidate.
        self._head: dict[str, int] = {}
        self._head_open = self.config.sample_k > 0

    # -- accumulation --------------------------------------------------------
    def update(self, cells, cell_offset: int | None = None) -> None:
        """Fold a chunk of raw cells (strings or ``None``) into the sketch.

        Cells are normalized exactly like :class:`~repro.tabular.column.Column`
        (``str()`` then missing-token detection), so feeding raw CSV rows and
        feeding ``Column.cells`` produce identical sketches.

        ``cell_offset`` is the global index of ``cells[0]`` within the full
        column; it defaults to sequential growth (``self.n_total``).  Shard
        sketches that will be merged must pass their true offsets so the
        "head" sample order is global, not per-shard.

        A :class:`~repro.sketch.StreamingProfiler` tallies the columns of a
        chunk together; this is the same two steps for one column.
        """
        present = self.admit(cells, cell_offset)
        if present:
            self.add_tally(tally_columns([present]), 0)

    def admit(self, cells, cell_offset: int | None = None) -> Counter:
        """Count a chunk of raw cells, track its head samples and distinct
        values, and return the counts of its present values for
        :func:`~repro.core.stats.tally_columns`, whose result goes to
        :meth:`add_tally`.  Arguments as for :meth:`update`.

        One ``Counter`` pass counts the cells; the missing test then runs
        once per distinct value, the distinct set takes one update from the
        counter's keys, and the head samples cost nothing once the head is
        full.  ``None`` counts as missing.  A chunk holding any other
        non-``str`` cell is normalized cell by cell first: ``1``, ``True``
        and ``1.0`` are one key but three different strings.
        """
        if cell_offset is None:
            cell_offset = self.n_total
        present = Counter(cells)
        if set(map(type, present)) - _RAW_TYPES:
            cells = [
                cell if type(cell) is str else "" if cell is None else str(cell)
                for cell in cells
            ]
            present = Counter(cells)
        n_missing = present.pop(None, 0)
        missing = [
            value for value in present
            if value.strip().lower() in MISSING_TOKENS
        ]
        n_missing += sum(map(present.pop, missing))
        if self._head_open:
            self._admit_head(present, cells, cell_offset)
        self.n_total += len(cells)
        self.n_present += len(cells) - n_missing
        self.n_chunks += 1

        if not self.distinct_overflowed:
            distinct = self._distinct
            distinct.update(zip(present, repeat(None)))
            if len(distinct) > self.config.distinct_cap:
                self._spill_distinct()
        if telemetry.enabled:
            telemetry.count("sketch.cells", len(cells))
        return present

    def _admit_head(self, present: Counter, cells, cell_offset: int) -> None:
        """Add the chunk's first-seen present values to the open head.

        At most ``sample_k - 1`` values are already in the head, so the
        loop visits at most ``2 * sample_k`` values however long the chunk.
        """
        head = self._head
        for value in present:
            if value not in head:
                head[value] = cell_offset + cells.index(value)
                if len(head) >= self.config.sample_k:
                    self._head_open = False
                    return

    def add_tally(self, tally: ColumnTally, i: int) -> None:
        """Add column ``i`` of a :func:`~repro.core.stats.tally_columns`
        result to the running totals.  Every total is exact, so chunked
        accumulation equals the whole column's.
        """
        for j in range(5):
            self._count_sums[j] += int(tally.sums[j, i])
            self._count_sumsqs[j] += int(tally.sumsq[j, i])
        self._moments.merge(tally.moments[i])

    def _spill_distinct(self) -> None:
        """Stop tracking distinct values; report exactly the cap from now on.

        Dropping the set (instead of LRU-evicting within it) keeps
        ``num_distinct`` a pure function of the accumulated multiset, so
        merge order cannot change the reported value.
        """
        self.distinct_overflowed = True
        self._distinct = {}
        telemetry.count("sketch.distinct_spilled")

    # -- merging -------------------------------------------------------------
    def merge(self, other: "ColumnSketch") -> "ColumnSketch":
        """Fold ``other`` (a sketch of disjoint cells of the same column)
        into this sketch.  Order-independent: any merge tree over the same
        set of chunk sketches produces the same final state.
        """
        if self.config != other.config:
            raise ValueError(
                f"cannot merge sketches with different configs: "
                f"{self.config} vs {other.config}"
            )
        self.n_total += other.n_total
        self.n_present += other.n_present
        self.n_chunks += other.n_chunks
        for j in range(5):
            self._count_sums[j] += other._count_sums[j]
            self._count_sumsqs[j] += other._count_sumsqs[j]
        self._moments.merge(other._moments)

        # Head samples: keep each value's smallest first-occurrence index,
        # then trim to the k earliest.  A value of the true global head is
        # always within the first k distinct of the shard holding its first
        # occurrence, so the union of shard heads covers it and trimming is
        # exact.
        k = self.config.sample_k
        head = self._head
        for value, index in other._head.items():
            current = head.get(value)
            if current is None or index < current:
                head[value] = index
        if len(head) > k:
            self._head = dict(
                sorted(head.items(), key=lambda item: item[1])[:k]
            )
        self._head_open = len(self._head) < k

        if self.distinct_overflowed or other.distinct_overflowed:
            if not self.distinct_overflowed:
                self._spill_distinct()
        else:
            self._distinct.update(dict.fromkeys(other._distinct))
            if len(self._distinct) > self.config.distinct_cap:
                self._spill_distinct()

        telemetry.count("sketch.merge")
        return self

    # -- results -------------------------------------------------------------
    @property
    def distinct_count(self) -> int:
        """Exact distinct count, or the cap once the sketch spilled."""
        if self.distinct_overflowed:
            return self.config.distinct_cap
        return len(self._distinct)

    def distinct_values(self) -> list[str]:
        """The distinct values in first-seen order (sequential updates).

        Unavailable after a spill — callers that need the full domain
        (e.g. rng-driven sampling) must size ``distinct_cap`` above it.
        """
        if self.distinct_overflowed:
            raise ValueError(
                f"distinct values of column {self.name!r} spilled at "
                f"cap {self.config.distinct_cap}"
            )
        return list(self._distinct)

    def samples(self) -> list[str]:
        """The sample values the finalize-time probes run over."""
        ordered = sorted(self._head.items(), key=lambda item: item[1])
        return [value for value, _ in ordered]

    def finalize(self, probe_cache: dict | None = None) -> DescriptiveStats:
        """The 25 descriptive statistics of everything accumulated so far,
        from :func:`~repro.core.stats.finalize_stats`, the batch kernel's
        own finalize step.  ``probe_cache`` memoizes regex probes across
        columns.
        """
        return finalize_stats(
            self.n_total, self.n_present, self.distinct_count,
            self._count_sums, self._count_sumsqs, self._moments,
            self.samples(),
            probe_cache if probe_cache is not None else {},
        )
