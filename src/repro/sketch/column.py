"""A mergeable, bounded-memory sketch of one column's 25 descriptive stats.

:class:`ColumnSketch` is the streaming counterpart of
:func:`repro.core.stats.compute_stats_batch`: cells arrive in chunks
through :meth:`ColumnSketch.update`, shard sketches combine through
:meth:`ColumnSketch.merge` (order-independently), and
:meth:`ColumnSketch.finalize` emits a
:class:`~repro.core.stats.DescriptiveStats`.

Parity contract (asserted in ``tests/test_sketch.py``):

* 23 of the 25 statistics are **bit-identical** to the batch kernel on the
  same rows: all count/percentage stats, the five shape-count mean/std
  pairs (both kernels take them from the same exact integer sums,
  :func:`~repro.core.stats.tally_columns`),
  ``min_value``/``max_value``, ``numeric_fraction``, and the five boolean
  sample probes.
* ``mean_value``/``std_value`` carry the documented float-reassociation
  delta: the sketch accumulates the *exact* moments
  (:class:`~repro.sketch.accumulator.ExactMoments`) and rounds once, while
  numpy's pairwise summation rounds in element order.  The difference is
  numpy's own summation error — ulp-level for well-conditioned data.
* ``num_distinct`` is exact until ``distinct_cap`` values have been seen;
  past the cap the sketch spills (drops the value set, reports exactly the
  cap) and raises the ``distinct_overflowed`` flag.  Spilling is a sticky
  state, so merge stays order-independent.

Bounded state: the distinct-value dict is capped, sample candidates are
capped at ``sample_k``, and the moment accumulators are O(1).  The
per-chunk scan reuses the LUT/segment-sum kernel through a shared
:class:`~repro.core.stats.StatsScanCache`, which trims itself past its
``max_values`` in :meth:`~repro.core.stats.StatsScanCache.end_batch` at
the end of every :meth:`ColumnSketch.update`.
"""

from __future__ import annotations

import hashlib
import math
from bisect import insort
from dataclasses import dataclass

import numpy as np

from repro.core.stats import (
    N_STATS,
    DescriptiveStats,
    StatsScanCache,
    _finite,
    _probe_samples,
    tally_columns,
)
from repro.obs import telemetry
from repro.sketch.accumulator import ExactMoments
from repro.tabular.dtypes import is_missing

#: Distinct values tracked per column before the sketch spills.  Sized so
#: benchmark-scale columns (hundreds of rows) never spill while a single
#: high-cardinality column stays under ~10 MB of interned strings.
DEFAULT_DISTINCT_CAP = 65_536

#: The paper samples five distinct values per column (Section 2.3).
N_SAMPLE_VALUES = 5


@dataclass(frozen=True)
class SketchConfig:
    """Shared knobs of a sketch family; merging requires equal configs.

    ``sample_mode`` picks how the five sample values are drawn:

    * ``"head"`` — the first ``sample_k`` distinct values in global cell
      order, matching ``Column.head_distinct`` (and therefore the batch
      profiler's deterministic default) exactly, even across merges.
    * ``"reservoir"`` — a seeded bottom-k hash sample over the distinct
      values: each distinct value's ``blake2b(seed || value)`` digest is
      computed once and the ``sample_k`` smallest digests win.  The result
      depends only on the *set* of distinct values, so it is
      order-independent and mergeable, and stays unbiased past the
      distinct cap.
    """

    distinct_cap: int = DEFAULT_DISTINCT_CAP
    sample_mode: str = "head"
    sample_k: int = N_SAMPLE_VALUES
    seed: int = 0

    def __post_init__(self):
        if self.sample_mode not in ("head", "reservoir"):
            raise ValueError(f"unknown sample_mode: {self.sample_mode!r}")
        if self.distinct_cap < 1:
            raise ValueError("distinct_cap must be positive")
        if self.sample_k < 0:
            raise ValueError("sample_k must be >= 0")


def _sample_digest(seed: int, value: str) -> bytes:
    """Deterministic per-value digest driving the bottom-k reservoir."""
    payload = f"{seed}:".encode("ascii") + value.encode("utf-8", "surrogatepass")
    return hashlib.blake2b(payload, digest_size=8).digest()


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
        #: bottom-k reservoir: sorted (digest, value) pairs, k smallest.
        self._reservoir: list[tuple[bytes, str]] = []
        self._reservoir_members: set[str] = set()

    # -- accumulation --------------------------------------------------------
    def update(
        self,
        cells,
        scan_cache: StatsScanCache | None = None,
        cell_offset: int | None = None,
    ) -> None:
        """Fold a chunk of raw cells (strings or ``None``) into the sketch.

        Cells are normalized exactly like :class:`~repro.tabular.column.Column`
        (``str()`` then missing-token detection), so feeding raw CSV rows and
        feeding ``Column.cells`` produce identical sketches.

        ``scan_cache`` should be shared across chunks/columns so repeated
        values are scanned once (its ``max_values`` bounds it); without
        one, a throwaway cache serves the single chunk.

        ``cell_offset`` is the global index of ``cells[0]`` within the full
        column; it defaults to sequential growth (``self.n_total``).  Shard
        sketches that will be merged must pass their true offsets so the
        "head" sample order is global, not per-shard.
        """
        if cell_offset is None:
            cell_offset = self.n_total
        k = self.config.sample_k
        head = self._head
        head_open = self._head_open
        present: list[str] = []
        append = present.append
        index = cell_offset
        for cell in cells:
            if cell is not None:
                text = cell if type(cell) is str else str(cell)
                if not is_missing(text):
                    append(text)
                    if head_open and text not in head:
                        head[text] = index
                        if len(head) >= k:
                            head_open = False
            index += 1
        self._head_open = head_open
        self.n_total += len(cells)
        self.n_present += len(present)
        self.n_chunks += 1

        if not self.distinct_overflowed:
            distinct = self._distinct
            distinct.update(dict.fromkeys(present))
            if len(distinct) > self.config.distinct_cap:
                self._spill_distinct()

        if not present:
            return
        cache = scan_cache if scan_cache is not None else StatsScanCache()
        interned = cache.value_index.__getitem__
        code_arr = np.fromiter(
            map(interned, present), count=len(present), dtype=np.intp
        )
        cache.scan_novel()
        # The batch kernel's tally with a batch of one column: exact
        # integer sums, so chunked accumulation equals the whole column's.
        tally = tally_columns(
            code_arr, np.array([len(present)]), cache.counts
        )
        uniq, freq = tally.code, tally.freq
        cache.mark_hits(uniq)
        for j in range(5):
            self._count_sums[j] += int(tally.sums[j, 0])
            self._count_sumsqs[j] += int(tally.sumsq[j, 0])
        parsed = cache.parsed[uniq]
        numeric_mask = ~np.isnan(parsed)
        if numeric_mask.any():
            self._moments.add_many(parsed[numeric_mask], freq[numeric_mask])
        if self.config.sample_mode == "reservoir":
            self._update_reservoir(
                cache.values[code] for code in uniq.tolist()
            )
        if telemetry.enabled:
            telemetry.count("sketch.cells", len(cells))
        cache.end_batch()

    def _spill_distinct(self) -> None:
        """Stop tracking distinct values; report exactly the cap from now on.

        Dropping the set (instead of LRU-evicting within it) keeps
        ``num_distinct`` a pure function of the accumulated multiset, so
        merge order cannot change the reported value.
        """
        self.distinct_overflowed = True
        self._distinct = {}
        telemetry.count("sketch.distinct_spilled")

    def _update_reservoir(self, candidates) -> None:
        k = self.config.sample_k
        if k <= 0:
            return
        reservoir = self._reservoir
        members = self._reservoir_members
        seed = self.config.seed
        for value in candidates:
            if value in members:
                continue
            entry = (_sample_digest(seed, value), value)
            if len(reservoir) < k:
                insort(reservoir, entry)
                members.add(value)
            elif entry < reservoir[-1]:
                members.discard(reservoir.pop()[1])
                insort(reservoir, entry)
                members.add(value)

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

        if self.config.sample_mode == "reservoir":
            self._update_reservoir(value for _, value in other._reservoir)
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
        if self.config.sample_mode == "reservoir":
            return [value for _, value in self._reservoir]
        ordered = sorted(self._head.items(), key=lambda item: item[1])
        return [value for value, _ in ordered]

    def finalize(
        self,
        samples: list[str] | None = None,
        probe_cache: dict | None = None,
    ) -> DescriptiveStats:
        """The 25 descriptive statistics of everything accumulated so far.

        Replays the batch kernel's finalization arithmetic operation for
        operation (same IEEE divisions, same ``_finite`` clamps) over the
        sketch's exact integer sums.  ``samples`` overrides the sketch's
        own sample values (the datagen path supplies rng-drawn ones);
        ``probe_cache`` memoizes regex probes across columns.
        """
        row = np.zeros(N_STATS)
        total = self.n_total
        n_present = self.n_present
        row[0] = float(total)
        row[1] = float(total - n_present)
        row[3] = float(self.distinct_count)
        if total:
            row[2] = row[1] / row[0]
            row[4] = row[3] / row[0]
        if n_present:
            denom = float(n_present)
            for j in range(5):
                mean = float(self._count_sums[j]) / denom
                variance = float(self._count_sumsqs[j]) / denom - mean * mean
                if variance < 0.0:
                    variance = 0.0
                row[9 + 2 * j] = mean
                row[10 + 2 * j] = math.sqrt(variance)
            n_numeric = self._moments.count
            if n_numeric:
                mean, std = self._moments.mean_std()
                row[5] = _finite(mean)
                row[6] = _finite(std)
                row[7] = _finite(self._moments.min)
                row[8] = _finite(self._moments.max)
            row[19] = n_numeric / n_present
        if samples is None:
            samples = self.samples()
        cache = probe_cache if probe_cache is not None else {}
        row[20:25] = _probe_samples(samples, cache)
        return DescriptiveStats(row)
