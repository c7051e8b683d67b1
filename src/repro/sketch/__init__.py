"""``repro.sketch``: bounded-memory streaming profiler with mergeable
per-column sketches.

The paper's base featurization (Section 2.3: counts, numeric moments,
distinct values, five sample values per column) is entirely one-pass
computable.  This package computes it without materializing the column,
with the batch kernel's own accumulate and finalize steps
(:func:`~repro.core.stats.tally_columns`,
:func:`~repro.core.stats.finalize_stats`):

* :class:`~repro.core.moments.ExactMoments` — order-independent exact
  sum / sum-of-squares / min / max of float64 values (re-exported here).
* :class:`~repro.sketch.column.ColumnSketch` — accumulates the 25
  descriptive statistics incrementally via ``update(cells)``, merges
  order-independently via ``merge(other)``, and ``finalize()``-s to a
  :class:`~repro.core.stats.DescriptiveStats` bit-identical to
  ``compute_stats_batch`` on the same rows (``num_distinct`` and
  ``pct_distinct`` only until the distinct cap spills).
* :class:`~repro.sketch.profiler.StreamingProfiler` /
  :func:`~repro.sketch.profiler.profile_csv_stream` — drive sketches over
  :func:`~repro.tabular.csv_io.iter_csv_chunks` to
  ``profile_columns``-equivalent :class:`~repro.core.featurize.ColumnProfile`
  output under a bounded memory footprint.

This is the substrate the distributed-stats roadmap item will merge across
hosts: shard sketches of the same column combine with ``merge`` in any
order.
"""

from repro.core.moments import ExactMoments
from repro.sketch.column import (
    DEFAULT_DISTINCT_CAP,
    ColumnSketch,
    SketchConfig,
)
from repro.sketch.profiler import (
    DEFAULT_CHUNK_ROWS,
    StreamingProfiler,
    profile_csv_stream,
)

__all__ = [
    "ColumnSketch",
    "DEFAULT_CHUNK_ROWS",
    "DEFAULT_DISTINCT_CAP",
    "ExactMoments",
    "SketchConfig",
    "StreamingProfiler",
    "profile_csv_stream",
]
