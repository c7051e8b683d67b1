"""Drive per-column sketches over an incremental CSV chunk stream.

:class:`StreamingProfiler` consumes :class:`~repro.tabular.csv_io.CSVChunk`
objects (from :func:`~repro.tabular.csv_io.iter_csv_chunks`) and produces
the same ``list[ColumnProfile]`` that ``profile_table`` computes from a
materialized :class:`~repro.tabular.table.Table` — under a memory
footprint bounded by the chunk size, the distinct cap, and the scan-cache
cap, independent of the number of rows.

:func:`profile_csv_stream` is the one-call convenience wrapper behind
``repro-infer``, exact by default and capped with ``--stream``.
"""

from __future__ import annotations

import os
from itertools import chain

import numpy as np

from repro.core.featurize import _KERNEL_ERRORS, ColumnProfile, ProfileError
from repro.core.stats import StatsScanCache, tally_columns
from repro.obs import telemetry
from repro.sketch.column import ColumnSketch, SketchConfig
from repro.tabular.csv_io import (
    DEFAULT_SNIFF_CHARS,
    CSVChunk,
    iter_csv_chunks,
)

#: Rows gathered per CSV chunk, and present cells per tally group of
#: :meth:`StreamingProfiler.consume`: large enough to amortize the
#: vectorized scan, small enough that a chunk of wide text rows stays a few
#: MB and a tally's row-sized temporaries stay those of one column chunk.
DEFAULT_CHUNK_ROWS = 16_384

#: Maximum distinct cell values resident in the shared scan cache (see
#: :class:`~repro.core.stats.StatsScanCache` for the trim policy) — bounds
#: the interning table on high-cardinality streams.
DEFAULT_SCAN_CACHE_MAX_VALUES = 200_000


class StreamingProfiler:
    """Accumulate column sketches chunk by chunk; finalize to profiles.

    Each chunk's columns are tallied together, in groups of at most
    :data:`DEFAULT_CHUNK_ROWS` present cells (a column with more is a
    group of its own), through the batch kernel's own accumulate step
    :func:`~repro.core.stats.tally_columns` against one
    :class:`~repro.core.stats.StatsScanCache`.  The profiler owns that
    cache (trimmed past ``scan_cache_max_values`` interned values) unless
    ``scan_cache`` hands it a shared one, whose ``lock`` it holds per
    :meth:`consume` and per :meth:`profiles` call.
    The profiler also keeps the global row counter that keeps "head"
    sample order exact across chunks.  ``row_offset`` seeds that counter
    for shard profilers whose :meth:`merge` results must behave as if one
    profiler saw every row.
    """

    def __init__(
        self,
        source_file: str = "",
        config: SketchConfig | None = None,
        scan_cache_max_values: int = DEFAULT_SCAN_CACHE_MAX_VALUES,
        row_offset: int = 0,
        scan_cache: StatsScanCache | None = None,
    ):
        self.source_file = source_file
        self.config = config if config is not None else SketchConfig()
        self._cache = scan_cache if scan_cache is not None else StatsScanCache(
            max_values=scan_cache_max_values, metric_prefix="sketch"
        )
        self._sketches: list[ColumnSketch] | None = None
        self._names: list[str] | None = None
        self._rows_seen = 0
        self._row_offset = row_offset
        self._n_chunks = 0

    @property
    def column_names(self) -> list[str] | None:
        return list(self._names) if self._names is not None else None

    @property
    def n_rows(self) -> int:
        return self._rows_seen

    def consume(self, chunk: CSVChunk) -> None:
        """Fold one CSV chunk into the per-column sketches."""
        if self._names is None:
            self._names = list(chunk.header)
            self._sketches = [
                ColumnSketch(name, self.config) for name in self._names
            ]
        elif list(chunk.header) != self._names:
            raise ProfileError(
                f"chunk header changed mid-stream for {self.source_file!r}: "
                f"{self._names} -> {list(chunk.header)}"
            )
        rows = chunk.rows
        if not rows:
            return
        offset = self._row_offset + self._rows_seen
        with telemetry.span(
            "sketch.chunk",
            source=self.source_file,
            index=self._n_chunks,
            n_rows=len(rows),
        ), self._cache.lock:
            group: list[tuple[ColumnSketch, list[str]]] = []
            n_cells = 0
            for sketch, cells in zip(self._sketches, zip(*rows)):
                present = sketch.admit(cells, cell_offset=offset)
                if group and n_cells + len(present) > DEFAULT_CHUNK_ROWS:
                    self._tally(group)
                    group, n_cells = [], 0
                group.append((sketch, present))
                n_cells += len(present)
            self._tally(group)
        self._rows_seen += len(rows)
        self._n_chunks += 1
        telemetry.count("sketch.chunks")
        telemetry.count("sketch.rows", len(rows))

    def _tally(self, group: list[tuple[ColumnSketch, list[str]]]) -> None:
        """Tally one group of columns together and add each column's share
        to its sketch."""
        n_present = np.fromiter(
            (len(present) for _, present in group), count=len(group),
            dtype=np.intp,
        )
        if not n_present.any():
            return
        try:
            tally = tally_columns(
                chain.from_iterable(present for _, present in group),
                n_present, self._cache,
            )
            self._cache.end_batch()
        except _KERNEL_ERRORS as exc:
            names = [sketch.name for sketch, _ in group]
            raise self._error(names, exc) from exc
        for i, (sketch, _) in enumerate(group):
            sketch.add_tally(tally, i)

    def _error(self, names: list[str], exc: BaseException) -> ProfileError:
        where = f" of {self.source_file!r}" if self.source_file else ""
        return ProfileError(
            f"cannot featurize column{'s' if len(names) > 1 else ''} "
            f"{', '.join(map(repr, names))}{where}: "
            f"{type(exc).__name__}: {exc}"
        )

    def merge(self, other: "StreamingProfiler") -> "StreamingProfiler":
        """Fold a shard profiler (disjoint row ranges, same header) in."""
        if other._names is None:
            return self
        if self._names is None:
            self._names = list(other._names)
            self._sketches = other._sketches
            self._rows_seen = other._rows_seen
            self._n_chunks = other._n_chunks
            return self
        if self._names != other._names:
            raise ProfileError(
                f"cannot merge profilers with different headers: "
                f"{self._names} vs {other._names}"
            )
        for mine, theirs in zip(self._sketches, other._sketches):
            mine.merge(theirs)
        self._rows_seen += other._rows_seen
        self._n_chunks += other._n_chunks
        return self

    def profiles(self) -> list[ColumnProfile]:
        """Finalize every sketch into a ``ColumnProfile``."""
        if self._sketches is None:
            raise ProfileError(
                f"no CSV chunks consumed for {self.source_file!r}"
            )
        out: list[ColumnProfile] = []
        with telemetry.span(
            "sketch.finalize",
            source=self.source_file,
            n_columns=len(self._sketches),
            n_rows=self._rows_seen,
        ), self._cache.lock:
            for sketch in self._sketches:
                try:
                    stats = sketch.finalize(
                        probe_cache=self._cache.probe_cache
                    )
                except _KERNEL_ERRORS as exc:
                    raise self._error([sketch.name], exc) from exc
                out.append(
                    ColumnProfile(
                        name=sketch.name,
                        samples=sketch.samples(),
                        stats=stats,
                        source_file=self.source_file,
                    )
                )
        telemetry.count("featurize.columns", len(out))
        return out


def profile_csv_stream(
    source,
    name: str = "",
    config: SketchConfig | None = None,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    io_chunk_bytes: int | None = None,
    delimiter: str | None = None,
    scan_cache_max_values: int = DEFAULT_SCAN_CACHE_MAX_VALUES,
    sniff_chars: int = DEFAULT_SNIFF_CHARS,
) -> list[ColumnProfile]:
    """Profile a CSV source (path, binary file, or bytes iterable) in one
    pass.  Raises :class:`~repro.tabular.csv_io.CSVReadError` on unreadable
    input and :class:`~repro.core.featurize.ProfileError` on unfeaturizable
    content.

    Memory is bounded by the chunk size, the sniff prefix, the scan-cache
    cap and ``config.distinct_cap`` distinct values per column.  With an unbounded
    cap and ``sniff_chars`` (``repro-infer``'s default path) the profiles
    equal ``profile_table(load_csv_table(path))`` bit for bit; a column
    past a finite cap reports the cap as its ``num_distinct``.
    """
    if not name and isinstance(source, (str, os.PathLike)):
        name = os.path.splitext(os.path.basename(os.fspath(source)))[0]
    profiler = StreamingProfiler(
        source_file=name,
        config=config,
        scan_cache_max_values=scan_cache_max_values,
    )
    kwargs = {
        "chunk_rows": chunk_rows,
        "delimiter": delimiter,
        "name": name,
        "sniff_chars": sniff_chars,
    }
    if io_chunk_bytes is not None:
        kwargs["io_chunk_bytes"] = io_chunk_bytes
    for chunk in iter_csv_chunks(source, **kwargs):
        profiler.consume(chunk)
    return profiler.profiles()
