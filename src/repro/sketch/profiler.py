"""Drive per-column sketches over an incremental CSV chunk stream.

:class:`StreamingProfiler` consumes :class:`~repro.tabular.csv_io.CSVChunk`
objects (from :func:`~repro.tabular.csv_io.iter_csv_chunks`) and produces
the same ``list[ColumnProfile]`` that ``profile_table`` computes from a
materialized :class:`~repro.tabular.table.Table` — under a memory
footprint bounded by the chunk size and the distinct cap, independent of
the number of rows.

:func:`profile_csv_stream` is the one-call convenience wrapper behind
``repro-infer``, exact by default and capped with ``--stream``.
"""

from __future__ import annotations

import os
from collections import Counter

from repro.core.featurize import _KERNEL_ERRORS, ColumnProfile, ProfileError
from repro.core.stats import tally_columns
from repro.obs import telemetry
from repro.sketch.column import ColumnSketch, SketchConfig
from repro.tabular.csv_io import (
    DEFAULT_SNIFF_CHARS,
    CSVChunk,
    iter_csv_chunks,
)

#: Rows gathered per CSV chunk, and distinct values per tally group of
#: :meth:`StreamingProfiler.consume`: large enough to amortize the
#: vectorized scan, small enough that a chunk of wide text rows stays a few
#: MB and a tally's value-sized temporaries stay those of one column chunk.
DEFAULT_CHUNK_ROWS = 16_384


class StreamingProfiler:
    """Accumulate column sketches chunk by chunk; finalize to profiles.

    Each chunk's columns are counted by :meth:`ColumnSketch.admit` and
    tallied together, in groups of at most :data:`DEFAULT_CHUNK_ROWS`
    distinct values (a column with more is a group of its own), through
    the batch kernel's own accumulate step
    :func:`~repro.core.stats.tally_columns`.  The profiler memoizes the
    sample probes of :meth:`profiles` for its own lifetime: one request in
    ``repro-serve``, one file in ``repro-infer``.
    The profiler also keeps the global row counter that keeps "head"
    sample order exact across chunks.  ``row_offset`` seeds that counter
    for shard profilers whose :meth:`merge` results must behave as if one
    profiler saw every row.
    """

    def __init__(
        self,
        source_file: str = "",
        config: SketchConfig | None = None,
        row_offset: int = 0,
    ):
        self.source_file = source_file
        self.config = config if config is not None else SketchConfig()
        self._probe_cache: dict[str, tuple[bool, bool, bool, bool, bool]] = {}
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
        ):
            group: list[tuple[ColumnSketch, Counter]] = []
            n_values = 0
            for sketch, cells in zip(self._sketches, zip(*rows)):
                present = sketch.admit(cells, cell_offset=offset)
                if group and n_values + len(present) > DEFAULT_CHUNK_ROWS:
                    self._tally(group)
                    group, n_values = [], 0
                group.append((sketch, present))
                n_values += len(present)
            self._tally(group)
        self._rows_seen += len(rows)
        self._n_chunks += 1
        telemetry.count("sketch.chunks")
        telemetry.count("sketch.rows", len(rows))

    def _tally(self, group: list[tuple[ColumnSketch, Counter]]) -> None:
        """Tally one group of columns together and add each column's share
        to its sketch."""
        if not any(present for _, present in group):
            return
        try:
            tally = tally_columns([present for _, present in group])
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
        ):
            for sketch in self._sketches:
                try:
                    stats = sketch.finalize(probe_cache=self._probe_cache)
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
    sniff_chars: int = DEFAULT_SNIFF_CHARS,
) -> list[ColumnProfile]:
    """Profile a CSV source (path, binary file, or bytes iterable) in one
    pass.  Raises :class:`~repro.tabular.csv_io.CSVReadError` on unreadable
    input and :class:`~repro.core.featurize.ProfileError` on unfeaturizable
    content.

    Memory is bounded by the chunk size, the sniff prefix and
    ``config.distinct_cap`` distinct values per column.  With an unbounded
    cap and ``sniff_chars`` (``repro-infer``'s default path) the profiles
    equal ``profile_table(load_csv_table(path))`` bit for bit; a column
    past a finite cap reports the cap as its ``num_distinct``.
    """
    if not name and isinstance(source, (str, os.PathLike)):
        name = os.path.splitext(os.path.basename(os.fspath(source)))[0]
    profiler = StreamingProfiler(source_file=name, config=config)
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
