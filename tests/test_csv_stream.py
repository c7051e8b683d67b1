"""Tests for the incremental CSV reader (``iter_csv_chunks``).

The contract: concatenating every chunk's rows reproduces the whole-file
reader (``load_csv_table``) row for row — same header, same cells, same
counters, same typed errors — at *any* I/O chunk size, including sizes
that split multi-byte codepoints and quoted fields across reads.
"""

from __future__ import annotations

import io
from pathlib import Path

import pytest

from repro.faults import FaultPlan, faults
from repro.obs import telemetry
from repro.tabular import csv_io
from repro.tabular.csv_io import (
    CSVReadError,
    decode_csv_bytes,
    iter_csv_chunks,
    load_csv_table,
    read_csv_text,
)

MANGLED_DIR = Path(__file__).parent / "data" / "mangled"


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


def streamed_rows(source, **kwargs):
    """(header, rows) concatenated over all chunks of a stream."""
    header = None
    rows = []
    for chunk in iter_csv_chunks(source, **kwargs):
        if header is None:
            header = list(chunk.header)
        else:
            assert list(chunk.header) == header  # header repeats verbatim
        rows.extend(chunk.rows)
    return header, rows


def table_rows(path):
    table = load_csv_table(path)
    return table.column_names, [list(row) for row in table.rows()]


class TestBatchParity:
    @pytest.mark.parametrize(
        "path", sorted(MANGLED_DIR.glob("*.csv")), ids=lambda p: p.name
    )
    @pytest.mark.parametrize("io_chunk_bytes", [3, 7, 65536])
    def test_mangled_corpus_parity(self, path, io_chunk_bytes):
        """Every fuzz-corpus file parses identically (or raises the same
        typed error) streamed at any byte granularity vs whole-file."""
        try:
            want = table_rows(path)
        except CSVReadError:
            with pytest.raises(CSVReadError):
                streamed_rows(path, io_chunk_bytes=io_chunk_bytes)
            return
        got = streamed_rows(path, io_chunk_bytes=io_chunk_bytes)
        if want[1]:
            assert got == want
        else:
            # Header-only files: the batch loader keeps the header; the
            # stream yields it in a single empty chunk.
            assert got[0] == want[0] and got[1] == []

    @pytest.mark.parametrize(
        "path", sorted(MANGLED_DIR.glob("*.csv")), ids=lambda p: p.name
    )
    @pytest.mark.parametrize("io_chunk_bytes", [3, 7, 1 << 20])
    def test_read_csv_equals_whole_text_parse(
        self, path, io_chunk_bytes, monkeypatch
    ):
        """``read_csv`` reads through the chunked reader, yet gives the
        table, telemetry counters and ``CSVReadError`` message of parsing
        the whole decoded file at once.  (A mid-file error stops the read,
        so its repair counters cover only the bytes read before it.)"""
        monkeypatch.setattr(csv_io, "DEFAULT_IO_CHUNK_BYTES", io_chunk_bytes)

        def outcome(load):
            telemetry.enable()
            telemetry.reset()
            try:
                try:
                    table = load()
                    result = (table.name, table.column_names,
                              [list(row) for row in table.rows()])
                except CSVReadError as exc:
                    result = ("CSVReadError", str(exc))
                counters = {
                    name: telemetry.metrics.counter(name).value
                    for name in ("csv.nul_bytes", "csv.decode_replaced",
                                 "csv.ragged_rows")
                }
            finally:
                telemetry.reset()
                telemetry.disable()
            return result, counters

        want, want_counters = outcome(lambda: read_csv_text(
            decode_csv_bytes(path.read_bytes()), name=path.stem
        ))
        got, got_counters = outcome(lambda: csv_io.read_csv(path))
        assert got == want
        if want[0] != "CSVReadError" or io_chunk_bytes > path.stat().st_size:
            assert got_counters == want_counters

    def test_split_codepoint_cells_survive_one_byte_reads(self):
        path = MANGLED_DIR / "split_codepoint.csv"
        header, rows = streamed_rows(path, io_chunk_bytes=1)
        assert header == ["name", "emoji", "city"]
        assert rows[0] == ["café0", "😀🚀é€", "北京"]
        assert (header, rows) == table_rows(path)

    def test_quoted_field_spanning_chunks(self):
        path = MANGLED_DIR / "quoted_span.csv"
        header, rows = streamed_rows(path, io_chunk_bytes=2)
        assert header == ["id", "comment", "score"]
        assert rows[0][1] == 'first line\nsecond line\nthird "quoted" line'
        assert (header, rows) == table_rows(path)

    def test_decode_replacement_counted_once(self):
        telemetry.enable()
        telemetry.reset()
        try:
            streamed_rows(MANGLED_DIR / "latin1.csv", io_chunk_bytes=3)
            replaced = telemetry.metrics.counter("csv.decode_replaced").value
        finally:
            telemetry.reset()
            telemetry.disable()
        assert replaced == 1


class TestChunkShapes:
    CSV = ("a,b\n" + "\n".join(f"{i},x{i}" for i in range(10)) + "\n").encode()

    def test_chunk_rows_and_indices(self):
        chunks = list(
            iter_csv_chunks(io.BytesIO(self.CSV), name="t", chunk_rows=4)
        )
        assert [c.index for c in chunks] == [0, 1, 2]
        assert [c.n_rows for c in chunks] == [4, 4, 2]
        assert all(c.header == ["a", "b"] for c in chunks)
        assert chunks[2].rows[-1] == ["9", "x9"]

    def test_header_only_stream_yields_one_empty_chunk(self):
        chunks = list(iter_csv_chunks(io.BytesIO(b"a,b\n"), name="t"))
        assert len(chunks) == 1
        assert chunks[0].header == ["a", "b"]
        assert chunks[0].rows == []

    def test_empty_stream_raises_like_batch(self):
        with pytest.raises(CSVReadError, match="empty CSV"):
            list(iter_csv_chunks(io.BytesIO(b""), name="t"))

    def test_bytes_iterable_source(self):
        pieces = [self.CSV[i : i + 5] for i in range(0, len(self.CSV), 5)]
        header, rows = streamed_rows(iter(pieces), name="t")
        assert header == ["a", "b"]
        assert len(rows) == 10

    def test_non_bytes_iterable_rejected(self):
        with pytest.raises(CSVReadError, match="expected bytes"):
            list(iter_csv_chunks(iter(["not-bytes"]), name="t"))

    def test_bad_chunk_rows_rejected(self):
        with pytest.raises(ValueError, match="chunk_rows"):
            list(iter_csv_chunks(io.BytesIO(self.CSV), chunk_rows=0))

    def test_explicit_delimiter_skips_sniffing(self):
        data = b"a;b\n1;2\n"
        header, rows = streamed_rows(
            io.BytesIO(data), name="t", delimiter=";"
        )
        assert header == ["a", "b"]
        assert rows == [["1", "2"]]

    def test_sniffed_delimiter_matches_batch(self, tmp_path):
        path = tmp_path / "semi.csv"
        path.write_bytes(b"a;b;c\n1;2;3\n4;5;6\n")
        assert streamed_rows(path, io_chunk_bytes=2) == table_rows(path)


class TestReadChunkFault:
    def test_fault_surfaces_as_csv_read_error(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_bytes(b"a,b\n1,2\n3,4\n")
        faults.install(
            FaultPlan.from_dict({
                "seed": 0,
                "rules": [
                    {"point": "csv.read_chunk", "mode": "error", "on_call": 1}
                ],
            })
        )
        with pytest.raises(CSVReadError, match="injected fault"):
            list(iter_csv_chunks(path, io_chunk_bytes=4))

    def test_mid_stream_fault_after_clean_chunks(self, tmp_path):
        path = tmp_path / "plain.csv"
        body = b"a,b\n" + b"".join(b"%d,x\n" % i for i in range(100))
        path.write_bytes(body)
        faults.install(
            FaultPlan.from_dict({
                "seed": 0,
                "rules": [
                    {"point": "csv.read_chunk", "mode": "error", "on_call": 3}
                ],
            })
        )
        chunks = iter_csv_chunks(path, io_chunk_bytes=64, chunk_rows=8)
        first = next(chunks)  # reads 1-2 survive the first row chunk
        assert first.n_rows == 8
        with pytest.raises(CSVReadError, match="injected fault"):
            list(chunks)

    def test_fault_on_iterable_source(self):
        faults.install(
            FaultPlan.from_dict({
                "seed": 0,
                "rules": [
                    {"point": "csv.read_chunk", "mode": "error", "on_call": 2}
                ],
            })
        )
        pieces = iter([b"a,b\n", b"1,2\n", b"3,4\n"])
        with pytest.raises(CSVReadError, match="injected fault"):
            streamed_rows(pieces, name="t")
