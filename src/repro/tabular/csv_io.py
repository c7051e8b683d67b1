"""CSV reading/writing for :class:`~repro.tabular.table.Table`.

Built on the stdlib :mod:`csv` module but presenting the lenient semantics an
AutoML ingestion layer needs: missing-token normalization, ragged-row repair,
and simple delimiter sniffing.

Real-world CSVs are hostile: NUL bytes from binary junk, mixed/mislabeled
encodings, rows of varying arity, unbalanced quotes.  This module absorbs
them deterministically — replacement-decoding non-UTF-8 bytes, stripping
NULs, padding/truncating ragged rows — counting each repair in telemetry
(``csv.decode_replaced`` / ``csv.nul_bytes`` / ``csv.ragged_rows``), and
raises the typed :class:`CSVReadError` for input that cannot become a table
at all.  The mangled-CSV fuzz corpus under ``tests/data/mangled/`` holds
this contract: any bytes either parse or raise ``CSVReadError``, never an
untyped crash.
"""

from __future__ import annotations

import codecs
import csv
import functools
import io
import itertools
import os
import re
import sys
from dataclasses import dataclass, field
from typing import Iterator

from repro.faults import FaultInjectedError, faults
from repro.obs import telemetry
from repro.tabular.column import Column
from repro.tabular.table import Table

_SNIFF_DELIMITERS = ",;\t|"

#: Bytes pulled from the source per read in :func:`iter_csv_chunks`.
DEFAULT_IO_CHUNK_BYTES = 1 << 20

#: Rows gathered per :class:`CSVChunk`.
DEFAULT_CHUNK_ROWS = 16_384

#: Decoded characters buffered for delimiter sniffing before giving up on
#: seeing 20 complete lines (absurdly long first lines).  Below this cap
#: the sniff sees exactly the lines the whole-text path sees.
DEFAULT_SNIFF_CHARS = 1 << 20

#: First prefix :func:`sniff_delimiter` splits (grown 4× until it holds
#: 20 lines).
_SNIFF_PREFIX_CHARS = 1 << 12

#: The line boundaries of ``str.splitlines``.
_LINE_BREAK = re.compile("[\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")


class CSVReadError(ValueError):
    """Raised when CSV input cannot be turned into a usable :class:`Table`
    (unreadable file, empty input, no data columns, csv-level parse
    failure).

    Subclasses :class:`ValueError` so call sites that caught the old
    untyped errors keep working; new call sites (the ``repro-infer`` CLI,
    the ``repro.serve`` HTTP layer) catch this to produce clean
    exit codes / 400 responses instead of tracebacks.
    """


# BOM → declared codec, longest signature first (UTF-32-LE's BOM starts
# with UTF-16-LE's).
_BOM_CODECS = (
    (b"\xff\xfe\x00\x00", "utf-32-le"),
    (b"\x00\x00\xfe\xff", "utf-32-be"),
    (b"\xff\xfe", "utf-16-le"),
    (b"\xfe\xff", "utf-16-be"),
)


def decode_csv_bytes(data: bytes) -> str:
    """Raw file bytes → parseable text, absorbing encoding damage.

    Strict UTF-8 when possible; otherwise replacement decoding (each bad
    byte becomes U+FFFD, counted in ``csv.decode_replaced``).  NUL bytes —
    which the :mod:`csv` module rejects outright on some versions — are
    stripped and counted; a UTF-8 BOM is dropped.

    Bytes that *declare* an encoding via a UTF-16/32 BOM are decoded with
    that codec; if the declared codec then fails, the file is lying about
    itself and replacement-salvage would only yield NUL-riddled mojibake,
    so that raises :class:`CSVReadError` instead.
    """
    for bom, codec in _BOM_CODECS:
        if data.startswith(bom):
            try:
                text = data[len(bom):].decode(codec)
            except UnicodeDecodeError as exc:
                raise CSVReadError(
                    f"input declares {codec} via its BOM but is not valid "
                    f"{codec}: {exc}"
                ) from exc
            break
    else:
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            text = data.decode("utf-8", errors="replace")
            telemetry.count("csv.decode_replaced")
    if text.startswith("\ufeff"):
        text = text[1:]
    if "\x00" in text:
        telemetry.count("csv.nul_bytes", text.count("\x00"))
        text = text.replace("\x00", "")
    return text


def read_csv(path: str | os.PathLike, delimiter: str | None = None) -> Table:
    """Read a CSV file from disk into a :class:`Table`.

    The file streams through :func:`iter_csv_chunks` in
    ``DEFAULT_IO_CHUNK_BYTES`` reads, and each chunk's rows go into the
    table's columns as they arrive, so the whole file's bytes, decoded text
    and parsed rows are never held at once: beyond the table itself, the
    load holds one read, one chunk of rows and the delimiter-sniffing
    prefix.  The table equals ``read_csv_text(decode_csv_bytes(data))`` of
    the file's bytes cell for cell, with the same telemetry and the same
    :class:`CSVReadError` for undecodable or unparseable input (a mid-file
    error stops the read, so the repair counters then cover only the bytes
    read before it).  Opening or reading the file raises :class:`OSError`
    unchanged; every read passes the ``csv.read_chunk`` fault point, and
    ``csv.read`` is left to :func:`load_csv_table`, so a load passes it
    once.
    """
    display = os.fspath(path)
    name = os.path.splitext(os.path.basename(display))[0]
    with open(path, "rb") as handle:
        # An iterable of reads, not the handle: a failed read propagates as
        # the OSError it is, and the load passes no second ``csv.read``.
        read = functools.partial(handle.read, DEFAULT_IO_CHUNK_BYTES)
        pieces = iter(read, b"")
        # No sniff cap: the sniff sees the first 20 lines, however long.
        chunks = iter_csv_chunks(
            pieces, name=display, delimiter=delimiter, sniff_chars=sys.maxsize
        )
        first = next(chunks)
        columns: list[list[str | None]] = [[] for _ in first.header]
        for chunk in itertools.chain([first], chunks):
            # chunk rows are already padded to the header width
            for cells, values in zip(columns, zip(*chunk.rows)):
                cells.extend(values)
    return Table(
        [Column(col, cells) for col, cells in zip(first.header, columns)],
        name=name,
    )


def load_csv_table(path: str | os.PathLike, delimiter: str | None = None) -> Table:
    """:func:`read_csv` with every failure mode folded into
    :class:`CSVReadError`.

    This is the ingestion entry point shared by ``repro-infer`` and the
    ``repro.serve`` service: a missing file, a permission error, or an
    empty/unparseable file all surface as one typed error with a
    human-readable message.  (Undecodable bytes no longer fail — they are
    replacement-decoded; see :func:`decode_csv_bytes`.)
    """
    try:
        faults.point("csv.read", path=os.fspath(path))
        return read_csv(path, delimiter=delimiter)
    except OSError as exc:
        raise CSVReadError(
            f"cannot read {os.fspath(path)!r}: {exc.strerror or exc}"
        ) from exc
    except FaultInjectedError as exc:
        raise CSVReadError(f"cannot read {os.fspath(path)!r}: {exc}") from exc


def read_csv_text(text: str, name: str = "", delimiter: str | None = None) -> Table:
    """Parse CSV text into a :class:`Table` (first row is the header).

    Raises :class:`CSVReadError` on empty input or a csv-level parse
    failure (e.g. a field past the parser's size limit).  Rows whose arity
    differs from the header are padded/truncated and counted in
    ``csv.ragged_rows``.
    """
    if "\x00" in text:
        # Callers that bypass decode_csv_bytes (HTTP bodies) get the same
        # NUL tolerance as the file path.
        telemetry.count("csv.nul_bytes", text.count("\x00"))
        text = text.replace("\x00", "")
    if delimiter is None:
        delimiter = sniff_delimiter(text)
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    try:
        raw_rows = list(reader)
    except csv.Error as exc:
        raise CSVReadError(f"malformed CSV: {exc}") from exc
    # The header is the first row with any content; files of blank lines
    # are as empty as zero-byte ones.
    header_index = next(
        (i for i, row in enumerate(raw_rows) if any(cell.strip() for cell in row)),
        None,
    )
    if header_index is None:
        raise CSVReadError("empty CSV input")
    header = _dedupe_header([h.strip() for h in raw_rows[header_index]])
    width = len(header)
    rows: list[list[str | None]] = []
    ragged = 0
    for row in raw_rows[header_index + 1:]:
        if len(row) != width:
            ragged += 1
            row = (list(row) + [None] * width)[:width]
        rows.append(row)
    if ragged:
        telemetry.count("csv.ragged_rows", ragged)
    return Table.from_rows(header, rows, name=name)


def write_csv(table: Table, path: str | os.PathLike) -> None:
    """Write a :class:`Table` to a CSV file (missing cells as empty)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        _write(table, handle)


def to_csv_text(table: Table) -> str:
    """Render a :class:`Table` as CSV text."""
    buffer = io.StringIO()
    _write(table, buffer)
    return buffer.getvalue()


def _leading_lines(text: str, n: int) -> list[str]:
    """``text.splitlines()[:n]``, splitting only a prefix of ``text``.

    The prefix grows until it splits into more than ``n`` entries or covers
    the text.  More than ``n`` entries means the ``n``-th line ends inside
    the prefix, break included (a ``\\r\\n`` pair too, since the next entry
    starts after it), so the first ``n`` entries are the text's own.
    """
    size = _SNIFF_PREFIX_CHARS
    while size < len(text):
        lines = text[:size].splitlines()
        if len(lines) > n:
            return lines[:n]
        size *= 4
    return text.splitlines()[:n]


def sniff_delimiter(text: str) -> str:
    """Pick the delimiter whose count is most consistent across the first
    20 lines (``str.splitlines`` lines; only those are split)."""
    lines = [line for line in _leading_lines(text, 20) if line.strip()]
    if not lines:
        return ","
    best, best_score = ",", -1.0
    for cand in _SNIFF_DELIMITERS:
        counts = [line.count(cand) for line in lines]
        if min(counts) == 0:
            continue
        spread = max(counts) - min(counts)
        score = min(counts) - 0.5 * spread
        if score > best_score:
            best, best_score = cand, score
    return best


def _dedupe_header(header: list[str]) -> list[str]:
    """Make duplicate header names unique by suffixing .1, .2, ..."""
    seen: dict[str, int] = {}
    out = []
    for name in header:
        if name in seen:
            seen[name] += 1
            out.append(f"{name}.{seen[name]}")
        else:
            seen[name] = 0
            out.append(name)
    return out


def _write(table: Table, handle) -> None:
    writer = csv.writer(handle)
    writer.writerow(table.column_names)
    for row in table.rows():
        writer.writerow(["" if cell is None else cell for cell in row])


# ---------------------------------------------------------------------------
# Incremental (chunked) reading
# ---------------------------------------------------------------------------


@dataclass
class CSVChunk:
    """One bounded slice of a CSV stream.

    Every chunk of a stream carries the same deduped ``header``; ``rows``
    are already padded/truncated to the header width (missing overflow
    cells are ``None``, exactly as :func:`read_csv_text` repairs them).
    """

    header: list[str]
    rows: list[list[str | None]] = field(default_factory=list)
    index: int = 0
    delimiter: str = ","

    @property
    def n_rows(self) -> int:
        return len(self.rows)


class _IncrementalDecoder:
    """Incremental twin of :func:`decode_csv_bytes`: same text, same
    telemetry, same :class:`CSVReadError` on a lying UTF-16/32 BOM —
    without ever holding the whole byte stream.

    The first (up to) four bytes are buffered to classify the BOM; UTF-8
    input decodes strictly until the first bad byte, then switches to a
    replacement decoder replaying the strict decoder's pending bytes, so
    the emitted text matches ``data.decode("utf-8", "replace")`` of the
    whole stream.
    """

    def __init__(self):
        self._pending = b""
        self._decoder = None
        self._strict_utf8 = False
        self._replaced = False
        self._codec = "utf-8"
        self._check_bom_char = True

    def feed(self, data: bytes, final: bool = False) -> str:
        if self._decoder is None:
            self._pending += data
            if len(self._pending) < 4 and not final:
                return ""
            data = self._pending
            self._pending = b""
            codec = "utf-8"
            for bom, candidate in _BOM_CODECS:
                if data.startswith(bom):
                    codec = candidate
                    data = data[len(bom):]
                    break
            self._codec = codec
            self._strict_utf8 = codec == "utf-8"
            self._decoder = codecs.getincrementaldecoder(codec)("strict")
        text = self._decode(data, final)
        if text and self._check_bom_char:
            # decode_csv_bytes drops one leading U+FEFF from the decoded
            # text (the UTF-8 BOM, or a doubled BOM after UTF-16/32).
            self._check_bom_char = False
            if text[0] == "\ufeff":
                text = text[1:]
        if "\x00" in text:
            telemetry.count("csv.nul_bytes", text.count("\x00"))
            text = text.replace("\x00", "")
        return text

    def _decode(self, data: bytes, final: bool) -> str:
        if self._strict_utf8 and not self._replaced:
            state = self._decoder.getstate()
            try:
                return self._decoder.decode(data, final)
            except UnicodeDecodeError:
                telemetry.count("csv.decode_replaced")
                self._replaced = True
                # Replay the strict decoder's undecoded tail through a
                # replacement decoder; all further input goes there too.
                buffered = state[0]
                self._decoder = codecs.getincrementaldecoder("utf-8")("replace")
                return self._decoder.decode(buffered + data, final)
        try:
            return self._decoder.decode(data, final)
        except UnicodeDecodeError as exc:
            if self._codec != "utf-8":
                raise CSVReadError(
                    f"input declares {self._codec} via its BOM but is not "
                    f"valid {self._codec}: {exc}"
                ) from exc
            raise  # pragma: no cover - utf-8 is handled above


class _LineAssembler:
    """Split a decoded character stream into lines exactly like iterating
    ``io.StringIO(text)``: ``\\n`` is the only terminator (kept on the
    line); the final line may lack one.  Lone ``\\r`` stays embedded, so
    the csv module sees the identical character stream — including the
    same "new-line character seen in unquoted field" errors.
    """

    def __init__(self):
        self._buffer = ""

    def feed(self, text: str) -> list[str]:
        buffered = self._buffer + text
        if "\n" not in buffered:
            self._buffer = buffered
            return []
        parts = buffered.split("\n")
        self._buffer = parts.pop()
        return [part + "\n" for part in parts]

    def flush(self) -> str | None:
        buffered, self._buffer = self._buffer, ""
        return buffered if buffered else None


def _byte_pieces(source, io_chunk_bytes: int, display: str) -> Iterator[bytes]:
    """Bounded byte pieces of a path / binary file / bytes iterable.

    Every read passes the ``csv.read_chunk`` fault-injection point; I/O
    and injected failures both surface as :class:`CSVReadError`, matching
    :func:`load_csv_table`'s contract for whole-file reads.  A path source
    is named by its path, in the fault context and the error, as
    :func:`load_csv_table` names it.
    """
    handle = None
    close_handle = False
    try:
        if isinstance(source, (str, os.PathLike)):
            path = display = os.fspath(source)
            try:
                faults.point("csv.read", path=path)
                handle = open(path, "rb")
            except OSError as exc:
                raise CSVReadError(
                    f"cannot read {path!r}: {exc.strerror or exc}"
                ) from exc
            except FaultInjectedError as exc:
                raise CSVReadError(f"cannot read {path!r}: {exc}") from exc
            close_handle = True
        elif hasattr(source, "read"):
            handle = source
        if handle is not None:
            index = 0
            while True:
                try:
                    faults.point("csv.read_chunk", source=display, index=index)
                    data = handle.read(io_chunk_bytes)
                except OSError as exc:
                    raise CSVReadError(
                        f"cannot read {display!r}: {exc.strerror or exc}"
                    ) from exc
                except FaultInjectedError as exc:
                    raise CSVReadError(
                        f"cannot read {display!r}: {exc}"
                    ) from exc
                if not data:
                    return
                yield bytes(data)
                index += 1
        else:
            for index, data in enumerate(source):
                try:
                    faults.point("csv.read_chunk", source=display, index=index)
                except FaultInjectedError as exc:
                    raise CSVReadError(
                        f"cannot read {display!r}: {exc}"
                    ) from exc
                if not isinstance(data, (bytes, bytearray, memoryview)):
                    raise CSVReadError(
                        f"byte source for {display!r} yielded "
                        f"{type(data).__name__}, expected bytes"
                    )
                if data:
                    yield bytes(data)
    finally:
        if close_handle and handle is not None:
            handle.close()


def iter_csv_chunks(
    source,
    name: str = "",
    delimiter: str | None = None,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    io_chunk_bytes: int = DEFAULT_IO_CHUNK_BYTES,
    sniff_chars: int = DEFAULT_SNIFF_CHARS,
) -> Iterator[CSVChunk]:
    """Incrementally parse a CSV source into :class:`CSVChunk` slices.

    ``source`` is a filesystem path, a binary file-like object, or an
    iterable of ``bytes``.  Decoding, delimiter sniffing, header
    handling, ragged-row repair, and error behavior all match the
    whole-file path (:func:`load_csv_table` / :func:`read_csv_text`):
    concatenating every chunk's rows reproduces ``read_csv(path)`` row for
    row, and inputs the batch reader rejects raise the same typed
    :class:`CSVReadError` here — just possibly later, once the offending
    bytes stream in.  Split multi-byte codepoints and quoted fields (or
    quoted newlines) spanning chunk boundaries are handled by the
    incremental decoder / the line assembler.

    At least one chunk is always yielded for a non-empty stream, so
    consumers learn the header even for a header-only file.  Memory is
    bounded by ``io_chunk_bytes`` + ``chunk_rows`` rows + ``sniff_chars``,
    independent of the stream length.  The sniff buffers decoded text until
    it holds 20 complete lines, and re-splits it only after a read that
    brought a line break, so long first lines are not re-split on every
    read.  :func:`read_csv`
    is this reader with an unbounded ``sniff_chars``, folding the chunks into
    one :class:`Table`.
    """
    if chunk_rows < 1:
        raise ValueError("chunk_rows must be positive")
    if io_chunk_bytes < 1:
        raise ValueError("io_chunk_bytes must be positive")
    display = name or (
        os.path.splitext(os.path.basename(os.fspath(source)))[0]
        if isinstance(source, (str, os.PathLike))
        else "<stream>"
    )
    pieces = _byte_pieces(source, io_chunk_bytes, display)
    decoder = _IncrementalDecoder()
    exhausted = False

    # Delimiter sniffing needs the first 20 lines; buffer decoded text
    # until they are complete (21 splitlines entries guarantee 20 full
    # lines), EOF, or the sniff cap.  The buffered text is then replayed
    # into the row parser, so nothing is read twice.
    sniff_text = ""
    if delimiter is None:
        while len(sniff_text) < sniff_chars:
            data = next(pieces, None)
            if data is None:
                sniff_text += decoder.feed(b"", final=True)
                exhausted = True
                break
            text = decoder.feed(data)
            # a new line can only start where a line break just arrived
            window = sniff_text[-1:] + text
            sniff_text += text
            if _LINE_BREAK.search(window) and len(
                _leading_lines(sniff_text, 21)
            ) > 20:
                break
        delimiter = sniff_delimiter(sniff_text)

    assembler = _LineAssembler()

    def lines() -> Iterator[str]:
        yield from assembler.feed(sniff_text)
        if not exhausted:
            for data in pieces:
                text = decoder.feed(data)
                if text:
                    yield from assembler.feed(text)
            tail = decoder.feed(b"", final=True)
            if tail:
                yield from assembler.feed(tail)
        last = assembler.flush()
        if last is not None:
            yield last

    reader = csv.reader(lines(), delimiter=delimiter)
    header: list[str] | None = None
    width = 0
    rows: list[list[str | None]] = []
    index = 0
    try:
        for row in reader:
            if header is None:
                if not any(cell.strip() for cell in row):
                    continue
                header = _dedupe_header([h.strip() for h in row])
                width = len(header)
                continue
            if len(row) != width:
                telemetry.count("csv.ragged_rows")
                row = (list(row) + [None] * width)[:width]
            rows.append(row)
            if len(rows) >= chunk_rows:
                yield CSVChunk(
                    header=header, rows=rows, index=index, delimiter=delimiter
                )
                index += 1
                rows = []
    except csv.Error as exc:
        raise CSVReadError(f"malformed CSV: {exc}") from exc
    if header is None:
        raise CSVReadError("empty CSV input")
    if rows or index == 0:
        yield CSVChunk(
            header=header, rows=rows, index=index, delimiter=delimiter
        )
