"""The 25 descriptive statistics of base featurization (paper Appendix E).

For every raw column we compute aggregate signals a data scientist would
glance at: counts of values/NaNs/distincts, moments of the values and of
string shape measures (word/stop-word/char/whitespace/delimiter counts),
min/max, and boolean regex probes (URL, e-mail, delimiter sequence, list)
plus a timestamp check over the five sample values.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from repro.core.moments import ExactMoments, grouped_moments
from repro.obs import telemetry
from repro.tabular.column import Column
from repro.tabular.dtypes import (
    looks_like_datetime,
    looks_like_email,
    looks_like_list,
    looks_like_url,
    try_parse_float,
)

#: Small English stop-word list (enough to separate prose from codes).
STOPWORDS = frozenset(
    """a an and are as at be by for from has he in is it its of on or that the
    this to was were will with not but they you i we she his her them our
    their there then than so if about into over after before all any each
    out up down no yes do does did have had can could would should may
    """.split()
)

_DELIMITERS = ",;|:"

#: Every date format requires at least one digit, so a failed digit search
#: lets the probe skip the (comparatively pricey) combined date regex.
_HAS_DIGIT_SEARCH = re.compile(r"\d").search

#: Names of the 25 features, in vector order.
STAT_NAMES: tuple[str, ...] = (
    "total_values",
    "num_nans",
    "pct_nans",
    "num_distinct",
    "pct_distinct",
    "mean_value",
    "std_value",
    "min_value",
    "max_value",
    "mean_word_count",
    "std_word_count",
    "mean_stopword_count",
    "std_stopword_count",
    "mean_char_count",
    "std_char_count",
    "mean_whitespace_count",
    "std_whitespace_count",
    "mean_delimiter_count",
    "std_delimiter_count",
    "numeric_fraction",
    "sample_has_url",
    "sample_has_email",
    "sample_has_delimiter_seq",
    "sample_has_list",
    "sample_has_date",
)

N_STATS = len(STAT_NAMES)

#: name → vector index, precomputed once (``tuple.index`` is a linear scan).
STAT_INDEX: dict[str, int] = {name: i for i, name in enumerate(STAT_NAMES)}

#: Indices of the three type-specific boolean probes ablated in Table 12.
URL_FEATURE_INDEX = STAT_INDEX["sample_has_url"]
LIST_FEATURE_INDEX = STAT_INDEX["sample_has_list"]
DATETIME_FEATURE_INDEX = STAT_INDEX["sample_has_date"]

#: Indices of the unbounded (log-compressed) stats, in vector order.
UNBOUNDED_STAT_INDICES: tuple[int, ...] = tuple(
    STAT_INDEX[name]
    for name in (
        "total_values",
        "num_nans",
        "num_distinct",
        "mean_value",
        "std_value",
        "min_value",
        "max_value",
        "mean_char_count",
        "std_char_count",
        "mean_word_count",
        "std_word_count",
        "mean_stopword_count",
        "std_stopword_count",
        "mean_whitespace_count",
        "std_whitespace_count",
        "mean_delimiter_count",
        "std_delimiter_count",
    )
)


@dataclass(frozen=True)
class DescriptiveStats:
    """The 25 descriptive statistics, both named and as a vector."""

    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (N_STATS,):
            raise ValueError(f"expected {N_STATS} stats, got {self.values.shape}")

    def __getitem__(self, name: str) -> float:
        return float(self.values[STAT_INDEX[name]])

    def as_dict(self) -> dict[str, float]:
        return {name: float(v) for name, v in zip(STAT_NAMES, self.values)}


_FLOAT_CAP = 1e18  # larger magnitudes are clamped (squares overflow float64)


def _finite(value) -> float:
    """Clamp to a finite, capped float (guards against 1e300-scale outliers).

    -0.0 reads 0.0: the min of a column holding both "0" and "-0" is
    whichever zero arrived first, which would make its sign depend on the
    chunking.
    """
    value = float(value)
    if not math.isfinite(value):
        return 0.0
    if value > _FLOAT_CAP:
        return _FLOAT_CAP
    if value < -_FLOAT_CAP:
        return -_FLOAT_CAP
    return value + 0.0


def _delimiter_count(text: str) -> int:
    return sum(1 for ch in text if ch in _DELIMITERS)


#: LUT coverage: Unicode whitespace ends at U+3000; codepoints above fall
#: back to the per-value scalar path (they never occur in benchmark corpora).
_LUT_MAX = 0x3000

_LUTS: dict | None = None

#: Bits of the kernel's per-character class byte.  Each one is a count the
#: slice sums per value, and bit k is field k of :func:`_field_counts`.
_WS, _DIGIT, _DELIM, _NUMERIC_OK = 1, 2, 4, 8
_N_FIELDS = 4
#: _CLASS_BITS[c, k] is bit k of class byte c.
_CLASS_BITS = (np.arange(1 << _N_FIELDS)[:, None] >> np.arange(_N_FIELDS)) & 1

#: Only tokens this short can be stop words, so only they are hashed.
_MAX_STOPWORD_LEN = max(map(len, STOPWORDS))
#: Base-33 positional weights of the token hash.
_POW33 = 33 ** np.arange(_MAX_STOPWORD_LEN, dtype=np.int64)


def _stopword_hashes() -> np.ndarray:
    """Base-33 positional hashes of the stop words (digits 1..26 = a..z)."""
    hashes = {
        sum((ord(ch) - 96) * 33**p for p, ch in enumerate(word))
        for word in STOPWORDS
    }
    return np.array(sorted(hashes), dtype=np.int64)


def char_luts() -> dict:
    """Lazily-built lookup tables driving the vectorized kernel.

    ``cls`` and ``stop_digit`` map a codepoint (clipped to ``_LUT_MAX + 1``)
    to its class byte and its stop-word hash digit; ``ascii_cls`` and
    ``ascii_stop`` are their first 128 entries as ``bytes.translate``
    tables.  The first call costs a few milliseconds (a Python loop over
    every codepoint up to ``_LUT_MAX``); long-lived services call it at
    start-up so no request pays it.
    """
    global _LUTS
    if _LUTS is None:
        size = _LUT_MAX + 2  # one extra slot for clipped (out-of-range) codes
        cls = np.zeros(size, dtype=np.uint8)
        # token-hash digit: 0 for whitespace (no contribution), 1..26 for
        # chars whose str.lower() is a single a..z (the only chars that can
        # appear in a stop word), 28 otherwise (poisons the hash)
        stop_digit = np.full(size, 28, dtype=np.uint8)
        for code in range(_LUT_MAX + 1):
            ch = chr(code)
            if ch.isspace():
                # strippable padding around a numeric literal
                cls[code] = _WS | _NUMERIC_OK
                stop_digit[code] = 0
            else:
                low = ch.lower()
                if len(low) == 1 and "a" <= low <= "z":
                    stop_digit[code] = ord(low) - 96
            if ch.isdecimal():  # what regex \d can match below the cap
                cls[code] = _DIGIT | _NUMERIC_OK
        for ch in _DELIMITERS:
            cls[ord(ch)] = _DELIM
        for ch in "+-.eE":
            cls[ord(ch)] = _NUMERIC_OK
        pad = bytes(256 - 128)  # translate tables need 256 entries
        _LUTS = {
            "cls": cls, "stop_digit": stop_digit,
            "ascii_cls": cls[:128].tobytes() + pad,
            "ascii_stop": stop_digit[:128].tobytes() + pad,
            "stop_hashes": _stopword_hashes(),
        }
    return _LUTS


def _scan_value(text: str) -> tuple[float, float, float, float, float, float]:
    """Scalar reference scan of one value: the 5 shape counts + parse."""
    tokens = text.split()
    value = try_parse_float(text)
    return (
        float(len(tokens)),
        float(sum(1 for t in tokens if t.lower() in STOPWORDS)),
        float(len(text)),
        float(len(text) - sum(map(len, tokens))),
        float(sum(text.count(ch) for ch in _DELIMITERS)),
        np.nan if value is None else value,
    )


#: Characters per slice of :func:`_scan_distinct`.  The kernel allocates
#: about 18 bytes per character, so a slice's transient stays near 5 MB
#: however many characters the distinct values hold.
SCAN_SLICE_CHARS = 1 << 18


def _scan_distinct(
    values: list[str], counts: np.ndarray, parsed: np.ndarray
) -> None:
    """Scan the distinct ``values`` into ``counts`` and ``parsed``.

    ``counts`` is a (5, len(values)) view that receives the word/stopword/
    char/whitespace/delimiter counts, ``parsed`` a (len(values),) view that
    receives the ``try_parse_float`` results (NaN where the value is not
    numeric).  The values are scanned in consecutive slices of at most
    :data:`SCAN_SLICE_CHARS` characters (a longer value gets a slice of its
    own) and each slice writes straight into its columns of the outputs.
    Every measure is per value, so the slicing never changes a result.
    """
    d = len(values)
    lengths = np.fromiter(map(len, values), count=d, dtype=np.intp)
    ends = np.cumsum(lengths)
    start = 0
    while start < d:
        base = ends[start - 1] if start else 0
        stop = np.searchsorted(ends, base + SCAN_SLICE_CHARS, side="right")
        stop = max(int(stop), start + 1)
        _scan_slice(
            values[start:stop], lengths[start:stop],
            counts[:, start:stop], parsed[start:stop],
        )
        start = stop


def _classify(flat: str, luts: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Class bytes, stop-word hash digits and out-of-LUT positions of
    ``flat``'s characters.

    The kernel's one branch: an ASCII string (``str.isascii`` is O(1))
    goes through two ``bytes.translate`` calls, any other through the
    codepoint LUTs, with the positions above ``_LUT_MAX`` reported for the
    scalar fallback.
    """
    if flat.isascii():
        raw = flat.encode("ascii")
        return (
            np.frombuffer(raw.translate(luts["ascii_cls"]), dtype=np.uint8),
            np.frombuffer(raw.translate(luts["ascii_stop"]), dtype=np.uint8),
            np.empty(0, dtype=np.intp),
        )
    codes = np.frombuffer(flat.encode("utf-32-le"), dtype=np.uint32)
    exotic = np.flatnonzero(codes > _LUT_MAX)
    codes = np.minimum(codes, _LUT_MAX + 1)
    if telemetry.enabled:
        telemetry.count("stats.scan_slices_codepoint")
    return luts["cls"][codes], luts["stop_digit"][codes], exotic


def _field_counts(
    cls: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Per-value counts of each class bit, shape (_N_FIELDS, len(starts)).

    Each bit becomes a field of one int64 weight, as wide as the longest
    value's length needs, so one segment sum counts up to 63 // width
    classes at once (all four unless a value reaches 2**15 characters).
    A value's segment runs to the next value's start and so holds the space
    after the value, whose weight is subtracted again.  A value's count of
    any class is at most its length, below ``2**width``, so the difference
    holds every field without a carry (exact modulo 2**64).
    """
    width = max(int(lengths.max()), 1).bit_length()
    per_sum = 63 // width
    out = np.empty((_N_FIELDS, len(starts)), dtype=np.int64)
    cls = cls[: starts[-1] + lengths[-1] + 1]
    for first in range(0, _N_FIELDS, per_sum):
        last = min(first + per_sum, _N_FIELDS)
        shifts = np.arange(last - first, dtype=np.int64) * width
        # class byte -> its bits first..last-1, each shifted to its field
        weights = _CLASS_BITS[:, first:last] @ (1 << shifts)
        packed = np.add.reduceat(weights[cls], starts)
        packed -= weights[_WS | _NUMERIC_OK]
        out[first:last] = (packed >> shifts[:, None]) & ((1 << width) - 1)
    return out


def _scan_slice(
    values: list[str], lengths: np.ndarray,
    counts: np.ndarray, parsed: np.ndarray,
) -> None:
    """Vectorized scan of one slice, producing all measures at once.

    The slice is joined into one string with a space before, between and
    after its values, so every token boundary is a whitespace transition.
    :func:`_classify` turns it into one class byte and one stop-word digit
    per character; everything after is one code path.  Per-value counts
    come from one packed segment sum over the class bytes, tokens from the
    whitespace transitions, and stop words from base-33 hashes of the
    tokens no longer than the longest stop word.  The numeric candidates
    are parsed by one mapped ``float()`` (:func:`_parse_floats`), and only
    values holding codepoints beyond the LUT range rerun in Python.
    """
    d = len(values)
    luts = char_luts()
    # value i spans flat[starts[i]:ends[i]], and flat[ends[i]] is a space;
    # the trailing padding keeps the token-hash gathers below in bounds
    ends = np.cumsum(lengths + 1)
    starts = ends - lengths
    flat = " ".join(["", *values, " " * _MAX_STOPWORD_LEN])
    cls, stop_digit, exotic = _classify(flat, luts)
    if telemetry.enabled:
        telemetry.count("stats.scan_chars", int(lengths.sum()))

    ws, digit, delim, numeric_ok = _field_counts(cls, starts, lengths)
    counts[2] = lengths
    counts[3] = ws
    counts[4] = delim

    # whitespace -> non-whitespace transitions start tokens, the reverse end
    # them; the padding makes them alternate, beginning with a start
    ws_mask = cls & _WS
    edges = np.flatnonzero(ws_mask[1:] != ws_mask[:-1])
    edges += 1
    token_starts, token_ends = edges[0::2], edges[1::2]
    # the tokens of value i start at or after starts[i] and before ends[i]
    tokens_before = np.searchsorted(token_starts, ends)
    counts[0] = tokens_before
    counts[0, 1:] -= tokens_before[:-1]

    # Stop-word counting without touching Python strings: hash each short
    # token positionally in base 33 over its per-char lowercase digits
    # (non-letter chars poison the hash with digit 28) and membership-test
    # the hashes against the precomputed stop-word set.  Digits stay below
    # 33, so the hash of a token is unique among tokens of any length.
    token_len = token_ends - token_starts
    short = token_len <= _MAX_STOPWORD_LEN
    first, token_len = token_starts[short], token_len[short]
    token_hash = np.zeros(len(first), dtype=np.int64)
    for p, weight in enumerate(_POW33):
        # the p-th character of each token, zeroed past its end
        token_hash += stop_digit[first + p] * np.where(token_len > p, weight, 0)
    stop_hashes = luts["stop_hashes"]
    loc = np.searchsorted(stop_hashes, token_hash)
    np.minimum(loc, len(stop_hashes) - 1, out=loc)
    stops = first[stop_hashes[loc] == token_hash]
    counts[1] = np.bincount(
        np.searchsorted(ends, stops, side="right"), minlength=d
    )

    # numeric parse candidates: >=1 digit, every char in the numeric charset.
    # Within that charset ``float()`` of the stripped text accepts exactly
    # what the literal regex in ``try_parse_float`` does, so the regex is
    # skipped.  (``float()`` itself does not strip "\x1c".."\x1f".)
    parsed[:] = np.nan
    candidates = np.flatnonzero((digit > 0) & (numeric_ok == lengths))
    if candidates.size:
        numbers = _parse_floats(
            map(str.strip, map(values.__getitem__, candidates.tolist()))
        )
        finite = np.isfinite(numbers)
        parsed[candidates[finite]] = numbers[finite]

    # values with out-of-LUT codepoints rerun through the scalar reference
    if exotic.size:
        for i in np.unique(np.searchsorted(ends, exotic, side="right")):
            scan = _scan_value(values[i])
            counts[:, i] = scan[:5]
            parsed[i] = scan[5]


def _parse_floats(texts) -> np.ndarray:
    """``float()`` of every text, NaN where it raises ("1-2", "2021-01-05").

    ``list.extend`` keeps the numbers parsed before the text that raised,
    and ``map`` resumes after it, so Python runs once per failure, not once
    per text.
    """
    numbers: list[float] = []
    while True:
        try:
            numbers.extend(map(float, texts))
            return np.array(numbers, dtype=np.float64)
        except ValueError:
            numbers.append(math.nan)


def _probe_samples(
    samples: list[str], cache: dict[str, tuple[bool, bool, bool, bool, bool]]
) -> tuple[float, float, float, float, float]:
    """The five boolean sample probes, memoized per distinct sample value."""
    url = email = delim_seq = lst = date = False
    for s in samples:
        hit = cache.get(s)
        if hit is None:
            # cheap literal prefilters the regexes require anyway: URLs
            # need "://", emails "@", lists one of ",;|", dates a digit
            hit = (
                "://" in s and looks_like_url(s),
                "@" in s and looks_like_email(s),
                _delimiter_count(s) >= 2,
                ("," in s or ";" in s or "|" in s) and looks_like_list(s),
                _HAS_DIGIT_SEARCH(s) is not None and looks_like_datetime(s),
            )
            cache[s] = hit
        url = url or hit[0]
        email = email or hit[1]
        delim_seq = delim_seq or hit[2]
        lst = lst or hit[3]
        date = date or hit[4]
        if url and email and delim_seq and lst and date:
            break
    return float(url), float(email), float(delim_seq), float(lst), float(date)


class ColumnTally(NamedTuple):
    """Frequency-weighted summary of a batch of columns.

    Per column, ``n_distinct`` counts its distinct values, ``sums`` and
    ``sumsq`` (each of shape (5, n_columns)) are the exact sums and sums of
    squares of the five shape counts, and ``moments`` its exact numeric
    moments.
    """

    n_distinct: np.ndarray
    sums: np.ndarray
    sumsq: np.ndarray
    moments: list[ExactMoments]


def tally_columns(counters: list[Counter]) -> ColumnTally:
    """Scan and tally a batch of columns, each given as the counts of its
    present values.

    This is the accumulate step of both stats engines:
    :func:`compute_stats_batch` tallies a batch of whole columns, and
    :class:`repro.sketch.StreamingProfiler` tallies the columns of one
    chunk together and adds each column's result to its sketch.

    ``counters[i]`` maps each present value of column ``i`` to its
    frequency.  Every column's values are scanned once, in one
    :func:`_scan_distinct` call over all of them; a value in two columns
    is scanned for each.  One ``np.bincount`` per sum folds the
    frequency-weighted shape counts into per-column totals; every term is
    an exact integer in float64 (counts are small integers, column totals
    far below 2**53), so the sums are exact in any order.  The numeric
    values go into each column's :class:`ExactMoments`, weighted by their
    frequencies, in one :func:`~repro.core.moments.grouped_moments` pass,
    which is exact too.  A column tallied whole and one tallied chunk by
    chunk therefore agree bit for bit.
    """
    n_cols = len(counters)
    n_distinct = np.fromiter(map(len, counters), count=n_cols, dtype=np.intp)
    n_values = int(n_distinct.sum())
    freq = np.fromiter(
        chain.from_iterable(map(dict.values, counters)),
        count=n_values, dtype=np.int64,
    )
    counts = np.empty((5, n_values))
    parsed = np.empty(n_values)
    _scan_distinct(list(chain.from_iterable(counters)), counts, parsed)
    column = np.repeat(np.arange(n_cols), n_distinct)
    numeric = np.flatnonzero(~np.isnan(parsed))
    # before the shape sums, whose value-sized temporaries live until return
    moments = grouped_moments(
        column[numeric], parsed[numeric], freq[numeric], n_cols
    )
    weights = freq.astype(float)
    sums = np.empty((5, n_cols))
    sumsq = np.empty((5, n_cols))
    for j in range(5):
        row = counts[j]
        weighted = row * weights
        sums[j] = np.bincount(column, weights=weighted, minlength=n_cols)
        weighted *= row
        sumsq[j] = np.bincount(column, weights=weighted, minlength=n_cols)
    return ColumnTally(n_distinct, sums, sumsq, moments)


def finalize_stats(
    total: int,
    n_present: int,
    n_distinct: int,
    sums,
    sumsq,
    moments: ExactMoments,
    samples: list[str],
    probe_cache: dict[str, tuple[bool, bool, bool, bool, bool]],
) -> DescriptiveStats:
    """The finalize step of both stats engines: one column's 25 stats.

    ``total`` cells, ``n_present`` of them present, ``n_distinct``
    distinct; ``sums``/``sumsq`` are the five shape counts' exact sums and
    sums of squares over the present cells, ``moments`` the exact moments
    of the numeric ones, and the five probes run over ``samples``
    (memoized in ``probe_cache``).  Equal inputs give equal bits, however
    the column was accumulated.
    """
    mean_value = std_value = min_value = max_value = 0.0
    numeric_fraction = 0.0
    shape = [0.0] * 10  # word/stop/char/ws/delim: (mean, std) pairs
    if n_present:
        for j in range(5):
            mean = float(sums[j]) / n_present
            variance = float(sumsq[j]) / n_present - mean * mean
            shape[2 * j] = mean
            shape[2 * j + 1] = math.sqrt(max(variance, 0.0))
        if moments.count:
            mean, std = moments.mean_std()
            mean_value, std_value = _finite(mean), _finite(std)
            min_value, max_value = _finite(moments.min), _finite(moments.max)
        numeric_fraction = moments.count / n_present
    total_f = float(total)
    n_missing = float(total - n_present)
    return DescriptiveStats(np.array([
        total_f,
        n_missing,
        n_missing / total_f if total else 0.0,
        float(n_distinct),
        n_distinct / total_f if total else 0.0,
        mean_value,
        std_value,
        min_value,
        max_value,
        *shape,
        numeric_fraction,
        *_probe_samples(samples, probe_cache),
    ]))


def compute_stats_batch(
    columns: list[Column],
    samples_list: list[list[str] | None] | None = None,
    probe_cache: dict[str, tuple[bool, bool, bool, bool, bool]] | None = None,
) -> list[DescriptiveStats]:
    """Compute the 25 descriptive statistics for a batch of raw columns.

    Each column's present values are counted in one ``Counter``, and
    :func:`tally_columns` scans every column's distinct values in one
    sliced LUT/segment kernel call (:func:`_scan_distinct`) and recovers
    every column's distinct count, shape count sums and exact numeric
    moments from its frequency-weighted distinct values.
    :func:`finalize_stats` turns each column's tally into its stats.
    Sample probes are memoized in ``probe_cache``; pass one dict through
    successive calls to share it (a fresh one serves a single call).

    Memory beyond the columns themselves is one counter entry, one scan row
    and a few machine words per distinct value of each column, plus one
    scan slice; nothing scales with the number of characters.  The result
    is the one a :class:`~repro.sketch.ColumnSketch` fed the same cells in
    any chunking finalizes to.
    """
    if samples_list is None:
        samples_list = [None] * len(columns)
    if len(samples_list) != len(columns):
        raise ValueError("samples_list must align with columns")
    if probe_cache is None:
        probe_cache = {}

    n_cols = len(columns)
    # a present cell is never empty ("" reads as missing), so None marks
    # exactly the missing ones
    counters = [Counter(column.cells) for column in columns]
    totals = np.fromiter(map(len, columns), count=n_cols, dtype=np.intp)
    n_present = totals - np.fromiter(
        (counter.pop(None, 0) for counter in counters),
        count=n_cols, dtype=np.intp,
    )
    if telemetry.enabled:
        telemetry.count("stats.columns", n_cols)
        telemetry.count("stats.cells", int(totals.sum()))
        n_empty = int(np.count_nonzero(n_present == 0))
        if n_empty:
            telemetry.count("stats.empty_columns", n_empty)

    tally = tally_columns(counters)
    distincts = tally.n_distinct.tolist()
    sums, sumsq = tally.sums.T.tolist(), tally.sumsq.T.tolist()

    out: list[DescriptiveStats] = []
    for i, (column, samples) in enumerate(zip(columns, samples_list)):
        if samples is None:
            samples = column.head_distinct(5)
        out.append(finalize_stats(
            int(totals[i]), int(n_present[i]), distincts[i], sums[i],
            sumsq[i], tally.moments[i], samples, probe_cache,
        ))
    return out


def compute_stats(column: Column, samples: list[str] | None = None) -> DescriptiveStats:
    """Compute the 25 descriptive statistics for one raw column.

    ``samples`` are the (up to five) sampled distinct values the regex/date
    probes run over; when omitted the first five distinct values are used.
    Batch-of-one wrapper over :func:`compute_stats_batch`; featurize a whole
    table through the batch API when possible — it amortizes the vectorized
    scan across columns.
    """
    return compute_stats_batch([column], [samples])[0]


def compress_stats(matrix: np.ndarray) -> np.ndarray:
    """Signed log compression of the unbounded stats columns.

    Raw columns like ``mean_value`` span 18 orders of magnitude (paper
    Table 18 reports means up to 8.8e17), which destabilizes scale-sensitive
    models.  ``sign(x) * log1p(|x|)`` preserves ordering while bounding scale;
    bounded columns (fractions, booleans) pass through unchanged.
    """
    matrix = np.asarray(matrix, dtype=float).copy()
    unbounded = list(UNBOUNDED_STAT_INDICES)
    cols = matrix[:, unbounded]
    matrix[:, unbounded] = np.sign(cols) * np.log1p(np.abs(cols))
    return matrix
