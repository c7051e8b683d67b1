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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.moments import ExactMoments
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

_LUTS: dict[str, np.ndarray] | None = None


#: Base-33 positional weights for the token hash; position clamps at 7.
_POW33 = 33 ** np.arange(8, dtype=np.int64)


def _stopword_hashes() -> np.ndarray:
    """Base-33 positional hashes of the stop words (digits 1..26 = a..z)."""
    hashes = {
        sum((ord(ch) - 96) * 33**p for p, ch in enumerate(word))
        for word in STOPWORDS
    }
    return np.array(sorted(hashes), dtype=np.int64)


def _char_luts() -> dict[str, np.ndarray]:
    """Lazily-built codepoint lookup tables driving the vectorized kernel."""
    global _LUTS
    if _LUTS is None:
        size = _LUT_MAX + 2  # one extra slot for clipped (out-of-range) codes
        ws = np.zeros(size, dtype=bool)
        digit = np.zeros(size, dtype=bool)
        # token-hash digit: 0 for whitespace (no contribution), 1..26 for
        # chars whose str.lower() is a single a..z (the only chars that can
        # appear in a stop word), 28 otherwise (poisons the hash)
        stop_digit = np.full(size, 28, dtype=np.int64)
        for code in range(_LUT_MAX + 1):
            ch = chr(code)
            if ch.isspace():
                ws[code] = True
                stop_digit[code] = 0
            else:
                low = ch.lower()
                if len(low) == 1 and "a" <= low <= "z":
                    stop_digit[code] = ord(low) - 96
            if ch.isdecimal():  # what regex \d can match below the cap
                digit[code] = True
        delim = np.zeros(size, dtype=bool)
        for ch in _DELIMITERS:
            delim[ord(ch)] = True
        numeric_ok = digit.copy()
        numeric_ok |= ws  # strippable padding around a numeric literal
        for ch in "+-.eE":
            numeric_ok[ord(ch)] = True
        _LUTS = {
            "ws": ws, "digit": digit, "delim": delim,
            "numeric_ok": numeric_ok, "stop_digit": stop_digit,
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
#: about 56 bytes of int/bool arrays per character, so a slice's transient
#: stays near 15 MB however many characters the distinct values hold.
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


def _scan_slice(
    values: list[str], lengths: np.ndarray,
    counts: np.ndarray, parsed: np.ndarray,
) -> None:
    """Vectorized scan of one slice, producing all measures at once.

    All character classification runs as LUT lookups over one flat codepoint
    array covering every value of the slice; per-value totals are recovered
    with segment sums (prefix-sum differences).  Python falls back per value
    only where it must: stop-word membership for values containing letters,
    the numeric parse for values that pass the numeric-charset prefilter,
    and codepoints beyond the LUT range.
    """
    d = len(values)
    luts = _char_luts()
    ends = np.cumsum(lengths)
    starts = ends - lengths
    flat = "".join(values)
    codes = np.frombuffer(flat.encode("utf-32-le"), dtype=np.uint32)
    exotic_codes = codes > _LUT_MAX
    idx = codes.astype(np.intp)
    np.minimum(idx, _LUT_MAX + 1, out=idx)

    total_chars = len(codes)
    # int32 prefix: totals stay below 2**31 and the cumsum is memory-bound
    prefix = np.empty(total_chars + 1, dtype=np.int32)

    def segment_sum(mask: np.ndarray) -> np.ndarray:
        prefix[0] = 0
        np.cumsum(mask, out=prefix[1:])
        return prefix[ends] - prefix[starts]

    ws_mask = luts["ws"][idx]
    # a word starts at a non-space char preceded by a space or a boundary
    word_start = ~ws_mask
    prev_ws = np.empty(total_chars, dtype=bool)
    if total_chars:
        prev_ws[0] = True
        prev_ws[1:] = ws_mask[:-1]
        # an empty value ending the slice starts past its last char
        prev_ws[starts[lengths > 0]] = True
    word_start &= prev_ws

    counts[2] = lengths
    counts[3] = segment_sum(ws_mask)
    counts[4] = segment_sum(luts["delim"][idx])

    # numeric parse candidates: >=1 digit, every char in the numeric charset.
    # Within that charset ``float()`` accepts exactly what the literal regex
    # in ``try_parse_float`` does, so the regex is skipped.
    parsed[:] = np.nan
    candidate = (segment_sum(luts["digit"][idx]) > 0) & (
        segment_sum(luts["numeric_ok"][idx]) == lengths
    )

    # The word-count prefix sum runs last so its cumsum doubles as the
    # per-char token id (prefix[i+1] - 1) for the stop-word hashing below.
    counts[0] = segment_sum(word_start)

    # Stop-word counting without touching Python strings: hash every token
    # positionally in base 33 over per-char lowercase digits (whitespace
    # contributes 0, non-letter chars poison the hash with digit 28) and
    # membership-test the hashes against the precomputed stop-word set.
    # Tokens longer than any stop word pick up a contribution >= 33**6,
    # which already exceeds every stop-word hash, so no length mask is
    # needed; the position clamp at 7 only guards against int64 overflow.
    token_starts = np.flatnonzero(word_start)
    if token_starts.size:
        dig = luts["stop_digit"][idx]
        token_id = prefix[1:]  # cumsum(word_start), mutated in place
        token_id -= 1
        np.maximum(token_id, 0, out=token_id)  # leading-whitespace chars
        pos = np.arange(total_chars, dtype=np.int64) - token_starts[token_id]
        # whitespace before the first token gets a negative position; its
        # digit is 0 and it lies outside every token's segment anyway
        np.clip(pos, 0, 7, out=pos)
        token_hash = np.add.reduceat(dig * _POW33[pos], token_starts)
        stop_hashes = luts["stop_hashes"]
        loc = np.searchsorted(stop_hashes, token_hash)
        np.minimum(loc, len(stop_hashes) - 1, out=loc)
        is_stop = stop_hashes[loc] == token_hash
        value_of_token = np.searchsorted(ends, token_starts, side="right")
        counts[1] = np.bincount(value_of_token[is_stop], minlength=d)
    else:
        counts[1] = 0.0
    isfinite = math.isfinite
    for i in np.flatnonzero(candidate):
        try:
            value = float(values[i])
        except ValueError:
            continue
        if isfinite(value):
            parsed[i] = value

    # values with out-of-LUT codepoints rerun through the scalar reference
    if exotic_codes.any():
        for i in np.flatnonzero(segment_sum(exotic_codes) > 0):
            scan = _scan_value(values[i])
            counts[:, i] = scan[:5]
            parsed[i] = scan[5]


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


class _Interner(dict):
    """value → code dict that assigns the next code on first lookup.

    ``list(map(interner.__getitem__, cells))`` interns and encodes a whole
    column in one C-speed pass; only novel values drop into Python via
    ``__missing__``.
    """

    def __init__(self, values: list[str]):
        super().__init__()
        self.value_list = values

    def __missing__(self, key: str) -> int:
        code = len(self)
        self[key] = code
        self.value_list.append(key)
        return code


class StatsScanCache:
    """Cross-batch memo of per-value scan results.

    Featurizing a corpus scans each *distinct cell value of the corpus* once:
    the cache holds the interning table plus the scanned count/parse arrays,
    so later tables reuse the work of earlier ones (category vocabularies,
    small integers, and common tokens repeat heavily across files).  Pass one
    instance through successive :func:`compute_stats_batch` calls.

    ``counts``/``parsed`` are views into capacity-doubled buffers, so the
    per-batch growth in :meth:`scan_novel` is amortized O(1) per value, and
    the scan kernel writes its slices straight into them.

    ``max_values`` bounds the resident values for long-lived callers (a
    server, a streamed upload).  A value *hits* when a batch looks it up
    after an earlier batch scanned it.  Once a batch leaves more than
    ``max_values`` values interned, :meth:`end_batch` trims the cache to
    the values that hit since the last trim (at most ``max_values``, oldest
    first); their scan rows are copied, not rescanned.  Buffer growth is
    clamped to the cap, so capacity stays within cap + one batch.  With a
    ``metric_prefix``, each trim counts ``<prefix>.scan_cache_reset`` and
    adds the values it keeps to ``<prefix>.scan_cache_kept``, and every
    batch sets the ``<prefix>.scan_cache_values`` gauge.
    """

    def __init__(
        self, max_values: int | None = None, metric_prefix: str | None = None
    ):
        self.max_values = max_values
        self.metric_prefix = metric_prefix
        self.values: list[str] = []
        self.value_index: dict[str, int] = _Interner(self.values)
        self._counts_buf = np.zeros((5, 0))
        self._parsed_buf = np.zeros(0)
        self._hit_buf = np.zeros(0, dtype=bool)
        self.counts = self._counts_buf
        self.parsed = self._parsed_buf
        self.probe_cache: dict[str, tuple[bool, bool, bool, bool, bool]] = {}
        # codes below this were scanned before the current batch's lookups
        self._n_known = 0

    @property
    def capacity(self) -> int:
        """Allocated scan-row slots (resident values fit without growth)."""
        return self._counts_buf.shape[1]

    def scan_novel(self) -> None:
        """Scan any interned values that do not have measures yet."""
        n_scanned = self.counts.shape[1]
        self._n_known = n_scanned
        total = len(self.values)
        if total == n_scanned:
            return
        if total > self.capacity:
            capacity = 2 * self.capacity
            if self.max_values is not None:
                capacity = min(capacity, self.max_values)
            capacity = max(total, capacity)
            grown = np.zeros((5, capacity))
            grown[:, :n_scanned] = self._counts_buf[:, :n_scanned]
            self._counts_buf = grown
            grown_parsed = np.zeros(capacity)
            grown_parsed[:n_scanned] = self._parsed_buf[:n_scanned]
            self._parsed_buf = grown_parsed
            if self.max_values is not None:
                grown_hit = np.zeros(capacity, dtype=bool)
                grown_hit[:n_scanned] = self._hit_buf[:n_scanned]
                self._hit_buf = grown_hit
        # the views advance only once every slice is in, so a failed scan
        # leaves the novel values unscanned (the next call retries them)
        _scan_distinct(
            self.values[n_scanned:],
            self._counts_buf[:, n_scanned:total],
            self._parsed_buf[n_scanned:total],
        )
        self.counts = self._counts_buf[:, :total]
        self.parsed = self._parsed_buf[:total]

    def mark_hits(self, codes: np.ndarray) -> None:
        """Flag the looked-up ``codes`` that an earlier batch scanned."""
        if self.max_values is not None:
            self._hit_buf[codes[codes < self._n_known]] = True

    def end_batch(self) -> None:
        """Trim past ``max_values``; call once a batch is done with its codes
        (a trim renumbers them)."""
        if self.max_values is None:
            return
        if len(self.values) > self.max_values:
            keep = np.flatnonzero(self._hit_buf[: len(self.values)])
            self._trim(keep[: self.max_values])
        if self.metric_prefix is not None:
            telemetry.gauge(
                f"{self.metric_prefix}.scan_cache_values", len(self.values)
            )

    def _trim(self, keep: np.ndarray) -> None:
        kept = len(keep)
        values = [self.values[i] for i in keep.tolist()]
        index = _Interner(values)
        index.update(zip(values, range(kept)))
        self.values = values
        self.value_index = index
        # fancy indexing copies the kept rows first, so compaction in place
        # is safe; the buffers keep their (clamped) capacity
        self._counts_buf[:, :kept] = self._counts_buf[:, keep]
        self._parsed_buf[:kept] = self._parsed_buf[keep]
        self._hit_buf[:] = False
        self.counts = self._counts_buf[:, :kept]
        self.parsed = self._parsed_buf[:kept]
        self.probe_cache = {
            value: probes
            for value, probes in self.probe_cache.items()
            if value in index
        }
        if self.metric_prefix is not None:
            telemetry.count(f"{self.metric_prefix}.scan_cache_reset")
            telemetry.count(f"{self.metric_prefix}.scan_cache_kept", kept)


class ColumnTally(NamedTuple):
    """Frequency-weighted summary of a batch of encoded columns.

    ``code`` holds the value code of every distinct (column, value) pair;
    per column, ``n_distinct`` counts its distinct values, ``sums`` and
    ``sumsq`` (each of shape (5, n_columns)) are the exact sums and sums of
    squares of the five shape counts, and ``moments`` its exact numeric
    moments.
    """

    code: np.ndarray
    n_distinct: np.ndarray
    sums: np.ndarray
    sumsq: np.ndarray
    moments: list[ExactMoments]


def tally_columns(
    codes: np.ndarray,
    n_present: np.ndarray,
    counts: np.ndarray,
    parsed: np.ndarray,
) -> ColumnTally:
    """Tally the value codes of a batch of columns against their scan rows.

    This is the accumulate step of both stats engines:
    :func:`compute_stats_batch` tallies a batch of whole columns, and
    :meth:`repro.sketch.ColumnSketch.update` tallies one chunk of one
    column and adds the result to its running totals.

    ``codes`` holds the code of every present cell, column after column,
    with ``n_present[i]`` cells for column ``i``; ``counts`` (5, n_values)
    and ``parsed`` (n_values,) are the scan rows the codes index.  One
    ``np.unique`` over (column, code) keys gives every column's distinct
    values with their frequencies.  One ``np.bincount`` per sum folds the
    frequency-weighted shape counts into per-column totals; every term is
    an exact integer in float64 (counts are small integers, column totals
    far below 2**53), so the sums are exact in any order.  The numeric
    distinct values go into each column's :class:`ExactMoments`, weighted
    by their frequencies, which is exact too.  A column tallied whole and
    one tallied chunk by chunk therefore agree bit for bit.
    """
    n_cols = len(n_present)
    stride = int(codes.max()) + 1 if codes.size else 1
    keys = np.repeat(np.arange(n_cols, dtype=np.intp) * stride, n_present)
    keys += codes
    keys, freq = np.unique(keys, return_counts=True)
    column, code = np.divmod(keys, stride)
    # before the shape sums, whose row-sized temporaries live until return
    moments = _numeric_moments(column, code, freq, parsed, n_cols)
    weights = freq.astype(float)
    sums = np.empty((5, n_cols))
    sumsq = np.empty((5, n_cols))
    for j in range(5):
        row = counts[j, code]
        weighted = row * weights
        sums[j] = np.bincount(column, weights=weighted, minlength=n_cols)
        weighted *= row
        sumsq[j] = np.bincount(column, weights=weighted, minlength=n_cols)
    n_distinct = np.bincount(column, minlength=n_cols)
    return ColumnTally(code, n_distinct, sums, sumsq, moments)


def _numeric_moments(
    column: np.ndarray, code: np.ndarray, freq: np.ndarray,
    parsed: np.ndarray, n_cols: int,
) -> list[ExactMoments]:
    """Each column's exact moments over its numeric distinct values,
    weighted by their frequencies (tally entries are sorted by column)."""
    numeric = np.flatnonzero(~np.isnan(parsed[code]))
    column_starts = np.searchsorted(column, np.arange(n_cols + 1))
    bounds = np.searchsorted(numeric, column_starts).tolist()
    values, weights = parsed[code[numeric]], freq[numeric]
    moments = []
    for lo, hi in zip(bounds, bounds[1:]):
        accumulator = ExactMoments()
        accumulator.add_many(values[lo:hi], weights[lo:hi])
        moments.append(accumulator)
    return moments


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
    scan_cache: StatsScanCache | None = None,
) -> list[DescriptiveStats]:
    """Compute the 25 descriptive statistics for a batch of raw columns.

    The batched kernel shares one vectorized scan across every column: cell
    values are interned into one distinct table (values repeated across
    columns — category levels, small integers — are scanned once) and
    encoded as one array of codes, the distinct values go through the
    sliced LUT/segment kernel in :func:`_scan_distinct`, and
    :func:`tally_columns` recovers every column's distinct count, shape
    count sums and exact numeric moments from its frequency-weighted
    distinct values.  :func:`finalize_stats` turns each column's tally into
    its stats.  Sample probes are memoized.  With a ``scan_cache``,
    interning and scan results persist across calls so a whole corpus pays
    each distinct value once.

    Memory beyond the columns themselves is the interner, the scan rows of
    the distinct values, one scan slice, and a few machine words per
    present cell (its code and its tally key); nothing scales with the
    number of characters.  The result is the one a
    :class:`~repro.sketch.ColumnSketch` fed the same cells in any chunking
    finalizes to.
    """
    if samples_list is None:
        samples_list = [None] * len(columns)
    if len(samples_list) != len(columns):
        raise ValueError("samples_list must align with columns")

    cache = scan_cache if scan_cache is not None else StatsScanCache()
    interned = cache.value_index.__getitem__

    n_cols = len(columns)
    totals = np.fromiter(map(len, columns), count=n_cols, dtype=np.intp)
    n_present = totals - np.fromiter(
        (column.cells.count(None) for column in columns),
        count=n_cols, dtype=np.intp,
    )
    ends = np.cumsum(n_present)
    starts = ends - n_present
    code_arr = np.empty(int(ends[-1]) if n_cols else 0, dtype=np.intp)
    for column, start, stop in zip(columns, starts.tolist(), ends.tolist()):
        if start == stop:
            telemetry.count("stats.empty_columns")
            continue
        present = [cell for cell in column.cells if cell is not None]
        # one C-speed pass encodes the column; __missing__ interns novelty
        code_arr[start:stop] = np.fromiter(
            map(interned, present), count=stop - start, dtype=np.intp
        )
    if telemetry.enabled:
        telemetry.count("stats.columns", n_cols)
        telemetry.count("stats.cells", int(totals.sum()))

    cache.scan_novel()
    tally = tally_columns(code_arr, n_present, cache.counts, cache.parsed)
    cache.mark_hits(tally.code)
    distincts = tally.n_distinct.tolist()
    sums, sumsq = tally.sums.T.tolist(), tally.sumsq.T.tolist()

    out: list[DescriptiveStats] = []
    for i, (column, samples) in enumerate(zip(columns, samples_list)):
        if samples is None:
            samples = column.head_distinct(5)
        out.append(finalize_stats(
            int(totals[i]), int(n_present[i]), distincts[i], sums[i],
            sumsq[i], tally.moments[i], samples, cache.probe_cache,
        ))
    cache.end_batch()
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
