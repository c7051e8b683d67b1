"""Distance functions, including a vectorized one-vs-many Levenshtein.

The paper's k-NN (Section 3.3.3) uses the weighted distance

    d = ED(X_name) + gamma * EC(X_stats)

where ED is the edit distance between attribute names and EC the euclidean
distance between descriptive-stats vectors.  Computing edit distance between
one query and thousands of training names pair-by-pair in Python is slow, so
:func:`levenshtein_one_vs_many` vectorizes the DP across the training set.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def levenshtein(a: str, b: str) -> int:
    """Classic edit distance between two strings (insert/delete/substitute)."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    positions = np.arange(len(b) + 1, dtype=np.int64)
    previous = positions.copy()
    b_codes = np.frombuffer(b.encode("utf-32-le"), dtype=np.uint32)
    for i, ch in enumerate(a, start=1):
        cost = (b_codes != ord(ch)).astype(np.int64)
        current = np.empty(len(b) + 1, dtype=np.int64)
        current[0] = i
        # substitution / deletion are elementwise over the previous row
        current[1:] = np.minimum(previous[:-1] + cost, previous[1:] + 1)
        # insertion chains within the current row:
        #   current[j] = min(current[j], min_{k<j} current[k] + (j - k))
        # which is j + prefix-min of (current[k] - k).
        current = np.minimum(
            current, np.minimum.accumulate(current - positions) + positions
        )
        previous = current
    return int(previous[len(b)])


def _encode_padded(strings: Sequence[str], max_len: int) -> np.ndarray:
    """Strings as a (n, max_len) uint32 codepoint matrix padded with 0."""
    out = np.zeros((len(strings), max_len), dtype=np.uint32)
    for i, text in enumerate(strings):
        codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
        out[i, : len(codes)] = codes[:max_len]
    return out


def _levenshtein_dp(
    query: str,
    matrix: np.ndarray,
    lengths: np.ndarray,
    positions: np.ndarray,
) -> np.ndarray:
    """Corpus-vectorized DP for one query over a pre-encoded corpus matrix."""
    n = matrix.shape[0]
    if not query:
        return lengths.copy()
    previous = np.tile(positions, (n, 1))
    for i, ch in enumerate(query, start=1):
        cost = (matrix != ord(ch)).astype(np.int64)
        current = np.empty_like(previous)
        current[:, 0] = i
        current[:, 1:] = np.minimum(previous[:, :-1] + cost, previous[:, 1:] + 1)
        # insertion-chain prefix-min scan along columns (see `levenshtein`)
        current = np.minimum(
            current, np.minimum.accumulate(current - positions, axis=1) + positions
        )
        previous = current
    return previous[np.arange(n), lengths]


def levenshtein_one_vs_many(query: str, corpus: Sequence[str]) -> np.ndarray:
    """Edit distance from ``query`` to every string in ``corpus``.

    Vectorized across the corpus: one (len(query) x max_len) DP where each
    cell is a corpus-sized vector.  Exact (matches :func:`levenshtein`).
    """
    n = len(corpus)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    lengths = np.array([len(s) for s in corpus], dtype=np.int64)
    max_len = int(lengths.max()) if n else 0
    if max_len == 0:
        return np.full(n, len(query), dtype=np.int64)
    matrix = _encode_padded(corpus, max_len)
    positions = np.arange(max_len + 1, dtype=np.int64)[None, :]
    return _levenshtein_dp(query, matrix, lengths, positions)


def levenshtein_many_vs_many(
    queries: Sequence[str], corpus: Sequence[str]
) -> np.ndarray:
    """Edit distances from each query to every corpus string, shape (q, n).

    Row i equals ``levenshtein_one_vs_many(queries[i], corpus)``, but the
    corpus is encoded once for the whole batch and repeated query strings
    (attribute names recur across files) run the DP only once.
    """
    n = len(corpus)
    out = np.empty((len(queries), n), dtype=np.int64)
    if n == 0 or not queries:
        return out
    lengths = np.array([len(s) for s in corpus], dtype=np.int64)
    max_len = int(lengths.max())
    if max_len == 0:
        for i, query in enumerate(queries):
            out[i] = len(query)
        return out
    matrix = _encode_padded(corpus, max_len)
    positions = np.arange(max_len + 1, dtype=np.int64)[None, :]
    seen: dict[str, int] = {}
    for i, query in enumerate(queries):
        first = seen.setdefault(query, i)
        if first != i:
            out[i] = out[first]
        else:
            out[i] = _levenshtein_dp(query, matrix, lengths, positions)
    return out


def euclidean_one_vs_many(query: np.ndarray, corpus: np.ndarray) -> np.ndarray:
    """Euclidean distance from one vector to each row of ``corpus``."""
    query = np.asarray(query, dtype=float)
    corpus = np.asarray(corpus, dtype=float)
    diff = corpus - query[None, :]
    return np.sqrt(np.sum(diff * diff, axis=1))


def euclidean_many_vs_many(
    queries: np.ndarray, corpus: np.ndarray, chunk: int = 256
) -> np.ndarray:
    """Row-wise euclidean distances, shape (q, n).

    Row i is bit-identical to ``euclidean_one_vs_many(queries[i], corpus)``:
    the kernel broadcasts the same direct differences (no a²+b²−2ab
    rearrangement, which changes rounding), chunking queries to bound the
    (chunk, n, d) temporary.
    """
    queries = np.asarray(queries, dtype=float)
    corpus = np.asarray(corpus, dtype=float)
    out = np.empty((queries.shape[0], corpus.shape[0]))
    for start in range(0, queries.shape[0], chunk):
        block = queries[start : start + chunk]
        diff = corpus[None, :, :] - block[:, None, :]
        out[start : start + chunk] = np.sqrt(np.sum(diff * diff, axis=2))
    return out


def pairwise_euclidean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs euclidean distances, shape (len(a), len(b))."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a_sq = np.sum(a * a, axis=1)[:, None]
    b_sq = np.sum(b * b, axis=1)[None, :]
    sq = a_sq + b_sq - 2.0 * a @ b.T
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq)
