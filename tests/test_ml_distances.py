"""Tests + property tests for the distance functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.distances import (
    euclidean_one_vs_many,
    levenshtein,
    levenshtein_many_vs_many,
    levenshtein_one_vs_many,
    pairwise_euclidean,
)

short_text = st.text(alphabet="abcxyz_0123", max_size=12)
unicode_text = st.text(max_size=16)  # arbitrary unicode, incl. astral


def reference_levenshtein(a: str, b: str) -> int:
    dp = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        prev, dp[0] = dp[0], i
        for j, cb in enumerate(b, 1):
            prev, dp[j] = dp[j], min(dp[j] + 1, dp[j - 1] + 1, prev + (ca != cb))
    return dp[len(b)]


class TestLevenshtein:
    @pytest.mark.parametrize(
        "a,b,expected",
        [("", "", 0), ("a", "", 1), ("", "abc", 3), ("kitten", "sitting", 3),
         ("flaw", "lawn", 2), ("abc", "abc", 0), ("zip_code", "zipcode", 1)],
    )
    def test_known(self, a, b, expected):
        assert levenshtein(a, b) == expected

    @given(short_text, short_text)
    def test_matches_reference(self, a, b):
        assert levenshtein(a, b) == reference_levenshtein(a, b)

    @given(short_text, short_text)
    def test_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(short_text, short_text, short_text)
    @settings(max_examples=50)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(short_text)
    def test_identity(self, a):
        assert levenshtein(a, a) == 0


class TestOneVsMany:
    @given(short_text, st.lists(short_text, max_size=15))
    def test_matches_pairwise(self, query, corpus):
        got = levenshtein_one_vs_many(query, corpus)
        expected = [levenshtein(query, s) for s in corpus]
        assert got.tolist() == expected

    def test_empty_corpus(self):
        assert levenshtein_one_vs_many("abc", []).shape == (0,)

    def test_all_empty_strings(self):
        assert levenshtein_one_vs_many("ab", ["", ""]).tolist() == [2, 2]


class TestManyVsMany:
    @given(st.lists(unicode_text, max_size=6), st.lists(unicode_text, max_size=8))
    @settings(max_examples=80)
    def test_rows_match_one_vs_many(self, queries, corpus):
        got = levenshtein_many_vs_many(queries, corpus)
        assert got.shape == (len(queries), len(corpus))
        for query, row in zip(queries, got):
            assert row.tolist() == [reference_levenshtein(query, s) for s in corpus]
            assert np.array_equal(row, levenshtein_one_vs_many(query, corpus))

    def test_empty_inputs(self):
        assert levenshtein_many_vs_many([], ["x"]).shape == (0, 1)
        assert levenshtein_many_vs_many(["x"], []).shape == (1, 0)

    def test_all_empty_corpus(self):
        got = levenshtein_many_vs_many(["ab", ""], ["", ""])
        assert got.tolist() == [[2, 2], [0, 0]]

    def test_repeated_queries_share_rows(self):
        got = levenshtein_many_vs_many(["dog", "cat", "dog"], ["dot", "cut"])
        assert got.tolist() == [[1, 3], [2, 1], [1, 3]]


class TestEuclidean:
    def test_one_vs_many(self):
        corpus = np.array([[0.0, 0.0], [3.0, 4.0]])
        got = euclidean_one_vs_many(np.array([0.0, 0.0]), corpus)
        assert got.tolist() == [0.0, 5.0]

    def test_pairwise_matches_direct(self, rng):
        a = rng.normal(size=(5, 3))
        b = rng.normal(size=(7, 3))
        got = pairwise_euclidean(a, b)
        for i in range(5):
            for j in range(7):
                assert got[i, j] == pytest.approx(
                    float(np.linalg.norm(a[i] - b[j])), abs=1e-9
                )

    def test_pairwise_self_diagonal_zero(self, rng):
        a = rng.normal(size=(6, 4))
        d = pairwise_euclidean(a, a)
        assert np.allclose(np.diag(d), 0.0, atol=1e-6)
