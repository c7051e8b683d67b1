"""Tests for the raw Column container."""

import numpy as np
import pytest

from repro.tabular.column import Column


def test_basic_container():
    col = Column("x", ["a", "b", "c"])
    assert len(col) == 3
    assert list(col) == ["a", "b", "c"]
    assert col[1] == "b"
    assert col.name == "x"


def test_missing_normalization():
    col = Column("x", ["a", "", "NA", None, "NaN", "b", "#NULL!"])
    assert col.n_missing() == 5
    assert col.non_missing() == ["a", "b"]


def test_non_string_cells_coerced():
    col = Column("x", [1, 2.5, None])
    assert col.cells[0] == "1"
    assert col.cells[1] == "2.5"
    assert col.cells[2] is None


def test_distinct_preserves_order():
    col = Column("x", ["b", "a", "b", "c", "a"])
    assert col.distinct() == ["b", "a", "c"]


def test_numeric_values_and_fraction():
    col = Column("x", ["1", "2.5", "abc", None])
    assert col.numeric_values() == [1.0, 2.5]
    assert col.numeric_fraction() == pytest.approx(2 / 3)


def test_numeric_fraction_empty():
    assert Column("x", [None, ""]).numeric_fraction() == 0.0


def test_sample_distinct_small_domain_returns_all():
    col = Column("x", ["a", "b", "a"])
    rng = np.random.default_rng(0)
    assert sorted(col.sample_distinct(5, rng)) == ["a", "b"]


def test_sample_distinct_is_distinct_and_bounded():
    cells = [str(i % 20) for i in range(200)]
    col = Column("x", cells)
    rng = np.random.default_rng(0)
    sample = col.sample_distinct(5, rng)
    assert len(sample) == 5
    assert len(set(sample)) == 5
    assert all(s in col.distinct() for s in sample)


def test_head_distinct():
    col = Column("x", ["c", "a", "c", "b"])
    assert col.head_distinct(2) == ["c", "a"]


def test_head_distinct_is_a_prefix_of_distinct_for_every_k():
    cells = [None, "c", "NA", "a", "c", None, "b", "a", "", "d", "c", "e"]
    col = Column("x", cells)
    distinct = col.distinct()
    assert distinct == ["c", "a", "b", "d", "e"]
    for k in range(-2, len(distinct) + 3):
        assert col.head_distinct(k) == distinct[:k], k
    for empty in (Column("e", []), Column("m", [None, "null", None])):
        for k in range(-1, 3):
            assert empty.head_distinct(k) == empty.distinct()[:k] == []


def test_equality():
    assert Column("x", ["a"]) == Column("x", ["a"])
    assert Column("x", ["a"]) != Column("y", ["a"])
    assert Column("x", ["a"]) != Column("x", ["b"])
