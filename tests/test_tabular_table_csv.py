"""Tests for Table and CSV IO."""

from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tabular import csv_io
from repro.tabular.column import Column
from repro.tabular.csv_io import (
    CSVReadError,
    _leading_lines,
    decode_csv_bytes,
    read_csv,
    read_csv_text,
    sniff_delimiter,
    to_csv_text,
    write_csv,
)
from repro.tabular.table import Table

MANGLED_DIR = Path(__file__).parent / "data" / "mangled"


@pytest.fixture()
def table() -> Table:
    return Table(
        [Column("a", ["1", "2"]), Column("b", ["x", None])], name="t"
    )


class TestTable:
    def test_shape(self, table):
        assert len(table) == 2
        assert table.n_columns == 2
        assert table.column_names == ["a", "b"]

    def test_getitem_and_contains(self, table):
        assert table["a"].cells[0] == "1"
        assert "b" in table
        with pytest.raises(KeyError, match="no column"):
            table["missing"]

    def test_rows(self, table):
        assert list(table.rows()) == [["1", "x"], ["2", None]]

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError, match="rows"):
            Table([Column("a", ["1"]), Column("b", ["1", "2"])])

    def test_duplicate_names_raise(self):
        with pytest.raises(ValueError, match="duplicate"):
            Table([Column("a", ["1"]), Column("a", ["2"])])

    def test_select_drop(self, table):
        assert table.select(["b"]).column_names == ["b"]
        assert table.drop(["b"]).column_names == ["a"]
        with pytest.raises(KeyError):
            table.drop(["zz"])

    def test_with_column_appends_and_replaces(self, table):
        grown = table.with_column(Column("c", ["9", "8"]))
        assert grown.column_names == ["a", "b", "c"]
        replaced = table.with_column(Column("a", ["7", "7"]))
        assert replaced["a"].cells == ["7", "7"]
        assert replaced.n_columns == 2

    def test_from_dict(self):
        t = Table.from_dict({"x": ["1"], "y": ["a"]})
        assert t.column_names == ["x", "y"]

    def test_from_rows_pads_ragged(self):
        t = Table.from_rows(["a", "b"], [["1"], ["1", "2", "3"]])
        assert list(t.rows()) == [["1", None], ["1", "2"]]


class TestCsv:
    def test_roundtrip_text(self, table):
        text = to_csv_text(table)
        back = read_csv_text(text, name="t")
        assert back.column_names == table.column_names
        assert list(back.rows()) == list(table.rows())

    def test_roundtrip_file(self, table, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(table, path)
        back = read_csv(path)
        assert back.name == "t"
        assert list(back.rows()) == list(table.rows())

    def test_quoted_cells_with_commas(self):
        text = 'name,notes\nalice,"hello, world"\n'
        t = read_csv_text(text)
        assert t["notes"].cells[0] == "hello, world"

    def test_empty_csv_raises(self):
        with pytest.raises(ValueError, match="empty"):
            read_csv_text("")

    def test_duplicate_headers_deduped(self):
        t = read_csv_text("a,a,a\n1,2,3\n")
        assert t.column_names == ["a", "a.1", "a.2"]

    def test_sniff_semicolon(self):
        assert sniff_delimiter("a;b;c\n1;2;3\n") == ";"
        assert sniff_delimiter("a,b\n1,2\n") == ","
        assert sniff_delimiter("a\tb\n1\t2\n") == "\t"

    def test_missing_cells_roundtrip_as_none(self, table):
        back = read_csv_text(to_csv_text(table))
        assert back["b"].cells[1] is None


def whole_text_sniff(text: str) -> str:
    """The sniff as first defined: split the whole text, keep 20 lines."""
    lines = [line for line in text.splitlines()[:20] if line.strip()]
    if not lines:
        return ","
    best, best_score = ",", -1.0
    for cand in ",;\t|":
        counts = [line.count(cand) for line in lines]
        if min(counts) == 0:
            continue
        score = min(counts) - 0.5 * (max(counts) - min(counts))
        if score > best_score:
            best, best_score = cand, score
    return best


class TestSniffPrefix:
    """``sniff_delimiter`` splits only a prefix of the text, yet must see
    exactly the 20 lines a split of the whole text gives."""

    @pytest.mark.parametrize(
        "path", sorted(MANGLED_DIR.glob("*.csv")), ids=lambda p: p.name
    )
    def test_mangled_corpus_matches_whole_text_sniff(self, path):
        try:
            text = decode_csv_bytes(path.read_bytes())
        except CSVReadError:
            pytest.skip("undecodable by design")
        assert sniff_delimiter(text) == whole_text_sniff(text)

    @pytest.mark.parametrize("brk", ["\n", "\r", "\r\n", "\x0b", "\u2028"])
    def test_exotic_line_breaks(self, brk):
        # 20 comma lines then semicolon lines: a sniff reading past line 20
        # (or splitting lines differently) picks ";" instead of ","
        lines = ["a,b,c"] * 20 + ["x;y;z;w;v;u"] * 200
        text = brk.join(lines)
        assert sniff_delimiter(text) == whole_text_sniff(text) == ","
        # long lines push the 20th line break past several prefix sizes
        wide = brk.join(["q" * 3000 + ";1"] * 20 + ["a,b,c,d,e"] * 50)
        assert sniff_delimiter(wide) == whole_text_sniff(wide) == ";"

    @given(
        text=st.text(
            alphabet=st.sampled_from(list("ab,;|\t \n\r\x0b\x1c\x85\u2028")),
            max_size=300,
        ),
        n=st.integers(min_value=0, max_value=25),
        prefix=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=300, deadline=None)
    def test_leading_lines_equals_split_prefix(self, text, n, prefix):
        # a tiny first prefix makes every split boundary (mid "\r\n" too)
        # a real case
        with patch.object(csv_io, "_SNIFF_PREFIX_CHARS", prefix):
            assert _leading_lines(text, n) == text.splitlines()[:n]
            assert sniff_delimiter(text) == whole_text_sniff(text)
