"""A named column of raw string cells.

The benchmark operates on raw CSV data, so a :class:`Column` stores *strings*
exactly as read from the file.  Typed views (floats, parse checks) are
provided as methods; missing cells are represented by ``None``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import islice

from repro.tabular.dtypes import MISSING_TOKENS, is_missing, try_parse_float

__all__ = ["Column", "MISSING_TOKENS"]


class Column:
    """A single raw column: a name plus an ordered list of string cells."""

    __slots__ = ("name", "_cells")

    def __init__(self, name: str, cells: Iterable[str | None]):
        self.name = name
        normalized: list[str | None] = []
        for cell in cells:
            if cell is None:
                normalized.append(None)
                continue
            text = str(cell)
            normalized.append(None if is_missing(text) else text)
        self._cells = normalized

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._cells)

    def __iter__(self) -> Iterator[str | None]:
        return iter(self._cells)

    def __getitem__(self, index: int) -> str | None:
        return self._cells[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Column(name={self.name!r}, n={len(self)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        return self.name == other.name and self._cells == other._cells

    # -- views ---------------------------------------------------------------
    @property
    def cells(self) -> Sequence[str | None]:
        """The raw cells (``None`` where the value is missing)."""
        return self._cells

    def non_missing(self) -> list[str]:
        """All present (non-missing) cell values, in order."""
        return [cell for cell in self._cells if cell is not None]

    def n_missing(self) -> int:
        """Number of missing cells."""
        return sum(1 for cell in self._cells if cell is None)

    def distinct(self) -> list[str]:
        """Distinct non-missing values in first-seen order."""
        return list(self._iter_distinct())

    def _iter_distinct(self) -> Iterator[str]:
        seen: set[str] = set()
        for cell in self._cells:
            if cell is not None and cell not in seen:
                seen.add(cell)
                yield cell

    def numeric_values(self) -> list[float]:
        """Cells that parse as plain floats (``int``/``float`` literals)."""
        values = []
        for cell in self.non_missing():
            parsed = try_parse_float(cell)
            if parsed is not None:
                values.append(parsed)
        return values

    def numeric_fraction(self) -> float:
        """Fraction of present cells that parse as plain numbers."""
        present = self.non_missing()
        if not present:
            return 0.0
        return len(self.numeric_values()) / len(present)

    def sample_distinct(self, k: int, rng) -> list[str]:
        """``k`` randomly sampled *distinct* non-missing values.

        Mirrors the paper's base featurization (Section 2.3), which samples
        five distinct values per column.  Fewer than ``k`` values are returned
        when the column has a smaller domain.
        """
        pool = self.distinct()
        if len(pool) <= k:
            return list(pool)
        index = rng.choice(len(pool), size=k, replace=False)
        return [pool[i] for i in sorted(index)]

    def head_distinct(self, k: int) -> list[str]:
        """First ``k`` distinct non-missing values (deterministic sampling).

        Equals ``distinct()[:k]`` but stops at the ``k``-th distinct value.
        """
        if k < 0:
            return self.distinct()[:k]  # slice semantics
        return list(islice(self._iter_distinct(), k))
