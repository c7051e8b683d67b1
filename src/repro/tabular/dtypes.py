"""Syntactic datatype detection for raw string cells.

These helpers read *syntax*, not semantics — they answer questions like "does
this string parse as an integer?" or "does it look like a timestamp?".  The
semantic gap between these answers and ML feature types is exactly what the
paper benchmarks.
"""

from __future__ import annotations

import enum
import math
import re

# Tokens treated as missing/NaN when reading raw data (mirrors what pandas
# treats as NA plus the spreadsheet artifacts the paper calls out, e.g. #NULL!).
MISSING_TOKENS = frozenset(
    {"", "na", "n/a", "nan", "null", "none", "#null!", "#n/a", "?", "-", "missing"}
)

_INT_RE = re.compile(r"^[+-]?\d+$")
_FLOAT_RE = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?$")
_BOOL_TOKENS = frozenset({"true", "false", "yes", "no", "t", "f"})

# Date/time formats recognized syntactically.  Deliberately *not* exhaustive:
# real tools miss formats too (the paper notes low Datetime recall for rule
# based tools), and our TFDV/TransmogrifAI simulators use narrower subsets.
_DATE_PATTERNS = [
    re.compile(r"^\d{4}[-/]\d{1,2}[-/]\d{1,2}([ T]\d{1,2}:\d{2}(:\d{2})?)?$"),
    re.compile(r"^\d{1,2}[-/]\d{1,2}[-/]\d{2,4}([ T]\d{1,2}:\d{2}(:\d{2})?)?$"),
    re.compile(r"^\d{1,2}:\d{2}(:\d{2})?\s*([ap]m)?$", re.IGNORECASE),
    re.compile(
        r"^(jan|feb|mar|apr|may|jun|jul|aug|sep|oct|nov|dec)[a-z]*\.?\s+\d{1,2},?\s+\d{4}$",
        re.IGNORECASE,
    ),
    re.compile(
        r"^\d{1,2}\s+(jan|feb|mar|apr|may|jun|jul|aug|sep|oct|nov|dec)[a-z]*\.?,?\s+\d{4}$",
        re.IGNORECASE,
    ),
    re.compile(r"^\d{1,2}hrs:\d{1,2}min(:\d{1,2}sec)?$", re.IGNORECASE),
    re.compile(
        r"^(jan|feb|mar|apr|may|jun|jul|aug|sep|oct|nov|dec)[a-z]*-\d{2,4}$",
        re.IGNORECASE,
    ),
    re.compile(r"^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}(\.\d+)?(Z|[+-]\d{2}:\d{2})?$"),
]

# One alternation over all date formats: a single regex-engine call where
# `any(p.match(...) for p in _DATE_PATTERNS)` would pay up to eight.  Each
# branch keeps its own case-sensitivity via an inline (?i:...) group.
_DATE_COMBINED_RE = re.compile(
    "|".join(
        f"(?i:{pattern.pattern})"
        if pattern.flags & re.IGNORECASE
        else f"(?:{pattern.pattern})"
        for pattern in _DATE_PATTERNS
    )
)

# A bare 8-digit string like "19980112" *is* a date to a human who read the
# column name "BirthDate" but is just an integer syntactically.  This pattern
# is used only by the broad `looks_like_datetime` check (with plausibility
# bounds), not by the narrow tool simulators.
_COMPACT_DATE_RE = re.compile(r"^(19|20)\d{2}(0[1-9]|1[0-2])(0[1-9]|[12]\d|3[01])$")

_URL_RE = re.compile(
    r"^(https?|ftp)://"  # protocol
    r"([\w-]+\.)+[a-zA-Z]{2,}"  # sub-domain(s) + domain
    r"(:\d+)?(/[^\s]*)?$"  # optional port and path
)

_EMAIL_RE = re.compile(r"^[\w.+-]+@([\w-]+\.)+[a-zA-Z]{2,}$")

_LIST_RE = re.compile(r"^[^,;|]+([,;|][^,;|]+){1,}$")

_EMBEDDED_NUMBER_RE = re.compile(
    r"(^[^\d]{1,12}\d[\d.,]*$)"  # unit/symbol prefix then number: "USD 45", "$5,000"
    r"|(^\d[\d.,]*\s*[^\d\s][^\d]{0,12}$)"  # number then unit: "30 Mhz", "18.90%"
    r"|(^\d{1,3}(,\d{2,3})+(\.\d+)?$)"  # grouped digits: "5,00,000"
)


class SyntacticType(enum.Enum):
    """The attribute-type level vocabulary of databases/files."""

    INTEGER = "integer"
    FLOAT = "float"
    BOOLEAN = "boolean"
    DATE = "date"
    STRING = "string"
    MISSING = "missing"


def is_missing(cell: str) -> bool:
    """True when a raw cell should be treated as missing/NaN."""
    return cell.strip().lower() in MISSING_TOKENS


def try_parse_float(cell: str) -> float | None:
    """Parse a plain numeric literal; return ``None`` on failure.

    Rejects "messy" numbers ("USD 45", "5,00,000") — those are Embedded
    Numbers, not parseable numerics.
    """
    text = cell.strip()
    if not _FLOAT_RE.match(text):
        return None
    try:
        value = float(text)
    except ValueError:  # pragma: no cover - regex already guards this
        return None
    # digit-strings like "12345678e9012345" (hex ids) overflow to inf
    if not math.isfinite(value):
        return None
    return value


def is_integer_literal(cell: str) -> bool:
    """True for optionally signed digit strings ("005" counts)."""
    return bool(_INT_RE.match(cell.strip()))


def is_float_literal(cell: str) -> bool:
    """True for int or float literals (scientific notation allowed)."""
    return bool(_FLOAT_RE.match(cell.strip()))


def is_boolean_literal(cell: str) -> bool:
    """True for common boolean tokens (true/false/yes/no/t/f)."""
    return cell.strip().lower() in _BOOL_TOKENS


def looks_like_datetime(cell: str, allow_compact: bool = False) -> bool:
    """Syntactic date/timestamp check over a broad set of formats.

    ``allow_compact=True`` additionally accepts 8-digit YYYYMMDD strings,
    which only a semantics-aware check would dare to call dates.
    """
    text = cell.strip()
    if _DATE_COMBINED_RE.match(text):
        return True
    if allow_compact and _COMPACT_DATE_RE.match(text):
        return True
    return False


def looks_like_url(cell: str) -> bool:
    """True when the cell follows the URL standard (protocol://domain...)."""
    return bool(_URL_RE.match(cell.strip()))


def looks_like_email(cell: str) -> bool:
    """True for e-mail shaped values."""
    return bool(_EMAIL_RE.match(cell.strip()))


def looks_like_list(cell: str) -> bool:
    """True for delimiter-separated series of items (";", "|", ",")."""
    text = cell.strip()
    if is_float_literal(text) or looks_like_datetime(text):
        return False
    if _EMBEDDED_NUMBER_RE.match(text):
        return False
    return bool(_LIST_RE.match(text))


def looks_like_embedded_number(cell: str) -> bool:
    """True for numbers wrapped in units/symbols/grouping ("USD 45", "30 Mhz")."""
    text = cell.strip()
    if is_float_literal(text):
        return False
    return bool(_EMBEDDED_NUMBER_RE.match(text))


def has_digit(cell: str) -> bool:
    """True when the cell contains at least one digit character."""
    return any(ch.isdigit() for ch in cell)


def syntactic_type(cell: str | None) -> SyntacticType:
    """Classify one cell into the database-level attribute type vocabulary."""
    if cell is None or is_missing(cell):
        return SyntacticType.MISSING
    text = cell.strip()
    if is_integer_literal(text):
        return SyntacticType.INTEGER
    if is_float_literal(text):
        return SyntacticType.FLOAT
    if is_boolean_literal(text):
        return SyntacticType.BOOLEAN
    if looks_like_datetime(text):
        return SyntacticType.DATE
    return SyntacticType.STRING


def column_syntactic_type(
    cells: list[str | None], threshold: float = 0.95
) -> SyntacticType:
    """Majority syntactic type of a column.

    A column is INTEGER/FLOAT/... when at least ``threshold`` of its present
    cells have that type (integers may widen to float).  Otherwise STRING.
    Columns with no present cells are MISSING.
    """
    counts: dict[SyntacticType, int] = {}
    present = 0
    for cell in cells:
        stype = syntactic_type(cell)
        if stype is SyntacticType.MISSING:
            continue
        present += 1
        counts[stype] = counts.get(stype, 0) + 1
    if present == 0:
        return SyntacticType.MISSING
    n_int = counts.get(SyntacticType.INTEGER, 0)
    n_float = counts.get(SyntacticType.FLOAT, 0)
    if n_int >= threshold * present:
        return SyntacticType.INTEGER
    if n_int + n_float >= threshold * present:
        return SyntacticType.FLOAT
    for stype in (SyntacticType.BOOLEAN, SyntacticType.DATE):
        if counts.get(stype, 0) >= threshold * present:
            return stype
    return SyntacticType.STRING
