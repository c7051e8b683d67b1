"""Docs and CI name only scripts, evidence files and tests that exist.

A deleted ``scripts/*.py`` or ``BENCH_*.json`` leaves dangling commands in
the docs and CI steps that fail only when someone runs them, a cited
``*_output.txt`` run record that is not in the repo is evidence nobody can
check, and a deleted test class leaves a ``tests/<file>.py::Class``
pointer to evidence that is gone.  CHANGES.md is history, so it is not
checked.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: ``scripts/<name>.py``, ``benchmarks/bench_<name>.py``,
#: ``BENCH_<name>.json`` and recorded run output ``<name>_output.txt``;
#: ``*`` matches as a glob.
_REFERENCE = re.compile(
    r"scripts/[\w*-]+\.py|benchmarks/bench_[\w*]+\.py|BENCH_[\w*]+\.json"
    r"|[\w*/-]*_output\.txt"
)

#: ``tests/<file>.py::Name`` or ``tests/<file>.py::Class::test`` node ids.
_NODE_ID = re.compile(r"(tests/[\w/]+\.py)::(\w+)(?:::(\w+))?")

_CHECKED = [
    REPO_ROOT / ".github" / "workflows" / "ci.yml",
    REPO_ROOT / "README.md",
    REPO_ROOT / "DESIGN.md",
    REPO_ROOT / "EXPERIMENTS.md",
    *sorted((REPO_ROOT / "docs").glob("*.md")),
    *sorted((REPO_ROOT / ".claude" / "skills").glob("*/SKILL.md")),
]


@pytest.mark.parametrize(
    "path", _CHECKED, ids=lambda p: str(p.relative_to(REPO_ROOT))
)
def test_referenced_files_exist(path):
    text = path.read_text(encoding="utf-8")
    missing = sorted({
        ref for ref in _REFERENCE.findall(text)
        if not any(REPO_ROOT.glob(ref))
    })
    assert not missing, f"{path.name} names files that do not exist: {missing}"


def test_reference_check_catches_missing_run_records():
    text = (
        "Recorded runs: `test_output.txt` (540 tests passed) and "
        "`benchmarks/bench_output.txt`; `pytest benchmarks/bench_table1.py` "
        "and `benchmarks/bench_*.py`; `scripts/chaos_smoke.py`."
    )
    refs = _REFERENCE.findall(text)
    assert refs == [
        "test_output.txt", "benchmarks/bench_output.txt",
        "benchmarks/bench_table1.py", "benchmarks/bench_*.py",
        "scripts/chaos_smoke.py",
    ]
    assert [ref for ref in refs if not any(REPO_ROOT.glob(ref))] == refs[:4]


def _module_names(path: Path) -> dict[str, set[str] | None]:
    """Top-level names of a test module, parsed (not imported): a class
    maps to the names defined in its body, a function to ``None``."""
    names: dict[str, set[str] | None] = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ClassDef):
            names[node.name] = {
                item.name for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names[node.name] = None
    return names


def _missing_nodes(text: str) -> list[str]:
    missing = set()
    for match in _NODE_ID.finditer(text):
        module, name, member = match.groups()
        path = REPO_ROOT / module
        names = _module_names(path) if path.is_file() else {}
        if name not in names or (
            member is not None and member not in (names[name] or ())
        ):
            missing.add(match.group(0))
    return sorted(missing)


@pytest.mark.parametrize(
    "path", _CHECKED, ids=lambda p: str(p.relative_to(REPO_ROOT))
)
def test_referenced_test_nodes_exist(path):
    missing = _missing_nodes(path.read_text(encoding="utf-8"))
    assert not missing, f"{path.name} names tests that do not exist: {missing}"


def test_node_id_check_catches_stale_names():
    text = (
        "`tests/test_doc_references.py::test_referenced_test_nodes_exist` "
        "`tests/test_nn_layers.py::TestConvIm2col::test_no_such_case` "
        "`tests/test_nn_layers.py::TestNoSuchClass` "
        "`tests/test_no_such_file.py::TestAnything`"
    )
    assert _missing_nodes(text) == [
        "tests/test_nn_layers.py::TestConvIm2col::test_no_such_case",
        "tests/test_nn_layers.py::TestNoSuchClass",
        "tests/test_no_such_file.py::TestAnything",
    ]
