"""Docs and CI name only scripts, evidence files and tests that exist.

A deleted ``scripts/*.py`` or ``BENCH_*.json`` leaves dangling commands in
the docs and CI steps that fail only when someone runs them, a cited
``*_output.txt`` run record that is not in the repo is evidence nobody can
check, a deleted test class leaves a ``tests/<file>.py::Class``
pointer to evidence that is gone, and a deleted option leaves a
``repro-serve --flag`` that the command rejects.  CHANGES.md is history,
so it is not checked.
"""

from __future__ import annotations

import argparse
import ast
import re
from pathlib import Path
from unittest.mock import patch

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


#: A command as the docs show it: its entry point or its ``python -m``
#: module.
_COMMAND = re.compile(
    r"(repro-serve|repro-infer|repro-bench"
    r"|-m repro\.serve\b(?!\.)|-m repro\.cli\b|-m repro\.benchmark\.runner\b)"
)
_ALIASES = {
    "-m repro.serve": "repro-serve",
    "-m repro.cli": "repro-infer",
    "-m repro.benchmark.runner": "repro-bench",
}
#: A shown command's arguments end at the end of its code span, pipe,
#: ``&&``, ``;``, line (a trailing backslash continues the line) or the
#: next command.
_ARGS_END = re.compile(r"`|\||&&|;|\n")
_FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")


class _Parsed(Exception):
    def __init__(self, parser: argparse.ArgumentParser):
        super().__init__()
        self.parser = parser


def _parser_flags(main, argv: list[str]) -> set[str]:
    """The ``--flags`` of the parser ``main(argv)`` builds, captured at its
    ``parse_args`` call before anything runs."""

    def capture(parser, *args, **kwargs):
        raise _Parsed(parser)

    with patch.object(argparse.ArgumentParser, "parse_args", capture):
        try:
            main(argv)
        except _Parsed as parsed:
            return {
                option for action in parsed.parser._actions
                for option in action.option_strings if option.startswith("--")
            }
    raise AssertionError(f"{main.__module__}.main({argv}) built no parser")


@pytest.fixture(scope="module")
def command_flags() -> dict[str, set[str]]:
    from repro.benchmark.runner import main as bench_main
    from repro.cli import main as infer_main
    from repro.serve.cli import main as serve_main

    bench = set()
    for sub in ([], ["cache"], ["goldens"], ["work"], ["merge"]):
        bench |= _parser_flags(bench_main, sub)
    return {
        "repro-serve": _parser_flags(serve_main, []),
        "repro-infer": _parser_flags(infer_main, []),
        "repro-bench": bench,
    }


def _undefined_flags(text: str, flags: dict[str, set[str]]) -> list[str]:
    """``command --flag`` pairs shown in ``text`` whose parser (any of the
    command's subcommand parsers, for ``repro-bench``) lacks the flag."""
    text = text.replace("\\\n", " ")
    bad = set()
    for match in _COMMAND.finditer(text):
        command = _ALIASES.get(match.group(1), match.group(1))
        rest = text[match.end():]
        end = _ARGS_END.search(rest)
        shown = rest[:end.start() if end else len(rest)]
        following = _COMMAND.search(shown)
        if following:
            shown = shown[:following.start()]
        bad.update(
            f"{command} {flag}" for flag in _FLAG.findall(shown)
            if flag not in flags[command]
        )
    return sorted(bad)


@pytest.mark.parametrize(
    "path", _CHECKED, ids=lambda p: str(p.relative_to(REPO_ROOT))
)
def test_shown_cli_flags_exist(path, command_flags):
    bad = _undefined_flags(path.read_text(encoding="utf-8"), command_flags)
    assert not bad, f"{path.name} shows flags no parser defines: {bad}"


def test_flag_check_catches_stale_flags(command_flags):
    text = (
        "Run `repro-serve --model m --scan-cache-max-values 100` or\n"
        "python -m repro.benchmark.runner table18 \\\n"
        "  --scale 300 --no-such-flag\n"
        "`repro-infer data.csv --stream` then `--not-a-command-flag`;\n"
        "client (repro-serve / repro-infer --server)\n"
        "repro-bench goldens check --strict | grep --count OK\n"
    )
    assert _undefined_flags(text, command_flags) == [
        "repro-bench --no-such-flag",
        "repro-serve --scan-cache-max-values",
    ]
