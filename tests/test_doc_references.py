"""Docs and CI name only scripts and evidence files that exist.

A deleted ``scripts/*.py`` or ``BENCH_*.json`` leaves dangling commands in
the docs and CI steps that fail only when someone runs them.  CHANGES.md is
history, so it is not checked.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: ``scripts/<name>.py`` and ``BENCH_<name>.json``; ``*`` matches as a glob.
_REFERENCE = re.compile(r"scripts/[\w*-]+\.py|BENCH_[\w*]+\.json")

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

