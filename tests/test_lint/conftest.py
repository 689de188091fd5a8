"""Shared fixtures for the repro.lint test suite.

Fixture snippets live under ``fixtures/`` as real ``*.py`` files (never
imported -- linted as data): each checker has a ``bad_snippets.py`` whose
``# FINDING`` lines must each be flagged, and a ``good_snippets.py`` that
must come back clean.  The purity fixtures are a mini-project (that
checker reads ``src/repro/approaches.py`` relative to the project root).

Helpers are exposed as fixtures (not module-level imports) because the
top-level ``tests/conftest.py`` shadows the bare ``conftest`` module name.
"""

from pathlib import Path
from typing import List

import pytest

from repro.lint import run_lint
from repro.lint.framework import Project, run_checkers

FIXTURES = Path(__file__).resolve().parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def repo_root() -> Path:
    return REPO_ROOT


@pytest.fixture(scope="session")
def lint_fixture():
    """Lint one fixture file, rooted at its own directory."""

    def _lint(relpath: str, *, only=None):
        path = FIXTURES / relpath
        return run_lint([path], root=path.parent, only=only)

    return _lint


@pytest.fixture(scope="session")
def lint_purity_fixture():
    """Lint one file of the purity mini-project (root = the mini-project)."""

    def _lint(filename: str):
        root = FIXTURES / "purity"
        return run_lint([root / "src" / "repro" / filename], root=root)

    return _lint


@pytest.fixture(scope="session")
def real_tree():
    """``(project, findings)`` for ``src/repro`` under every checker.

    The one whole-tree lint run of the suite: the clean-tree assertion
    and the worker-side reachability test share it (and its call graph).
    """

    project = Project.load([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
    return project, run_checkers(project)


@pytest.fixture(scope="session")
def marked_lines():
    """1-based line numbers carrying a ``# FINDING`` marker."""

    def _lines(relpath: str) -> List[int]:
        path = FIXTURES / relpath
        return [
            i
            for i, line in enumerate(path.read_text().splitlines(), start=1)
            if "# FINDING" in line
        ]

    return _lines
