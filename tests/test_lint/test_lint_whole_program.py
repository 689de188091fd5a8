"""Whole-program guarantees: the tree self-lints clean under all four
checkers, and seeded mutations of the *real* source are caught by the
matching checker (the lint-layer analogue of the chaos suite's crash
drills -- proves the checkers defend the invariants they claim to).
"""

import shutil

import pytest

from repro.lint import run_lint


def test_self_lint_clean_with_all_four_checkers(real_tree):
    """src/repro is clean under every registered checker -- nothing
    grandfathered, nothing skipped."""

    _, findings = real_tree
    assert [f.render() for f in findings] == []


# ---------------------------------------------------------------- drills
@pytest.fixture()
def mirror(repo_root, tmp_path):
    """Copy real modules into a temporary project tree."""

    def _mirror(*rels):
        for rel in rels:
            dst = tmp_path / rel
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(repo_root / rel, dst)
        return tmp_path

    return _mirror


def _lint(root, rel, checker):
    return run_lint([root / rel], root=root, only=[checker])


def test_drill_hoisted_connection_is_caught(mirror):
    root = mirror("src/repro/eval/executors.py")
    rel = "src/repro/eval/executors.py"
    assert _lint(root, rel, "concurrency") == []  # control
    path = root / rel
    path.write_text(
        path.read_text()
        + "\n\nimport sqlite3\n"
        + '_HOISTED_CONN = sqlite3.connect("cells.db")\n\n\n'
        + "def _hoisted_worker(spec):\n"
        + '    return _HOISTED_CONN.execute("SELECT 1")\n\n\n'
        + "def _hoisted_submit(pool, specs):\n"
        + "    return [pool.submit(_hoisted_worker, s) for s in specs]\n"
    )
    findings = _lint(root, rel, "concurrency")
    assert any(
        "module-scope sqlite connection '_HOISTED_CONN'" in f.message
        for f in findings
    )


def test_seeded_regression_is_caught_with_file_line_checker(
    tmp_path, repo_root
):
    """Re-introduce the bug class the determinism checker exists for --
    the code-version hash walking the package sources in filesystem order --
    into a copy of the REAL cache module, and assert the lint run fails
    pointing at exactly that file/line/checker."""

    project = tmp_path / "proj"
    for rel in ("src/repro/approaches.py", "src/repro/eval/cache.py"):
        dst = project / rel
        dst.parent.mkdir(parents=True, exist_ok=True)
        dst.write_text((repo_root / rel).read_text())
    (project / "pyproject.toml").write_text("[project]\nname = 'x'\n")

    # the pristine copy lints clean: whatever the drill flags below is
    # introduced by the seeded edit, not ambient noise in the module
    assert run_lint([project / "src"], root=project) == []

    cache = project / "src" / "repro" / "eval" / "cache.py"
    seeded = cache.read_text().replace(
        "sorted(pkg_root.rglob(", "list(pkg_root.rglob(", 1
    )
    assert seeded != cache.read_text(), "seed site vanished from cache.py"
    cache.write_text(seeded)
    expected_line = next(
        i
        for i, line in enumerate(seeded.splitlines(), start=1)
        if "list(pkg_root.rglob(" in line
    )

    findings = run_lint([project / "src"], root=project)
    assert [(f.path, f.line, f.checker) for f in findings] == [
        ("src/repro/eval/cache.py", expected_line, "determinism")
    ]
