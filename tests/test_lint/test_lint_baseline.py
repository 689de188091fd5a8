"""Baseline semantics, the committed-baseline meta-test, and the seeded
regression drill from the acceptance criteria.

The meta-test is the real gate: it re-lints ``src/repro`` exactly as
``scripts/ci.sh`` does and asserts the committed ``LINT_BASELINE.txt``
matches a fresh run -- no new findings, no stale entries.  The regression
drill proves the gate has teeth: it re-introduces a historical bug shape
(an unsorted directory listing in the cache-merge path) into a copy of
the real module and asserts the run fails naming file, line and checker.
"""

from collections import Counter

from repro.lint import Finding, run_lint
from repro.lint.baseline import apply_baseline, format_baseline, load_baseline


def _finding(msg="m", path="src/x.py", line=1):
    return Finding(path=path, line=line, checker="determinism", message=msg)


# ----------------------------------------------------------- baseline unit
def test_baseline_splits_new_grandfathered_stale():
    findings = [_finding("kept"), _finding("fresh")]
    baseline = Counter({
        "src/x.py:determinism:kept": 1,
        "src/x.py:determinism:gone": 1,
    })
    new, grandfathered, stale = apply_baseline(findings, baseline)
    assert [f.message for f in new] == ["fresh"]
    assert [f.message for f in grandfathered] == ["kept"]
    assert stale == ["src/x.py:determinism:gone"]


def test_baseline_is_a_multiset():
    """Two identical findings need two baseline lines; fixing one of them
    still ratchets (the second occurrence becomes new/stale)."""

    two = [_finding(line=1), _finding(line=9)]
    one_entry = Counter({"src/x.py:determinism:m": 1})
    new, grandfathered, stale = apply_baseline(two, one_entry)
    assert len(new) == 1 and len(grandfathered) == 1 and stale == []

    # ...and an over-counted baseline reports the surplus as stale
    new, grandfathered, stale = apply_baseline(
        [two[0]], Counter({"src/x.py:determinism:m": 2})
    )
    assert new == [] and len(grandfathered) == 1
    assert stale == ["src/x.py:determinism:m"]


def test_baseline_file_roundtrip(tmp_path):
    path = tmp_path / "baseline.txt"
    path.write_text(format_baseline([_finding("a"), _finding("b")]))
    entries = load_baseline(path)
    assert entries == Counter({
        "src/x.py:determinism:a": 1,
        "src/x.py:determinism:b": 1,
    })
    # comments and blanks are ignored
    path.write_text("# comment\n\nsrc/x.py:determinism:a\n")
    assert load_baseline(path) == Counter({"src/x.py:determinism:a": 1})


# -------------------------------------------------------------- meta-test
def test_committed_baseline_matches_fresh_run(repo_root):
    """The gate ci.sh enforces, as a test: a fresh lint of src/repro must
    be fully absorbed by LINT_BASELINE.txt with nothing stale.  Keeping
    this green keeps 'python -m repro.lint src/repro --baseline
    LINT_BASELINE.txt' exiting 0."""

    findings = run_lint([repo_root / "src" / "repro"], root=repo_root)
    baseline = load_baseline(repo_root / "LINT_BASELINE.txt")
    new, _, stale = apply_baseline(findings, baseline)
    assert [f.render() for f in new] == []
    assert stale == []


# ----------------------------------------------------- seeded regression
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
