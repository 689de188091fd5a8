"""Framework behavior: suppression, parse errors, the checker registry,
and the ``python -m repro.lint`` CLI contract (exit codes, ``--fix-hints``,
``--checker``, ``--list``)."""

import pytest

from repro.lint import CHECKERS, Finding, run_lint
from repro.lint.__main__ import main
from repro.registry import UnknownNameError

ALL_CHECKERS = ("determinism", "cache-purity", "error-discipline", "concurrency")


# ---------------------------------------------------------------- registry
def test_all_four_checkers_registered():
    assert CHECKERS.names() == ALL_CHECKERS


def test_synonyms_resolve():
    assert CHECKERS.canonical("det") == "determinism"
    assert CHECKERS.canonical("no-fork") == "cache-purity"
    assert CHECKERS.canonical("errors") == "error-discipline"
    assert CHECKERS.canonical("fork-safety") == "concurrency"


def test_unknown_checker_raises_with_suggestion(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("x = 1\n")
    with pytest.raises(UnknownNameError):
        run_lint([src], root=tmp_path, only=["determinsim"])


# ------------------------------------------------------------- suppression
def _listdir_module(tmp_path, body):
    src = tmp_path / "mod.py"
    src.write_text("import os\n\n\n" + body)
    return src


def test_suppression_silences_the_named_checker(tmp_path):
    src = _listdir_module(
        tmp_path,
        "def f(d):\n"
        "    return os.listdir(d)  # repro-lint: ignore[determinism]\n",
    )
    assert run_lint([src], root=tmp_path, only=["determinism"]) == []


def test_bare_ignore_silences_every_checker(tmp_path):
    src = _listdir_module(
        tmp_path,
        "def f(d):\n"
        "    return os.listdir(d)  # repro-lint: ignore\n",
    )
    assert run_lint([src], root=tmp_path) == []


def test_suppression_is_checker_specific(tmp_path):
    src = _listdir_module(
        tmp_path,
        "def f(d):\n"
        "    return os.listdir(d)  # repro-lint: ignore[error-discipline]\n",
    )
    findings = run_lint([src], root=tmp_path, only=["determinism"])
    assert [f.checker for f in findings] == ["determinism"]


def test_marker_inside_a_string_does_not_suppress(tmp_path):
    """Suppressions are parsed from COMMENT tokens; the marker appearing
    in a string literal on the flagged line must not silence anything."""

    src = _listdir_module(
        tmp_path,
        "def f(d):\n"
        '    return os.listdir(d) or "# repro-lint: ignore"\n',
    )
    findings = run_lint([src], root=tmp_path, only=["determinism"])
    assert len(findings) == 1


# ------------------------------------------------------------ parse errors
def test_unparseable_file_is_a_parse_finding(tmp_path):
    src = tmp_path / "broken.py"
    src.write_text("def f(:\n")
    findings = run_lint([src], root=tmp_path)
    assert [f.checker for f in findings] == ["parse"]
    assert findings[0].path == "broken.py"


# ---------------------------------------------------------------- findings
def test_finding_render():
    f = Finding(path="src/x.py", line=7, checker="determinism", message="m")
    assert f.render() == "src/x.py:7:determinism:m"


# --------------------------------------------------------------------- CLI
@pytest.fixture
def violation_project(tmp_path):
    """A rooted mini-project with exactly one determinism violation."""

    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'x'\n")
    src = tmp_path / "src" / "mod.py"
    src.parent.mkdir(parents=True)
    src.write_text("import os\n\n\ndef f(d):\n    return os.listdir(d)\n")
    return tmp_path


def test_cli_exits_1_and_renders_findings(violation_project, capsys):
    rc = main([str(violation_project / "src")])
    out = capsys.readouterr()
    assert rc == 1
    assert "src/mod.py:5:determinism:" in out.out
    assert "1 finding(s)" in out.err


def test_cli_fix_hints(violation_project, capsys):
    rc = main([str(violation_project / "src"), "--fix-hints"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "hint: wrap the call in sorted(...)" in out


def test_cli_checker_filter(violation_project, capsys):
    rc = main([str(violation_project / "src"), "--checker", "errors"])
    capsys.readouterr()
    assert rc == 0  # the only violation is a determinism one


def test_cli_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    listed = [line.split()[0] for line in out.splitlines() if line[:1].strip()]
    assert tuple(listed) == ALL_CHECKERS
