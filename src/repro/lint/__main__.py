"""CLI for ``repro.lint``: ``python -m repro.lint [paths] [options]``.

Exit status is the contract CI relies on: 0 when there are no findings,
1 otherwise.  Findings print one per line as
``file:line:checker:message`` (sorted, so output is diffable);
``--fix-hints`` adds an indented hint line under each.

``--format github`` renders findings as GitHub workflow annotations
(``::error file=...``) so CI failures land on the diff.  ``--target``
names a preset: ``src`` is the full four-checker run over ``src/repro``,
``tools`` runs the style-portable checkers (determinism,
error-discipline) over ``scripts/`` and ``tests/``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import CHECKERS, run_lint

#: --target presets: name -> (paths, checkers or None for all, excludes)
#: excludes are path prefixes dropped when expanding the preset -- the
#: lint fixture snippets are deliberate violations linted as data
TARGETS = {
    "src": (["src/repro"], None, ()),
    "tools": (
        ["scripts", "tests"],
        ["determinism", "error-discipline"],
        ("tests/test_lint/fixtures",),
    ),
}


def _expand_target(paths, excludes):
    files = []
    for p in paths:
        path = Path(p)
        if not path.exists():
            continue
        if path.is_dir():
            files.extend(
                f for f in sorted(path.rglob("*.py"))
                if not any(f.as_posix().startswith(e) for e in excludes)
            )
        else:
            files.append(path)
    return files


def _render(finding, fmt: str) -> str:
    if fmt == "github":
        return (
            f"::error file={finding.path},line={finding.line},"
            f"title=repro.lint[{finding.checker}]::{finding.message}"
        )
    return finding.render()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-based invariant checker (determinism, cache-key "
        "purity, error discipline, fork/signal safety)",
    )
    parser.add_argument(
        "paths", nargs="*", default=[],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--target", choices=sorted(TARGETS),
        help="preset scope: 'src' = all checkers over src/repro, "
        "'tools' = determinism+error-discipline over scripts/ and tests/",
    )
    parser.add_argument(
        "--format", dest="fmt", choices=("text", "github"),
        default="text",
        help="finding output format (default: text)",
    )
    parser.add_argument(
        "--fix-hints", action="store_true",
        help="print a suggested fix under each finding",
    )
    parser.add_argument(
        "--checker", action="append", metavar="NAME",
        help="run only the named checker(s) (any registered spelling)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list registered checkers"
    )
    args = parser.parse_args(argv)

    if args.list:
        for name in CHECKERS.names():
            checker = CHECKERS.get(name)
            synonyms = CHECKERS.synonyms(name)
            alias = f" (synonyms: {', '.join(synonyms)})" if synonyms else ""
            print(f"{name}{alias}\n    {checker.description}")
        return 0

    paths = args.paths
    only = args.checker
    if args.target:
        preset_paths, preset_checkers, excludes = TARGETS[args.target]
        if args.paths:
            parser.error("--target and explicit paths are mutually exclusive")
        paths = _expand_target(preset_paths, excludes)
        if only is None:
            only = preset_checkers
    elif not paths:
        paths = ["src/repro"]

    findings = run_lint(paths, only=only)
    for finding in findings:
        print(_render(finding, args.fmt))
        if args.fmt == "text" and args.fix_hints and finding.hint:
            print(f"    hint: {finding.hint}")
    print(f"repro.lint: {len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
