"""CLI for ``repro.lint``: ``python -m repro.lint [paths] [options]``.

Exit status is the contract CI relies on: 0 when every finding is either
absent or absorbed by the baseline *and* the baseline has no stale
entries; 1 otherwise.  Findings print one per line as
``file:line:checker:message`` (sorted, so output is diffable);
``--fix-hints`` adds an indented hint line under each.

``--write-baseline`` bootstraps/refreshes the baseline from the current
findings -- the only sanctioned way to edit it besides deleting lines.

``--format github`` renders findings as GitHub workflow annotations
(``::error file=...``) so CI failures land on the diff; ``--format
jsonl`` emits one JSON object per finding for tooling.  ``--target``
names a preset: ``src`` is the full seven-checker run over ``src/repro``,
``tools`` runs the style-portable checkers (determinism,
error-discipline) over ``scripts/`` and ``tests/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from . import CHECKERS, run_lint
from .baseline import apply_baseline, format_baseline, load_baseline

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
    if fmt == "jsonl":
        return json.dumps(
            {
                "path": finding.path,
                "line": finding.line,
                "checker": finding.checker,
                "message": finding.message,
                "hint": finding.hint,
            },
            sort_keys=True,
        )
    return finding.render()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-based invariant checker (determinism, cache-key "
        "purity, registry hygiene, error discipline)",
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
        "--format", dest="fmt", choices=("text", "github", "jsonl"),
        default="text",
        help="finding output format (default: text)",
    )
    parser.add_argument(
        "--baseline", metavar="FILE",
        help="shrink-only baseline file of grandfathered findings",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="write the current findings to --baseline and exit 0",
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

    if args.write_baseline:
        if not args.baseline:
            parser.error("--write-baseline requires --baseline FILE")
        Path(args.baseline).write_text(
            format_baseline(findings), encoding="utf-8"
        )
        print(
            f"wrote {len(findings)} grandfathered finding(s) to "
            f"{args.baseline}"
        )
        return 0

    baseline = Counter()
    if args.baseline and Path(args.baseline).is_file():
        baseline = load_baseline(Path(args.baseline))
    new, grandfathered, stale = apply_baseline(findings, baseline)

    for finding in new:
        print(_render(finding, args.fmt))
        if args.fmt == "text" and args.fix_hints and finding.hint:
            print(f"    hint: {finding.hint}")
    for key in stale:
        message = (
            f"stale baseline entry (violation fixed -- delete the line): "
            f"{key}"
        )
        if args.fmt == "github":
            print(f"::error title=repro.lint[baseline]::{message}")
        elif args.fmt == "jsonl":
            print(json.dumps(
                {"checker": "baseline", "message": message}, sort_keys=True
            ))
        else:
            print(message)

    summary = (
        f"repro.lint: {len(new)} finding(s), "
        f"{len(grandfathered)} baselined, {len(stale)} stale baseline "
        f"entr{'y' if len(stale) == 1 else 'ies'}"
    )
    print(summary, file=sys.stderr)
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
