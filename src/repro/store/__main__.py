"""CLI for the experiment store: ``python -m repro.store <cmd> DB ...``.

Subcommands
-----------
``query``
    Indexed cell query over the cache table:
    ``python -m repro.store query results.db --approach sabre --min-qubits 576``
``runs``
    Recorded runs (``python -m repro.eval --store``), newest first.
``info``
    Row counts per table and known code versions.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from .store import ExperimentStore

__all__ = ["main"]


def _print_table(rows: List[dict], columns: Sequence[str]) -> None:
    if not rows:
        print("(no rows)")
        return
    data = [[_fmt(row.get(c)) for c in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in data))
        for i, col in enumerate(columns)
    ]
    print("  ".join(col.ljust(w) for col, w in zip(columns, widths)))
    for line in data:
        print("  ".join(val.ljust(w) for val, w in zip(line, widths)))


def _fmt(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _emit(rows: List[dict], columns: Sequence[str], as_json: bool) -> None:
    if as_json:
        json.dump(rows, sys.stdout, indent=1, sort_keys=True)
        print()
    else:
        _print_table(rows, columns)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="query a SQLite experiment store",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    q = sub.add_parser("query", help="indexed query over cached cells")
    q.add_argument("db")
    q.add_argument("--workload")
    q.add_argument("--approach")
    q.add_argument("--kind")
    q.add_argument("--size", type=int)
    q.add_argument("--min-qubits", type=int)
    q.add_argument("--status")
    q.add_argument("--code")
    q.add_argument("--limit", type=int)
    q.add_argument("--json", action="store_true", help="emit JSON rows")

    r = sub.add_parser("runs", help="recorded runs, newest first")
    r.add_argument("db")
    r.add_argument("--limit", type=int)
    r.add_argument("--json", action="store_true", help="emit JSON rows")

    i = sub.add_parser("info", help="row counts and code versions")
    i.add_argument("db")

    args = parser.parse_args(argv)

    with ExperimentStore(args.db) as store:
        if args.cmd == "query":
            rows = store.query_cells(
                workload=args.workload,
                approach=args.approach,
                kind=args.kind,
                size=args.size,
                min_qubits=args.min_qubits,
                status=args.status,
                code=args.code,
                limit=args.limit,
            )
            _emit(
                rows,
                ("workload", "approach", "kind", "size", "num_qubits",
                 "status", "depth", "swap_count", "compile_time_s", "code"),
                args.json,
            )
            print(f"{len(rows)} cell(s)", file=sys.stderr)
        elif args.cmd == "runs":
            rows = store.list_runs(limit=args.limit)
            _emit(
                rows,
                ("id", "experiment", "profile", "executor", "code",
                 "appended", "status_counts", "wall_s", "started_at",
                 "finished_at"),
                args.json,
            )
        elif args.cmd == "info":
            counts = store.counts()
            for table in sorted(counts):
                print(f"{table:>14}: {counts[table]}")
            versions = store.code_versions()
            if versions:
                print("code versions (newest first):")
                for v in versions:
                    print(
                        f"  {v['version']}  first seen {v['first_seen']}  "
                        f"{v['cells']} cell(s)"
                    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    try:
        raise SystemExit(main())
    except BrokenPipeError:
        # Piping into `head` closes stdout early; exit quietly like cat(1).
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(0)
