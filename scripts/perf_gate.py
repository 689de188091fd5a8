#!/usr/bin/env python
"""Perf-regression gate: fail CI when a pinned bench cell got >1.5x slower.

Compares a fresh ``scripts/bench.py --smoke`` output against the committed
baseline (``BENCH_baseline_smoke.json``) cell by cell.  Every ``status ==
"ok"`` cell of the baseline is *pinned*: it must still exist in the current
run, still be ok, and its wall-clock must stay within ``factor x baseline``
(plus a small absolute slack so micro-cells whose walls are interpreter
jitter cannot flap the gate).  Offending cells are reported individually --
the point of the gate is to name the regression, not just to go red.

The committed baseline is recorded with ``REPRO_SABRE_KERNEL=python``, so
its SABRE cells time the textbook reference loop, the slowest engine and
the only Python one.  Both CI legs -- compiled kernel and forced Python
fallback -- are gated against the same numbers: the compiled leg clears
them comfortably, and the fallback leg cannot silently rot.

Exit status: 0 = within budget, 1 = regression (offenders listed),
2 = usage/IO error.

Usage::

    python scripts/perf_gate.py CURRENT.json [--baseline BENCH_baseline_smoke.json]
                                [--factor 1.5] [--slack-s 0.05]

A ``perf gate: baseline source: committed JSON <file>`` line names the
baseline before any verdict, pass or fail, because the compile and serve
gates read different files.

The gate also pins the serve layer: ``scripts/serve_bench.py`` emits the
same ``groups``/``cells`` shape (one cell per load shape, ``compile_time_s``
= the shape's p50 latency), gated against the committed
``BENCH_baseline_serve_smoke.json`` by ``scripts/ci.sh --serve-only``.

Environment overrides (for slow/shared runners): ``REPRO_PERF_GATE_FACTOR``
and ``REPRO_PERF_GATE_SLACK_S``; ``REPRO_PERF_GATE=off`` skips the gate
entirely (prints a notice, exits 0).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: default committed baseline (see module docstring for how it is recorded)
DEFAULT_BASELINE = os.path.join(REPO_ROOT, "BENCH_baseline_smoke.json")


def _cells(payload: dict) -> dict:
    """Index a bench JSON: (group, workload, approach, kind, size, k) -> cell.

    ``k`` is the occurrence counter within the group for cells sharing the
    other five components (bench records carry no kwargs, so e.g. a future
    seed sweep would otherwise collapse to its last cell and silently unpin
    the rest).  Suites are fixed per mode, so occurrence order is stable
    between baseline and current runs.
    """

    out = {}
    for group in payload.get("groups", []):
        seen: dict = {}
        for cell in group.get("cells", []):
            base = (
                group.get("name"),
                cell.get("workload"),
                cell.get("approach"),
                cell.get("kind"),
                cell.get("size"),
            )
            k = seen.get(base, 0)
            seen[base] = k + 1
            out[base + (k,)] = cell
    return out


def _fmt(key: tuple) -> str:
    group, workload, approach, kind, size, k = key
    tail = f" [#{k + 1}]" if k else ""
    return f"{group}: {workload}/{approach} on {kind}-{size}{tail}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="bench JSON produced by this run")
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help="committed baseline JSON (default: BENCH_baseline_smoke.json)",
    )
    parser.add_argument(
        "--factor",
        type=float,
        default=float(os.environ.get("REPRO_PERF_GATE_FACTOR", "1.5")),
        help="max allowed wall-clock ratio per pinned cell (default 1.5)",
    )
    parser.add_argument(
        "--slack-s",
        type=float,
        default=float(os.environ.get("REPRO_PERF_GATE_SLACK_S", "0.05")),
        help="absolute slack added to each budget, seconds (default 0.05)",
    )
    args = parser.parse_args(argv)

    if os.environ.get("REPRO_PERF_GATE", "").lower() in ("off", "0", "skip"):
        print("perf gate: skipped (REPRO_PERF_GATE=off)")
        return 0

    try:
        with open(args.current, encoding="utf-8") as fh:
            current = json.load(fh)
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"perf gate: cannot load inputs: {exc}", file=sys.stderr)
        return 2
    baseline_name = f"committed JSON {os.path.basename(args.baseline)}"
    print(f"perf gate: baseline source: {baseline_name}")

    if baseline.get("suite") != current.get("suite"):
        print(
            f"perf gate: suite mismatch (baseline {baseline.get('suite')!r} "
            f"vs current {current.get('suite')!r}); compare like with like",
            file=sys.stderr,
        )
        return 2

    base_cells = _cells(baseline)
    cur_cells = _cells(current)
    pinned = {
        k: c
        for k, c in base_cells.items()
        if c.get("status") == "ok" and c.get("compile_time_s") is not None
    }
    if not pinned:
        print("perf gate: baseline pins no ok cells", file=sys.stderr)
        return 2

    offenders = []
    checked = 0
    for key, base in sorted(pinned.items()):
        cur = cur_cells.get(key)
        if cur is None:
            offenders.append((key, "pinned cell missing from current run", None))
            continue
        if cur.get("status") != "ok":
            offenders.append(
                (key, f"pinned cell now status={cur.get('status')!r}", None)
            )
            continue
        checked += 1
        base_s = float(base["compile_time_s"])
        cur_s = float(cur["compile_time_s"])
        budget = args.factor * base_s + args.slack_s
        if cur_s > budget:
            offenders.append(
                (
                    key,
                    f"{cur_s:.3f}s vs baseline {base_s:.3f}s "
                    f"({cur_s / base_s if base_s else float('inf'):.2f}x, "
                    f"budget {budget:.3f}s)",
                    cur_s / base_s if base_s else None,
                )
            )

    if offenders:
        print(
            f"perf gate: FAIL — {len(offenders)} of {len(pinned)} pinned cells "
            f"regressed beyond {args.factor}x (+{args.slack_s}s slack) "
            f"of {baseline_name}:",
            file=sys.stderr,
        )
        for key, why, _ratio in offenders:
            print(f"  - {_fmt(key)}: {why}", file=sys.stderr)
        if str(current.get("suite", "")).startswith("serve"):
            refresh = (
                "python scripts/serve_bench.py --smoke "
                "--out BENCH_baseline_serve_smoke.json"
            )
        else:
            refresh = (
                "REPRO_SABRE_KERNEL=python python scripts/bench.py "
                "--smoke --out BENCH_baseline_smoke.json"
            )
        print(
            "perf gate: if this is an intentional trade-off, refresh the "
            f"baseline: {refresh}",
            file=sys.stderr,
        )
        return 1

    print(
        f"perf gate: ok — {checked} pinned cells within {args.factor}x "
        f"(+{args.slack_s}s slack) of {baseline_name}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
