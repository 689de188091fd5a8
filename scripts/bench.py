#!/usr/bin/env python
"""Fixed compile-time micro-suite -> ``BENCH_compile_time.json``.

Runs a *fixed* set of compilation cells (so numbers are comparable across
commits) and records per-cell wall times plus the commit hash, giving the
repo a perf trajectory:

* ``micro-qft-grid``   -- SABRE QFT on 5x5 / 7x7 / 9x9 grids, timed per cell
  (the reference cells quoted in CHANGES.md since PR 1);
* ``fig17-smoke``      -- the quick-profile Fig. 17 sweep (ours + SABRE on
  heavy-hex), timed end-to-end through the real harness (`execute`);
* ``fig19-smoke``      -- the quick-profile Fig. 19 sweep (ours + LNN + SABRE
  on the lattice-surgery grid, up to 1024 qubits), likewise.

``--smoke`` shrinks every group to a seconds-scale subset for CI
(``scripts/ci.sh`` runs that mode); the default ("full") suite is the one
whose before/after totals EXPERIMENTS.md records.  Each group runs through
the declarative run API (``adhoc_plan``/``execute``), and its record carries
the typed ``RunReport`` (executor name, status counts, wall-clock) next to
the per-cell timings.

``--stages`` instead times the three stages of one QFT compilation --
``map_with``, ``verify`` and ``fast_metrics`` -- on 250-1024 qubit cells
(:data:`STAGE_CELLS`), as microseconds per mapped op (median of
``STAGE_REPEATS`` runs), and appends one record (with the commit) to
``BENCH_stages.json``.

Usage::

    python scripts/bench.py [--smoke] [--jobs N] [--out BENCH_compile_time.json]
    python scripts/bench.py --stages [--out BENCH_stages.json]
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.approaches import make_mapper  # noqa: E402
from repro.arch.registry import make_architecture  # noqa: E402
from repro.eval.experiments import QUICK  # noqa: E402
from repro.eval.metrics import fast_metrics  # noqa: E402
from repro.eval.parallel import CellSpec  # noqa: E402
from repro.eval.runs import adhoc_plan, execute  # noqa: E402
from repro.workloads import get_workload  # noqa: E402

#: (approach, architecture, size, mapper options) timed by ``--stages``:
#: the paper's mappers at 250-1024 qubits, LNN on the lattice, and the
#: compiled SABRE engine at 256 qubits.
STAGE_CELLS = (
    ("ours", "heavyhex", 50, {}),
    ("ours", "heavyhex", 204, {}),
    ("ours", "sycamore", 16, {}),
    ("ours", "sycamore", 32, {}),
    ("ours", "lattice", 16, {}),
    ("ours", "lattice", 32, {}),
    ("lnn", "lattice", 16, {}),
    ("lnn", "lattice", 32, {}),
    ("sabre", "lattice", 16, {"kernel": "c"}),
)
#: runs per ``--stages`` cell; each stage reports its median
STAGE_REPEATS = 3


def _git(*args: str) -> str:
    try:
        out = subprocess.run(
            ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True, timeout=30
        )
        return out.stdout.strip() if out.returncode == 0 else ""
    except (OSError, subprocess.SubprocessError):
        return ""


def _cell_record(spec: CellSpec, result) -> dict:
    return {
        "workload": spec.workload,
        "approach": result.approach,
        "kind": spec.kind,
        "size": spec.size,
        "qubits": result.num_qubits,
        "status": result.status,
        "compile_time_s": result.compile_time_s,
        "depth": result.depth,
        "swaps": result.swap_count,
        # Which routing engine computed the cell (SABRE cells record
        # "c"/"python"; other approaches None).  Engines are bit-identical,
        # so this annotates the perf trajectory without forking identities.
        "kernel": (result.extra or {}).get("kernel"),
    }


def _suite(smoke: bool) -> list:
    """(group name, spec list) pairs; fixed per mode so runs are comparable."""

    prof = QUICK
    micro_grids = (5, 7) if smoke else (5, 7, 9)
    micro = [CellSpec.make("sabre", "grid", m) for m in micro_grids]

    fig17_groups = (2, 4, 6, 8) if smoke else prof.fig17_groups
    fig17 = []
    for groups in fig17_groups:
        fig17.append(CellSpec.make("ours", "heavyhex", groups))
        fig17.append(
            CellSpec.make(
                "sabre", "heavyhex", groups, max_qubits=prof.sabre_max_qubits
            )
        )

    fig19_m = (10, 12) if smoke else prof.fig19_m
    fig19 = []
    for m in fig19_m:
        fig19.append(CellSpec.make("ours", "lattice", m))
        fig19.append(CellSpec.make("lnn", "lattice", m))
        fig19.append(
            CellSpec.make("sabre", "lattice", m, max_qubits=prof.sabre_max_qubits)
        )

    # New-workload cells (registry-driven): fixed sizes in both modes so the
    # numbers stay comparable across commits.
    workloads = [
        CellSpec.make("sabre", "grid", 5, workload="qaoa"),
        CellSpec.make("sabre", "grid", 5, workload="random"),
        CellSpec.make("greedy", "grid", 5, workload="qaoa"),
    ]

    return [
        ("micro-qft-grid", micro),
        ("fig17-smoke", fig17),
        ("fig19-smoke", fig19),
        ("workloads-smoke", workloads),
    ]


def _timed(fn, *args):
    """``(fn(*args), seconds it took)``."""

    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def _stage_cell(approach: str, kind: str, size: int, opts: dict) -> dict:
    """Per-stage median seconds and µs per mapped op over ``STAGE_REPEATS`` runs."""

    wl = get_workload("qft")
    topology = make_architecture(kind, size)
    n = topology.num_qubits
    times = {"map_with": [], "verify": [], "fast_metrics": []}
    for _ in range(STAGE_REPEATS):
        mapper = make_mapper(approach, topology, **opts)
        mapped, map_s = _timed(wl.map_with, mapper, n)
        verification, verify_s = _timed(wl.verify, mapped, n)
        metrics, metrics_s = _timed(fast_metrics, mapped)
        if not verification.ok:
            raise RuntimeError(f"{approach} on {kind} {size} failed verification")
        times["map_with"].append(map_s)
        times["verify"].append(verify_s)
        times["fast_metrics"].append(metrics_s)
    ops = len(mapped.ops)
    stage_s = {k: statistics.median(v) for k, v in times.items()}
    return {
        "approach": approach,
        "kind": kind,
        "size": size,
        "qubits": n,
        "kernel": getattr(mapper, "last_kernel", None),
        "ops": ops,
        "depth": metrics[0],
        "swaps": metrics[2],
        "stage_s": {k: round(v, 4) for k, v in stage_s.items()},
        "us_per_op": {k: round(v / ops * 1e6, 3) for k, v in stage_s.items()},
    }


def _stages(args) -> int:
    out = args.out or os.path.join(REPO_ROOT, "BENCH_stages.json")
    cells = []
    for approach, kind, size, opts in STAGE_CELLS:
        cell = _stage_cell(approach, kind, size, opts)
        cells.append(cell)
        per_op = "  ".join(f"{k} {v:6.2f}" for k, v in cell["us_per_op"].items())
        print(
            f"{approach:6s} {kind:9s} {size:4d} {cell['ops']:8d} ops  µs/op: {per_op}",
            flush=True,
        )
    record = {
        "label": args.label,
        "commit": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain")),
        "timestamp": datetime.datetime.now(  # repro-lint: ignore[determinism] -- bench provenance stamp, never identity
            datetime.timezone.utc
        ).isoformat(timespec="seconds"),
        "python": sys.version.split()[0],
        "repeats": STAGE_REPEATS,
        "cells": cells,
    }
    payload = {"suite": "stages", "records": []}
    if os.path.exists(out):
        with open(out, encoding="utf-8") as fh:
            payload = json.load(fh)
    payload["records"].append(record)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"appended record {len(payload['records'])} -> {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="seconds-scale subset for CI"
    )
    parser.add_argument(
        "--stages",
        action="store_true",
        help="time map/verify/metrics per op on 250-1024 qubit cells instead",
    )
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    parser.add_argument(
        "--out",
        default=None,
        help="output JSON path (default BENCH_compile_time.json, or "
        "BENCH_stages.json with --stages)",
    )
    parser.add_argument(
        "--label", default=None, help="free-form label stored in the output"
    )
    args = parser.parse_args(argv)
    if args.stages:
        return _stages(args)
    out = args.out or os.path.join(REPO_ROOT, "BENCH_compile_time.json")

    groups = []
    suite_start = time.perf_counter()
    for name, specs in _suite(args.smoke):
        # Each group runs as one plan through the run API, so the output
        # records the typed RunReport (executor name, status counts, wall)
        # alongside the per-cell timings the perf trajectory is built on.
        report = execute(adhoc_plan(name, specs), jobs=args.jobs)
        cells = [_cell_record(s, r) for s, r in zip(specs, report.results)]
        groups.append(
            {
                "name": name,
                "wall_s": round(report.wall_s, 3),
                "executor": report.executor,
                "report": report.to_dict(include_results=False),
                "cells": cells,
            }
        )
        print(
            f"{name:16s} {report.wall_s:8.2f}s  ({len(specs)} cells, "
            f"{report.executor})",
            flush=True,
        )
    total = time.perf_counter() - suite_start

    payload = {
        "suite": "smoke" if args.smoke else "full",
        "label": args.label,
        "commit": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain")),
        "timestamp": datetime.datetime.now(  # repro-lint: ignore[determinism] -- bench provenance stamp, never identity
            datetime.timezone.utc
        ).isoformat(timespec="seconds"),
        "python": sys.version.split()[0],
        "jobs": args.jobs,
        "total_wall_s": round(total, 3),
        "groups": groups,
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"total {total:.2f}s -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
