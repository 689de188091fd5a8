#!/usr/bin/env python
"""SABRE routing-kernel microbenchmark: µs per swap iteration of the C engine.

Routes the paper's QFT workload on the fig19 lattice-surgery grid at
100 -> 1024 qubits with a single forward pass (``passes=1``) through the
compiled kernel, and reports the per-swap-iteration cost (total map
wall-clock, including the replay of the kernel's events into ops, divided
by routing iterations -- the honest end-to-end number).  Iterations equal
the routing SWAPs emitted, which the script asserts.  The Python reference
loop is not timed: it is the kernel's test oracle (tests/test_sabre_kernel.py
checks the two are bit-identical) and would run for minutes at 529-1024
qubits.

This is the measurement behind the EXPERIMENTS.md "Compiled routing kernel"
tables; it is not part of CI.

Usage::

    python scripts/kernel_bench.py [--sizes 10 16 23 32] [--seed 0] [--out FILE.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.arch import LatticeSurgeryTopology  # noqa: E402
from repro.baselines import SabreMapper  # noqa: E402
from repro.baselines.sabre_kernel import kernel_available  # noqa: E402


def bench_size(m: int, seed: int) -> dict:
    topo = LatticeSurgeryTopology(m)
    mapper = SabreMapper(topo, seed=seed, passes=1, kernel="c")
    t0 = time.perf_counter()
    mapped = mapper.map_qft(topo.num_qubits)
    wall = time.perf_counter() - t0
    stats = mapper.last_routing_stats
    swaps = mapped.ops.tags.count("sabre-swap")
    if stats["iterations"] != swaps:
        raise RuntimeError(
            f"m={m}: {stats['iterations']} iterations but {swaps} routing SWAPs"
        )
    return {
        "m": m,
        "qubits": topo.num_qubits,
        "wall_s": round(wall, 3),
        "iterations": stats["iterations"],
        "us_per_iter": round(1e6 * wall / max(1, stats["iterations"]), 2),
        "candidates_mean": round(stats["candidates_mean"], 1),
        "swaps": swaps,
        "depth": mapped.depth(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=[10, 16, 23, 32],
        help="lattice sizes m (m^2 qubits); default 100->1024 qubits",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="optional JSON output path")
    args = parser.parse_args(argv)

    if not kernel_available():
        print(
            "kernel_bench: compiled kernel not built; run "
            "`python setup.py build_ext --inplace` first",
            file=sys.stderr,
        )
        return 2

    rows = []
    print(f"{'qubits':>7} {'iters':>9} {'wall s':>8} {'c us/it':>9} {'swaps':>9}")
    for m in args.sizes:
        row = bench_size(m, args.seed)
        rows.append(row)
        print(
            f"{row['qubits']:>7} {row['iterations']:>9} {row['wall_s']:>8.3f} "
            f"{row['us_per_iter']:>9.1f} {row['swaps']:>9}",
            flush=True,
        )

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "engine": "c", "rows": rows}, fh, indent=1)
            fh.write("\n")
        print(f"-> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
