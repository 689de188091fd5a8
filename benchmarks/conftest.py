"""Shared helpers for the benchmark harness.

Every benchmark compiles a QFT instance exactly once per (approach,
architecture, size) cell -- compilation is deterministic, so repeated timing
rounds would only measure noise while multiplying the wall-clock cost of the
suite.  The quality metrics the paper reports (depth, SWAP count, CPHASE
count) are attached to ``benchmark.extra_info`` so that
``pytest benchmarks/ --benchmark-only`` reproduces both axes of every figure:
compilation time *and* output quality.

Environment knobs:

* ``REPRO_BENCH_FULL=1``    -- run the paper-sized sweeps (SABRE at hundreds
  of qubits).  The delta-scored SABRE core (see ``repro.baselines.sabre``)
  routes these at a near-flat per-swap-iteration cost; for multi-core
  machines and warm re-runs, prefer
  ``python -m repro.eval --profile paper --jobs N --cache results.db``,
  which groups cells by topology, fans them out over processes and skips
  anything the store already holds.  ``scripts/bench.py`` tracks the
  fixed micro-suite's wall times per commit (BENCH_compile_time.json).
"""

from __future__ import annotations

import os

import pytest

from repro.eval import run_cell
from repro.eval.runners import cached_topology

FULL = os.environ.get("REPRO_BENCH_FULL", "0") == "1"


def bench_cell(benchmark, approach: str, kind: str, size: int, **kwargs):
    """Run one compilation cell under pytest-benchmark and record its metrics.

    The topology is resolved through the harness's shared memo (one instance
    -- and one distance matrix / SABRE table build -- per topology per
    process), so benchmark timings measure the mapper, not repeated
    architecture construction, exactly like a topology-grouped sweep.
    """

    topology = cached_topology(kind, size)
    result_holder = {}

    def compile_once():
        result_holder["result"] = run_cell(
            approach, kind, size, topology=topology, **kwargs
        )
        return result_holder["result"]

    benchmark.pedantic(compile_once, rounds=1, iterations=1)
    result = result_holder["result"]
    # run_cell reports bad cells (e.g. invalid architecture size) as
    # status="error" instead of raising; a benchmark timing a no-op must
    # still fail loudly.
    assert result.status != "error", f"benchmark cell failed: {result.message}"
    benchmark.extra_info["approach"] = result.approach
    benchmark.extra_info["architecture"] = result.architecture
    benchmark.extra_info["qubits"] = result.num_qubits
    benchmark.extra_info["status"] = result.status
    if result.ok:
        benchmark.extra_info["depth"] = result.depth
        benchmark.extra_info["swaps"] = result.swap_count
        benchmark.extra_info["cphase"] = result.cphase_count
        benchmark.extra_info["verified"] = bool(result.verified)
        assert result.verified, "benchmark produced an invalid QFT circuit"
    return result
