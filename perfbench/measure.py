"""One timed phase in a fresh process: ``python3 perfbench/measure.py SPEC``.

``SPEC`` is a JSON file written by ``run.py`` with the workload, seed,
seconds, state directory, output path, optional trace directory and (for
serve-mix) the server URL.  The process pays an untimed warm-up, runs the
whole op list, and writes one JSON result: per-op latency and outcome, the
timed wall, the host probes taken between ops, and its own peak RSS and that
of its waited-for children; traced spans go to the trace directory.  A
separate process keeps the peak RSS to the program: for the library
workloads this process is the program, for sweep-store its children are the
pool workers.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from benchlib import draws, hostprobe  # noqa: E402
from benchlib.tracing import Tracer, request_key  # noqa: E402


def compile_kwargs(cell: dict) -> dict:
    """``repro.compile`` keywords of a drawn cell."""

    kwargs = {
        "workload": cell["workload"],
        "architecture": cell["architecture"],
        "size": cell["size"],
        "approach": cell["approach"],
        "verify": True,
        **cell["options"],
    }
    if cell["num_qubits"] is not None:
        kwargs["num_qubits"] = cell["num_qubits"]
    if cell["workload_params"]:
        kwargs["workload_params"] = dict(cell["workload_params"])
    if cell["timeout_s"] is not None:
        kwargs["timeout_s"] = cell["timeout_s"]
    return kwargs


def outcome(row: dict) -> dict:
    """The checked fields of a ``CompilationResult`` dict."""

    return {
        "status": row.get("status"),
        "verified": row.get("verified"),
        "approach": row.get("approach"),
        "depth": row.get("depth"),
        "unit_depth": row.get("unit_depth"),
        "swap_count": row.get("swap_count"),
        "cphase_count": row.get("cphase_count"),
        "total_ops": row.get("total_ops"),
        "kernel": (row.get("extra") or {}).get("kernel"),
    }


def _error(exc: BaseException) -> dict:
    return {"status": "error", "message": f"{type(exc).__name__}: {exc}"}


class Phase:
    """The timed phase's clock; the host probes taken during the phase are
    left out of its wall time."""

    def __init__(self) -> None:
        self.probes_ms = []
        self._paused_ns = 0
        self._start_ns = time.perf_counter_ns()

    def probe(self) -> None:
        t0 = time.perf_counter_ns()
        self.probes_ms.append(hostprobe.probe_once_ms())
        self._paused_ns += time.perf_counter_ns() - t0

    def finish(self) -> dict:
        end_ns = time.perf_counter_ns()
        return {
            "t0_ns": self._start_ns,
            "t1_ns": end_ns,
            "wall_s": (end_ns - self._start_ns - self._paused_ns) / 1e9,
            "probes_ms": self.probes_ms,
        }


def timed_loop(ops, run_one, tracer, probe_every: int):
    """Run every op in order, one ``op`` span each when traced, and a host
    probe after every ``probe_every`` ops."""

    if tracer is not None:
        tracer.install()
    records = []
    phase = Phase()
    for i, op in enumerate(ops):
        span = None
        if tracer is not None:
            tracer.op_id = i
            span = tracer.begin("op")
        t0 = time.perf_counter()
        try:
            out = run_one(op)
        except Exception as exc:  # a raising op is a failed op, not a crash
            out = _error(exc)
        out["latency_ms"] = (time.perf_counter() - t0) * 1e3
        if span is not None:
            tracer.end(span)
        records.append(out)
        if (i + 1) % probe_every == 0:
            phase.probe()
    return records, phase.finish()


# ---------------------------------------------------------------------------
# Library workloads: paper-qft, route-mix
# ---------------------------------------------------------------------------

#: one small op per code path, so lazy imports and first-call costs are paid
#: before the timed phase
LIBRARY_WARMUP = (
    draws._cell("qft", "lattice", 3, "ours"),
    draws._cell("qft", "lattice", 3, "lnn"),
    draws._cell("qft", "heavyhex", 2, "ours"),
    draws._cell("qft", "sycamore", 4, "ours"),
    draws._cell("qaoa", "grid", 3, "sabre", num_qubits=8, options={"seed": 1}, timeout_s=60.0),
    draws._cell("random", "grid", 3, "greedy", num_qubits=8, workload_params={"seed": 1}),
)


def library_op(cell: dict) -> dict:
    import repro

    return outcome(repro.compile(**compile_kwargs(cell)).metrics().to_dict())


def run_library(ops, tracer):
    for cell in LIBRARY_WARMUP:
        library_op(cell)
    return timed_loop(ops, library_op, tracer, probe_every=3)


# ---------------------------------------------------------------------------
# sweep-store
# ---------------------------------------------------------------------------


def sweep_call(cells, db: Path) -> dict:
    from repro.eval import CellSpec, ResultCache, adhoc_plan, execute

    specs = [
        CellSpec.make(
            c["approach"],
            c["architecture"],
            c["size"],
            workload=c["workload"],
            workload_params=c["workload_params"] or None,
            **c["options"],
        )
        for c in cells
    ]
    cache = ResultCache(db)
    try:
        report = execute(
            adhoc_plan("sweep-store", specs), jobs=draws.SWEEP_JOBS, store=str(db), cache=cache
        )
    finally:
        cache.close()
    cells = [outcome(r.to_dict()) for r in report.results]
    good = len(cells) == len(specs) and all(
        c["status"] == "ok" and c["verified"] is True for c in cells
    )
    return {"cells": cells, "status": "ok" if good else "failed"}


def run_sweep(ops, tracer, db: Path):
    warm = [draws.sweep_cell(-1 - j) for j in range(draws.SWEEP_JOBS * 2)]
    sweep_call(warm, db)  # imports, schema, one pool call; not in any draw
    sweep_call(warm, db)  # and one hit-only call
    return timed_loop(ops, lambda op: sweep_call(op["cells"], db), tracer, probe_every=8)


# ---------------------------------------------------------------------------
# serve-mix: a closed loop of SERVE_CLIENTS connections
# ---------------------------------------------------------------------------

SERVE_CLIENTS = 2
SERVE_CHUNK = 200


def serve_request(client, cell: dict) -> dict:
    resp = client.compile(**compile_kwargs(cell))
    out = outcome(resp.metrics)
    out["status"] = resp.status
    out["cache"] = resp.cache
    return out


def run_serve(ops, url: str):
    from repro.serve import ServeClient, ServeError

    warm_client = ServeClient(url, name="perfbench-warmup")
    for base in draws.SERVE_SEEDED:  # one compute per code path in each worker
        for k in (-1, -2):
            serve_request(warm_client, draws._seeded_variant(base, k))
    stats_before = warm_client.stats()

    records = [None] * len(ops)
    lock = threading.Lock()

    def loop(tid: int, cursor) -> None:
        client = ServeClient(url, name=f"perfbench-{tid}")
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            t0 = time.perf_counter()
            try:
                out = serve_request(client, ops[i])
            except ServeError as exc:  # 400/429/503/unreachable: failed op
                out = _error(exc)
            out["latency_ms"] = (time.perf_counter() - t0) * 1e3
            out["key"] = request_key(ops[i])
            records[i] = out

    # Chunks of SERVE_CHUNK requests; the host probe runs between chunks,
    # while the server is idle.
    phase = Phase()
    for lo in range(0, len(ops), SERVE_CHUNK):
        cursor = iter(range(lo, min(lo + SERVE_CHUNK, len(ops))))
        threads = [
            threading.Thread(target=loop, args=(t, cursor)) for t in range(SERVE_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        phase.probe()
    timed = phase.finish()
    stats_after = warm_client.stats()
    delta = {
        k: stats_after[k] - stats_before[k]
        for k in stats_after
        if isinstance(stats_after[k], int) and not isinstance(stats_after[k], bool)
    }
    delta["respawns"] = stats_after["pool"]["respawns"] - stats_before["pool"]["respawns"]
    return records, timed, delta


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    workload = spec["workload"]
    ops = draws.draw(workload, spec["seed"], spec["seconds"])
    state = Path(spec["state"])
    tracer = Tracer(spec["trace_dir"]) if spec.get("trace_dir") else None
    result = {"workload": workload, "ops": len(ops), "pid": os.getpid()}
    if workload == "serve-mix":
        records, timed, delta = run_serve(ops, spec["url"])
        result["stats_delta"] = delta
    elif workload == "sweep-store":
        records, timed = run_sweep(ops, tracer, state / f"sweep-{spec['tag']}.db")
    else:
        records, timed = run_library(ops, tracer)
    if tracer is not None:
        tracer.uninstall()
        tracer.flush()
    result.update(
        records=records,
        **timed,
        rss_self_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        rss_children_mb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    )
    Path(spec["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
