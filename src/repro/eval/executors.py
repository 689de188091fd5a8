"""Running a list of evaluation cells: in order, or on the worker pool.

:func:`run_specs` is the one engine behind :func:`repro.eval.execute`.
With ``jobs=1`` every cell runs in order, in this process: no pool
overhead, the right choice for tiny sweeps and debugging.  With ``jobs > 1``
and at least two cells to compute (cache hits and resumed cells need none),
the cells run on the topology-grouped worker pool: cells that target the
same coupling graph are sent to workers as whole chunks, every worker
resolves topologies through the process-local memo in
:mod:`repro.eval.runners`, and on fork-based platforms the parent prewarms
each distinct topology so workers inherit the distance matrices and SABRE
tables copy-on-write.  The workers are the supervised
:class:`~repro.eval.workers.WarmWorkerPool` the compile service also runs
on: a worker killed mid-chunk is respawned and its chunk resubmitted, so the
sweep finishes bit-equal to a serial run.

Results always come back in spec order, and every cell is deterministic
given its spec, so ``jobs`` never changes the metrics -- only the wall-clock
time (a property the test suite asserts).  The run record (``store=``), the
resumed run's cells and the straggler retry are :func:`repro.eval.execute`'s
part; it hands this module the ``skip`` and ``on_result`` hooks.

:func:`run_specs`, :func:`run_cell` and :func:`_run_spec` (the pool task)
are looked up as this module's attributes at call time (``execute`` calls
``executors.run_specs``), so a wrapper installed on any of them (the traced
benchmark installs some) sees every call.
"""

from __future__ import annotations

import multiprocessing
import queue
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .cache import ResultCache
from .metrics import CompilationResult
from .parallel import CellSpec
from .runners import architecture_key, prepare_topology, run_cell
from .workers import WarmWorkerPool

__all__ = ["run_specs"]


def _run_spec(spec: CellSpec) -> CompilationResult:
    result = run_cell(
        spec.approach,
        spec.kind,
        spec.size,
        workload=spec.workload,
        workload_params=dict(spec.workload_params),
        timeout_s=spec.timeout_s,
        verify=spec.verify,
        **dict(spec.kwargs),
    )
    if spec.rename is not None:
        result.approach = spec.rename
    return result


#: chunks queued per pool worker: one running, one waiting, so a worker never
#: idles while the parent commits the previous chunk's cells to the store
_CHUNKS_PER_WORKER = 2


def _topology_chunks(
    specs: Sequence[CellSpec], todo: Sequence[int], jobs: int
) -> List[List[int]]:
    """Partition ``todo`` into same-topology chunks for pool dispatch.

    Each topology group is split into at most ``jobs`` chunks, so a sweep
    dominated by one topology (e.g. a seed sweep) still saturates the pool
    while cells sharing a topology land on as few workers as possible.
    """

    groups: Dict[Tuple[str, int], List[int]] = {}
    for i in todo:
        groups.setdefault(architecture_key(specs[i].kind, specs[i].size), []).append(i)

    chunks: List[List[int]] = []
    for members in groups.values():
        parts = min(jobs, len(members))
        base, extra = divmod(len(members), parts)
        start = 0
        for p in range(parts):
            size = base + (1 if p < extra else 0)
            chunks.append(members[start : start + size])
            start += size
    return chunks


def run_specs(
    specs: Sequence[CellSpec],
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    skip: Optional[Dict[int, CompilationResult]] = None,
    on_result: Optional[Callable[[int, CellSpec, CompilationResult], None]] = None,
) -> List[CompilationResult]:
    """Run every spec, in order, using up to ``jobs`` worker processes.

    With a cache, hits are served without running anything and fresh results
    are stored on the way out; only the misses are distributed to workers.
    ``skip`` pre-resolves cells by index (the resume path: recorded cells
    are served as-is, no cache lookup, no callback).  ``on_result`` is
    invoked in the parent -- never in a worker -- for every result this run
    produced (computed or cache-hit, not skipped), as soon as it lands; the
    run record is appended through it.
    """

    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")

    results: List[Optional[CompilationResult]] = [None] * len(specs)
    keys: Dict[int, str] = {}
    todo: List[int] = []
    skip = skip or {}
    for i, spec in enumerate(specs):
        if i in skip:
            results[i] = skip[i]
            continue
        if cache is not None:
            keys[i] = cache.key(
                spec.approach,
                spec.kind,
                spec.size,
                spec.kwargs,
                spec.rename,
                spec.timeout_s,
                spec.workload,
                spec.workload_params,
                verify=spec.verify,
            )
            hit = cache.get(keys[i])
            if hit is not None:
                results[i] = hit
                if on_result is not None:
                    on_result(i, spec, hit)
                continue
        todo.append(i)

    def record(i: int, result: CompilationResult) -> None:
        results[i] = result
        # Timeouts are wall-clock-dependent, not deterministic per spec --
        # caching one would serve a one-off slow run forever.  Unsupported
        # cells are never cached either: the refusal is cheap to recompute
        # and a registry/plugin change (a specialist gaining a workload)
        # must take effect without a cache flush.  Everything else
        # (ok / skipped / error) is a pure function of the spec.
        if cache is not None and result.status not in ("timeout", "unsupported"):
            cache.put(keys[i], result)
        if on_result is not None:
            on_result(i, specs[i], result)

    if jobs > 1 and len(todo) > 1:
        # Warm each distinct topology (+ distance matrix + SABRE tables) in
        # the parent first, where fork-based pools share them copy-on-write.
        # Under spawn (macOS/Windows default) workers inherit nothing, so the
        # parent-side work would be pure waste -- each worker's own memo
        # still builds everything once per (worker, topology) there.
        if multiprocessing.get_start_method() == "fork":
            seen = set()
            for i in todo:
                key = architecture_key(specs[i].kind, specs[i].size)
                if key not in seen:
                    seen.add(key)
                    prepare_topology(specs[i].kind, specs[i].size)
        chunks = deque(_topology_chunks(specs, todo, jobs))
        workers = min(jobs, len(chunks))
        landed: "queue.SimpleQueue" = queue.SimpleQueue()
        # One pool per call, forked here: workers inherit the warmed tables.
        pool = WarmWorkerPool(
            workers, task=_run_spec, on_result=lambda *batch: landed.put(batch)
        )
        owners: Dict[int, List[int]] = {}

        def refill() -> None:
            while chunks and len(owners) < _CHUNKS_PER_WORKER * workers:
                chunk = chunks.popleft()
                owners[pool.submit([specs[i] for i in chunk])] = chunk

        # Record each chunk's finished cells as it lands -- including the
        # prefix of a chunk whose later cell raised (the worker returns the
        # exception with the cells before it) -- so a mid-sweep failure does
        # not discard hours of finished work; the first exception is raised
        # once every chunk is in.
        failure: Optional[BaseException] = None
        try:
            refill()
            while owners:
                batch_id, chunk_results, exc = landed.get()
                chunk = owners.pop(batch_id)
                refill()  # before recording: see _CHUNKS_PER_WORKER
                for i, result in zip(chunk, chunk_results):
                    record(i, result)
                if exc is not None and failure is None:
                    failure = exc
        finally:
            pool.close(drain=False)
        if failure is not None:
            raise failure
    else:
        for i in todo:
            record(i, _run_spec(specs[i]))

    return results  # type: ignore[return-value]  # every slot is filled above
