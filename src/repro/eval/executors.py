"""Pluggable executors: *how* a list of evaluation cells gets run.

The declarative layer (:mod:`repro.eval.runs`) describes *what* to run as a
typed ``RunPlan``; this module supplies the strategy objects that run it.
Executors register themselves in :data:`EXECUTOR_REGISTRY` (same
synonym/did-you-mean machinery as the workload/approach/architecture
registries) and expose one method, :meth:`Executor.run`.  Built-ins:

``serial``
    Every cell in order, in-process.  No pool overhead; the right choice for
    tiny sweeps and debugging.
``pool``
    The topology-grouped worker pool: cells that target the same coupling
    graph are sent to workers as whole chunks, every worker resolves
    topologies through the process-local memo in :mod:`repro.eval.runners`,
    and on fork-based platforms the parent prewarms each distinct topology
    so workers inherit the distance matrices and SABRE tables copy-on-write.
    The workers are the supervised :class:`~repro.eval.workers.WarmWorkerPool`
    the compile service also runs on: a worker killed mid-chunk is respawned
    and its chunk resubmitted, so the sweep finishes bit-equal to a serial run.

:func:`repro.eval.execute` owns the run record: with ``store=DB`` it hands
every executor a :class:`~repro.store.RunRecorder` (``ctx.recorder``) that
each finished cell is appended to as it lands, plus the results of the run
being resumed (``ctx.resumed``), which are served instead of re-run.
Recorded ``serial``/``pool`` runs also get a straggler pass: each cell that
timed out is re-dispatched once, with the cell's own budget, before being
reported.

Results always come back in spec order, and every cell is deterministic
given its spec, so the choice of executor (and ``jobs``) never changes the
metrics -- only the wall-clock time (a property the test suite asserts).
"""

from __future__ import annotations

import multiprocessing
import queue
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..registry import Registry
from .cache import ResultCache, cell_key
from .metrics import CompilationResult
from .parallel import CellSpec
from .runners import architecture_key, cached_topology, prepare_topology, run_cell
from .workers import WarmWorkerPool

__all__ = [
    "Executor",
    "ExecutionContext",
    "ExecutionOutcome",
    "EXECUTOR_REGISTRY",
    "register_executor",
    "get_executor",
    "executor_names",
    "run_specs",
]


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


def _run_spec(spec: CellSpec) -> CompilationResult:
    topology = cached_topology(spec.kind, spec.size)  # None -> per-cell error
    result = run_cell(
        spec.approach,
        spec.kind,
        spec.size,
        workload=spec.workload,
        workload_params=dict(spec.workload_params),
        topology=topology,
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


# ---------------------------------------------------------------------------
# Executor protocol + registry
# ---------------------------------------------------------------------------


@dataclass
class ExecutionContext:
    """Everything an executor may need beyond the cells themselves."""

    jobs: int = 1
    cache: Optional[ResultCache] = None
    #: the run record (a :class:`repro.store.RunRecorder`) every finished
    #: cell is appended to, or ``None`` for an unrecorded run
    recorder: Optional[Any] = None
    #: results of the run being resumed, by :func:`cell_key`; served as-is
    resumed: Dict[str, CompilationResult] = field(default_factory=dict)


@dataclass
class ExecutionOutcome:
    """What an executor did: the results plus its bookkeeping."""

    results: List[CompilationResult]
    resumed: int = 0  # cells served from the resumed run, not re-run
    retried: int = 0  # straggler cells re-dispatched
    recovered: int = 0  # retried cells whose second attempt succeeded


class Executor:
    """Base class for registered executors (``run`` is the whole surface)."""

    name: str = ""

    def run(
        self, specs: Sequence[CellSpec], ctx: ExecutionContext
    ) -> ExecutionOutcome:
        raise NotImplementedError


#: the process-wide executor registry
EXECUTOR_REGISTRY: Registry[Executor] = Registry("executor")


def register_executor(name: str, *, synonyms: Sequence[str] = ()):
    """Class decorator: instantiate and register an :class:`Executor`."""

    def _register(cls):
        instance = cls()
        instance.name = name
        EXECUTOR_REGISTRY.register(name, instance, synonyms=synonyms)
        return cls

    return _register


def get_executor(name: str) -> Executor:
    """Resolve an executor by any registered spelling (raises with hints)."""

    return EXECUTOR_REGISTRY.get(name)


def executor_names() -> Tuple[str, ...]:
    """Canonical names of every registered executor."""

    return EXECUTOR_REGISTRY.names()


# ---------------------------------------------------------------------------
# Built-in executors
# ---------------------------------------------------------------------------


class _LocalExecutor(Executor):
    """``run_specs`` in this process tree, plus the recorded-run duties.

    With a run record, every finished cell (cache hits included) is
    appended as it lands, the resumed run's cells are served instead of
    re-run, and timeouts get the straggler pass: each is re-dispatched once
    before the report calls it final.
    Unrecorded runs report timeouts as they come.
    """

    def _jobs(self, ctx: ExecutionContext) -> int:
        return ctx.jobs

    def run(self, specs, ctx):
        jobs = self._jobs(ctx)
        recorder = ctx.recorder
        if recorder is None:
            return ExecutionOutcome(run_specs(specs, jobs=jobs, cache=ctx.cache))

        keys = [cell_key(spec) for spec in specs]
        skip = {i: ctx.resumed[k] for i, k in enumerate(keys) if k in ctx.resumed}
        results = run_specs(
            specs,
            jobs=jobs,
            cache=ctx.cache,
            skip=skip,
            on_result=lambda i, spec, res: recorder.append(keys[i], res),
        )

        # Straggler pass: a timeout is wall-clock-dependent (and never
        # cached), so each one is re-dispatched once before the report calls
        # it final.  Deterministic failures (error / unsupported / skipped)
        # are not retried.  Resumed cells participate too -- a timeout
        # recorded just before a crash would otherwise become permanent --
        # and the ``retries`` marker recorded with the retry keeps a resumed
        # run from re-dispatching a cell twice.
        retry_idx = [
            i
            for i, r in enumerate(results)
            if r.status == "timeout" and not (r.extra or {}).get("retries")
        ]
        recovered = 0
        if retry_idx:
            again = run_specs(
                [specs[i] for i in retry_idx],
                jobs=min(jobs, len(retry_idx)),
                cache=ctx.cache,
            )
            for i, result in zip(retry_idx, again):
                result.extra = dict(result.extra or {})
                result.extra["retries"] = 1
                if result.status != "timeout":
                    recovered += 1
                results[i] = result
                recorder.append(keys[i], result)
        return ExecutionOutcome(
            results, resumed=len(skip), retried=len(retry_idx), recovered=recovered
        )


@register_executor("serial", synonyms=("inline", "sync"))
class SerialExecutor(_LocalExecutor):
    """Every cell in order, in-process (no pool)."""

    def _jobs(self, ctx):
        return 1


@register_executor("pool", synonyms=("process-pool", "parallel"))
class PoolExecutor(_LocalExecutor):
    """The topology-grouped worker pool (``jobs`` workers)."""
