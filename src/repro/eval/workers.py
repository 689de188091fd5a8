"""One supervised pool of warm worker processes, shared by sweeps and ``serve``.

Workers are long-lived forked processes.  Each builds its hot state once --
:func:`~repro.eval.runners.prepare_topology` for every prewarm target -- then
loops on its own task queue, applying the pool's ``task`` function to every
item of each batch it is sent, in order.  Each batch goes to the
least-loaded live worker (fewest batches in flight, ready ones first among
equals): a sweep with ``jobs > 1`` sends whole same-topology chunks of cells,
and the compile service sends its topology-grouped queue whenever
:meth:`WarmWorkerPool.has_idle_worker` says a worker is free.

Fault model: one supervisor thread waits on every worker's result pipe and
process sentinel at once.  A worker that dies is reaped -- after its pipe is
drained, so a batch it finished before dying is delivered, never recomputed
-- respawned under a bounded crash budget, and its in-flight batches are
resubmitted to a live worker.  A SIGKILLed worker (chaos: ``kill-worker``)
therefore costs latency, never an error; each reaped worker is logged as one
``WARNING``.  Once the budget is spent, a dead worker's batches fail instead
of hanging.  A worker that hangs without dying is *not* detected: the
per-cell ``timeout_s`` budget is the remedy for a slow cell.

Results travel over a **per-worker pipe** whose only writer is that
worker's main thread -- deliberately not a shared ``multiprocessing.Queue``.
A queue's write end is guarded by a lock shared by every writer *process*,
taken by a background feeder thread; SIGKILL a worker in the window where
its feeder holds that lock (on one CPU the feeder routinely waits out the
main thread's whole GIL slice there) and the lock is orphaned, wedging
every surviving and future worker's sends forever.  With one pipe per
worker and in-thread ``Connection.send``, a killed worker can tear nothing
but its own channel.  The supervisor hands every finished batch to the
``on_result`` callback, from its own thread.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import pickle
import signal
import threading
import time
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import chaos
from .runners import prepare_topology

__all__ = ["WarmWorkerPool", "PoolShutdown"]

_log = logging.getLogger(__name__)


class PoolShutdown(RuntimeError):
    """Submission after ``close()``: the pool is no longer accepting work."""


def _portable(exc: BaseException) -> BaseException:
    """``exc`` if it survives the pipe (a pickle round trip), else a stand-in."""

    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


def _worker_main(
    worker_id: str,
    task: Callable[[Any], Any],
    tasks: "multiprocessing.queues.Queue",
    results: "multiprocessing.connection.Connection",
    prewarm: Sequence[Tuple[str, int]],
) -> None:
    """One pool worker: prewarm, announce readiness, then run batches."""

    # A *respawned* worker forks after the server installed its asyncio
    # signal handlers and bound its socket, so the child inherits both: a
    # SIGTERM disposition that only writes to the parent's (dead) wakeup
    # pipe, and the listening fd.  Reset the dispositions so the default
    # actions apply again -- otherwise a worker orphaned by a killed server
    # shrugs off SIGTERM and keeps the port open forever.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)

    # Orphan watchdog: if the parent dies without dismissing us (SIGKILL --
    # nothing runs parent-side), exit instead of blocking on tasks.get()
    # forever with any inherited listening socket still open.
    parent = os.getppid()

    def _watch_parent() -> None:  # pragma: no cover - exercised via e2e kill
        while True:
            time.sleep(1.0)
            if os.getppid() != parent:
                os._exit(0)

    threading.Thread(
        target=_watch_parent, name="repro-worker-orphan-watch", daemon=True
    ).start()

    chaos.reload()  # fresh fire counters; a fork must not inherit the parent's
    cfg = chaos.active()
    if prewarm:
        for kind, size in prewarm:
            prepare_topology(kind, size)
        # In-thread sends on a pipe this process alone writes: no feeder
        # thread, no cross-process lock a SIGKILL could orphan.
        results.send("ready")
    ordinal = 0
    while True:
        job = tasks.get()
        if job is None:
            break
        batch_id, items = job
        rows: List[Any] = []
        error: Optional[BaseException] = None
        for item in items:
            ordinal += 1
            if cfg.fires("kill-worker", worker=worker_id, cell=ordinal):
                chaos.kill_self()  # pragma: no cover - the process dies here
            stall = cfg.fires("stall", worker=worker_id, cell=ordinal)
            if stall is not None:
                time.sleep(float(stall.get("s", 0.5)))
            try:
                rows.append(task(item))
            except Exception as exc:  # the caller decides what a raise means
                error = _portable(exc)
                break
        results.send((batch_id, rows, error))
    results.close()


class WarmWorkerPool:
    """Supervised fleet of prewarmed worker processes.

    Parameters
    ----------
    workers:
        Number of worker processes.
    task:
        Top-level function a worker applies to each item of a batch; its
        return values come back as the batch's ``rows``.
    on_result:
        ``on_result(batch_id, rows, error)`` -- invoked from the supervisor
        thread once per submitted batch.  ``error`` is None on success; when
        ``task`` raised, it is that exception (``rows`` then holds the items
        finished before it); when the crash budget ran out, a RuntimeError.
    prewarm:
        ``(kind, size)`` topology targets every worker warms before it is
        counted as ready.  A worker with nothing to prewarm is ready at
        spawn.
    max_respawns:
        Crash budget across the pool's lifetime (default ``2 * workers``);
        once exhausted, a dead worker's batches go to the live workers, or
        fail instead of hanging when none is left.
    """

    def __init__(
        self,
        workers: int,
        *,
        task: Callable[[Any], Any],
        on_result: Callable[[int, List[Any], Optional[BaseException]], None],
        prewarm: Sequence[Tuple[str, int]] = (),
        max_respawns: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker (got {workers})")
        self._mp = multiprocessing.get_context()
        self._task = task
        self._on_result = on_result
        self._prewarm = tuple(prewarm)
        self._lock = threading.Lock()
        self._procs: Dict[str, multiprocessing.process.BaseProcess] = {}
        self._queues: Dict[str, "multiprocessing.queues.Queue"] = {}
        #: worker_id -> result pipe, until that pipe reports EOF
        self._conns: Dict[str, "multiprocessing.connection.Connection"] = {}
        #: batch_id -> (worker_id, items) for every in-flight batch
        self._assigned: Dict[int, Tuple[str, List[Any]]] = {}
        self._ready: set = set()
        self._all_ready = threading.Event()
        self._idle = threading.Event()
        self._idle.set()
        self._next_worker = 0
        self._next_batch = 0
        self._closed = False
        self.respawns = 0
        self.reassigned_batches = 0
        self._respawns_left = (
            max_respawns if max_respawns is not None else 2 * workers
        )
        self._wake_r, self._wake_w = self._mp.Pipe(duplex=False)
        for _ in range(workers):
            self._spawn_one()
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-pool-supervisor", daemon=True
        )
        self._supervisor.start()

    # -- lifecycle ---------------------------------------------------------
    def _spawn_one(self) -> str:
        """Start one worker with a fresh task queue (caller holds no lock)."""

        worker_id = f"w{self._next_worker}"
        self._next_worker += 1
        tasks = self._mp.Queue()
        recv_conn, send_conn = self._mp.Pipe(duplex=False)
        proc = self._mp.Process(
            target=_worker_main,
            args=(worker_id, self._task, tasks, send_conn, self._prewarm),
            name=f"repro-worker-{worker_id}",
            daemon=True,
        )
        proc.start()
        send_conn.close()  # the child holds the only write end now
        with self._lock:
            self._procs[worker_id] = proc
            self._queues[worker_id] = tasks
            self._conns[worker_id] = recv_conn
            if not self._prewarm:
                self._mark_ready_locked(worker_id)
        return worker_id

    def _mark_ready_locked(self, worker_id: str) -> None:
        self._ready.add(worker_id)
        if self._ready >= set(self._procs):
            self._all_ready.set()

    def wait_ready(self, timeout_s: float = 60.0) -> bool:
        """Block until every worker finished prewarming (True on success)."""

        return self._all_ready.wait(timeout_s)

    # -- submission --------------------------------------------------------
    def submit(self, items: Sequence[Any]) -> int:
        """Queue one batch on the least-loaded live worker; returns batch id."""

        items = list(items)
        with self._lock:
            if self._closed:
                raise PoolShutdown("pool is shut down")
            batch_id = self._next_batch
            self._next_batch += 1
            worker_id = self._pick_worker_locked()
            self._assigned[batch_id] = (worker_id, items)
            self._idle.clear()
            self._queues[worker_id].put((batch_id, items))
        return batch_id

    def _pick_worker_locked(self) -> str:
        """Least-loaded worker by in-flight batch count (ready ones first
        among equals), so an idle worker gets the batch even while it is
        still prewarming."""

        load = {wid: 0 for wid in self._procs}
        for wid, _ in self._assigned.values():
            if wid in load:
                load[wid] += 1
        if not load:
            raise PoolShutdown("no live workers")
        return min(load, key=lambda wid: (load[wid], wid not in self._ready, wid))

    def has_idle_worker(self) -> bool:
        """True when a live worker has no batch in flight, ready or not.

        Also true once no worker is left or the pool is closed, so that a
        caller holding work submits it and gets :class:`PoolShutdown`
        instead of waiting for a worker that will never free up.
        """

        with self._lock:
            busy = {wid for wid, _ in self._assigned.values()}
            return self._closed or not self._procs or any(
                wid not in busy for wid in self._procs
            )

    # -- supervision -------------------------------------------------------
    def _supervise(self) -> None:
        """Deliver results and reap dead workers until ``close()`` wakes us."""

        while True:
            with self._lock:
                conns = {conn: wid for wid, conn in self._conns.items()}
                sentinels = {p.sentinel: wid for wid, p in self._procs.items()}
            ready = wait([self._wake_r, *conns, *sentinels])
            for obj in ready:
                if obj in conns:
                    self._drain(conns[obj])
            stopping = self._wake_r in ready
            with self._lock:
                # Every worker that has exited by now, not only those whose
                # sentinel woke this pass: one reap sees all of them together.
                exited = set(wait(list(sentinels), timeout=0))
                dead = sorted(
                    wid for s, wid in sentinels.items() if stopping or s in exited
                )
            if dead:
                self._reap(dead)
            if stopping:
                self._wake_r.close()
                return

    def _drain(self, worker_id: str) -> None:
        """Deliver every message waiting on one worker's pipe (EOF closes it)."""

        conn = self._conns.get(worker_id)
        if conn is None:
            return
        try:
            while conn.poll():
                self._deliver(worker_id, conn.recv())
        except (EOFError, OSError):  # worker exited (or was killed)
            with self._lock:
                self._conns.pop(worker_id, None)
            conn.close()

    def _deliver(self, worker_id: str, message: Any) -> None:
        if message == "ready":
            with self._lock:
                if worker_id in self._procs:
                    self._mark_ready_locked(worker_id)
            return
        batch_id, rows, error = message
        with self._lock:
            known = self._assigned.pop(batch_id, None)
            if not self._assigned:
                self._idle.set()
        if known is not None:  # else a duplicate completion after a resubmit
            self._on_result(batch_id, rows, error)

    def _reap(self, dead: List[str]) -> None:
        """Respawn dead workers (within budget) and resubmit their batches."""

        for worker_id in dead:
            # Drain before dropping: a batch the worker finished just before
            # dying is delivered, not resubmitted.
            self._drain(worker_id)
        codes: Dict[str, Optional[int]] = {}
        with self._lock:
            closing = self._closed
            for worker_id in dead:
                proc = self._procs.pop(worker_id)
                if closing and proc.is_alive():  # respawned after close() began
                    proc.terminate()
                proc.join(timeout=1.0)
                codes[worker_id] = proc.exitcode
                tasks = self._queues.pop(worker_id)
                tasks.cancel_join_thread()
                tasks.close()
                conn = self._conns.pop(worker_id, None)
                if conn is not None:
                    conn.close()
                self._ready.discard(worker_id)
            respawn = 0 if closing else min(len(dead), self._respawns_left)
            self._respawns_left -= respawn
            self.respawns += respawn
        for _ in range(respawn):
            self._spawn_one()
        failed: List[int] = []
        with self._lock:
            for n, worker_id in enumerate(dead):
                orphans = [b for b, (w, _) in self._assigned.items() if w == worker_id]
                for batch_id in orphans:
                    if closing or not self._procs:
                        del self._assigned[batch_id]
                        failed.append(batch_id)
                        continue
                    target = self._pick_worker_locked()
                    items = self._assigned[batch_id][1]
                    self._assigned[batch_id] = (target, items)
                    self._queues[target].put((batch_id, items))
                    self.reassigned_batches += 1
                if not closing:
                    _log.warning(
                        "worker %s exited with code %s; %d batch(es) "
                        "resubmitted%s",
                        worker_id,
                        codes[worker_id],
                        len(orphans) if self._procs else 0,
                        "" if n < respawn else " (respawn budget exhausted)",
                    )
            if not self._assigned:
                self._idle.set()
        error = (
            PoolShutdown("pool closed before the batch finished")
            if closing
            else RuntimeError("worker crashed and the respawn budget is exhausted")
        )
        for batch_id in failed:
            self._on_result(batch_id, [], error)

    # -- shutdown ----------------------------------------------------------
    def drain(self, timeout_s: float = 30.0) -> bool:
        """Wait for every in-flight batch to finish (True if none remain)."""

        return self._idle.wait(timeout_s)

    def close(self, *, drain: bool = True, timeout_s: float = 30.0) -> None:
        """Stop the pool: optionally drain, then dismiss and join workers."""

        if drain:
            self.drain(timeout_s)
        with self._lock:
            self._closed = True
            queues = list(self._queues.values())
            procs = list(self._procs.values())
        for tasks in queues:
            try:
                tasks.put(None)
            except (ValueError, OSError):  # pragma: no cover - closed queue
                pass
        deadline = time.monotonic() + 10.0
        for proc in procs:
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        if self._supervisor.is_alive():
            self._wake_w.send_bytes(b"")
            self._supervisor.join(timeout=5.0)
            self._wake_w.close()

    # -- introspection -----------------------------------------------------
    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "workers": len(self._procs),
                "ready": len(self._ready),
                "inflight_batches": len(self._assigned),
                "respawns": self.respawns,
                "reassigned_batches": self.reassigned_batches,
            }
