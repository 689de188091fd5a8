"""Fault-tolerant work-stealing dispatcher: leases, heartbeats, one writer.

A static ``shard=(i, n)`` partition lets a dead or slow machine stall its
whole slice.  This module replaces the static partition with a *dynamic
queue*: a dispatcher process serves one ``RunPlan``'s cells over a
localhost-bindable HTTP/JSON API to worker processes that join whenever
(and from wherever) they like.

Cells are handed out as **leases** -- a cell spec plus a deadline.  Workers
send heartbeats while computing, each of which pushes the deadline out; a
worker that crashes (no more heartbeats) or hangs (heartbeats frozen) lets
its lease expire, and the dispatcher returns the cell to the queue for the
next ``/lease`` request.  Work stealing falls out of that for free: a fast
worker drains whatever a slow one sheds, and no machine ever gates the run.

Failure model (each mode is injected deliberately by :mod:`repro.eval.chaos`
and covered by tests asserting bit-equal results against a serial run):

========================  ==================================================
failure                   recovery
========================  ==================================================
worker SIGKILL mid-cell   lease expires -> cell reassigned; the executor
                          respawns a replacement worker (bounded budget)
worker hang / frozen      same: missed heartbeats expire the lease; a late
heartbeats                result from the revenant is rejected as stale
network delay / drop      workers retry transient connection errors with
                          capped exponential backoff + deterministic jitter
dispatcher crash          the run record (one committed store transaction
                          per cell) holds every finished cell; ``--resume``
                          serves them without re-running
torn store write          WAL recovery keeps exactly the committed cells;
                          only the cell whose commit tore re-runs
cell timeout              the retry budget applies, with an optional
                          per-retry timeout multiplier
==============================================================================

The dispatcher is the **single run-record writer**: every accepted result
is appended to the :class:`~repro.store.RunRecorder` that
:func:`repro.eval.execute` opened, under the same cell keys as every other
executor, so crash-resume, last-entry-wins retry semantics and the
code-version refusal are shared.  Results are deterministic per spec, so a
chaos-ridden run's metrics are bit-equal to an uninterrupted serial run of
the same plan -- the property the chaos suite asserts.

Wire protocol (JSON over POST; all endpoints idempotent or stale-safe):

``/join``       ``{worker}`` -> run metadata + heartbeat interval
``/lease``      ``{worker}`` -> ``{lease: {id, index, attempt, spec, ...}}``
                or ``{empty: true, done: bool, retry_after_s}``
``/heartbeat``  ``{worker, lease}`` -> ``{ok: bool, reason?}``
``/result``     ``{worker, lease, result}`` -> ``{accepted: true, done: bool}``
                or ``{accepted: false, reason}``
``/status``     (GET) counters, for monitoring and tests
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import multiprocessing
import os
import socket
import threading
import time
import urllib.error
import urllib.request
import zlib
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from . import chaos
from .cache import ResultCache
from .executors import (
    ExecutionOutcome,
    Executor,
    _run_spec,
    register_executor,
    retry_spec,
)
from .cache import cell_key
from .metrics import CompilationResult
from .parallel import CellSpec

__all__ = [
    "DispatchError",
    "DispatchUnreachable",
    "DispatchServer",
    "DispatchClient",
    "run_worker",
    "spec_to_wire",
    "spec_from_wire",
]


class DispatchError(RuntimeError):
    """A non-transient dispatcher protocol failure (worker-side)."""


class DispatchUnreachable(DispatchError):
    """The dispatcher stayed unreachable through the whole backoff budget."""


# ---------------------------------------------------------------------------
# Cell specs on the wire
# ---------------------------------------------------------------------------

_WIRE_SCALARS = ("approach", "kind", "size", "rename", "timeout_s", "workload", "verify")


def spec_to_wire(spec: CellSpec) -> Dict[str, object]:
    """JSON-safe dict for one :class:`CellSpec` (tuples become lists)."""

    wire: Dict[str, object] = {f: getattr(spec, f) for f in _WIRE_SCALARS}
    wire["kwargs"] = [[k, v] for k, v in spec.kwargs]
    wire["workload_params"] = [[k, v] for k, v in spec.workload_params]
    return wire


def spec_from_wire(data: Dict[str, object]) -> CellSpec:
    """Rebuild the exact :class:`CellSpec` a :func:`spec_to_wire` serialized."""

    rename = data["rename"]
    timeout_s = data["timeout_s"]
    return CellSpec(
        approach=str(data["approach"]),
        kind=str(data["kind"]),
        size=int(data["size"]),  # type: ignore[arg-type]
        kwargs=tuple((str(k), v) for k, v in data["kwargs"]),  # type: ignore[union-attr]
        rename=None if rename is None else str(rename),
        timeout_s=None if timeout_s is None else float(timeout_s),  # type: ignore[arg-type]
        workload=str(data["workload"]),
        workload_params=tuple(
            (str(k), v) for k, v in data["workload_params"]  # type: ignore[union-attr]
        ),
        verify=str(data["verify"]),
    )


# ---------------------------------------------------------------------------
# The dispatcher (server side)
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _Lease:
    """One outstanding cell assignment: who computes what, until when."""

    lease_id: str
    index: int
    attempt: int
    worker: str
    deadline: float  # monotonic clock
    run_spec: CellSpec  # the spec as dispatched (retry timeouts scaled)


class _Handler(BaseHTTPRequestHandler):
    """Routes the tiny JSON protocol onto the :class:`DispatchServer` core."""

    server_version = "repro-dispatch/1"
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: object) -> None:
        pass  # the dispatcher reports through RunReport, not stderr noise

    def _chaos_gate(self) -> bool:
        """Apply injected response faults; True means drop (no reply)."""

        cfg = chaos.active()
        if not cfg:
            return False
        if cfg.fires("drop-response", path=self.path):
            # Close without replying, *before* processing: the client sees a
            # torn connection and must retry; the retry then succeeds.
            self.close_connection = True
            return True
        delay = cfg.fires("delay-response", path=self.path)
        if delay is not None:
            time.sleep(float(delay.get("s", 0.1)))
        return False

    def _reply(self, payload: Dict[str, object], status: int = 200) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self._chaos_gate():
            return
        core: DispatchServer = self.server.dispatch  # type: ignore[attr-defined]
        length = int(self.headers.get("Content-Length") or 0)
        try:
            payload = json.loads(self.rfile.read(length) or b"{}")
        except ValueError:
            self._reply({"error": "unparseable JSON body"}, status=400)
            return
        worker = str(payload.get("worker", "?"))
        if self.path == "/join":
            self._reply(core.join_worker(worker))
        elif self.path == "/lease":
            self._reply(core.lease(worker))
        elif self.path == "/heartbeat":
            self._reply(core.heartbeat(worker, str(payload.get("lease", ""))))
        elif self.path == "/result":
            self._reply(
                core.submit(
                    worker, str(payload.get("lease", "")), payload.get("result")
                )
            )
        else:
            self._reply({"error": f"unknown endpoint {self.path}"}, status=404)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self._chaos_gate():
            return
        core: DispatchServer = self.server.dispatch  # type: ignore[attr-defined]
        if self.path == "/status":
            self._reply(core.status())
        else:
            self._reply({"error": f"unknown endpoint {self.path}"}, status=404)


class DispatchServer:
    """One run's lease queue, heartbeat ledger, and (single) record writer.

    The server owns every piece of shared state -- pending queue, active
    leases, results, run-record handle -- behind one lock; HTTP handler threads
    and the executor's supervision loop only ever touch it through the
    methods below, so the dispatcher process is the linearization point for
    the whole fleet.
    """

    def __init__(
        self,
        specs: Sequence[CellSpec],
        *,
        keys: Optional[Sequence[str]] = None,
        skip: Optional[Dict[int, CompilationResult]] = None,
        resumed_retry_attempts: Optional[Dict[int, int]] = None,
        recorder=None,
        cache: Optional[ResultCache] = None,
        lease_s: float = 30.0,
        heartbeat_s: Optional[float] = None,
        retry_timeouts: int = 1,
        retry_timeout_multiplier: float = 1.0,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        if lease_s <= 0:
            raise ValueError(f"lease_s must be > 0, got {lease_s}")
        self._specs = list(specs)
        self._keys = list(keys) if keys is not None else [cell_key(s) for s in specs]
        if len(self._keys) != len(self._specs):
            raise ValueError("keys and specs must have the same length")
        self._recorder = recorder
        self._cache = cache
        self.lease_s = float(lease_s)
        self.heartbeat_s = float(heartbeat_s) if heartbeat_s else self.lease_s / 4.0
        self._retry_timeouts = int(retry_timeouts)
        self._retry_mult = float(retry_timeout_multiplier)

        self._lock = threading.Lock()
        self._results: Dict[int, CompilationResult] = dict(skip or {})
        self._attempts_used: Dict[int, int] = {}
        self._pending: Deque[Tuple[int, int]] = deque()
        self._active: Dict[str, _Lease] = {}
        self._inflight: Set[int] = set()
        self._lease_seq = 0
        self._workers: Set[str] = set()
        self._dead_workers: Set[str] = set()
        self.reassigned = 0
        self.retried = 0
        self.recovered = 0
        self.stale_results = 0

        for i in range(len(self._specs)):
            if i not in self._results:
                self._pending.append((i, 0))
                self._inflight.add(i)
        # Resumed timeout cells that still have retry budget owe the run
        # their re-dispatch (same contract as the local executors: a crash
        # between a timeout and its retry must not make the timeout final).
        for i, used in sorted((resumed_retry_attempts or {}).items()):
            if i in self._results and used < self._retry_timeouts:
                self._pending.append((i, used + 1))
                self._inflight.add(i)
                self.retried += 1

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.dispatch = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------
    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "DispatchServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-dispatch-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "DispatchServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- protocol core (each method takes the lock once) ----------------
    def join_worker(self, worker: str) -> Dict[str, object]:
        with self._lock:
            self._workers.add(worker)
            return {
                "ok": True,
                "cells": len(self._specs),
                "heartbeat_s": self.heartbeat_s,
                "lease_s": self.lease_s,
            }

    def lease(self, worker: str) -> Dict[str, object]:
        now = time.monotonic()
        with self._lock:
            self._workers.add(worker)
            self._reap_locked(now)
            self._queue_retries_locked()
            if not self._pending:
                return {
                    "empty": True,
                    "done": self._done_locked(),
                    "retry_after_s": min(0.05, self.heartbeat_s),
                }
            index, attempt = self._pending.popleft()
            self._lease_seq += 1
            lease_id = f"L{self._lease_seq}"
            run = retry_spec(self._specs[index], attempt, self._retry_mult)
            self._active[lease_id] = _Lease(
                lease_id, index, attempt, worker, now + self.lease_s, run
            )
            return {
                "lease": {
                    "id": lease_id,
                    "index": index,
                    "attempt": attempt,
                    "lease_s": self.lease_s,
                    "heartbeat_s": self.heartbeat_s,
                    "spec": spec_to_wire(run),
                }
            }

    def heartbeat(self, worker: str, lease_id: str) -> Dict[str, object]:
        now = time.monotonic()
        with self._lock:
            lease = self._active.get(lease_id)
            if lease is None or lease.worker != worker:
                # Expired-and-reassigned, finished elsewhere, or plain bogus:
                # either way this worker no longer owns the cell.
                return {"ok": False, "reason": "stale-lease"}
            lease.deadline = now + self.lease_s
            return {"ok": True}

    def submit(
        self, worker: str, lease_id: str, result_data: object
    ) -> Dict[str, object]:
        if not isinstance(result_data, dict):
            return {"accepted": False, "reason": "malformed-result"}
        try:
            result = CompilationResult.from_dict(result_data)
        except (KeyError, TypeError, ValueError) as exc:
            return {"accepted": False, "reason": f"malformed-result: {exc}"}
        with self._lock:
            lease = self._active.pop(lease_id, None)
            if lease is None or lease.worker != worker:
                # The lease expired and was handed to someone else (or
                # already completed).  Deterministic cells make either copy
                # correct, but accounting stays exact by keeping the first
                # accepted result and discarding the revenant's.
                self.stale_results += 1
                return {"accepted": False, "reason": "stale-lease"}
            index, attempt = lease.index, lease.attempt
            self._inflight.discard(index)
            if attempt > 0:
                result.extra = dict(result.extra or {})
                result.extra["retries"] = attempt
                if result.status != "timeout":
                    self.recovered += 1
            self._results[index] = result
            self._attempts_used[index] = max(
                attempt, self._attempts_used.get(index, 0)
            )
            if self._recorder is not None:
                self._recorder.append(self._keys[index], result)
            if self._cache is not None and result.status not in (
                "timeout",
                "unsupported",
            ):
                # Cache under the spec that actually ran (scaled timeout on
                # retries), without the record-only ``retries`` marker --
                # mirroring what run_specs stores for the local executors.
                spec = lease.run_spec
                stored = CompilationResult.from_dict(result.to_dict())
                stored.extra.pop("retries", None)
                self._cache.put(
                    self._cache.key(
                        spec.approach,
                        spec.kind,
                        spec.size,
                        spec.kwargs,
                        spec.rename,
                        spec.timeout_s,
                        spec.workload,
                        spec.workload_params,
                        verify=spec.verify,
                    ),
                    stored,
                )
            # Queue any timeout retry first: ``done`` tells the worker to
            # exit, so it must not say so while a retry is still owed.
            self._queue_retries_locked()
            return {"accepted": True, "done": self._done_locked()}

    def status(self) -> Dict[str, object]:
        with self._lock:
            return {
                "cells": len(self._specs),
                "completed": len(self._results),
                "pending": len(self._pending),
                "active": len(self._active),
                "workers": sorted(self._workers),
                "dead_workers": sorted(self._dead_workers),
                "reassigned": self.reassigned,
                "retried": self.retried,
                "recovered": self.recovered,
                "stale_results": self.stale_results,
                "done": self._done_locked(),
            }

    # -- supervision (executor-side calls) ------------------------------
    def reap(self) -> int:
        """Expire overdue leases (returns how many were reassigned now)."""

        now = time.monotonic()
        with self._lock:
            before = self.reassigned
            self._reap_locked(now)
            self._queue_retries_locked()
            return self.reassigned - before

    def done(self) -> bool:
        with self._lock:
            self._queue_retries_locked()
            return self._done_locked()

    @property
    def dead_worker_count(self) -> int:
        with self._lock:
            return len(self._dead_workers)

    def results_in_order(self) -> List[CompilationResult]:
        with self._lock:
            missing = [i for i in range(len(self._specs)) if i not in self._results]
            if missing:
                raise RuntimeError(
                    f"dispatch run incomplete: cells {missing} never finished"
                )
            return [self._results[i] for i in range(len(self._specs))]

    # -- internals (call with the lock held) -----------------------------
    def _reap_locked(self, now: float) -> None:
        for lease_id in [
            lid for lid, lease in self._active.items() if lease.deadline <= now
        ]:
            lease = self._active.pop(lease_id)
            self._pending.append((lease.index, lease.attempt))
            self.reassigned += 1
            self._dead_workers.add(lease.worker)

    def _queue_retries_locked(self) -> None:
        # Straggler pass, queue-shaped: once nothing is pending or active,
        # timeout cells whose budget is not exhausted go back in the queue
        # with a bumped attempt (and, via retry_spec, a scaled budget).
        if self._pending or self._active:
            return
        for i in range(len(self._specs)):
            result = self._results.get(i)
            if result is None or result.status != "timeout" or i in self._inflight:
                continue
            used = max(
                self._attempts_used.get(i, 0),
                int((result.extra or {}).get("retries", 0) or 0),
            )
            if used < self._retry_timeouts:
                self._pending.append((i, used + 1))
                self._inflight.add(i)
                self.retried += 1

    def _done_locked(self) -> bool:
        return (
            not self._pending
            and not self._active
            and len(self._results) == len(self._specs)
        )


# ---------------------------------------------------------------------------
# The worker (client side)
# ---------------------------------------------------------------------------

#: exception types treated as transient connection trouble (retried with
#: backoff); HTTP *status* errors are protocol bugs and are not retried.
_TRANSIENT_ERRORS = (
    urllib.error.URLError,
    http.client.HTTPException,
    ConnectionError,
    TimeoutError,
    socket.timeout,
)


class DispatchClient:
    """Tiny JSON-over-POST client with capped exponential backoff + jitter.

    Transient connection failures (dispatcher restarting, dropped response,
    network hiccup) are retried up to ``max_tries`` times with delays
    ``backoff_base_s * 2**n`` capped at ``backoff_cap_s``, each scaled by a
    deterministic jitter drawn from a per-worker seeded RNG -- a thousand
    workers recovering from one dispatcher blip must not stampede it in
    lockstep, and a re-run must still behave identically.
    """

    def __init__(
        self,
        url: str,
        worker: str,
        *,
        timeout_s: float = 10.0,
        max_tries: int = 8,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
    ) -> None:
        import random  # seeded instance only; never the global generator

        self.url = url.rstrip("/")
        self.worker = worker
        self._timeout_s = timeout_s
        self._max_tries = max(1, int(max_tries))
        self._base = backoff_base_s
        self._cap = backoff_cap_s
        self._rng = random.Random(zlib.crc32(worker.encode()))
        self.retries = 0  # transient errors survived (for tests/monitoring)

    def backoff_s(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (1-based): capped doubling + jitter."""

        raw = min(self._cap, self._base * (2 ** (attempt - 1)))
        return raw * (0.5 + 0.5 * self._rng.random())

    def post(self, path: str, payload: Dict[str, object]) -> Dict[str, object]:
        body = json.dumps(payload).encode()
        last_error: Optional[Exception] = None
        for attempt in range(self._max_tries):
            if attempt:
                time.sleep(self.backoff_s(attempt))
            try:
                request = urllib.request.Request(
                    self.url + path,
                    data=body,
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(
                    request, timeout=self._timeout_s
                ) as response:
                    return json.loads(response.read().decode())
            except urllib.error.HTTPError as exc:
                # A *status* error means the dispatcher answered: retrying
                # the same bad request cannot help.
                raise DispatchError(
                    f"dispatcher rejected {path}: HTTP {exc.code} {exc.reason}"
                ) from exc
            except _TRANSIENT_ERRORS as exc:
                last_error = exc
                self.retries += 1
        raise DispatchUnreachable(
            f"dispatcher at {self.url} unreachable after {self._max_tries} "
            f"tries to {path}: {last_error!r}"
        )


def _heartbeat_loop(
    client: DispatchClient,
    lease_id: str,
    interval_s: float,
    stop: threading.Event,
    frozen: Callable[[], bool],
) -> None:
    """Background beats for one lease until ``stop`` is set.

    A frozen worker (chaos: ``freeze-heartbeat``) keeps computing but stops
    beating -- exactly the "hung but alive" failure the dispatcher must
    steal work back from.  Heartbeat delivery failures are deliberately
    non-fatal: the compute thread owns the cell; worst case the lease
    expires and the eventual submit is rejected as stale.
    """

    while not stop.wait(interval_s):
        if frozen():
            continue
        try:
            reply = client.post("/heartbeat", {"worker": client.worker, "lease": lease_id})
        except DispatchError:
            continue  # transient outage or protocol trouble: keep computing
        if not reply.get("ok"):
            return  # lease is gone; beating harder will not bring it back


def run_worker(
    url: str,
    *,
    worker_id: Optional[str] = None,
    heartbeat_s: Optional[float] = None,
    max_cells: Optional[int] = None,
) -> Dict[str, int]:
    """Join a dispatcher and compute leased cells until the run completes.

    This is the whole worker: lease, heartbeat while computing, submit,
    repeat until a reply says the run is done.  Transient dispatcher
    trouble is retried with backoff by the client; a cell whose compute
    raises is reported as a typed ``error`` result (a systematically-crashing
    cell must not crash-loop the fleet).
    Returns counters: cells computed, stale results discarded, leases seen.
    """

    worker = worker_id or f"{socket.gethostname()}-{os.getpid()}"
    client = DispatchClient(url, worker)
    cfg = chaos.active()
    hello = client.post("/join", {"worker": worker})
    beat_s = heartbeat_s if heartbeat_s else float(hello.get("heartbeat_s", 1.0))

    computed = stale = leased = 0
    frozen = False
    while True:
        reply = client.post("/lease", {"worker": worker})
        lease = reply.get("lease")
        if not isinstance(lease, dict):
            if reply.get("done"):
                break
            time.sleep(float(reply.get("retry_after_s", 0.05)))
            continue
        ordinal = leased
        leased += 1
        spec = spec_from_wire(lease["spec"])  # type: ignore[arg-type]
        lease_id = str(lease["id"])

        if cfg.fires("kill-worker", worker=worker, cell=ordinal):
            chaos.kill_self()  # pragma: no cover - the process dies here
        if cfg.fires("freeze-heartbeat", worker=worker, cell=ordinal):
            frozen = True

        stop = threading.Event()
        beater = threading.Thread(
            target=_heartbeat_loop,
            args=(client, lease_id, beat_s, stop, lambda: frozen),
            name=f"heartbeat-{worker}",
            daemon=True,
        )
        beater.start()
        try:
            stall = cfg.fires("stall", worker=worker, cell=ordinal)
            if stall is not None:
                time.sleep(float(stall.get("s", 0.5)))
            try:
                result = _run_spec(spec)
            except Exception as exc:
                # A raising cell is a harness bug, but crash-looping every
                # worker on it would take the whole run down; surface it as
                # a typed error row instead.
                result = CompilationResult(
                    approach=spec.rename or spec.approach,
                    architecture=f"{spec.kind} {spec.size}",
                    num_qubits=0,
                    status="error",
                    message=f"worker exception: {exc}",
                    workload=spec.workload,
                )
        finally:
            stop.set()
        beater.join(timeout=5.0)

        reply = client.post(
            "/result",
            {"worker": worker, "lease": lease_id, "result": result.to_dict()},
        )
        if reply.get("accepted"):
            computed += 1
        else:
            stale += 1
        # The reply to the run's last result carries ``done``; asking for
        # another lease after it would race the dispatcher's shutdown.
        if reply.get("done") or (max_cells is not None and leased >= max_cells):
            break
    return {"cells": computed, "stale": stale, "leased": leased}


def _worker_process_entry(
    url: str, worker_id: str, heartbeat_s: Optional[float]
) -> None:
    """Entry point for executor-spawned worker processes."""

    chaos.reload()  # fresh fire counters; a fork must not inherit the parent's
    run_worker(url, worker_id=worker_id, heartbeat_s=heartbeat_s)


# ---------------------------------------------------------------------------
# The executor: server + supervised local worker fleet
# ---------------------------------------------------------------------------


class _WorkerFleet:
    """Spawns, watches, and (bounded) respawns local worker processes."""

    def __init__(
        self,
        url: str,
        count: int,
        *,
        heartbeat_s: Optional[float],
        max_respawns: int,
    ) -> None:
        self._url = url
        self._heartbeat_s = heartbeat_s
        self._mp = multiprocessing.get_context()
        self._procs: Dict[str, multiprocessing.process.BaseProcess] = {}
        self._next_id = 0
        self._respawns_left = max_respawns
        self.crashed = 0
        for _ in range(count):
            self._spawn_one()

    def _spawn_one(self) -> None:
        worker_id = f"w{self._next_id}"
        self._next_id += 1
        proc = self._mp.Process(
            target=_worker_process_entry,
            args=(self._url, worker_id, self._heartbeat_s),
            name=f"repro-dispatch-{worker_id}",
            daemon=True,
        )
        proc.start()
        self._procs[worker_id] = proc

    def supervise(self, *, run_done: bool) -> None:
        """Reap exited workers; respawn crashed ones while work remains."""

        for worker_id, proc in list(self._procs.items()):
            if proc.is_alive():
                continue
            del self._procs[worker_id]
            if proc.exitcode != 0:
                self.crashed += 1
                if not run_done:
                    if self._respawns_left <= 0:
                        raise RuntimeError(
                            f"dispatch worker {worker_id} crashed "
                            f"(exit {proc.exitcode}) and the respawn budget "
                            "is exhausted; aborting instead of hanging"
                        )
                    self._respawns_left -= 1
                    self._spawn_one()

    @property
    def live(self) -> int:
        return sum(1 for p in self._procs.values() if p.is_alive())

    def drain(self, timeout_s: float = 30.0) -> None:
        """Wait for clean exits; terminate anything still wedged."""

        deadline = time.monotonic() + timeout_s
        for proc in self._procs.values():
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for proc in self._procs.values():
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        self._procs.clear()


@register_executor("dispatch", synonyms=("dispatcher", "work-stealing"))
class DispatchExecutor(Executor):
    """Fault-tolerant work-stealing execution over a lease queue.

    Runs the :class:`DispatchServer` in-process (HTTP on localhost by
    default) and spawns ``ctx.jobs`` local worker processes that join it;
    external workers may join the same queue with
    ``python -m repro.eval --join URL``.  Leases expire on missed
    heartbeats, expired cells are reassigned, crashed local workers are
    respawned under a bounded budget, timeouts are re-queued within their
    retry budget, and the dispatcher is the single run-record writer -- so
    ``--store``/``--resume`` behave exactly as under the local executors,
    with two extra accounting columns (``reassigned``, ``dead_workers``) in
    the report.

    ``ctx.dispatch_opts`` (all optional): ``host``/``port`` (default
    localhost, ephemeral), ``lease_s`` (default 30), ``heartbeat_s``
    (default ``lease_s/4``), ``spawn_workers`` (default ``ctx.jobs``; 0 =
    serve only, wait for external workers), ``on_start`` (callable invoked
    with the bound URL), ``max_respawns`` (default ``2 * workers``).
    """

    def run(self, specs, ctx):
        opts = dict(ctx.dispatch_opts or {})
        lease_s = float(opts.get("lease_s", 30.0))
        heartbeat_s = opts.get("heartbeat_s")
        heartbeat_s = float(heartbeat_s) if heartbeat_s else None
        spawn = opts.get("spawn_workers")
        spawn = ctx.jobs if spawn is None else int(spawn)
        on_start = opts.get("on_start")

        recorder = ctx.recorder
        keys = [cell_key(spec) for spec in specs]
        skip: Dict[int, CompilationResult] = {}
        resumed_retry_attempts: Dict[int, int] = {}
        for i, key in enumerate(keys):
            if key in ctx.resumed:
                skip[i] = ctx.resumed[key]
                if skip[i].status == "timeout":
                    resumed_retry_attempts[i] = int(
                        (skip[i].extra or {}).get("retries", 0) or 0
                    )
        resumed_count = len(skip)

        # Cache hits are resolved dispatcher-side before anything is queued
        # (and recorded, so a resume sees them); workers only ever see true
        # misses.
        if ctx.cache is not None:
            for i, spec in enumerate(specs):
                if i in skip:
                    continue
                hit = ctx.cache.get(
                    ctx.cache.key(
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
                )
                if hit is not None:
                    skip[i] = hit
                    if recorder is not None:
                        recorder.append(keys[i], hit)

        server = DispatchServer(
            specs,
            keys=keys,
            skip=skip,
            resumed_retry_attempts=resumed_retry_attempts,
            recorder=recorder,
            cache=ctx.cache,
            lease_s=lease_s,
            heartbeat_s=heartbeat_s,
            retry_timeouts=ctx.retry_timeouts,
            retry_timeout_multiplier=ctx.retry_timeout_multiplier,
            host=str(opts.get("host", "127.0.0.1")),
            port=int(opts.get("port", 0)),
        )
        server.start()
        fleet: Optional[_WorkerFleet] = None
        try:
            if callable(on_start):
                on_start(server.url)
            if spawn > 0:
                fleet = _WorkerFleet(
                    server.url,
                    spawn,
                    heartbeat_s=heartbeat_s,
                    max_respawns=int(opts.get("max_respawns", 2 * spawn)),
                )
            while not server.done():
                server.reap()
                if fleet is not None:
                    fleet.supervise(run_done=False)
                time.sleep(0.02)
            if fleet is not None:
                fleet.supervise(run_done=True)
                fleet.drain()
        finally:
            if fleet is not None:
                fleet.drain(timeout_s=5.0)
            server.stop()

        return ExecutionOutcome(
            server.results_in_order(),
            resumed=resumed_count,
            retried=server.retried,
            recovered=server.recovered,
            reassigned=server.reassigned,
            dead_workers=server.dead_worker_count,
        )
