"""The asyncio compilation service: batching front end over warm workers.

One event loop owns everything client-facing: a minimal HTTP/1.1 JSON
protocol (stdlib streams, same spirit as the dispatcher's
``ThreadingHTTPServer`` protocol, but async so thousands of waiting clients
cost a coroutine each, not a thread each), the admission queue, the
in-memory LRU, and the batcher.  Compilation itself happens in the
:class:`~repro.serve.pool.WarmWorkerPool` -- forked processes that hold
prewarmed topology tables -- so the loop never blocks on a mapper.

Request lifecycle::

    POST /v1/compile
      -> parse + strict-validate (ApiError/UnknownNameError -> 400 + hints)
      -> draining?                     -> 503 + Retry-After
      -> LRU hit?                      -> 200 (cache="lru")
      -> store hit? (--store DB)       -> 200 (cache="store"), LRU warmed
      -> admission: inflight >= cap    -> 429 + Retry-After
      -> queue; the batcher sleeps one batching window, groups the queue
         by topology (the sweep grouping of PR 2/4, applied online), and
         submits per-group chunks to the pool
      -> worker computes -> 200, ok rows populate LRU + store

Backpressure is by *bounded inflight count*: the queue cap counts queued +
batched-but-unfinished requests, so a stalled pool turns arrivals away with
429 instead of accumulating unbounded futures.  Graceful drain (SIGTERM /
``stop()``): new requests get 503, every accepted request is answered, then
the pool is dismissed -- drain-without-loss is a test invariant.

Per-request ``timeout_s`` rides the existing harness budget
(:func:`repro.utils.cell_budget` inside the worker), so a runaway cell
yields a typed ``status == "timeout"`` response, never a hung connection.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..registry import UnknownNameError
from .api import API_VERSION, ApiError, CompileRequest, CompileResponse
from .lru import LRUCache
from .pool import PoolShutdown, WarmWorkerPool

__all__ = ["ServeConfig", "CompileService"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _PoolFailure(RuntimeError):
    """A batch failed at the pool layer (crash budget exhausted)."""


@dataclass
class ServeConfig:
    """Knobs of one :class:`CompileService` instance."""

    host: str = "127.0.0.1"
    port: int = 0  #: 0 = ephemeral; the bound port is ``service.port``
    workers: int = 2
    #: how long the batcher waits after the first arrival before flushing --
    #: the window in which concurrent requests coalesce into one batch
    batch_window_s: float = 0.01
    max_batch: int = 8  #: largest batch handed to one worker at once
    #: admission cap: queued + in-flight requests beyond this are 429'd
    max_queue: int = 64
    lru_size: int = 256  #: in-memory hot-set entries (0 disables)
    store: Optional[str] = None  #: ``.db`` path for persistent cache hits
    #: server-side default for requests that carry no ``timeout_s``
    default_timeout_s: Optional[float] = None
    #: topologies every worker warms before the server accepts traffic
    prewarm: Sequence[Tuple[str, int]] = ()
    drain_timeout_s: float = 30.0
    ready_timeout_s: float = 120.0
    retry_after_s: int = 1  #: advisory Retry-After on 429/503
    max_respawns: Optional[int] = None  #: worker crash budget (pool default)


class CompileService:
    """The serving state machine; ``start()``/``stop()`` from one loop."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool: Optional[WarmWorkerPool] = None
        self._cache = None  # ResultCache over --store, if configured
        self._lru = LRUCache(self.config.lru_size)
        self._queue: List[Tuple[CompileRequest, asyncio.Future]] = []
        self._batches: Dict[int, List[Tuple[CompileRequest, asyncio.Future]]] = {}
        self._wake = asyncio.Event()
        self._batcher: Optional[asyncio.Task] = None
        self._draining = False
        self._stopping = False
        self._stopped = asyncio.Event()
        self.counters: Dict[str, int] = {
            "requests": 0,
            "computed": 0,
            "lru_hits": 0,
            "store_hits": 0,
            "batches": 0,
            "rejected_400": 0,
            "rejected_429": 0,
            "rejected_503": 0,
            "pool_failures": 0,
        }

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        """Fork + prewarm the pool, then bind and start serving."""

        self._loop = asyncio.get_running_loop()
        # Workers fork *before* the store's SQLite handle exists: forked
        # children must never inherit an open database connection.
        self._pool = WarmWorkerPool(
            self.config.workers,
            on_result=self._pool_result,
            prewarm=self.config.prewarm,
            max_respawns=self.config.max_respawns,
        )
        ready = await self._loop.run_in_executor(
            None, self._pool.wait_ready, self.config.ready_timeout_s
        )
        if not ready:
            self._pool.close(drain=False)
            raise RuntimeError("worker pool failed to come up (prewarm hang?)")
        if self.config.store:
            from ..eval.cache import ResultCache

            self._cache = ResultCache(Path(self.config.store))
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._batcher = asyncio.create_task(self._batch_loop())

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT trigger a graceful drain (main thread only)."""

        import signal

        if self._loop is None:
            raise RuntimeError("install_signal_handlers requires start() first")
        for signum in (signal.SIGTERM, signal.SIGINT):
            self._loop.add_signal_handler(
                signum, lambda: asyncio.ensure_future(self.stop())
            )

    async def stop(self) -> None:
        """Drain: 503 new arrivals, answer everything accepted, shut down."""

        if self._stopping:
            await self._stopped.wait()
            return
        self._stopping = True
        self._draining = True
        deadline = self._loop.time() + self.config.drain_timeout_s
        while self._inflight() and self._loop.time() < deadline:
            await asyncio.sleep(0.02)
        if self._batcher is not None:
            self._batcher.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._pool is not None:
            await self._loop.run_in_executor(
                None,
                lambda: self._pool.close(
                    drain=True, timeout_s=self.config.drain_timeout_s
                ),
            )
        if self._cache is not None:
            self._cache.close()
        self._stopped.set()

    async def run_until_stopped(self) -> None:
        await self._stopped.wait()

    # -- pool results ------------------------------------------------------
    def _pool_result(
        self, batch_id: int, rows: Optional[List[dict]], error: Optional[str]
    ) -> None:
        """Pump-thread callback: trampoline into the event loop."""

        self._loop.call_soon_threadsafe(self._finish_batch, batch_id, rows, error)

    def _finish_batch(
        self, batch_id: int, rows: Optional[List[dict]], error: Optional[str]
    ) -> None:
        chunk = self._batches.pop(batch_id, None)
        if chunk is None:
            return
        if rows is None:
            self.counters["pool_failures"] += 1
            for _, fut in chunk:
                if not fut.done():
                    fut.set_exception(_PoolFailure(error or "pool failure"))
            return
        for (request, fut), row in zip(chunk, rows):
            if row.get("status") == "ok":
                # Mirror the batch harness: only ok cells are cacheable
                # (timeouts depend on the machine, errors on the moment).
                key = self._key_for(request)
                self._lru.put(key, row)
                if self._cache is not None:
                    from ..eval.metrics import CompilationResult

                    self._cache.put(key, CompilationResult.from_dict(row))
            self.counters["computed"] += 1
            if not fut.done():
                fut.set_result(row)

    # -- batching ----------------------------------------------------------
    async def _batch_loop(self) -> None:
        """Coalesce the live queue into topology-grouped pool batches."""

        while True:
            await self._wake.wait()
            self._wake.clear()
            if not self._queue:
                continue
            # The batching window: arrivals during this sleep join the
            # flush, which is where concurrent same-topology requests
            # coalesce into one warm-worker batch.
            await asyncio.sleep(self.config.batch_window_s)
            pending, self._queue = self._queue, []
            groups: Dict[Tuple[str, int], List] = {}
            for item in pending:
                groups.setdefault(item[0].group_key(), []).append(item)
            for group in sorted(groups):
                items = groups[group]
                for lo in range(0, len(items), self.config.max_batch):
                    chunk = items[lo : lo + self.config.max_batch]
                    try:
                        batch_id = self._pool.submit([r for r, _ in chunk])
                    except PoolShutdown as exc:
                        for _, fut in chunk:
                            if not fut.done():
                                fut.set_exception(_PoolFailure(str(exc)))
                        continue
                    self._batches[batch_id] = chunk
                    self.counters["batches"] += 1

    def _inflight(self) -> int:
        return len(self._queue) + sum(len(c) for c in self._batches.values())

    def _key_for(self, request: CompileRequest) -> str:
        """Cache key; via :meth:`ResultCache.key` when a store is attached
        (that key carries the identity columns the store indexes), plain
        :func:`cell_cache_key` otherwise -- both derive the identical key
        string."""

        if self._cache is not None:
            return self._cache.key(
                request.approach,
                request.architecture,
                request.size,
                kwargs=request.identity_kwargs(),
                timeout_s=request.timeout_s,
                workload=request.workload,
                workload_params=tuple(request.workload_params.items()),
                verify=request.verify_policy(),
            )
        return request.cache_key()

    # -- request handling --------------------------------------------------
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            parsed = await self._read_request(reader)
            if parsed is None:
                return
            method, path, body = parsed
            status, payload, retry_after = await self._route(method, path, body)
            self._write_response(writer, status, payload, retry_after)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _read_request(reader) -> Optional[Tuple[str, str, bytes]]:
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, path = parts[0].upper(), parts[1]
        length = 0
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    length = 0
        body = await reader.readexactly(length) if length else b""
        return method, path, body

    @staticmethod
    def _write_response(
        writer, status: int, payload: dict, retry_after: Optional[int]
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if retry_after is not None:
            head += f"Retry-After: {retry_after}\r\n"
        head += "Connection: close\r\n\r\n"
        writer.write(head.encode("latin-1") + body)

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, dict, Optional[int]]:
        if path == "/v1/compile":
            if method != "POST":
                return 405, {"error": "POST only"}, None
            return await self._compile(body)
        if path == "/v1/health" and method == "GET":
            status = "draining" if self._draining else "ok"
            return 200, {"status": status, "api_version": API_VERSION}, None
        if path == "/v1/stats" and method == "GET":
            return 200, self.stats(), None
        return 404, {"error": f"unknown endpoint {method} {path}"}, None

    async def _compile(self, body: bytes) -> Tuple[int, dict, Optional[int]]:
        self.counters["requests"] += 1
        retry_after = self.config.retry_after_s
        try:
            request = CompileRequest.from_json(body)
            if request.timeout_s is None:
                request.timeout_s = self.config.default_timeout_s
            request = request.normalized()
        except (ApiError, UnknownNameError, ValueError) as exc:
            self.counters["rejected_400"] += 1
            return 400, {"error": str(exc), "api_version": API_VERSION}, None
        if self._draining:
            self.counters["rejected_503"] += 1
            return (
                503,
                {"error": "server is draining", "api_version": API_VERSION},
                retry_after,
            )
        key = self._key_for(request)
        row = self._lru.get(key)
        if row is not None:
            self.counters["lru_hits"] += 1
            return 200, self._response_for(row, cache="lru"), None
        if self._cache is not None:
            cached = self._cache.get(key)
            if cached is not None:
                self.counters["store_hits"] += 1
                row = cached.to_dict()
                row.get("extra", {}).pop("cache", None)
                self._lru.put(key, row)
                return 200, self._response_for(row, cache="store"), None
        if self._inflight() >= self.config.max_queue:
            self.counters["rejected_429"] += 1
            return (
                429,
                {
                    "error": (
                        f"admission queue full "
                        f"({self.config.max_queue} requests in flight)"
                    ),
                    "api_version": API_VERSION,
                },
                retry_after,
            )
        fut = self._loop.create_future()
        self._queue.append((request, fut))
        self._wake.set()
        try:
            row = await fut
        except _PoolFailure as exc:
            return 503, {"error": str(exc), "api_version": API_VERSION}, retry_after
        return 200, self._response_for(row, cache=None), None

    @staticmethod
    def _response_for(row: dict, *, cache: Optional[str]) -> dict:
        from ..eval.metrics import CompilationResult

        result = CompilationResult.from_dict(dict(row))
        return CompileResponse.from_result(result, cache=cache).to_dict()

    # -- introspection -----------------------------------------------------
    def stats(self) -> Dict[str, object]:
        data: Dict[str, object] = dict(self.counters)
        data["api_version"] = API_VERSION
        data["inflight"] = self._inflight()
        data["draining"] = self._draining
        data["lru"] = self._lru.stats()
        if self._pool is not None:
            data["pool"] = self._pool.stats()
        return data
