"""The asyncio compilation service: batching front end over warm workers.

One event loop owns everything client-facing: a minimal HTTP/1.1 JSON
protocol (stdlib streams, async so thousands of waiting clients cost a
coroutine each, not a thread each), the admission queue, the in-memory
LRU, and the batcher.  Compilation itself happens in the shared
:class:`~repro.eval.workers.WarmWorkerPool` running
:func:`~repro.serve.pool.serve_task` -- forked processes that hold
prewarmed topology tables -- so the loop never blocks on a mapper.

Request lifecycle::

    POST /v1/compile
      -> parse + strict-validate (ApiError/UnknownNameError -> 400 + hints)
      -> draining?                     -> 503 + Retry-After
      -> LRU hit?                      -> 200 (cache="lru"), body stored
      -> store hit? (--store DB)       -> 200 (cache="store"), LRU warmed
      -> admission: inflight >= cap    -> 429 + Retry-After
      -> queue; if a worker is idle, the queue is flushed at once: grouped
         by topology (the sweep grouping, applied online) and submitted to
         the pool in chunks of at most max_batch
      -> worker computes -> 200, ok rows populate LRU + store; the freed
         worker takes the next flush

Dispatch is on idle, not on a timer: a request that finds a worker idle is
submitted in the loop turn it arrives in, and requests coalesce into
batches only while every worker is busy -- they are flushed together when
a batch finishes.  So batching forms under load and costs nothing at low
load.  A request whose ``Content-Length`` is not a non-negative integer is
answered 400, and one above :data:`MAX_BODY_BYTES` 413 without its body
being read.  After such an answer the server half-closes the connection and
drops what the client still sends (bounded in bytes and seconds) before it
closes, so the client reads the answer instead of a reset.

Backpressure is by *bounded inflight count*: the queue cap counts queued +
batched-but-unfinished requests, so a stalled pool turns arrivals away with
429 instead of accumulating unbounded futures.  Graceful drain (SIGTERM /
``stop()``): new requests get 503, every accepted request is answered, then
the pool is dismissed -- drain-without-loss is a test invariant.

Per-request ``timeout_s`` is :func:`repro.compile`'s cooperative budget
(:func:`repro.utils.cell_budget` inside the worker), so a runaway cell
yields a typed ``status == "timeout"`` response, never a hung connection.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..registry import UnknownNameError
from .api import API_VERSION, ApiError, CompileRequest, CompileResponse
from .lru import LRUCache
from .pool import PoolShutdown, WarmWorkerPool, serve_task

__all__ = ["ServeConfig", "CompileService"]

#: largest request body the server reads (a compile request is ~200 bytes)
MAX_BODY_BYTES = 1 << 20
#: after answering a request it did not read, the server drops at most this
#: many further bytes, for at most this long, before it closes the connection
_DISCARD_MAX_BYTES = 4 << 20
_DISCARD_MAX_S = 2.0

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _PoolFailure(RuntimeError):
    """A batch failed at the pool layer (crash budget exhausted)."""


class _BadFraming(ValueError):
    """The request head is unusable; answered with ``status``, unread."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One line of the request head; a line past the reader's limit is a 431."""

    try:
        return await reader.readline()
    except ValueError:  # asyncio's LimitOverrunError, re-raised by readline
        raise _BadFraming(
            431, "request line or header exceeds the 64 KiB line limit"
        ) from None


async def _discard_rest(reader: asyncio.StreamReader, writer) -> None:
    """Half-close after an answer to an unread request, then read and drop
    what the client still sends, up to ``_DISCARD_MAX_BYTES`` or
    ``_DISCARD_MAX_S``.

    Closing a socket with unread input makes the kernel send a reset, which
    can destroy the answer before the client reads it.
    """

    loop = asyncio.get_running_loop()
    deadline = loop.time() + _DISCARD_MAX_S
    left = _DISCARD_MAX_BYTES
    try:
        writer.write_eof()
        while left > 0 and loop.time() < deadline:
            chunk = await asyncio.wait_for(
                reader.read(min(left, 1 << 16)), deadline - loop.time()
            )
            if not chunk:
                return
            left -= len(chunk)
    except (OSError, asyncio.TimeoutError):
        return  # the client went away or kept sending too long


def _encode(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True).encode()


@dataclass
class ServeConfig:
    """Knobs of one :class:`CompileService` instance.

    Batching has no timer to tune: requests coalesce only while every
    worker is busy, bounded by ``max_batch`` per batch.
    """

    host: str = "127.0.0.1"
    port: int = 0  #: 0 = ephemeral; the bound port is ``service.port``
    workers: int = 2
    #: largest batch handed to one worker at once; bounds a flush under
    #: load, when requests queued behind busy workers coalesce
    max_batch: int = 8
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
            task=serve_task,
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
        self, batch_id: int, rows: List[dict], error: Optional[BaseException]
    ) -> None:
        """Supervisor-thread callback: trampoline into the event loop."""

        self._loop.call_soon_threadsafe(self._finish_batch, batch_id, rows, error)

    def _finish_batch(
        self, batch_id: int, rows: List[dict], error: Optional[BaseException]
    ) -> None:
        chunk = self._batches.pop(batch_id, None)
        if chunk is not None:
            self._answer(chunk, rows, error)
        self._flush()  # a worker just freed up: hand it what queued meanwhile

    def _answer(
        self,
        chunk: List[Tuple[CompileRequest, asyncio.Future]],
        rows: List[dict],
        error: Optional[BaseException],
    ) -> None:
        """Resolve one finished batch's futures with their responses."""

        if error is not None:
            self.counters["pool_failures"] += 1
            for _, fut in chunk:
                if not fut.done():
                    fut.set_exception(
                        _PoolFailure(f"{type(error).__name__}: {error}")
                    )
            return
        from ..eval.metrics import CompilationResult

        for (request, fut), row in zip(chunk, rows):
            result = CompilationResult.from_dict(row)
            response = CompileResponse.from_result(result).to_dict()
            if result.ok:
                # Mirror the batch harness: only ok cells are cacheable
                # (timeouts depend on the machine, errors on the moment).
                key = self._key_for(request)
                self._remember(key, response)
                if self._cache is not None:
                    self._cache.put(key, result)
            self.counters["computed"] += 1
            if not fut.done():
                fut.set_result(response)

    def _remember(self, key: str, response: dict) -> None:
        """Keep the encoded ``cache="lru"`` answer to ``key``: a later hit
        writes these bytes as they are."""

        self._lru.put(key, _encode({**response, "cache": "lru"}))

    # -- batching ----------------------------------------------------------
    def _flush(self) -> None:
        """Submit the whole queue, grouped by topology, if a worker is idle.

        Runs on every arrival and on every finished batch, so a request
        that finds a worker idle is submitted at once, and requests queued
        while every worker was busy coalesce into the next flush.
        """

        if not self._queue or not self._pool.has_idle_worker():
            return
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
            try:
                parsed = await self._read_request(reader)
            except _BadFraming as exc:
                payload = {"error": str(exc), "api_version": API_VERSION}
                self._write_response(writer, exc.status, payload, None)
                await writer.drain()
                await _discard_rest(reader, writer)
                return
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
        line = await _read_line(reader)
        if not line:
            return None  # the client went away before sending anything
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            raise _BadFraming(400, "request line needs a method and a path")
        method, path = parts[0].upper(), parts[1]
        length = 0
        while True:
            header = await _read_line(reader)
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    length = -1
        if length < 0:
            raise _BadFraming(400, "Content-Length must be a non-negative integer")
        if length > MAX_BODY_BYTES:
            raise _BadFraming(
                413,
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
        body = await reader.readexactly(length) if length else b""
        return method, path, body

    @staticmethod
    def _write_response(
        writer, status: int, payload: Union[dict, bytes], retry_after: Optional[int]
    ) -> None:
        """``payload`` is a JSON object, or an LRU hit's stored body."""

        body = payload if isinstance(payload, bytes) else _encode(payload)
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
    ) -> Tuple[int, Union[dict, bytes], Optional[int]]:
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

    async def _compile(
        self, body: bytes
    ) -> Tuple[int, Union[dict, bytes], Optional[int]]:
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
        hit = self._lru.get(key)
        if hit is not None:
            self.counters["lru_hits"] += 1
            return 200, hit, None
        if self._cache is not None:
            cached = self._cache.get(key)
            if cached is not None:
                self.counters["store_hits"] += 1
                cached.extra.pop("cache", None)
                response = CompileResponse.from_result(cached, cache="store").to_dict()
                self._remember(key, response)
                return 200, response, None
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
        self._flush()
        try:
            return 200, await fut, None
        except _PoolFailure as exc:
            return 503, {"error": str(exc), "api_version": API_VERSION}, retry_after

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
