"""Persistent connections: the server answers request after request on one
connection and closes it only when it should, and ``ServeClient`` reuses
its idle connections, safely across threads."""

from __future__ import annotations

import asyncio
import gc
import json
import logging
import select
import sys
import threading
import time
import warnings

import pytest

from repro.eval.chaos import ENV_VAR as CHAOS_ENV
from repro.serve import ServeClient, ServeConfig
from repro.serve import server as server_module

_HEALTH = b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n"
_COMPILE = dict(workload="qft", architecture="grid", size=4, approach="sabre")


def _post(payload: dict) -> bytes:
    body = json.dumps(payload).encode()
    return (
        b"POST /v1/compile HTTP/1.1\r\nHost: x\r\n"
        b"Content-Length: %d\r\n\r\n" % len(body) + body
    )


async def _answer(reader):
    """One response off a connection, read by its ``Content-Length`` (not to
    the end of the stream): (status, body dict, headers dict)."""

    head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), 30.0)
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        if line:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers["content-length"]))
    return int(lines[0].split()[1]), json.loads(body), headers


async def _eof(reader, timeout_s: float = 5.0) -> bytes:
    """What the server sends until it closes the connection."""

    return await asyncio.wait_for(reader.read(), timeout_s)


async def _close(writer) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):  # pragma: no cover - teardown race
        pass


def test_two_requests_on_one_connection_are_both_answered(run_service):
    async def scenario(service):
        reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
        answers = []
        for request in (_HEALTH, b"GET /v1/stats HTTP/1.1\r\nHost: x\r\n\r\n"):
            writer.write(request)
            await writer.drain()
            answers.append(await _answer(reader))
        await _close(writer)
        return answers

    (s1, b1, h1), (s2, b2, h2) = run_service(ServeConfig(workers=1), scenario)
    assert (s1, b1["status"]) == (200, "ok")
    assert s2 == 200 and "requests" in b2
    assert "connection" not in h1 and "connection" not in h2


@pytest.mark.parametrize(
    "request_head",
    [
        b"GET /v1/health HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        b"GET /v1/health HTTP/1.0\r\n\r\n",
    ],
    ids=["connection-close", "http-1.0"],
)
def test_close_requested_or_http10_is_answered_then_closed(run_service, request_head):
    async def scenario(service):
        reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
        writer.write(request_head)
        await writer.drain()
        answer = await _answer(reader)
        rest = await _eof(reader)
        await _close(writer)
        return answer, rest

    (status, _, headers), rest = run_service(ServeConfig(workers=1), scenario)
    assert status == 200
    assert headers["connection"] == "close"
    assert rest == b""


@pytest.mark.parametrize(
    "request_head, status",
    [
        (b"GET\r\nHost: x\r\n\r\n", 400),
        (b"POST /v1/compile HTTP/1.1\r\nHost: x\r\nContent-Length: -5\r\n\r\n", 400),
        (
            b"POST /v1/compile HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n"
            % (server_module.MAX_BODY_BYTES + 1),
            413,
        ),
        (b"GET /v1/health HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n", 431),
    ],
    ids=["no-path", "negative-length", "too-large", "long-header"],
)
def test_framing_error_closes_the_connection(run_service, request_head, status):
    """An HTTP/1.1 request that does not ask to close still gets its framing
    error answered with ``Connection: close``, then the end of the stream."""

    async def scenario(service):
        reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
        writer.write(request_head)
        await writer.drain()
        answer = await _answer(reader)
        rest = await _eof(reader)
        await _close(writer)
        return answer, rest

    (got, _, headers), rest = run_service(ServeConfig(workers=1), scenario)
    assert got == status
    assert headers["connection"] == "close"
    assert rest == b""


def test_stop_closes_an_idle_kept_connection(run_service, monkeypatch):
    """The server itself closes the idle connection at drain, so ``stop()``
    returns at once on every Python (from 3.12.1, ``wait_closed()`` would
    wait for this connection)."""

    monkeypatch.setattr(server_module, "_IDLE_TIMEOUT_S", 300.0)

    async def scenario(service):
        reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
        writer.write(_HEALTH)
        await writer.drain()
        _, _, headers = await _answer(reader)
        t0 = time.perf_counter()
        await asyncio.wait_for(service.stop(), service.config.drain_timeout_s)
        stop_s = time.perf_counter() - t0
        rest = await _eof(reader)
        await _close(writer)
        return headers, stop_s, rest

    config = ServeConfig(workers=1, drain_timeout_s=10.0)
    headers, stop_s, rest = run_service(config, scenario)
    assert "connection" not in headers  # kept open after the answer
    assert stop_s < 10.0
    assert rest == b""  # closed by the server, long before its idle timeout


def test_request_on_a_kept_connection_during_drain_gets_503_and_close(run_service):
    async def scenario(service):
        reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
        writer.write(_HEALTH)
        await writer.drain()
        first = await _answer(reader)
        service._draining = True  # the window between SIGTERM and shutdown
        writer.write(_post({**_COMPILE, "options": {"seed": 1}}))
        await writer.drain()
        second = await _answer(reader)
        rest = await _eof(reader)
        await _close(writer)
        return first, second, rest

    first, (status, body, headers), rest = run_service(
        ServeConfig(workers=1), scenario
    )
    assert first[0] == 200 and "connection" not in first[2]
    assert status == 503 and "draining" in body["error"]
    assert int(headers["retry-after"]) >= 1
    assert headers["connection"] == "close"
    assert rest == b""


def _handlers() -> list:
    """Connection handlers still running on this loop."""

    return [
        t
        for t in asyncio.all_tasks()
        if t.get_coro().__qualname__ == "CompileService._handle_conn"
    ]


def _asyncio_errors(caplog) -> list:
    """What asyncio logged at ERROR, e.g. a cancelled handler's traceback."""

    return [
        r for r in caplog.records if r.name == "asyncio" and r.levelno >= logging.ERROR
    ]


@pytest.mark.parametrize("closed_by", ["deadline", "stop"])
@pytest.mark.parametrize(
    "stalled",
    [
        b"GET /v1/health HTTP/1.1\r\n",
        b"POST /v1/compile HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\n{",
    ],
    ids=["mid-head", "mid-body"],
)
def test_a_stalled_request_is_closed(
    run_service, monkeypatch, caplog, stalled, closed_by
):
    """A client that stops partway through a request is closed once the rest
    of the head and the body are ``_IDLE_TIMEOUT_S`` late, or at once by
    ``stop()``.  No handler outlives ``stop()``, so the end of the loop
    cancels none (asyncio would log that as a ``CancelledError``
    traceback)."""

    timeout_s = 0.3 if closed_by == "deadline" else 300.0
    monkeypatch.setattr(server_module, "_IDLE_TIMEOUT_S", timeout_s)

    async def scenario(service):
        reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
        writer.write(stalled)
        await writer.drain()
        t0 = time.perf_counter()
        if closed_by == "stop":
            deadline = time.monotonic() + 5.0
            while not service._idle and time.monotonic() < deadline:
                await asyncio.sleep(0.01)  # until the server has read the line
            await asyncio.wait_for(service.stop(), 10.0)
        rest = await _eof(reader, 10.0)
        eof_s = time.perf_counter() - t0
        await service.stop()
        deadline = time.monotonic() + 5.0
        while _handlers() and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        await _close(writer)
        return rest, eof_s, _handlers()

    rest, eof_s, handlers = run_service(ServeConfig(workers=1), scenario)
    assert rest == b""  # closed unanswered: the request never arrived whole
    assert eof_s < (timeout_s if closed_by == "deadline" else 0.0) + 2.0
    assert handlers == []
    assert _asyncio_errors(caplog) == []


def test_a_head_begun_during_the_drain_is_closed_by_stop(
    run_service, monkeypatch, caplog
):
    """A connection that sends its request line while ``stop()`` waits for
    an in-flight compile, then nothing more, is closed when ``stop()``
    ends, not left to its deadline."""

    monkeypatch.setattr(server_module, "_IDLE_TIMEOUT_S", 300.0)
    monkeypatch.setenv(CHAOS_ENV, "stall@worker=w0,cell=1,s=1.0")

    async def scenario(service):
        busy_reader, busy_writer = await asyncio.open_connection(
            "127.0.0.1", service.port
        )
        busy_writer.write(_post({**_COMPILE, "options": {"seed": 1}}))
        await busy_writer.drain()
        deadline = time.monotonic() + 10.0
        while not service._inflight() and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        stopping = asyncio.ensure_future(service.stop())
        while not service._draining and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
        writer.write(b"GET /v1/health HTTP/1.1\r\n")
        await writer.drain()
        while not service._idle and time.monotonic() < deadline:
            await asyncio.sleep(0.01)  # until the server has read the line
        await asyncio.wait_for(stopping, 30.0)
        answered = await _answer(busy_reader)
        rest = await _eof(reader, 10.0)
        while _handlers() and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        await _close(busy_writer)
        await _close(writer)
        return answered, rest, _handlers()

    (status, _, headers), rest, handlers = run_service(
        ServeConfig(workers=1), scenario
    )
    assert status == 200 and headers["connection"] == "close"
    assert rest == b""
    assert handlers == []
    assert _asyncio_errors(caplog) == []


def test_a_silent_connection_is_closed_when_the_drain_ends(
    run_service, monkeypatch, caplog
):
    """A client that connects and sends nothing is closed when ``stop()``
    ends, not left to its deadline, while one that connected before the
    drain and sends its request during it still gets its 503."""

    monkeypatch.setattr(server_module, "_IDLE_TIMEOUT_S", 300.0)
    monkeypatch.setenv(CHAOS_ENV, "stall@worker=w0,cell=1,s=1.0")

    async def scenario(service):
        busy_reader, busy_writer = await asyncio.open_connection(
            "127.0.0.1", service.port
        )
        busy_writer.write(_post({**_COMPILE, "options": {"seed": 1}}))
        await busy_writer.drain()
        deadline = time.monotonic() + 10.0
        while not service._inflight() and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        silent_reader, silent_writer = await asyncio.open_connection(
            "127.0.0.1", service.port
        )
        late_reader, late_writer = await asyncio.open_connection(
            "127.0.0.1", service.port
        )
        while len(_handlers()) < 3 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        await asyncio.sleep(0.05)  # both new handlers wait for a request line
        stopping = asyncio.ensure_future(service.stop())
        while not service._draining and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        late_writer.write(_post({**_COMPILE, "options": {"seed": 2}}))
        await late_writer.drain()
        late = await _answer(late_reader)
        await asyncio.wait_for(stopping, 30.0)
        try:
            rest = await _eof(silent_reader, 2.0)
        except asyncio.TimeoutError:
            rest = None  # still open after stop() returned
        answered = await _answer(busy_reader)
        while _handlers() and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        for writer in (busy_writer, silent_writer, late_writer):
            await _close(writer)
        return answered, late, rest, _handlers()

    (status, _, headers), late, rest, handlers = run_service(
        ServeConfig(workers=1), scenario
    )
    assert status == 200 and headers["connection"] == "close"
    late_status, late_body, late_headers = late
    assert late_status == 503 and "draining" in late_body["error"]
    assert late_headers["connection"] == "close"
    assert rest == b""
    assert handlers == []
    assert _asyncio_errors(caplog) == []


# ---------------------------------------------------------------------------
# ServeClient
# ---------------------------------------------------------------------------


def _client(service, **kwargs) -> ServeClient:
    return ServeClient(f"http://127.0.0.1:{service.port}", **kwargs)


def test_client_resends_at_once_when_the_server_closed_its_idle_connection(
    run_service, monkeypatch
):
    monkeypatch.setattr(server_module, "_IDLE_TIMEOUT_S", 0.2)

    def no_backoff(attempt):
        raise AssertionError(f"backed off before attempt {attempt}")

    async def scenario(service):
        client = _client(service)
        client.backoff_s = no_backoff
        assert (await asyncio.to_thread(client.health))["status"] == "ok"
        (stale,) = client._idle
        # the server closes the connection once it idles past its timeout
        readable, _, _ = await asyncio.to_thread(
            select.select, [stale.sock], [], [], 10.0
        )
        assert readable, "the server never closed the idle connection"
        health = await asyncio.to_thread(client.health)
        kept = list(client._idle)
        client.close()
        return health, client.retries, stale, kept

    health, retries, stale, kept = run_service(ServeConfig(workers=1), scenario)
    assert health["status"] == "ok"
    assert retries == 0
    assert stale.sock is None  # closed by the client ...
    assert len(kept) == 1 and kept[0] is not stale  # ... and replaced


def test_one_client_shared_by_eight_threads(run_service):
    async def scenario(service):
        client = _client(service)
        errors, answers, lock = [], [], threading.Lock()

        def worker(tid: int) -> None:
            try:
                for k in range(4):
                    response = client.compile(**_COMPILE, seed=(tid + k) % 4)
                    with lock:
                        answers.append(response)
            except Exception as exc:  # pragma: no cover - reported below
                with lock:
                    errors.append(exc)

        def run_all() -> int:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # interleave the threads finely
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            return len(client._idle)

        idle = await asyncio.to_thread(run_all)
        client.close()
        return errors, answers, idle, client.retries

    config = ServeConfig(workers=1, prewarm=(("grid", 4),))
    errors, answers, idle, retries = run_service(config, scenario)
    assert errors == []
    assert len(answers) == 32 and all(r.ok for r in answers)
    assert 1 <= idle <= 8  # one connection per concurrent exchange, reused
    assert retries == 0


@pytest.mark.parametrize("how", ["close", "with"])
def test_close_and_context_manager_leave_no_open_socket(run_service, how):
    async def scenario(service):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            if how == "close":
                client = _client(service)
                await asyncio.to_thread(client.health)
                conns = list(client._idle)
                client.close()
            else:
                with _client(service) as client:
                    await asyncio.to_thread(client.health)
                    conns = list(client._idle)
            left = list(client._idle)
            del client
            gc.collect()
        # the server sees the end of the stream and drops the connection
        deadline = time.monotonic() + 10.0
        while service._idle and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        return conns, left, caught, set(service._idle)

    conns, left, caught, server_idle = run_service(ServeConfig(workers=1), scenario)
    assert len(conns) == 1 and conns[0].sock is None
    assert left == []
    assert server_idle == set()
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []
