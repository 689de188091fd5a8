"""The asyncio service end to end (in-process): batching, caching, limits.

Most tests spin up a real :class:`CompileService` (forked warm workers,
bound ephemeral socket) inside ``asyncio.run`` and talk to it over real
HTTP connections -- only the process boundary of ``python -m repro.serve``
is elided (covered by ``test_serve_e2e.py``).  Tests that need a request
held in the queue keep the only worker busy with a chaos ``stall`` on its
first cell.  The dispatch tests drive the batcher against a fake pool, one
loop turn at a time.
"""

from __future__ import annotations

import asyncio
import json

import repro
from repro.eval.cache import ResultCache
from repro.eval.chaos import ENV_VAR as CHAOS_ENV
from repro.eval.metrics import CompilationResult
from repro.eval.workers import PoolShutdown
from repro.serve import CompileRequest, CompileService, ServeConfig, execute_request
from repro.serve.server import MAX_BODY_BYTES

#: keeps worker w0 busy on its first cell, so later arrivals queue behind it
_STALL_W0 = "stall@worker=w0,cell=1,s={s}"


def _payload(seed: int, *, architecture: str = "grid", size: int = 4, **extra):
    return {
        "workload": "qft",
        "architecture": architecture,
        "size": size,
        "approach": "sabre",
        "options": {"seed": seed},
        **extra,
    }


def _strip_volatile(row: dict) -> dict:
    row = dict(row)
    row.pop("compile_time_s", None)
    row["extra"] = {
        k: v for k, v in row.get("extra", {}).items() if k != "kernel"
    }
    return row


# ---------------------------------------------------------------------------
# Batching
# ---------------------------------------------------------------------------


async def _until(condition, timeout_s: float = 30.0) -> None:
    """Yield to the loop until ``condition()`` holds."""

    deadline = asyncio.get_running_loop().time() + timeout_s
    while not condition():
        assert asyncio.get_running_loop().time() < deadline, "service never got there"
        await asyncio.sleep(0.01)


def test_batched_responses_bit_equal_to_serial_compile(
    http_post, run_service, monkeypatch
):
    """Concurrent requests coalesce by topology; results stay bit-equal."""

    payloads = [
        _payload(1),
        _payload(2),
        _payload(1, architecture="lnn", size=5),
        _payload(2, architecture="lnn", size=5),
    ]

    async def scenario(service):
        blocker = asyncio.create_task(
            http_post(service.port, "/v1/compile", _payload(0))
        )
        await _until(lambda: service._batches)  # w0 took it and stalls
        before = service.counters["batches"]
        replies = [
            asyncio.create_task(http_post(service.port, "/v1/compile", p))
            for p in payloads
        ]
        await _until(lambda: len(service._queue) == len(payloads))
        results = await asyncio.gather(*replies)
        await blocker
        return results, service.counters["batches"] - before

    monkeypatch.setenv(CHAOS_ENV, _STALL_W0.format(s=1.0))
    config = ServeConfig(workers=1, prewarm=(("grid", 4), ("lnn", 5)))
    results, batches = run_service(config, scenario)
    assert [status for status, _, _ in results] == [200] * 4
    # one batch per topology group: the four requests queued behind the
    # busy worker, so the grouping logic must have coalesced them into two
    assert batches == 2
    for payload, (_, body, _) in zip(payloads, results):
        serial = repro.compile(
            workload="qft",
            architecture=payload["architecture"],
            size=payload["size"],
            approach="sabre",
            **payload["options"],
        ).metrics().to_dict()
        serial["architecture"] = repro.architecture_label(
            payload["architecture"], payload["size"]
        )
        assert _strip_volatile(body["metrics"]) == _strip_volatile(serial)
        assert body["cache"] is None


def test_non_converging_cell_is_an_error_answer_not_a_503(http_post, run_service):
    # this random circuit's SABRE run passes the swap-loop bound
    payload = {
        "workload": "random",
        "architecture": "lattice",
        "size": 6,
        "approach": "sabre",
        "workload_params": {"seed": 660703},
        "options": {"seed": 584279},
    }

    async def scenario(service):
        first = await http_post(service.port, "/v1/compile", payload)
        again = await http_post(service.port, "/v1/compile", payload)
        return first, again, service.stats()

    first, again, stats = run_service(ServeConfig(workers=1), scenario)
    for status, body, _ in (first, again):
        assert status == 200
        assert body["status"] == "error"
        assert "did not converge" in body["message"]
        assert body["cache"] is None  # an error is not cached
    assert stats["computed"] == 2
    assert stats["lru_hits"] == 0
    assert stats["pool_failures"] == 0


def test_request_timeout_returns_typed_timeout_status(http_post, run_service):
    # A 144-qubit SABRE compile takes ~0.35 s even on the compiled engine,
    # far beyond the budget (a 64-qubit one came within 2x of it).
    async def scenario(service):
        return await http_post(
            service.port, "/v1/compile", _payload(1, size=12, timeout_s=0.05)
        )

    status, body, _ = run_service(ServeConfig(workers=1), scenario)
    assert status == 200
    assert body["status"] == "timeout"


# ---------------------------------------------------------------------------
# Dispatch on idle, against a fake pool
# ---------------------------------------------------------------------------


class _FakePool:
    """The two calls the batcher makes of the pool, over ``workers`` slots
    that each hold one batch; batches stay in flight until finished."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.inflight = {}
        self._next = 0

    def has_idle_worker(self) -> bool:
        return self.workers == 0 or len(self.inflight) < self.workers

    def submit(self, items) -> int:
        if self.workers == 0:
            raise PoolShutdown("no live workers")
        batch_id, self._next = self._next, self._next + 1
        self.inflight[batch_id] = list(items)
        return batch_id


def _fake_service(pool: _FakePool) -> CompileService:
    service = CompileService(ServeConfig(workers=max(1, pool.workers)))
    service._loop = asyncio.get_running_loop()
    service._pool = pool
    return service


def _arrive(service, seed: int, **kwargs) -> asyncio.Future:
    body = json.dumps(_payload(seed, **kwargs)).encode()
    return asyncio.ensure_future(service._compile(body))


def _finish(service, pool: _FakePool, batch_id: int) -> None:
    """The pool's result callback for one batch, every cell ok."""

    rows = [
        CompilationResult(
            approach=r.approach,
            architecture=r.architecture,
            num_qubits=16,
            workload=r.workload,
        ).to_dict()
        for r in pool.inflight.pop(batch_id)
    ]
    service._finish_batch(batch_id, rows, None)


def test_idle_worker_gets_the_request_in_its_arrival_turn():
    async def scenario():
        pool = _FakePool(workers=1)
        service = _fake_service(pool)
        reply = _arrive(service, 1)
        await asyncio.sleep(0)  # one loop turn: the request runs to its await
        assert [len(items) for items in pool.inflight.values()] == [1]
        assert service._queue == []
        _finish(service, pool, next(iter(pool.inflight)))
        status, body, _ = await reply
        assert status == 200 and body["status"] == "ok"
        assert service.counters["batches"] == 1

    asyncio.run(scenario())


def test_arrivals_behind_busy_workers_flush_together_by_topology():
    async def scenario():
        pool = _FakePool(workers=1)
        service = _fake_service(pool)
        first = _arrive(service, 1)
        await asyncio.sleep(0)
        (busy,) = pool.inflight
        later = [
            _arrive(service, 2),
            _arrive(service, 1, architecture="lnn", size=5),
            _arrive(service, 3),
        ]
        await asyncio.sleep(0)
        assert list(pool.inflight) == [busy]  # nothing left for a busy pool
        assert len(service._queue) == 3
        _finish(service, pool, busy)  # the freed worker takes the whole queue
        flushed = [
            [(r.architecture, r.options["seed"]) for r in items]
            for items in pool.inflight.values()
        ]
        assert flushed == [[("grid", 2), ("grid", 3)], [("lnn", 1)]]
        assert service._queue == []
        for batch_id in list(pool.inflight):
            _finish(service, pool, batch_id)
        replies = await asyncio.gather(first, *later)
        assert [status for status, _, _ in replies] == [200] * 4
        assert service.counters["batches"] == 3

    asyncio.run(scenario())


def test_no_live_worker_answers_503_not_a_hang():
    async def scenario():
        service = _fake_service(_FakePool(workers=0))
        return await asyncio.wait_for(_arrive(service, 1), timeout=30.0)

    status, body, retry_after = asyncio.run(scenario())
    assert status == 503
    assert "no live workers" in body["error"]
    assert retry_after >= 1


# ---------------------------------------------------------------------------
# Caching
# ---------------------------------------------------------------------------


def test_lru_hit_and_eviction(http_post, run_service):
    async def scenario(service):
        first = await http_post(service.port, "/v1/compile", _payload(1))
        again = await http_post(service.port, "/v1/compile", _payload(1))
        other = await http_post(service.port, "/v1/compile", _payload(2))
        evicted = await http_post(service.port, "/v1/compile", _payload(1))
        return first, again, other, evicted, service.stats()

    config = ServeConfig(workers=1, lru_size=1, prewarm=(("grid", 4),))
    first, again, other, evicted, stats = run_service(config, scenario)
    assert first[1]["cache"] is None
    assert again[1]["cache"] == "lru"
    assert other[1]["cache"] is None  # computed; its insert evicts seed 1
    assert evicted[1]["cache"] is None  # capacity 1: had been evicted
    assert first[1]["metrics"] == again[1]["metrics"]
    # the stored answer is the computed one, marked as an LRU hit
    assert again[1] == {**first[1], "cache": "lru"}
    assert stats["lru_hits"] == 1
    assert stats["lru"]["evictions"] >= 1


def test_store_backed_hits_survive_cold_lru(tmp_path, http_post, run_service):
    """--store DB serves results computed offline by the batch harness."""

    db = tmp_path / "serve.db"
    request = CompileRequest(**{
        k: v for k, v in _payload(3).items()
    }).normalized()
    cache = ResultCache(db)
    key = cache.key(
        request.approach,
        request.architecture,
        request.size,
        kwargs=request.identity_kwargs(),
        workload=request.workload,
        verify=request.verify_policy(),
    )
    offline_row = execute_request(request)
    cache.put(key, offline_row)
    cache.close()

    async def scenario(service):
        hit = await http_post(service.port, "/v1/compile", _payload(3))
        warmed = await http_post(service.port, "/v1/compile", _payload(3))
        return hit, warmed, service.stats()

    config = ServeConfig(workers=1, store=str(db), prewarm=(("grid", 4),))
    hit, warmed, stats = run_service(config, scenario)
    assert hit[0] == 200 and hit[1]["cache"] == "store"
    assert warmed[1]["cache"] == "lru"  # the store hit warmed the LRU
    assert warmed[1] == {**hit[1], "cache": "lru"}
    assert stats["store_hits"] == 1
    assert stats["computed"] == 0  # nothing was compiled
    assert _strip_volatile(hit[1]["metrics"]) == _strip_volatile(
        offline_row.to_dict()
    )


# ---------------------------------------------------------------------------
# Backpressure and drain
# ---------------------------------------------------------------------------


def test_overload_returns_429_with_retry_after(http_post, run_service, monkeypatch):
    """Admission beyond max_queue sheds load; accepted work still finishes."""

    async def scenario(service):
        queued = [
            asyncio.create_task(
                http_post(service.port, "/v1/compile", _payload(seed))
            )
            for seed in (1, 2)
        ]
        # one on the stalled worker, one queued behind it: the cap is reached
        await _until(lambda: service._inflight() == 2)
        status, body, headers = await http_post(
            service.port, "/v1/compile", _payload(3)
        )
        accepted = await asyncio.gather(*queued)
        return status, body, headers, accepted

    monkeypatch.setenv(CHAOS_ENV, _STALL_W0.format(s=1.0))
    config = ServeConfig(workers=1, max_queue=2, prewarm=(("grid", 4),))
    status, body, headers, accepted = run_service(config, scenario)
    assert status == 429
    assert "queue full" in body["error"]
    assert int(headers["retry-after"]) >= 1
    assert [s for s, _, _ in accepted] == [200, 200]


def test_draining_returns_503_with_retry_after(http_post, run_service):
    async def scenario(service):
        service._draining = True  # the window between SIGTERM and shutdown
        return await http_post(service.port, "/v1/compile", _payload(1))

    status, body, headers = run_service(ServeConfig(workers=1), scenario)
    assert status == 503
    assert "draining" in body["error"]
    assert int(headers["retry-after"]) >= 1


def test_drain_answers_every_accepted_request(http_post, run_service, monkeypatch):
    """stop() while requests sit in the queue: all are answered, none lost."""

    async def scenario(service):
        tasks = [
            asyncio.create_task(
                http_post(service.port, "/v1/compile", _payload(seed))
            )
            for seed in (1, 2, 3)
        ]
        # accepted: one on the stalled worker, two queued behind it
        await _until(lambda: len(service._queue) == 2)
        stopper = asyncio.create_task(service.stop())
        answered = await asyncio.gather(*tasks)
        await stopper
        return answered

    monkeypatch.setenv(CHAOS_ENV, _STALL_W0.format(s=1.0))
    answered = run_service(
        ServeConfig(workers=1, prewarm=(("grid", 4),)), scenario
    )
    assert [status for status, _, _ in answered] == [200] * 3
    assert all(body["status"] == "ok" for _, body, _ in answered)


# ---------------------------------------------------------------------------
# Validation and endpoints
# ---------------------------------------------------------------------------


def test_bad_requests_rejected_400_with_hints(http_post, run_service):
    async def scenario(service):
        typo_field = await http_post(
            service.port, "/v1/compile", {"aproach": "sabre"}
        )
        typo_name = await http_post(
            service.port, "/v1/compile", _payload(1, architecture="gird")
        )
        bad_option = await http_post(
            service.port,
            "/v1/compile",
            {**_payload(1), "options": {"sede": 1}},
        )
        return typo_field, typo_name, bad_option, service.stats()

    typo_field, typo_name, bad_option, stats = run_service(
        ServeConfig(workers=1), scenario
    )
    assert typo_field[0] == 400
    assert "did you mean 'approach'" in typo_field[1]["error"]
    assert typo_name[0] == 400
    assert "did you mean" in typo_name[1]["error"]
    assert bad_option[0] == 400
    assert "unknown option" in bad_option[1]["error"]
    assert stats["rejected_400"] == 3


def test_health_and_stats_endpoints(http_post, run_service):
    async def scenario(service):
        reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
        writer.write(
            b"GET /v1/health HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        )
        await writer.drain()
        raw = await reader.read()
        writer.close()
        await http_post(service.port, "/v1/compile", _payload(1))
        return raw, service.stats()

    raw, stats = run_service(
        ServeConfig(workers=1, prewarm=(("grid", 4),)), scenario
    )
    assert b"200 OK" in raw and b'"status": "ok"' in raw
    assert stats["requests"] == 1
    assert stats["pool"]["workers"] == 1


def test_negative_content_length_answered_400(http_exchange, run_service):
    async def scenario(service):
        return await http_exchange(
            service.port,
            b"POST /v1/compile HTTP/1.1\r\nHost: x\r\nContent-Length: -5\r\n\r\n",
        )

    status, body, _ = run_service(ServeConfig(workers=1), scenario)
    assert status == 400
    assert "Content-Length" in body["error"]


def test_oversized_content_length_answered_413_unread(http_exchange, run_service):
    async def scenario(service):
        head = (
            "POST /v1/compile HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
        )
        # no body follows: the answer must come without waiting for one
        return await asyncio.wait_for(
            http_exchange(service.port, head.encode()), timeout=30.0
        )

    status, body, _ = run_service(ServeConfig(workers=1), scenario)
    assert status == 413
    assert "limit" in body["error"]


def test_overlong_header_line_answered_431(http_exchange, run_service):
    async def scenario(service):
        head = b"GET /v1/health HTTP/1.1\r\nHost: x\r\nX-Long: " + b"a" * 70_000
        return await asyncio.wait_for(
            http_exchange(service.port, head + b"\r\n\r\n"), timeout=30.0
        )

    status, body, _ = run_service(ServeConfig(workers=1), scenario)
    assert status == 431
    assert "line limit" in body["error"]


def test_header_far_past_the_line_limit_answered_431_not_reset(
    http_exchange, run_service
):
    """The client is still sending when the 431 is decided: the server
    must read what follows before it closes, or the client's socket gets a
    reset instead of the answer."""

    async def scenario(service):
        head = b"GET /v1/health HTTP/1.1\r\nHost: x\r\nX-Long: " + b"a" * 200_000
        return await asyncio.wait_for(
            http_exchange(service.port, head + b"\r\n\r\n"), timeout=30.0
        )

    status, body, _ = run_service(ServeConfig(workers=1), scenario)
    assert status == 431
    assert "line limit" in body["error"]


def test_request_line_without_a_path_answered_400(http_exchange, run_service):
    async def scenario(service):
        return await http_exchange(service.port, b"GET\r\nHost: x\r\n\r\n")

    status, body, _ = run_service(ServeConfig(workers=1), scenario)
    assert status == 400
    assert "method and a path" in body["error"]
