"""The asyncio service end to end (in-process): batching, caching, limits.

Each test spins up a real :class:`CompileService` (forked warm workers,
bound ephemeral socket) inside ``asyncio.run`` and talks to it over real
HTTP connections -- only the process boundary of ``python -m repro.serve``
is elided (covered by ``test_serve_e2e.py``).
"""

from __future__ import annotations

import asyncio

import repro
from repro.eval.cache import ResultCache
from repro.serve import CompileRequest, CompileService, ServeConfig, execute_request


def _payload(seed: int, *, architecture: str = "grid", size: int = 4, **extra):
    return {
        "workload": "qft",
        "architecture": architecture,
        "size": size,
        "approach": "sabre",
        "options": {"seed": seed},
        **extra,
    }


def run_service(config: ServeConfig, scenario):
    """Start a service, run ``scenario(service)``, always drain it."""

    async def main():
        service = CompileService(config)
        await service.start()
        try:
            return await scenario(service)
        finally:
            await service.stop()

    return asyncio.run(main())


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


def test_batched_responses_bit_equal_to_serial_compile(http_post):
    """Concurrent requests coalesce by topology; results stay bit-equal."""

    payloads = [
        _payload(1),
        _payload(2),
        _payload(1, architecture="lnn", size=5),
        _payload(2, architecture="lnn", size=5),
    ]

    async def scenario(service):
        results = await asyncio.gather(
            *(http_post(service.port, "/v1/compile", p) for p in payloads)
        )
        return results, service.stats()

    config = ServeConfig(
        workers=1, batch_window_s=0.2, prewarm=(("grid", 4), ("lnn", 5))
    )
    results, stats = run_service(config, scenario)
    assert [status for status, _, _ in results] == [200] * 4
    # one batch per topology group: the four requests landed in the same
    # window, so the grouping logic must have coalesced them into two
    assert stats["batches"] == 2
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


def test_request_timeout_returns_typed_timeout_status(http_post):
    # A 144-qubit SABRE compile takes ~0.35 s even on the compiled engine,
    # far beyond the budget (a 64-qubit one came within 2x of it).
    async def scenario(service):
        return await http_post(
            service.port, "/v1/compile", _payload(1, size=12, timeout_s=0.05)
        )

    status, body, _ = run_service(
        ServeConfig(workers=1, batch_window_s=0.01), scenario
    )
    assert status == 200
    assert body["status"] == "timeout"


# ---------------------------------------------------------------------------
# Caching
# ---------------------------------------------------------------------------


def test_lru_hit_and_eviction(http_post):
    async def scenario(service):
        first = await http_post(service.port, "/v1/compile", _payload(1))
        again = await http_post(service.port, "/v1/compile", _payload(1))
        other = await http_post(service.port, "/v1/compile", _payload(2))
        evicted = await http_post(service.port, "/v1/compile", _payload(1))
        return first, again, other, evicted, service.stats()

    config = ServeConfig(
        workers=1, batch_window_s=0.01, lru_size=1, prewarm=(("grid", 4),)
    )
    first, again, other, evicted, stats = run_service(config, scenario)
    assert first[1]["cache"] is None
    assert again[1]["cache"] == "lru"
    assert other[1]["cache"] is None  # computed; its insert evicts seed 1
    assert evicted[1]["cache"] is None  # capacity 1: had been evicted
    assert first[1]["metrics"] == again[1]["metrics"]
    assert stats["lru_hits"] == 1
    assert stats["lru"]["evictions"] >= 1


def test_store_backed_hits_survive_cold_lru(tmp_path, http_post):
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

    config = ServeConfig(
        workers=1, batch_window_s=0.01, store=str(db), prewarm=(("grid", 4),)
    )
    hit, warmed, stats = run_service(config, scenario)
    assert hit[0] == 200 and hit[1]["cache"] == "store"
    assert warmed[1]["cache"] == "lru"  # the store hit warmed the LRU
    assert stats["store_hits"] == 1
    assert stats["computed"] == 0  # nothing was compiled
    assert _strip_volatile(hit[1]["metrics"]) == _strip_volatile(
        offline_row.to_dict()
    )


# ---------------------------------------------------------------------------
# Backpressure and drain
# ---------------------------------------------------------------------------


def test_overload_returns_429_with_retry_after(http_post):
    """Admission beyond max_queue sheds load; accepted work still finishes."""

    async def scenario(service):
        queued = [
            asyncio.create_task(
                http_post(service.port, "/v1/compile", _payload(seed))
            )
            for seed in (1, 2)
        ]
        await asyncio.sleep(0.1)  # both are in the batching window's queue
        status, body, headers = await http_post(
            service.port, "/v1/compile", _payload(3)
        )
        accepted = await asyncio.gather(*queued)
        return status, body, headers, accepted

    config = ServeConfig(
        workers=1, batch_window_s=0.5, max_queue=2, prewarm=(("grid", 4),)
    )
    status, body, headers, accepted = run_service(config, scenario)
    assert status == 429
    assert "queue full" in body["error"]
    assert int(headers["retry-after"]) >= 1
    assert [s for s, _, _ in accepted] == [200, 200]


def test_draining_returns_503_with_retry_after(http_post):
    async def scenario(service):
        service._draining = True  # the window between SIGTERM and shutdown
        return await http_post(service.port, "/v1/compile", _payload(1))

    status, body, headers = run_service(
        ServeConfig(workers=1, batch_window_s=0.01), scenario
    )
    assert status == 503
    assert "draining" in body["error"]
    assert int(headers["retry-after"]) >= 1


def test_drain_answers_every_accepted_request(http_post):
    """stop() while requests sit in the queue: all are answered, none lost."""

    async def scenario(service):
        tasks = [
            asyncio.create_task(
                http_post(service.port, "/v1/compile", _payload(seed))
            )
            for seed in (1, 2, 3)
        ]
        await asyncio.sleep(0.1)  # accepted, still inside the batch window
        stopper = asyncio.create_task(service.stop())
        answered = await asyncio.gather(*tasks)
        await stopper
        return answered

    answered = run_service(
        ServeConfig(workers=1, batch_window_s=0.4, prewarm=(("grid", 4),)),
        scenario,
    )
    assert [status for status, _, _ in answered] == [200] * 3
    assert all(body["status"] == "ok" for _, body, _ in answered)


# ---------------------------------------------------------------------------
# Validation and endpoints
# ---------------------------------------------------------------------------


def test_bad_requests_rejected_400_with_hints(http_post):
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


def test_health_and_stats_endpoints(http_post):
    async def scenario(service):
        reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
        writer.write(b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n")
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
