"""The shared warm worker pool running the serve task: prewarmed batches,
crash recovery, clean drain."""

from __future__ import annotations

import pytest

from repro.eval.workers import PoolShutdown
from repro.serve import CompileRequest, execute_request
from repro.serve.pool import serve_task


def _request(seed: int, size: int = 4) -> CompileRequest:
    return CompileRequest(
        workload="qft",
        architecture="grid",
        size=size,
        approach="sabre",
        options={"seed": seed},
    ).normalized()


@pytest.fixture
def pool_factory(make_pool):
    def _make(workers: int = 1, **kwargs) -> tuple:
        pool, sink = make_pool(
            workers, task=serve_task, prewarm=(("grid", 4),), **kwargs
        )
        assert pool.wait_ready(120.0)
        return pool, sink

    return _make


def test_pool_computes_batches_in_order(pool_factory):
    pool, sink = pool_factory(workers=1)
    requests = [_request(seed) for seed in (1, 2, 3)]
    batch_id = pool.submit(requests)
    got_id, rows, error = sink.next()
    assert got_id == batch_id and error is None
    assert [row["status"] for row in rows] == ["ok"] * 3
    # responses arrive in request order, bit-equal to in-process execution
    for row, request in zip(rows, requests):
        serial = execute_request(request).to_dict()
        for record in (row, serial):
            record.pop("compile_time_s")
            record.get("extra", {}).pop("kernel", None)
        assert row == serial


def test_pool_drain_waits_for_inflight(pool_factory):
    pool, sink = pool_factory(workers=1)
    pool.submit([_request(9)])
    assert pool.drain(timeout_s=120.0)
    assert sink.results.qsize() == 1
    assert pool.stats()["inflight_batches"] == 0


def test_pool_respawns_killed_worker_and_reassigns(pool_factory, monkeypatch):
    """A worker SIGKILLed mid-batch costs a respawn, never a lost batch."""

    monkeypatch.setenv("REPRO_CHAOS", "kill-worker@worker=w0,cell=1")
    pool, sink = pool_factory(workers=1)
    batch_id = pool.submit([_request(5)])
    got_id, rows, error = sink.next()
    assert got_id == batch_id and error is None
    assert rows[0]["status"] == "ok"
    stats = pool.stats()
    assert stats["respawns"] >= 1
    assert stats["reassigned_batches"] >= 1


def test_pool_rejects_after_close(pool_factory):
    pool, _ = pool_factory(workers=1)
    pool.close(drain=True, timeout_s=30.0)
    assert pool.has_idle_worker()  # a caller submits, and is refused
    with pytest.raises(PoolShutdown):
        pool.submit([_request(1)])


def test_pool_spreads_load_across_workers(pool_factory):
    pool, sink = pool_factory(workers=2)
    ids = [pool.submit([_request(seed)]) for seed in (1, 2)]
    with pool._lock:
        owners = {pool._assigned[batch_id][0] for batch_id in ids if batch_id in pool._assigned}
    for _ in ids:
        sink.next()
    # both batches were in flight at submit time; least-loaded routing must
    # have put them on different workers
    assert len(owners) == 2 or pool.stats()["inflight_batches"] == 0
