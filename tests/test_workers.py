"""The shared supervised worker pool (repro.eval.workers) and the ``pool``
executor running on it: task results and raises, the crash budget, and a
sweep that survives a killed and a stalled worker bit-equal to serial."""

from __future__ import annotations

import logging
import os
import signal
import sys
import threading
import time
from multiprocessing.connection import wait

import pytest

from repro.eval import CellSpec, adhoc_plan, chaos, execute
from repro.eval.workers import PoolShutdown
from repro.store import ExperimentStore, comparable_result


def _times_ten(item):
    if item < 0:
        raise ValueError(f"negative item {item}")
    return item * 10


def _unpicklable_raise(item):
    raise ValueError(lambda: item)


def _deaths(caplog):
    return [
        r.getMessage()
        for r in caplog.records
        if r.name == "repro.eval.workers" and "exited with code" in r.getMessage()
    ]


def _wait_for(predicate, timeout_s: float = 30.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "timed out waiting on the pool"
        time.sleep(0.01)


class TestTask:
    def test_raise_returns_the_finished_prefix_and_the_exception(self, make_pool):
        pool, sink = make_pool(task=_times_ten)
        assert pool.wait_ready(0.0)  # nothing to prewarm: ready at spawn
        batch_id = pool.submit([1, 2, -1, 3])
        got_id, rows, error = sink.next()
        assert got_id == batch_id and rows == [10, 20]
        assert isinstance(error, ValueError) and "negative item -1" in str(error)
        # the worker survives a raising task and keeps serving
        pool.submit([4])
        assert sink.next()[1] == [40]

    def test_unpicklable_exception_arrives_as_a_stand_in(self, make_pool):
        pool, sink = make_pool(task=_unpicklable_raise)
        pool.submit([1])
        _, rows, error = sink.next()
        assert rows == [] and isinstance(error, RuntimeError)
        assert str(error).startswith("ValueError: <function")


class TestCrashBudget:
    def test_finished_batch_is_delivered_not_resubmitted(self, make_pool, monkeypatch):
        # w0 finishes batch 1, then dies on its second cell: only batch 2 is
        # orphaned, because the dead worker's pipe is drained before reaping.
        monkeypatch.setenv(chaos.ENV_VAR, "kill-worker@worker=w0,cell=2")
        pool, sink = make_pool(task=_times_ten)
        first, second = pool.submit([1]), pool.submit([2])
        got = dict(sink.next()[:2] for _ in range(2))
        assert got == {first: [10], second: [20]}
        assert pool.stats()["respawns"] == 1
        assert pool.stats()["reassigned_batches"] == 1

    def test_two_deaths_in_one_pass_respawn_within_budget(self, make_pool, caplog):
        pool, sink = make_pool(2, task=_times_ten, max_respawns=1)
        procs = list(pool._procs.values())
        # The supervisor reaps under the pool lock: holding it until both
        # workers are dead puts both deaths into a single reap pass.
        with pool._lock:
            for proc in procs:
                os.kill(proc.pid, signal.SIGKILL)
            for proc in procs:
                assert wait([proc.sentinel], timeout=30.0), "worker did not die"
        _wait_for(lambda: len(_deaths(caplog)) == 2)
        stats = pool.stats()
        assert stats["respawns"] == 1 and stats["workers"] == 1
        assert sorted(_deaths(caplog)) == [
            "worker w0 exited with code -9; 0 batch(es) resubmitted",
            "worker w1 exited with code -9; 0 batch(es) resubmitted "
            "(respawn budget exhausted)",
        ]
        batch_id = pool.submit([5])  # the one respawned worker serves
        assert sink.next() == (batch_id, [50], None)

    def test_exhausted_budget_fails_the_batch(self, make_pool, monkeypatch, caplog):
        monkeypatch.setenv(chaos.ENV_VAR, "kill-worker@worker=w0,cell=1")
        pool, sink = make_pool(task=_times_ten, max_respawns=0)
        batch_id = pool.submit([1])
        got_id, rows, error = sink.next()
        assert got_id == batch_id and rows == []
        assert isinstance(error, RuntimeError)
        assert "respawn budget is exhausted" in str(error)
        (death,) = _deaths(caplog)
        assert death == (
            "worker w0 exited with code -9; 0 batch(es) resubmitted "
            "(respawn budget exhausted)"
        )
        # no live worker counts as idle: a caller holding work submits it
        # and is refused, instead of waiting for a worker that never frees
        assert pool.has_idle_worker()
        with pytest.raises(PoolShutdown, match="no live workers"):
            pool.submit([2])


class TestIdleWorkers:
    def test_idle_until_every_worker_holds_a_batch(self, make_pool, monkeypatch):
        monkeypatch.setenv(chaos.ENV_VAR, "stall@worker=w0,cell=1,s=1.0")
        pool, sink = make_pool(task=_times_ten)
        assert pool.has_idle_worker()
        batch_id = pool.submit([1])
        assert not pool.has_idle_worker()  # w0 stalls on the batch
        assert sink.next() == (batch_id, [10], None)
        assert pool.has_idle_worker()

    def test_an_idle_worker_takes_the_batch_even_while_prewarming(
        self, make_pool, monkeypatch
    ):
        monkeypatch.setenv(
            chaos.ENV_VAR,
            "stall@worker=w0,cell=1,s=1.0;stall@worker=w1,cell=1,s=1.0",
        )
        pool, sink = make_pool(2, task=_times_ten)
        busy = pool.submit([1])
        with pool._lock:
            assert pool._assigned[busy][0] == "w0"
            pool._ready.discard("w1")  # as a respawned worker still prewarming
        assert pool.has_idle_worker()
        idle = pool.submit([2])
        with pool._lock:
            assert pool._assigned[idle][0] == "w1"
        assert sorted(sink.next()[:2] for _ in range(2)) == [(busy, [10]), (idle, [20])]


def test_concurrent_submitters_get_every_batch_exactly_once(make_pool, monkeypatch):
    """More workers than cores, four submitting threads, a short switch
    interval and a worker killed mid-run: each batch arrives once, intact."""

    monkeypatch.setenv(chaos.ENV_VAR, "kill-worker@worker=w0,cell=5")
    pool, sink = make_pool(3, task=_times_ten)
    expected = {}
    lock = threading.Lock()

    def submitter(t):
        for k in range(25):
            items = [t * 1000 + k * 10 + j for j in range(3)]
            batch_id = pool.submit(items)
            with lock:
                expected[batch_id] = [item * 10 for item in items]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=submitter, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        got = {}
        for _ in range(100):
            batch_id, rows, error = sink.next()
            assert error is None and batch_id not in got
            got[batch_id] = rows
    finally:
        sys.setswitchinterval(old)
    assert got == expected and sink.results.empty()
    assert pool.stats()["respawns"] == 1


def _metrics(results):
    return [
        (r.approach, r.architecture, r.status, r.depth, r.swap_count, r.verified)
        for r in results
    ]


def _recorded(db):
    with ExperimentStore(db) as store:
        (run,) = store.list_runs()
        results = store.run_results(run["id"])
    return {key: comparable_result(data) for key, data in results.items()}


def test_pool_executor_survives_a_killed_and_a_stalled_worker(
    tmp_path, monkeypatch, caplog
):
    p = adhoc_plan(
        "chaos", [CellSpec.make("sabre", "grid", 2, seed=s) for s in range(6)]
    )
    serial = execute(p, store=str(tmp_path / "serial.db"))
    monkeypatch.setenv(
        chaos.ENV_VAR, "kill-worker@worker=w0,cell=1;stall@worker=w1,cell=2,s=0.5"
    )
    caplog.set_level(logging.WARNING, logger="repro.eval.workers")
    chaotic = execute(p, executor="pool", jobs=2, store=str(tmp_path / "chaos.db"))
    assert _metrics(chaotic.results) == _metrics(serial.results)
    assert _recorded(tmp_path / "chaos.db") == _recorded(tmp_path / "serial.db")
    # both faults fired: w0 was reaped and its chunk resubmitted, and w1's
    # stall is in the wall time
    (death,) = _deaths(caplog)
    assert death.startswith("worker w0 exited with code -9; ")
    assert "batch(es) resubmitted" in death and "exhausted" not in death
    assert chaotic.wall_s >= 0.5
