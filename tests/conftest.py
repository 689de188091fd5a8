"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import queue
import sqlite3

import pytest

from repro.arch import (
    CaterpillarTopology,
    GridTopology,
    LatticeSurgeryTopology,
    LNNTopology,
    SycamoreTopology,
)
from helpers import assert_valid_qft  # noqa: F401  (re-exported for fixtures/tests)


#: statements that write: each must run inside a store transaction
_WRITES = frozenset({"INSERT", "UPDATE", "DELETE", "REPLACE"})


@pytest.fixture(autouse=True)
def store_transaction_guard(monkeypatch):
    """Fail the test on a store write outside a transaction.

    Every ``ExperimentStore`` connection opened in this process is traced
    (``set_trace_callback``) from ``ensure_schema`` on: a write running
    while ``in_transaction`` is False fails the test, and so does a store
    closed, or still open at teardown, with a transaction open.  Raw
    ``sqlite3.connect`` handles a test opens on purpose are not traced.
    """

    from repro.store import store as store_module

    violations = []
    conns = []
    ensure_schema = store_module.ensure_schema
    close = store_module.ExperimentStore.close

    def traced_ensure_schema(conn, transaction):
        def trace(statement):
            verb = statement.split(None, 1)[:1]
            if verb and verb[0].upper() in _WRITES and not conn.in_transaction:
                violations.append(f"write outside a transaction: {statement}")

        conn.set_trace_callback(trace)
        conns.append(conn)
        ensure_schema(conn, transaction)

    def checked_close(store):
        if store._conn is not None and store._conn.in_transaction:
            violations.append(f"store {store.path} closed in a transaction")
        close(store)

    monkeypatch.setattr(store_module, "ensure_schema", traced_ensure_schema)
    monkeypatch.setattr(store_module.ExperimentStore, "close", checked_close)
    yield
    for conn in conns:
        try:
            if conn.in_transaction:
                violations.append("store connection left in a transaction")
            conn.set_trace_callback(None)
        except sqlite3.ProgrammingError:
            continue  # closed: nothing can be left open
    assert violations == []


@pytest.fixture
def line5() -> LNNTopology:
    return LNNTopology(5)


@pytest.fixture
def grid33() -> GridTopology:
    return GridTopology(3, 3)


@pytest.fixture
def sycamore4() -> SycamoreTopology:
    return SycamoreTopology(4)


@pytest.fixture
def lattice4() -> LatticeSurgeryTopology:
    return LatticeSurgeryTopology(4)


@pytest.fixture
def caterpillar10() -> CaterpillarTopology:
    return CaterpillarTopology.regular_groups(2)


class _PoolResults:
    """Thread-safe ``on_result`` sink: ``next()`` is the next finished batch."""

    def __init__(self) -> None:
        self.results: "queue.Queue" = queue.Queue()

    def __call__(self, batch_id, rows, error) -> None:
        self.results.put((batch_id, rows, error))

    def next(self, timeout_s: float = 120.0):
        return self.results.get(timeout=timeout_s)


@pytest.fixture
def make_pool():
    """``make_pool(workers, task=f, **kw) -> (pool, sink)``, closed at teardown."""

    from repro.eval.workers import WarmWorkerPool

    pools = []

    def _make(workers: int = 1, **kwargs):
        sink = _PoolResults()
        pools.append(WarmWorkerPool(workers, on_result=sink, **kwargs))
        return pools[-1], sink

    yield _make
    for pool in pools:
        pool.close(drain=False, timeout_s=5.0)
