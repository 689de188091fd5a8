"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import queue

import pytest

from repro.arch import (
    CaterpillarTopology,
    GridTopology,
    LatticeSurgeryTopology,
    LNNTopology,
    SycamoreTopology,
)
from helpers import assert_valid_qft  # noqa: F401  (re-exported for fixtures/tests)


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
