"""Small shared utilities."""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from typing import List, Optional, TypeVar, Union

__all__ = [
    "BoundedCache",
    "clear_process_caches",
    "CellBudgetExceeded",
    "budget_deadline",
    "cell_budget",
    "check_budget",
    "check_timeout",
    "VERIFY_POLICIES",
    "normalize_verify",
]

V = TypeVar("V")

# Every BoundedCache instance; they are all process-wide module singletons,
# so one hook can drop them together under memory pressure (see
# repro.arch.topology.clear_distance_cache).
_ALL_CACHES: "List[BoundedCache]" = []


def clear_process_caches() -> None:
    """Empty every process-wide BoundedCache (tests / memory pressure)."""

    for cache in _ALL_CACHES:
        cache.clear()


class BoundedCache(OrderedDict):
    """A tiny bounded LRU mapping.

    Used for the process-wide caches keyed by coupling-graph identity
    (distance matrices, SABRE routing tables, topology instances): lookups
    refresh recency, and storing beyond ``max_entries`` evicts the least
    recently used entry, so a paper-profile sweep over dozens of large
    graphs cannot pin them all in memory for the life of the process.
    """

    def __init__(self, max_entries: int) -> None:
        super().__init__()
        self.max_entries = max_entries
        _ALL_CACHES.append(self)

    def lookup(self, key) -> Optional[V]:
        """Value for ``key`` (refreshing its recency), or None."""

        hit = self.get(key)
        if hit is not None:
            self.move_to_end(key)
        return hit

    def store(self, key, value: V) -> V:
        """Insert ``value`` under ``key``, evicting the LRU entry if full."""

        self[key] = value
        if len(self) > self.max_entries:
            self.popitem(last=False)
        return value


class CellBudgetExceeded(Exception):
    """Raised inside a compilation whose harness-level time budget ran out."""


#: ``time.monotonic()`` deadline of the innermost :func:`cell_budget`, or
#: None.  A context variable, so each thread (and asyncio task) has its own.
_DEADLINE: "ContextVar[Optional[float]]" = ContextVar("cell_deadline", default=None)


def check_timeout(seconds: Optional[float]) -> None:
    """Raise ``ValueError`` unless ``seconds`` is None or a finite number > 0."""

    if seconds is not None and not 0 < seconds < math.inf:
        raise ValueError(
            f"timeout_s must be a finite number of seconds > 0 (got {seconds!r})"
        )


#: the per-cell verification policies: every check, a deterministic ~25%
#: sample of cells (``repro.eval.sample_verifies``), or none
VERIFY_POLICIES = ("full", "sample", "off")


def normalize_verify(verify: Union[bool, str]) -> str:
    """The verification policy ``verify`` names (``True`` is ``"full"``,
    ``False`` is ``"off"``); raise ``ValueError`` for anything else."""

    policy = {True: "full", False: "off"}.get(verify, verify)
    if policy not in VERIFY_POLICIES:
        raise ValueError(
            f"unknown verify policy {verify!r} (one of "
            f"{', '.join(map(repr, VERIFY_POLICIES))})"
        )
    return policy


def budget_deadline() -> Optional[float]:
    """The enclosing budget's ``time.monotonic()`` deadline, or None."""

    return _DEADLINE.get()


def check_budget() -> None:
    """Raise :class:`CellBudgetExceeded` once the enclosing budget has run out.

    Every loop that can run long polls this, so the budget ends work only
    at those points, never inside a gc callback, a sqlite transaction or a
    ``finally`` block.  Outside any budget it returns at once.
    """

    deadline = _DEADLINE.get()
    if deadline is not None and time.monotonic() > deadline:
        raise CellBudgetExceeded("cell exceeded its time budget")


@contextmanager
def cell_budget(seconds: Optional[float]):
    """Give the enclosed block ``seconds`` of wall-clock time.

    Sets the deadline :func:`check_budget` polls, in this thread's context
    only; ``None`` sets no budget.
    """

    check_timeout(seconds)
    if seconds is None:
        yield
        return
    token = _DEADLINE.set(time.monotonic() + seconds)
    try:
        yield
    finally:
        _DEADLINE.reset(token)
