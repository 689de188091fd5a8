"""A counted LRU map over cache keys -- the server's in-memory hot set.

Keys are :func:`repro.eval.cache.cell_cache_key` strings (the same keys the
disk/store cache uses); the server's values are finished responses: the
encoded ``cache="lru"`` body of the key's
:class:`~repro.serve.api.CompileResponse`, built once when a computed row or
a store hit is inserted, so a hit writes stored bytes.  Deliberately tiny:
no locks (the asyncio server touches it from one event loop thread only),
no TTL (cache keys embed the code version, so entries can never go stale
within one server process), just bounded recency eviction plus the
hit/miss/eviction counters ``/v1/stats`` reports.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

__all__ = ["LRUCache"]


class LRUCache:
    """Bounded mapping with least-recently-used eviction.

    ``capacity <= 0`` disables the cache entirely (every ``get`` misses,
    ``put`` is a no-op) -- the server's ``--lru-size 0`` escape hatch.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = int(capacity)
        self._data: "OrderedDict[str, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str) -> Optional[object]:
        value = self._data.get(key)
        if value is None:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: str, value: object) -> None:
        if self.capacity <= 0:
            return
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)
            self.evictions += 1

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def stats(self) -> Dict[str, int]:
        return {
            "size": len(self._data),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
