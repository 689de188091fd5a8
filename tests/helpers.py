"""Importable test helpers.

Lives in a regular module (not ``conftest.py``) so that test modules can
``from helpers import assert_valid_qft`` without depending on which
``conftest`` pytest happens to put first on ``sys.path`` — the seed repo
broke root-level collection because ``benchmarks/conftest.py`` shadowed
``tests/conftest.py`` under the shared module name ``conftest``.
"""

from __future__ import annotations

from repro.circuit import MappedCircuit
from repro.verify import verify_mapped_qft

__all__ = ["assert_valid_qft", "reference_shortest_path", "with_ops"]


def assert_valid_qft(mapped, n=None, *, strict=False, statevector_limit=7):
    """Assert a mapped circuit is a correct QFT (structure + small-n unitary)."""

    result = verify_mapped_qft(
        mapped, n, strict_order=strict, statevector_limit=statevector_limit
    )
    assert result.ok, result.summary()
    return result


def with_ops(mapped, ops):
    """A copy of ``mapped`` carrying the op list ``ops`` instead (a mapped
    circuit's op stream is read-only, so fault injection edits a copy)."""

    return MappedCircuit(
        mapped.topology,
        mapped.num_logical,
        mapped.initial_layout,
        ops,
        mapped.name,
        dict(mapped.metadata),
    )


def reference_shortest_path(topology, a, b):
    """The early-exit BFS ``Topology.shortest_path`` ran before it kept a
    BFS tree per source: the oracle its paths are compared with."""

    if a == b:
        return [a]
    prev = {a: None}
    frontier = [a]
    while frontier:
        nxt = []
        for u in frontier:
            for v in topology.neighbors(u):
                if v not in prev:
                    prev[v] = u
                    if v == b:
                        path = [b]
                        while prev[path[-1]] is not None:
                            path.append(prev[path[-1]])
                        return list(reversed(path))
                    nxt.append(v)
        frontier = nxt
    raise ValueError(f"no path between {a} and {b}; topology is disconnected")
