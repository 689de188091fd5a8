"""Importable test helpers.

Lives in a regular module (not ``conftest.py``) so that test modules can
``from helpers import assert_valid_qft`` without depending on which
``conftest`` pytest happens to put first on ``sys.path`` — the seed repo
broke root-level collection because ``benchmarks/conftest.py`` shadowed
``tests/conftest.py`` under the shared module name ``conftest``.
"""

from __future__ import annotations

import threading

from repro.circuit import GateKind, MappedCircuit
from repro.verify import verify_mapped_qft

__all__ = [
    "asap_depth",
    "asap_layers",
    "assert_valid_qft",
    "reference_shortest_path",
    "run_in_thread",
    "with_ops",
]


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


def _asap(ops, costs):
    """Yield ``(op, start, end)`` cycles of each op but barriers in an ASAP
    schedule where op ``i`` takes ``costs[i]`` cycles; a barrier is a global
    fence."""

    costs = list(costs)
    assert len(costs) == len(ops)
    busy = {}
    fence = 0
    for op, cost in zip(ops, costs):
        if op.kind == GateKind.BARRIER:
            fence = max([fence, *busy.values()])
            continue
        start = max([fence] + [busy.get(q, 0) for q in op.physical])
        for q in op.physical:
            busy[q] = start + cost
        yield op, start, start + cost


def asap_depth(ops, costs):
    """Weighted ASAP depth of an op list, op ``i`` costing ``costs[i]``
    cycles: the scalar oracle ``MappedCircuit.depths`` is compared with."""

    return max((end for _, _, end in _asap(ops, costs)), default=0)


def asap_layers(ops):
    """Unit-latency ASAP layering (each layer holds qubit-disjoint ops)."""

    layers = []
    for op, start, _ in _asap(ops, [1] * len(ops)):
        layers += [[] for _ in range(start + 1 - len(layers))]
        layers[start].append(op)
    return layers


def run_in_thread(fn, timeout_s=60.0):
    """``fn()`` called in a fresh ``threading.Thread``: its value, or the
    exception it raised, re-raised here."""

    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # handed back to the caller below
            box["error"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout_s)
    assert not thread.is_alive(), f"thread still running after {timeout_s}s"
    if "error" in box:
        raise box["error"]
    return box["value"]
