"""Routed completion: a guaranteed-correct (but unoptimised) QFT router.

Two roles:

1. **Safety net.**  The constructive mappers (cascade, heavy-hex, unit-based)
   are built around regular hardware structure.  When they are pointed at an
   irregular topology (tests do this on purpose) they may reach a state where
   their local rules make no further progress.  ``complete_remaining`` then
   finishes the kernel by explicit shortest-path routing, so the mapper's
   output is *always* a correct QFT -- only its depth degrades.  Mappers
   record how much work the fallback did in ``MappedCircuit.metadata`` so
   benchmarks can confirm it was not used on the paper's architectures.

2. **Naive baseline.**  ``GreedyRouterMapper`` maps the whole kernel this way
   (the classic "route every gate along a shortest path" strategy).  It is a
   useful sanity baseline in tests and ablations: every smarter mapper should
   beat it.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple

from ..arch.topology import Topology
from ..circuit.circuit import Circuit
from ..circuit.gates import KIND_CODES, GateKind, qft_angle
from ..circuit.qft import qft_circuit
from ..circuit.schedule import MappedCircuit, MappingBuilder
from ..utils import check_budget
from .dependence import QFTDependenceTracker

__all__ = ["complete_remaining", "finish_hadamards", "GreedyRouterMapper"]

_H = KIND_CODES[GateKind.H]
_RZ = KIND_CODES[GateKind.RZ]
_CPHASE = KIND_CODES[GateKind.CPHASE]
_SWAP = KIND_CODES[GateKind.SWAP]


def _route_adjacent(
    builder: MappingBuilder, phys_a: int, phys_b: int, tag: str
) -> Tuple[int, int, int]:
    """SWAP the qubit at ``phys_a`` along a shortest path until it is adjacent
    to ``phys_b``; return the final (phys_a', phys_b) pair and the number of
    SWAPs emitted."""

    topo: Topology = builder.topology
    if topo.has_edge(phys_a, phys_b) or phys_a == phys_b:
        return phys_a, phys_b, 0
    path = topo.shortest_path(phys_a, phys_b)
    # Move the logical qubit at phys_a along the path, stopping one hop short.
    current = phys_a
    for nxt in path[1:-1]:
        builder.swap(current, nxt, tag=tag)
        current = nxt
    return current, phys_b, len(path) - 2


def complete_remaining(
    builder: MappingBuilder,
    tracker: QFTDependenceTracker,
    pairs: Optional[Iterable[Tuple[int, int]]] = None,
    *,
    tag: str = "routed",
) -> int:
    """Complete the given pending CPHASE pairs (default: all of them) plus any
    outstanding Hadamards of the involved qubits, by explicit routing.

    Returns the number of SWAP gates inserted.  The routine always terminates:
    at every step the smallest-index qubit appearing in a pending pair has all
    of its smaller-index interactions finished, so either its H or one of its
    pair interactions is eligible.
    """

    if pairs is None:
        wanted: Set[Tuple[int, int]] = set(tracker.pending_pairs())
    else:
        wanted = {tuple(sorted(p)) for p in pairs}
        wanted = {p for p in wanted if tracker.pair_is_pending(*p)}
    swaps = 0

    while wanted:
        # Fire every eligible Hadamard that unblocks a wanted pair.
        fired_h = True
        while fired_h:
            fired_h = False
            lows = {p[0] for p in wanted}
            for q in sorted(lows):
                if tracker.can_h(q):
                    builder.h(builder.phys_of(q), tag=tag)
                    tracker.mark_h(q)
                    fired_h = True

        eligible = [p for p in sorted(wanted) if tracker.can_cphase(*p)]
        if not eligible:
            # No wanted pair is eligible: some wanted pair's low qubit is
            # blocked on a *non-wanted* pending pair.  Pull that pair in.
            blockers: Set[Tuple[int, int]] = set()
            for lo, hi in sorted(wanted):
                if not tracker.h_done[lo]:
                    for x in range(lo):
                        if tracker.pair_is_pending(x, lo):
                            blockers.add((x, lo))
            if not blockers:
                raise RuntimeError(
                    "routed completion is stuck: no eligible pair and no blocking "
                    "pair found -- dependence state is inconsistent"
                )
            wanted |= blockers
            continue

        # Route the most constrained eligible pair (smallest low index first,
        # mirroring the textbook order so the fallback stays deterministic).
        lo, hi = eligible[0]
        pa = builder.phys_of(lo)
        pb = builder.phys_of(hi)
        pa, pb, moved = _route_adjacent(builder, pa, pb, tag)
        swaps += moved
        builder.cphase(pa, pb, qft_angle(lo, hi), tag=tag)
        tracker.mark_cphase(lo, hi)
        wanted.discard((lo, hi))

    return swaps


def finish_hadamards(
    builder: MappingBuilder, tracker: QFTDependenceTracker, tag: str = "routed"
) -> int:
    """Emit every still-missing, eligible Hadamard (used at the very end of a
    mapper when all pairs are complete).  Returns the number emitted."""

    emitted = 0
    for q in range(tracker.n):
        if tracker.can_h(q):
            builder.h(builder.phys_of(q), tag=tag)
            tracker.mark_h(q)
            emitted += 1
    return emitted


class GreedyRouterMapper:
    """Naive baseline: map any circuit by routing every interaction on demand.

    Gates are executed in program order, each two-qubit gate enabled by
    SWAPping its first qubit along a shortest path.  Initial layout is the
    identity (logical i on physical i) unless given.  For the QFT this
    reproduces the classic strict Type I + II routing baseline (the textbook
    circuit *is* its program order), but the router is workload-agnostic:
    it is the approach of last resort for any circuit on any topology.
    """

    name = "greedy-router"

    def __init__(self, topology: Topology, initial_layout: Optional[Sequence[int]] = None):
        self.topology = topology
        self.initial_layout = list(initial_layout) if initial_layout is not None else None

    def map_qft(self, num_qubits: Optional[int] = None) -> MappedCircuit:
        n = num_qubits if num_qubits is not None else self.topology.num_qubits
        return self.map_circuit(qft_circuit(n))

    def map_circuit(self, circuit: Circuit) -> MappedCircuit:
        from ..registry import UnsupportedWorkload

        n = circuit.num_qubits
        if n > self.topology.num_qubits:
            raise ValueError("more logical qubits than physical qubits")
        layout = self.initial_layout if self.initial_layout is not None else list(range(n))
        builder = MappingBuilder(self.topology, layout, num_logical=n, name=self.name)
        phys_of = builder.phys_of
        for i, (code, a, b, angle) in enumerate(
            zip(circuit.kinds, circuit.q0, circuit.q1, circuit.angles)
        ):
            if not i & 1023:
                check_budget()
            if code == _H:
                builder.h(phys_of(a), tag="routed")
            elif code == _RZ:
                builder.rz(phys_of(a), angle, tag="routed")
            elif code == _SWAP:
                # A program-level SWAP cannot be told apart from a routing
                # SWAP in the mapped stream (verification replays treat every
                # SWAP as data movement), so compiling it silently would
                # yield a circuit that drops the gate.  Workloads express
                # permutations through relabelling instead.
                raise UnsupportedWorkload(
                    f"{self.name} cannot compile program-level SWAP gates; "
                    "express the permutation as a relabelling"
                )
            else:  # CPHASE or CNOT
                pa, pb, _ = _route_adjacent(builder, phys_of(a), phys_of(b), "routed")
                if code == _CPHASE:
                    builder.cphase(pa, pb, angle, tag="routed")
                else:
                    builder.cnot(pa, pb, tag="routed")
        return builder.build(metadata={"mapper": self.name})
