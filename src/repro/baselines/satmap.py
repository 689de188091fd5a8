"""SATMAP stand-in: exact minimum-SWAP routing with a wall-clock timeout.

SATMAP (Molavi et al., MICRO 2022) phrases qubit mapping as a MaxSAT problem
and returns SWAP-count-optimal solutions -- at the cost of a search space that
explodes with the qubit count.  In the paper's evaluation its only role is:

* on tiny instances (<= ~10 qubits) it produces the optimal SWAP count, which
  the other approaches are compared against;
* on everything larger it hits the 2-hour timeout ("TLE" in Table 1).

We reproduce that role without an external MaxSAT solver (none is available
offline) by an exact uniform-cost (Dijkstra) search over
``(qubit placement, progress into the gate list)`` states:

* the gate list is processed in program order (like SATMAP's per-layer
  encoding, the gate order is fixed);
* a state transition either executes the next gate for free (if its qubits are
  adjacent) or applies one SWAP at cost 1;
* the search also explores every initial placement implicitly by starting from
  a configurable set of seeds (identity plus a few shuffles) -- for the 2x2 /
  line instances in Table 1 the identity seed already yields the optimum.

The search is *provably optimal for the explored seeds* and raises
:class:`SatmapTimeout` when the time budget is exhausted, mirroring the TLE
behaviour reported in the paper.  README.md ("Substitutions") documents
this substitution.
"""

from __future__ import annotations

import heapq
import itertools
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..arch.topology import Topology
from ..circuit.circuit import Circuit
from ..circuit.gates import GateKind
from ..circuit.qft import qft_circuit
from ..circuit.schedule import MappedCircuit, MappingBuilder

__all__ = ["SatmapMapper", "SatmapTimeout"]


class SatmapTimeout(TimeoutError):
    """Raised when the exact search exceeds its time budget (the paper's TLE)."""


@dataclass(frozen=True)
class _State:
    layout: Tuple[int, ...]  # logical -> physical
    progress: int            # number of two-qubit gates already executed


class SatmapMapper:
    """Exact (branch-and-bound) SWAP-minimising router with a timeout."""

    name = "satmap"

    def __init__(
        self,
        topology: Topology,
        *,
        timeout_s: float = 60.0,
        extra_seeds: int = 2,
        seed: int = 0,
    ) -> None:
        self.topology = topology
        self.timeout_s = timeout_s
        self.extra_seeds = extra_seeds
        self.seed = seed

    # ------------------------------------------------------------------
    def map_qft(self, num_qubits: Optional[int] = None) -> MappedCircuit:
        n = num_qubits if num_qubits is not None else self.topology.num_qubits
        return self.map_circuit(qft_circuit(n))

    def map_circuit(self, circuit: Circuit) -> MappedCircuit:
        n = circuit.num_qubits
        topo = self.topology
        if n > topo.num_qubits:
            raise ValueError("more logical qubits than physical qubits")

        two_qubit = [g for g in circuit.gates if g.is_two_qubit]
        deadline = time.monotonic() + self.timeout_s

        rng = random.Random(self.seed)
        seeds: List[Tuple[int, ...]] = [tuple(range(n))]
        phys = list(range(topo.num_qubits))
        for _ in range(self.extra_seeds):
            rng.shuffle(phys)
            seeds.append(tuple(phys[:n]))

        best: Optional[Tuple[int, Tuple[int, ...], List[Tuple[int, int]]]] = None
        for seed_layout in seeds:
            result = self._search(two_qubit, seed_layout, deadline)
            if result is None:
                continue
            cost, swap_plan = result
            if best is None or cost < best[0]:
                best = (cost, seed_layout, swap_plan)
        if best is None:
            raise SatmapTimeout(
                f"exact search exceeded {self.timeout_s:.0f}s without a solution"
            )
        _, layout, swap_plan = best
        return self._emit(circuit, layout, swap_plan)

    # ------------------------------------------------------------------
    def _search(
        self,
        two_qubit_gates: Sequence,
        initial_layout: Tuple[int, ...],
        deadline: float,
    ) -> Optional[Tuple[int, List[Tuple[int, int]]]]:
        """Dijkstra over (layout, progress); returns (swap count, swap plan)."""

        topo = self.topology
        dist = topo.distance_matrix()
        total = len(two_qubit_gates)

        def advance(layout: Tuple[int, ...], progress: int) -> int:
            """Greedily execute every next gate that is already adjacent."""

            while progress < total:
                a, b = two_qubit_gates[progress].qubits
                if topo.has_edge(layout[a], layout[b]):
                    progress += 1
                else:
                    break
            return progress

        def lower_bound(layout: Tuple[int, ...], progress: int) -> int:
            if progress >= total:
                return 0
            a, b = two_qubit_gates[progress].qubits
            return max(0, int(dist[layout[a], layout[b]]) - 1)

        start_progress = advance(initial_layout, 0)
        start = _State(initial_layout, start_progress)
        frontier: List[Tuple[int, int, int, _State]] = []
        counter = itertools.count()
        heapq.heappush(
            frontier, (lower_bound(start.layout, start.progress), 0, next(counter), start)
        )
        came_from: Dict[_State, Tuple[Optional[_State], Optional[Tuple[int, int]]]] = {
            start: (None, None)
        }
        best_cost: Dict[_State, int] = {start: 0}

        while frontier:
            if time.monotonic() > deadline:
                return None
            _, cost, _, state = heapq.heappop(frontier)
            if cost > best_cost.get(state, float("inf")):
                continue
            if state.progress >= total:
                # reconstruct swap plan
                plan: List[Tuple[int, int]] = []
                cur: Optional[_State] = state
                while cur is not None:
                    prev, swap = came_from[cur]
                    if swap is not None:
                        plan.append(swap)
                    cur = prev
                plan.reverse()
                return cost, plan

            occupied = set(state.layout)
            for pa, pb in topo.edge_list():
                if pa not in occupied and pb not in occupied:
                    continue
                new_layout = list(state.layout)
                for l, p in enumerate(state.layout):
                    if p == pa:
                        new_layout[l] = pb
                    elif p == pb:
                        new_layout[l] = pa
                new_progress = advance(tuple(new_layout), state.progress)
                nxt = _State(tuple(new_layout), new_progress)
                ncost = cost + 1
                if ncost < best_cost.get(nxt, float("inf")):
                    best_cost[nxt] = ncost
                    came_from[nxt] = (state, (pa, pb))
                    heapq.heappush(
                        frontier,
                        (ncost + lower_bound(tuple(new_layout), new_progress), ncost, next(counter), nxt),
                    )
        return None

    # ------------------------------------------------------------------
    def _emit(
        self,
        circuit: Circuit,
        initial_layout: Tuple[int, ...],
        swap_plan: Sequence[Tuple[int, int]],
    ) -> MappedCircuit:
        """Replay the circuit, inserting the planned SWAPs where needed."""

        topo = self.topology
        builder = MappingBuilder(topo, list(initial_layout), num_logical=circuit.num_qubits, name=self.name)
        plan = list(swap_plan)
        plan_idx = 0
        for gate in circuit.gates:
            if gate.is_two_qubit:
                a, b = gate.qubits
                while not topo.has_edge(builder.phys_of(a), builder.phys_of(b)):
                    if plan_idx >= len(plan):
                        raise RuntimeError("SWAP plan exhausted before circuit completed")
                    pa, pb = plan[plan_idx]
                    plan_idx += 1
                    builder.swap(pa, pb, tag="satmap")
                if gate.kind == GateKind.CPHASE:
                    builder.cphase(builder.phys_of(a), builder.phys_of(b), gate.angle, tag="satmap")
                elif gate.kind == GateKind.CNOT:
                    builder.cnot(builder.phys_of(a), builder.phys_of(b), tag="satmap")
                else:
                    builder.swap(builder.phys_of(a), builder.phys_of(b), tag="satmap")
            else:
                if gate.kind == GateKind.H:
                    builder.h(builder.phys_of(gate.qubits[0]), tag="satmap")
                else:
                    builder.rz(builder.phys_of(gate.qubits[0]), gate.angle, tag="satmap")
        # Any trailing planned swaps are unnecessary; drop them.
        return builder.build(metadata={"mapper": self.name, "optimal_for_seed": True})
