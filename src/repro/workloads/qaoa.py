"""QAOA MaxCut workload on seeded random graphs.

This is the "long stable front" family the ROADMAP asks for: each cost layer
is a bag of commuting-in-dependence-terms ZZ interactions over the problem
graph's edges, so a router's front layer stays wide and turns over slowly --
the opposite regime from QFT (whose front is a moving pair).

The instance is fully determined by ``(num_qubits, seed, layers,
edge_prob)``: the problem graph is Erdos-Renyi (re-seeded per size, with a
path fallback so tiny/sparse draws never produce an edgeless, trivially
mappable instance), and the per-layer (gamma, beta) parameter set is drawn
from the same seeded stream -- a "seeded parameter set" rather than an
optimiser trace, which is all a mapping benchmark needs.

Gate decomposition over the repo's native set:

* cost term  exp(-i*gamma*Z_a*Z_b)  -> CPHASE(a, b, -4*gamma) + RZ(a, 2*gamma)
  + RZ(b, 2*gamma)  (up to global phase),
* mixer      RX(2*beta)             -> H * RZ(2*beta) * H  (up to global phase).
"""

from __future__ import annotations

import random
from typing import List, Tuple

from ..circuit.circuit import Circuit
from .base import Workload, register_workload

__all__ = ["QAOAWorkload", "qaoa_graph"]


def qaoa_graph(num_qubits: int, seed: int, edge_prob: float) -> List[Tuple[int, int]]:
    """Seeded Erdos-Renyi edge list (sorted), with a path fallback."""

    rng = random.Random(f"qaoa-graph:{num_qubits}:{seed}")
    edges = [
        (i, j)
        for i in range(num_qubits)
        for j in range(i + 1, num_qubits)
        if rng.random() < edge_prob
    ]
    if not edges:
        edges = [(i, i + 1) for i in range(num_qubits - 1)]
    return edges


@register_workload
class QAOAWorkload(Workload):
    """QAOA MaxCut ansatz on a seeded random graph."""

    name = "qaoa"
    defaults = {"seed": 0, "layers": 2, "edge_prob": 0.5}

    def build(self, num_qubits: int, **params: object) -> Circuit:
        p = self.resolve_params(**params)
        seed, layers, edge_prob = p["seed"], int(p["layers"]), float(p["edge_prob"])
        if num_qubits < 2:
            raise ValueError("QAOA needs at least two qubits")
        if layers < 1:
            raise ValueError("QAOA needs at least one layer")
        edges = qaoa_graph(num_qubits, seed, edge_prob)
        rng = random.Random(f"qaoa-params:{num_qubits}:{seed}:{layers}")
        circ = Circuit(num_qubits, name=f"qaoa_{num_qubits}_p{layers}_s{seed}")
        for q in range(num_qubits):
            circ.h(q)
        for _ in range(layers):
            gamma = rng.uniform(0.1, 1.2)
            beta = rng.uniform(0.1, 1.2)
            for a, b in edges:
                circ.cphase(a, b, -4.0 * gamma)
                circ.rz(a, 2.0 * gamma)
                circ.rz(b, 2.0 * gamma)
            for q in range(num_qubits):
                circ.h(q)
                circ.rz(q, 2.0 * beta)
                circ.h(q)
        return circ
