"""Surface-code lattice-surgery FT backend (Section 2.3 / Section 6).

In the lattice-surgery mode logical data qubits tile a 2-D grid, interleaved
with ancilla tiles.  After the rotation/stretching of Fig. 15 the data qubits
form an ``m x m`` grid whose links have *heterogeneous* costs:

* **fast links** (green in Fig. 5) -- the former diagonal ancilla-mediated
  links, drawn horizontally after the rotation.  A SWAP over a fast link uses
  two ancillae at once and has depth 2.
* **CNOT links** (black) -- the former horizontal/vertical links, drawn
  vertically after the rotation.  Only CNOTs are native; a SWAP costs three
  CNOTs and therefore depth 6.  A CNOT (and hence a CPHASE, which the cost
  model charges like a CNOT) has depth 2 on *any* link.

``LatticeSurgeryTopology`` encodes this cost model in ``op_latency_array``,
so the one ASAP depth loop (``MappedCircuit.depths``) produces the weighted
depth the paper reports.
No existing SWAP-insertion tool models the heterogeneity (the paper lets
SABRE/SATMAP use all links at uniform cost, which *favours* the baselines);
our evaluation harness reproduces that choice.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..circuit.gates import KIND_CODES, GateKind
from .topology import Topology

__all__ = ["LatticeSurgeryTopology"]


class LatticeSurgeryTopology(Topology):
    """An ``m x m`` lattice-surgery data-qubit grid with heterogeneous links.

    Physical qubit index of cell ``(r, c)`` is ``r * m + c``.  Rows are the
    *units* of Section 6; horizontal links (within a row) are fast SWAP links,
    vertical links (between rows) are CNOT-only links.
    """

    #: depth of a SWAP over a fast (green / intra-row) link
    FAST_SWAP_LATENCY = 2
    #: depth of a SWAP over a CNOT-only (vertical) link: 3 CNOTs x depth 2
    SLOW_SWAP_LATENCY = 6
    #: depth of a CNOT / CPHASE over any link
    CNOT_LATENCY = 2
    #: depth of a transversal single-qubit gate
    SINGLE_QUBIT_LATENCY = 1

    def __init__(self, m: int, rows: int | None = None) -> None:
        cols = m
        rows = m if rows is None else rows
        if rows < 1 or cols < 1:
            raise ValueError("lattice surgery grid needs positive dimensions")
        self.rows = rows
        self.cols = cols
        edges: List[Tuple[int, int]] = []
        positions: Dict[int, Tuple[float, float]] = {}
        for r in range(rows):
            for c in range(cols):
                q = r * cols + c
                positions[q] = (float(c), float(-r))
                if c + 1 < cols:
                    edges.append((q, q + 1))
                if r + 1 < rows:
                    edges.append((q, q + cols))
        super().__init__(
            rows * cols, edges, name=f"lattice_surgery_{rows}x{cols}", positions=positions
        )

    # -- coordinates --------------------------------------------------------
    def index(self, r: int, c: int) -> int:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise ValueError(f"cell ({r}, {c}) outside {self.rows}x{self.cols} grid")
        return r * self.cols + c

    def coords(self, q: int) -> Tuple[int, int]:
        return divmod(q, self.cols)

    def row_qubits(self, r: int) -> List[int]:
        return [self.index(r, c) for c in range(self.cols)]

    def is_fast_link(self, a: int, b: int) -> bool:
        """True if (a, b) is a fast (intra-row) SWAP link."""

        if not self.has_edge(a, b):
            raise ValueError(f"({a}, {b}) is not a link")
        ra, _ = self.coords(a)
        rb, _ = self.coords(b)
        return ra == rb

    def serpentine_order(self) -> List[int]:
        """A Hamiltonian path (snake through rows); used by the LNN baseline."""

        order: List[int] = []
        for r in range(self.rows):
            cs = range(self.cols) if r % 2 == 0 else range(self.cols - 1, -1, -1)
            order.extend(self.index(r, c) for c in cs)
        return order

    # -- unit structure (Section 6) ------------------------------------------
    @property
    def num_units(self) -> int:
        return self.rows

    @property
    def unit_size(self) -> int:
        return self.cols

    def unit_line(self, u: int) -> List[int]:
        """Unit ``u`` is simply row ``u`` (a line over fast links)."""

        return self.row_qubits(u)

    # -- cost model --------------------------------------------------------
    def op_latency_array(
        self, kinds: np.ndarray, q0: np.ndarray, q1: np.ndarray
    ) -> np.ndarray:
        """Latency of each op of a packed op stream (Section 2.3).

        Single-qubit gates cost 1, barriers 0 and CNOT / CPHASE 2 on any
        link; a SWAP costs 2 on a fast link and 6 on a CNOT-only one.
        Fast-link detection reduces to a same-row test (intra-row links are
        the fast ones), which vectorizes as an integer division; the op
        stream is adjacency-checked by the builder, so every SWAP pair here
        is a real link.
        """

        lat = np.full(len(kinds), self.CNOT_LATENCY, dtype=np.int64)
        single = (kinds == KIND_CODES[GateKind.H]) | (kinds == KIND_CODES[GateKind.RZ])
        lat[single] = self.SINGLE_QUBIT_LATENCY
        lat[kinds == KIND_CODES[GateKind.BARRIER]] = 0
        swap = kinds == KIND_CODES[GateKind.SWAP]
        if swap.any():
            fast = swap & ((q0 // self.cols) == (q1 // self.cols))
            lat[fast] = self.FAST_SWAP_LATENCY
            lat[swap & ~fast] = self.SLOW_SWAP_LATENCY
        return lat
