"""Google-Sycamore-like architecture (Section 5, Fig. 12).

Sycamore couples qubits on a diagonal lattice of degree <= 4.  The paper does
not use the raw edge list directly; it relies on three structural properties
of an ``m x m`` Sycamore patch (m even):

1. every *unit* of two consecutive rows contains a Hamiltonian line through
   its ``2m`` qubits (the zigzag of Fig. 12),
2. two adjacent units can exchange all their qubits with three layers of
   transversal SWAPs ("unit SWAP"),
3. between two adjacent units there are links connecting qubits whose column
   indices differ by one, which is what the synced inter-unit travel pattern
   (Fig. 13) exploits.

``SycamoreTopology`` models exactly these properties: between every pair of
adjacent rows it places the vertical (same-column) links plus one diagonal
link per column, with the diagonal direction chosen so that each unit's two
rows form the zigzag line.  The resulting degree is at most 4, as on the real
device.  (README.md, "Substitutions", records this modelling choice.)
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .topology import Topology

__all__ = ["SycamoreTopology"]


class SycamoreTopology(Topology):
    """An ``m x m`` Sycamore-style patch; ``m`` must be even and >= 2.

    Physical qubit index of cell ``(r, c)`` is ``r * m + c``.
    Unit ``u`` consists of rows ``2u`` and ``2u + 1``.
    """

    def __init__(self, m: int) -> None:
        if m < 2 or m % 2 != 0:
            raise ValueError("Sycamore patch size m must be an even number >= 2")
        self.m = m
        edges: List[Tuple[int, int]] = []
        positions: Dict[int, Tuple[float, float]] = {}

        def idx(r: int, c: int) -> int:
            return r * m + c

        for r in range(m):
            for c in range(m):
                q = idx(r, c)
                # Stagger odd rows by half a cell to hint at the diagonal lattice.
                positions[q] = (c + (0.5 if r % 2 else 0.0), float(-r))
        for r in range(m - 1):
            for c in range(m):
                # Vertical (same-column) link between adjacent rows.
                edges.append((idx(r, c), idx(r + 1, c)))
                # One diagonal link per column pair.  Within a unit (r even)
                # the diagonal goes from the bottom row col c to the top row
                # col c+1, completing the intra-unit zigzag line; across units
                # (r odd) it provides the "column index differs by one" links
                # used by the inter-unit interaction pattern.
                if c + 1 < m:
                    if r % 2 == 0:
                        edges.append((idx(r + 1, c), idx(r, c + 1)))
                    else:
                        edges.append((idx(r, c), idx(r + 1, c + 1)))
        super().__init__(m * m, edges, name=f"sycamore_{m}x{m}", positions=positions)

    # -- coordinates -------------------------------------------------------
    def index(self, r: int, c: int) -> int:
        if not (0 <= r < self.m and 0 <= c < self.m):
            raise ValueError(f"cell ({r}, {c}) outside {self.m}x{self.m} Sycamore patch")
        return r * self.m + c

    def coords(self, q: int) -> Tuple[int, int]:
        return divmod(q, self.m)

    # -- unit structure (Section 5) -----------------------------------------
    @property
    def num_units(self) -> int:
        return self.m // 2

    @property
    def unit_size(self) -> int:
        """Number of qubits per unit (= 2m)."""

        return 2 * self.m

    def unit_rows(self, u: int) -> Tuple[int, int]:
        if not (0 <= u < self.num_units):
            raise ValueError(f"unit {u} outside range")
        return 2 * u, 2 * u + 1

    def unit_line(self, u: int) -> List[int]:
        """The Hamiltonian line through unit ``u`` (zigzag of Fig. 12).

        Order: (top, c0), (bottom, c0), (top, c1), (bottom, c1), ...  Adjacent
        entries are guaranteed to be coupled (vertical then diagonal links).
        """

        top, bottom = self.unit_rows(u)
        line: List[int] = []
        for c in range(self.m):
            line.append(self.index(top, c))
            line.append(self.index(bottom, c))
        return line

    def unit_of(self, q: int) -> int:
        r, _ = self.coords(q)
        return r // 2

    def inter_unit_links(self, u: int) -> List[Tuple[int, int]]:
        """Links between unit ``u``'s bottom row and unit ``u+1``'s top row."""

        if not (0 <= u < self.num_units - 1):
            raise ValueError(f"no unit pair ({u}, {u + 1})")
        _, bottom = self.unit_rows(u)
        top_next, _ = self.unit_rows(u + 1)
        links = []
        for c in range(self.m):
            a = self.index(bottom, c)
            b = self.index(top_next, c)
            if self.has_edge(a, b):
                links.append((a, b))
            if c + 1 < self.m:
                b2 = self.index(top_next, c + 1)
                if self.has_edge(a, b2):
                    links.append((a, b2))
        return links
