"""Hardware topology (coupling graph) abstraction.

Every backend in the paper -- the LNN line, the 2-D grid, Google Sycamore,
IBM heavy-hex and the lattice-surgery FT grid -- is modelled as a
:class:`Topology`: a set of physical qubits, an undirected edge set, and a
per-edge cost model.

The cost model is what distinguishes the FT backend: on lattice surgery a
SWAP over a "fast" (green) link has latency 2 while a SWAP over a CNOT-only
link costs three CNOTs and therefore latency 6 (Section 2.3).  On NISQ
backends every op costs one cycle.  A topology states its cost model once,
as :meth:`Topology.op_latency_array`, which prices a whole op stream in one
vectorized call; the one ASAP depth loop
(:meth:`repro.circuit.schedule.MappedCircuit.depths`) is cost-model
agnostic.

Distances are computed lazily with scipy's sparse BFS (vectorised all-pairs
shortest path), because the SABRE baseline scores candidate SWAPs against the
full distance matrix and pure-Python BFS would dominate its runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np
import networkx as nx
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from ..utils import BoundedCache, clear_process_caches

__all__ = ["Topology", "Edge", "clear_distance_cache"]

Edge = Tuple[int, int]

# Process-wide cache of all-pairs distance matrices keyed by the coupling
# graph itself.  Evaluation sweeps (and SABRE seed sweeps in particular)
# rebuild the same Topology object for every cell; sharing the matrix across
# instances means Dijkstra runs once per distinct graph per process.  Matrices
# are marked read-only so shared instances cannot corrupt each other.  The
# cache is LRU-bounded: a paper-profile sweep touches dozens of graphs up to
# 1024 qubits (8 MB of float64 each), and an unbounded dict would pin them
# all for the life of the process.
_DIST_CACHE_MAX = 16
_DIST_CACHE: BoundedCache = BoundedCache(_DIST_CACHE_MAX)


def clear_distance_cache() -> None:
    """Drop every process-wide topology-derived cache (tests / memory
    pressure): distance matrices here, plus the SABRE routing tables and the
    evaluation harness's topology memo (all registered BoundedCaches)."""

    clear_process_caches()


def _norm_edge(a: int, b: int) -> Edge:
    return (a, b) if a < b else (b, a)


@dataclass
class Topology:
    """An undirected coupling graph over ``num_qubits`` physical qubits.

    Parameters
    ----------
    num_qubits:
        Number of physical qubits, indexed ``0..num_qubits-1``.
    edges:
        Iterable of undirected edges.
    name:
        Human-readable backend name.
    positions:
        Optional ``{qubit: (x, y)}`` coordinates used by architecture-specific
        mappers (row/column reasoning) and by plotting helpers.
    """

    num_qubits: int
    edges: Iterable[Edge]
    name: str = "topology"
    positions: Dict[int, Tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_qubits <= 0:
            raise ValueError("Topology needs at least one qubit")
        edge_set: Set[Edge] = set()
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-loop edge ({a}, {b})")
            if not (0 <= a < self.num_qubits and 0 <= b < self.num_qubits):
                raise ValueError(f"edge ({a}, {b}) outside qubit range")
            edge_set.add(_norm_edge(a, b))
        self._edges: FrozenSet[Edge] = frozenset(edge_set)
        self._adj: List[List[int]] = [[] for _ in range(self.num_qubits)]
        for a, b in sorted(self._edges):
            self._adj[a].append(b)
            self._adj[b].append(a)
        for nbrs in self._adj:
            nbrs.sort()
        self._dist: Optional[np.ndarray] = None
        #: BFS predecessor lists by source site (see :meth:`shortest_path`)
        self._bfs_prev: Dict[int, List[int]] = {}

    # -- graph accessors -----------------------------------------------------
    def graph_key(self) -> Tuple[int, FrozenSet[Edge]]:
        """Stable, hashable identity of the coupling graph.

        Two topology instances with the same qubit count and edge set share
        every process-wide cache keyed by this (distance matrices here, SABRE
        routing tables in :mod:`repro.baselines.sabre`) and may be grouped
        together by the evaluation harness.  The frozenset caches its hash
        after the first computation, so reusing one Topology instance across
        cells (as the topology-grouped harness does) makes repeat lookups
        O(1).
        """

        return (self.num_qubits, self._edges)

    @property
    def edge_set(self) -> FrozenSet[Edge]:
        return self._edges

    def edge_list(self) -> List[Edge]:
        return sorted(self._edges)

    def num_edges(self) -> int:
        return len(self._edges)

    def has_edge(self, a: int, b: int) -> bool:
        return _norm_edge(a, b) in self._edges

    def neighbors(self, q: int) -> List[int]:
        return list(self._adj[q])

    def degree(self, q: int) -> int:
        return len(self._adj[q])

    def to_networkx(self) -> nx.Graph:
        g = nx.Graph()
        g.add_nodes_from(range(self.num_qubits))
        g.add_edges_from(self._edges)
        return g

    def is_connected(self) -> bool:
        return nx.is_connected(self.to_networkx())

    # -- distances -------------------------------------------------------
    def distance_matrix(self) -> np.ndarray:
        """All-pairs unweighted shortest-path distances (int matrix)."""

        if self._dist is None:
            key = self.graph_key()
            dist = _DIST_CACHE.lookup(key)
            if dist is None:
                rows, cols = [], []
                for a, b in self._edges:
                    rows.extend((a, b))
                    cols.extend((b, a))
                data = np.ones(len(rows), dtype=np.int8)
                mat = csr_matrix(
                    (data, (rows, cols)), shape=(self.num_qubits, self.num_qubits)
                )
                dist = shortest_path(mat, method="D", unweighted=True, directed=False)
                dist.setflags(write=False)
                _DIST_CACHE.store(key, dist)
            self._dist = dist
        return self._dist

    def distance(self, a: int, b: int) -> int:
        return int(self.distance_matrix()[a, b])

    def shortest_path(self, a: int, b: int) -> List[int]:
        """One shortest physical path from ``a`` to ``b`` (BFS).

        Read off the BFS tree from ``a``, which is built on first use and
        kept (at most one list of ``num_qubits`` predecessors per source).
        Each site's predecessor is the first frontier site, in sorted
        adjacency order, that reaches it: the path an early-exit BFS returns.
        """

        if a == b:
            return [a]
        prev = self._bfs_prev.get(a)
        if prev is None:
            prev = self._bfs_prev[a] = self._bfs_tree(a)
        if prev[b] < 0:
            raise ValueError(f"no path between {a} and {b}; topology is disconnected")
        path = [b]
        while b != a:
            b = prev[b]
            path.append(b)
        path.reverse()
        return path

    def _bfs_tree(self, root: int) -> List[int]:
        """BFS predecessor of every site from ``root`` (``root`` for itself,
        ``-1`` where unreachable)."""

        adj = self._adj
        prev = [-1] * self.num_qubits
        prev[root] = root
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if prev[v] < 0:
                        prev[v] = u
                        nxt.append(v)
            frontier = nxt
        return prev

    # -- cost model --------------------------------------------------------
    def op_latency_array(
        self, kinds: np.ndarray, q0: np.ndarray, q1: np.ndarray
    ) -> np.ndarray:
        """Latency (in cycles) of each op of a packed op stream.

        ``kinds`` holds :data:`~repro.circuit.gates.KIND_CODES` codes; ``q0``
        / ``q1`` the physical operands (``-1`` where absent).  Returns a
        non-negative int64 array as long as ``kinds``.  NISQ default: one
        cycle per op.  Subclasses with a custom cost model override this.
        """

        return np.ones(len(kinds), dtype=np.int64)

    # -- misc ------------------------------------------------------------
    def subtopology(self, qubits: Sequence[int], name: str = "") -> "Topology":
        """Induced sub-topology on ``qubits`` with relabelled indices 0..k-1."""

        index = {q: i for i, q in enumerate(qubits)}
        edges = [
            (index[a], index[b])
            for a, b in self._edges
            if a in index and b in index
        ]
        pos = {index[q]: self.positions[q] for q in qubits if q in self.positions}
        return Topology(len(qubits), edges, name or f"{self.name}_sub", pos)

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        return f"{self.__class__.__name__}(name={self.name!r}, qubits={self.num_qubits}, edges={self.num_edges()})"
