"""SABRE qubit mapping (Li, Ding, Xie -- ASPLOS 2019), re-implemented.

SABRE is the paper's main baseline (Section 7): a heuristic SWAP-insertion
router that maintains a *front layer* of gates whose dependences are resolved,
greedily executes whatever is already hardware-compliant, and otherwise
inserts the SWAP that minimises a distance heuristic combining the front layer
with a look-ahead *extended set*, modulated by per-qubit decay factors to
spread SWAPs across qubits.  The initial mapping is improved with
forward/backward passes over the circuit ("reverse traversal").

This re-implementation follows the published algorithm; it is seeded (the
paper's Fig. 27 shows how strongly SABRE's output depends on the seed, and
:mod:`repro.eval.experiments` reproduces that observation).  The default
routing path scores candidate SWAPs by *exact deltas* against maintained
base sums: the front term costs O(1) per candidate (front gates are
vertex-disjoint), and the extended-set term is gathered only for candidates
incident to an extended-set endpoint -- every other candidate's ext delta is
exactly 0 -- so the per-iteration cost no longer carries the full
``candidates x extended-set`` relabel matrix.  The compiled kernel
(:mod:`repro.baselines.sabre_kernel`) goes further: it keeps the front
sorted, reads candidates off an edge bitset and sums a candidate's
extended-set delta over the gates on its two sites only, so a swap
iteration costs what the swap touched, not the size of the front or of the
extended set (see EXPERIMENTS.md "Performance").  The reference path
(``vectorized=False``) keeps the textbook per-candidate loop and stays
bit-identical; it is the only path for circuits containing logical SWAP
gates, and the equivalence suites' oracle.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..arch.topology import Topology
from ..utils import BoundedCache
from ..circuit.circuit import Circuit
from ..circuit.gates import GateKind
from ..circuit.qft import qft_circuit
from ..circuit.schedule import MappedCircuit, MappingBuilder

__all__ = ["SabreMapper", "sabre_tables_for", "SABRE_KERNELS", "KERNEL_ENV_VAR"]

#: recognised values for ``SabreMapper(kernel=...)`` / ``REPRO_SABRE_KERNEL``
SABRE_KERNELS = ("auto", "c", "python")

#: environment override for the routing kernel; wins over the constructor
#: argument, so CI (and operators) can force the fallback path repo-wide
#: without touching call sites
KERNEL_ENV_VAR = "REPRO_SABRE_KERNEL"

# Process-wide cache of the static per-topology tables the fast path uses
# (adjacency mask, lexicographic edge ids, per-qubit incidence bitsets).
# Keyed by the coupling graph identity (`Topology.graph_key`) so seed sweeps
# and topology-grouped evaluation workers build them once per (process,
# topology) instead of once per mapper instance.  LRU-bounded like the
# distance-matrix cache in :mod:`repro.arch.topology`.
_TABLE_CACHE: BoundedCache = BoundedCache(16)



def sabre_tables_for(
    topology: Topology,
) -> Tuple[np.ndarray, List[Tuple[int, int]], np.ndarray, np.ndarray]:
    """Static routing tables for ``topology``: ``(adjacency mask, edge list,
    edge array, incidence bitsets)``, shared process-wide.

    Edge id order equals ``sorted(edge_set)`` order, so an ascending array of
    edge ids enumerates candidate SWAPs exactly like the reference path's
    ``sorted(candidates)`` over (a, b) tuples.  Incidence is stored as
    little-endian bitsets: one row of bytes per qubit, bit ``eid`` set iff
    edge ``eid`` touches the qubit; the union of incident edges over any
    qubit set is then a single ``bitwise_or.reduce`` + ``unpackbits``.
    """

    key = topology.graph_key()
    hit = _TABLE_CACHE.lookup(key)
    if hit is not None:
        return hit
    n = topology.num_qubits
    mask = np.zeros((n, n), dtype=bool)
    for a, b in topology.edge_set:
        mask[a, b] = mask[b, a] = True
    mask.setflags(write=False)
    edge_list = sorted(topology.edge_set)
    edge_arr = np.asarray(edge_list, dtype=np.intp).reshape(len(edge_list), 2)
    nbytes = (len(edge_list) + 7) // 8
    edge_bits = np.zeros((n, max(1, nbytes)), dtype=np.uint8)
    for eid, (a, b) in enumerate(edge_list):
        edge_bits[a, eid >> 3] |= 1 << (eid & 7)
        edge_bits[b, eid >> 3] |= 1 << (eid & 7)
    edge_arr.setflags(write=False)
    edge_bits.setflags(write=False)
    return _TABLE_CACHE.store(key, (mask, edge_list, edge_arr, edge_bits))


@dataclass
class _Dag:
    """Lightweight per-qubit-chain dependence DAG (program order)."""

    num_gates: int
    successors: List[List[int]]
    indegree: List[int]

    @classmethod
    def from_circuit(cls, circuit: Circuit) -> "_Dag":
        last_on_qubit: Dict[int, int] = {}
        successors: List[List[int]] = [[] for _ in circuit.gates]
        indegree = [0] * len(circuit.gates)
        for idx, gate in enumerate(circuit.gates):
            preds = set()
            for q in gate.qubits:
                if q in last_on_qubit:
                    preds.add(last_on_qubit[q])
                last_on_qubit[q] = idx
            for p in preds:
                successors[p].append(idx)
                indegree[idx] += 1
        return cls(len(circuit.gates), successors, indegree)


def _extended_set_of(
    successors: List[List[int]],
    is2q: List[bool],
    front_2q: List[int],
    size: int,
) -> List[int]:
    """Look-ahead extended set: BFS over DAG successors of the front layer,
    collecting up to ``size`` two-qubit gates.  Layout-independent, shared by
    the reference and vectorized routing paths so they cannot drift apart.
    """

    out: List[int] = []
    frontier = list(front_2q)
    seen = set(front_2q)
    while frontier and len(out) < size:
        nxt: List[int] = []
        for g in frontier:
            for s in successors[g]:
                if s in seen:
                    continue
                seen.add(s)
                if is2q[s]:
                    out.append(s)
                    if len(out) >= size:
                        break
                nxt.append(s)
            if len(out) >= size:
                break
        frontier = nxt
    return out


class SabreMapper:
    """SABRE-style heuristic mapper.

    Parameters
    ----------
    topology:
        Target coupling graph.
    seed:
        RNG seed for the initial mapping (and tie breaking).
    passes:
        Number of traversal passes used to refine the initial mapping
        (1 = single forward pass with the seed mapping, 3 = the classic
        forward/backward/forward schedule).
    extended_set_size:
        Number of look-ahead gates in the extended set.
    extended_set_weight:
        Weight of the extended-set term in the heuristic.
    decay_delta / decay_reset_interval:
        Decay-factor parameters from the SABRE paper.
    vectorized:
        Score candidate SWAPs with numpy batch lookups against the distance
        matrix (default).  ``False`` selects the original per-candidate
        Python loop; both paths produce bit-identical routed circuits (the
        equivalence is covered by tests), the reference path just exists for
        cross-checking and for pedagogical clarity.
    kernel:
        Which routing engine runs the swap loop.  ``"auto"`` (default) uses
        the compiled C kernel (:mod:`repro.baselines._sabre_kernel`, built
        via ``python setup.py build_ext --inplace``) whenever it is built
        *and* the mapper is in its default scoring configuration
        (``vectorized=True``), falling back to the vectorized Python path
        otherwise; ``"c"`` requires the extension and
        raises with a build hint when it is missing; ``"python"`` never
        touches the extension.  All kernels are bit-identical -- same swaps,
        same depth/SWAP metrics, same RNG consumption -- so the choice can
        never change results, only wall-clock (the equivalence suite in
        ``tests/test_sabre_kernel.py`` pins this).  The environment variable
        ``REPRO_SABRE_KERNEL`` overrides the constructor argument; circuits
        containing *logical* SWAP gates always route through the reference
        path (as before), whatever the kernel selection.  The engine that
        actually routed the last ``map_circuit`` call is recorded in
        ``last_kernel`` and in the mapped circuit's ``metadata["kernel"]``.
    """

    name = "sabre"

    def __init__(
        self,
        topology: Topology,
        *,
        seed: int = 0,
        passes: int = 3,
        extended_set_size: int = 20,
        extended_set_weight: float = 0.5,
        decay_delta: float = 0.001,
        decay_reset_interval: int = 5,
        trivial_initial_layout: bool = False,
        vectorized: bool = True,
        kernel: str = "auto",
    ) -> None:
        self.topology = topology
        self.seed = seed
        self.passes = max(1, passes)
        self.extended_set_size = extended_set_size
        self.extended_set_weight = extended_set_weight
        self.decay_delta = decay_delta
        self.decay_reset_interval = decay_reset_interval
        self.trivial_initial_layout = trivial_initial_layout
        self.vectorized = vectorized
        if kernel not in SABRE_KERNELS:
            raise ValueError(
                f"unknown SABRE kernel {kernel!r} (one of {SABRE_KERNELS})"
            )
        self.kernel = kernel
        #: routing engine used by the most recent ``map_circuit`` call
        #: ("c" or "python"); also recorded in the mapped metadata
        self.last_kernel: Optional[str] = None
        # Stats of the most recent fast-path routing pass ({iterations,
        # front_rebuilds, candidates_mean}); the perf harness uses them to
        # check the per-swap-iteration cost stays flat at paper scale.
        self.last_routing_stats: Optional[Dict[str, float]] = None
        self._dist = topology.distance_matrix()

    # ------------------------------------------------------------------
    def _resolve_kernel(self) -> str:
        """Effective routing engine for this call: ``"c"`` or ``"python"``.

        The ``REPRO_SABRE_KERNEL`` environment variable overrides the
        constructor argument (checked per call, so CI legs and tests can
        flip it without rebuilding mappers).  The compiled kernel only
        implements the default scoring configuration; a mapper explicitly
        configured for the reference loop (``vectorized=False``) keeps its
        Python path -- outputs are bit-identical either way, so this is a
        speed decision, never a semantic one.
        """

        from .sabre_kernel import KERNEL_BUILD_HINT, kernel_available

        choice = os.environ.get(KERNEL_ENV_VAR, "").strip() or self.kernel
        if choice not in SABRE_KERNELS:
            raise ValueError(
                f"unknown SABRE kernel {choice!r} from {KERNEL_ENV_VAR} "
                f"(one of {SABRE_KERNELS})"
            )
        if choice == "python":
            return "python"
        if choice == "c" and not kernel_available():
            raise RuntimeError(KERNEL_BUILD_HINT)
        if not self.vectorized:
            return "python"
        if choice == "auto" and not kernel_available():
            return "python"
        return "c"

    # ------------------------------------------------------------------
    def map_qft(self, num_qubits: Optional[int] = None) -> MappedCircuit:
        n = num_qubits if num_qubits is not None else self.topology.num_qubits
        return self.map_circuit(qft_circuit(n))

    def map_circuit(self, circuit: Circuit) -> MappedCircuit:
        n = circuit.num_qubits
        if n > self.topology.num_qubits:
            raise ValueError("more logical qubits than physical qubits")

        rng = random.Random(self.seed)
        if self.trivial_initial_layout:
            layout = list(range(n))
        else:
            phys = list(range(self.topology.num_qubits))
            rng.shuffle(phys)
            layout = phys[:n]

        # Reverse-traversal refinement of the initial layout: the passes
        # alternate forward and backward, and the last one emits forward.
        route = self._router(circuit)
        current = layout
        for p in range(self.passes - 1):
            _, current = route(current, rng, emit=False, backward=p % 2 == 1)

        builder, _ = route(current, rng, emit=True, backward=False)
        mapped = builder.build(
            metadata={
                "mapper": self.name,
                "seed": self.seed,
                "passes": self.passes,
                # Which engine routed this circuit.  Purely informational:
                # every kernel is bit-identical, so this never forks metrics
                # (the eval cache treats it as volatile when merging).
                "kernel": self.last_kernel,
            }
        )
        return mapped

    # ------------------------------------------------------------------
    def _router(self, circuit: Circuit):
        """The routing passes over ``circuit``, with the engine decided once.

        Returns ``route(initial_layout, rng, *, emit, backward)``, which runs
        one traversal pass over the circuit (or, with ``backward``, over its
        reversal) and returns ``(builder or None, final layout)``.  All
        engines follow the identical algorithm (same execution order, same
        candidate enumeration, same float arithmetic, same RNG consumption),
        so they produce bit-identical routed circuits; the fast path batches
        the per-candidate scoring and executability checks through numpy,
        and the compiled kernel (:mod:`repro.baselines.sabre_kernel`,
        selected at runtime via ``kernel=``/``REPRO_SABRE_KERNEL``) runs the
        whole loop in C over tables it builds once for every pass.  Both
        fast paths assume executing a gate never changes the layout
        mid-sweep, which fails for circuits containing *logical* SWAP gates
        -- those fall back to the reference path.
        """

        swap_free = GateKind.SWAP not in map(attrgetter("kind"), circuit.gates)
        if swap_free and self._resolve_kernel() == "c":
            from .sabre_kernel import route_compiled

            self.last_kernel = "c"
            return route_compiled(self, circuit)
        self.last_kernel = "python"
        engine = self._route_fast if self.vectorized and swap_free else self._route_reference
        circuits = (circuit, circuit.reversed())

        def route(initial_layout, rng, *, emit, backward):
            return engine(circuits[backward], initial_layout, rng, emit=emit)

        return route

    def _route(
        self,
        circuit: Circuit,
        initial_layout: Sequence[int],
        rng: random.Random,
        *,
        emit: bool,
    ) -> Tuple[Optional[MappingBuilder], List[int]]:
        """Route one forward traversal pass of ``circuit`` (see :meth:`_router`)."""

        return self._router(circuit)(initial_layout, rng, emit=emit, backward=False)

    # ------------------------------------------------------------------
    def _route_reference(
        self,
        circuit: Circuit,
        initial_layout: Sequence[int],
        rng: random.Random,
        *,
        emit: bool,
    ) -> Tuple[Optional[MappingBuilder], List[int]]:
        n = circuit.num_qubits
        topo = self.topology
        dist = self._dist
        dag = _Dag.from_circuit(circuit)
        gates = circuit.gates

        builder = (
            MappingBuilder(topo, initial_layout, num_logical=n, name=self.name)
            if emit
            else None
        )
        # local layout tracking (kept even when emitting, for speed)
        log_to_phys = list(initial_layout)
        phys_to_log: Dict[int, int] = {p: l for l, p in enumerate(initial_layout)}

        indegree = list(dag.indegree)
        front: Set[int] = {i for i, d in enumerate(indegree) if d == 0}
        decay = np.ones(topo.num_qubits)
        swaps_since_reset = 0

        def gate_executable(idx: int) -> bool:
            g = gates[idx]
            if not g.is_two_qubit:
                return True
            a, b = g.qubits
            return topo.has_edge(log_to_phys[a], log_to_phys[b])

        def execute(idx: int) -> None:
            g = gates[idx]
            if emit:
                if g.kind == GateKind.H:
                    builder.h(log_to_phys[g.qubits[0]], tag="sabre")
                elif g.kind == GateKind.RZ:
                    builder.rz(log_to_phys[g.qubits[0]], g.angle, tag="sabre")
                elif g.kind == GateKind.CPHASE:
                    a, b = g.qubits
                    builder.cphase(log_to_phys[a], log_to_phys[b], g.angle, tag="sabre")
                elif g.kind == GateKind.CNOT:
                    a, b = g.qubits
                    builder.cnot(log_to_phys[a], log_to_phys[b], tag="sabre")
                elif g.kind == GateKind.SWAP:
                    a, b = g.qubits
                    builder.swap(log_to_phys[a], log_to_phys[b], tag="sabre")
                else:  # pragma: no cover - defensive
                    raise ValueError(f"unsupported gate kind {g.kind!r}")
            if g.kind == GateKind.SWAP:
                a, b = g.qubits
                pa, pb = log_to_phys[a], log_to_phys[b]
                log_to_phys[a], log_to_phys[b] = pb, pa
                phys_to_log[pa], phys_to_log[pb] = b, a
            front.discard(idx)
            for succ in dag.successors[idx]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    front.add(succ)

        def apply_swap(pa: int, pb: int) -> None:
            if emit:
                builder.swap(pa, pb, tag="sabre-swap")
            la = phys_to_log.get(pa)
            lb = phys_to_log.get(pb)
            if la is not None:
                log_to_phys[la] = pb
            if lb is not None:
                log_to_phys[lb] = pa
            if la is not None:
                phys_to_log[pb] = la
            elif pb in phys_to_log:
                del phys_to_log[pb]
            if lb is not None:
                phys_to_log[pa] = lb
            elif pa in phys_to_log:
                del phys_to_log[pa]

        is2q_list = [g.is_two_qubit for g in gates]

        def extended_set(front_2q: List[int]) -> List[int]:
            return _extended_set_of(
                dag.successors, is2q_list, front_2q, self.extended_set_size
            )

        def heuristic(front_2q: List[int], ext: List[int], pa: int, pb: int) -> float:
            # Score the layout obtained by swapping (pa, pb).
            la = phys_to_log.get(pa)
            lb = phys_to_log.get(pb)

            def phys_of(lq: int) -> int:
                p = log_to_phys[lq]
                if p == pa:
                    return pb
                if p == pb:
                    return pa
                return p

            s_front = 0.0
            for g in front_2q:
                a, b = gates[g].qubits
                s_front += dist[phys_of(a), phys_of(b)]
            s_front /= max(1, len(front_2q))
            s_ext = 0.0
            if ext:
                for g in ext:
                    a, b = gates[g].qubits
                    s_ext += dist[phys_of(a), phys_of(b)]
                s_ext = self.extended_set_weight * s_ext / len(ext)
            return max(decay[pa], decay[pb]) * (s_front + s_ext)

        # Main routing loop -------------------------------------------------
        guard = 0
        max_iterations = 50 * (len(gates) + 1) + 10_000
        while front:
            guard += 1
            if guard > max_iterations:  # pragma: no cover - safety net
                raise RuntimeError("SABRE routing did not converge")

            executed_any = True
            while executed_any:
                executed_any = False
                for idx in sorted(front):
                    if gate_executable(idx):
                        execute(idx)
                        executed_any = True
            if not front:
                break

            front_2q = [i for i in sorted(front) if gates[i].is_two_qubit]
            if not front_2q:
                # only blocked single-qubit gates cannot happen (they are
                # always executable); defensive guard
                raise RuntimeError("SABRE front layer contains no 2-qubit gate")

            ext = extended_set(front_2q)
            candidates: Set[Tuple[int, int]] = set()
            for g in front_2q:
                for lq in gates[g].qubits:
                    p = log_to_phys[lq]
                    for nb in topo.neighbors(p):
                        candidates.add((p, nb) if p < nb else (nb, p))
            best_score = None
            best_swaps: List[Tuple[int, int]] = []
            for pa, pb in sorted(candidates):
                score = heuristic(front_2q, ext, pa, pb)
                if best_score is None or score < best_score - 1e-12:
                    best_score = score
                    best_swaps = [(pa, pb)]
                elif abs(score - best_score) <= 1e-12:
                    best_swaps.append((pa, pb))
            pa, pb = rng.choice(best_swaps)
            apply_swap(pa, pb)
            swaps_since_reset += 1
            decay[pa] += self.decay_delta
            decay[pb] += self.decay_delta
            if swaps_since_reset >= self.decay_reset_interval:
                decay[:] = 1.0
                swaps_since_reset = 0

        final_layout = list(log_to_phys)
        return builder, final_layout

    # ------------------------------------------------------------------
    def _route_fast(
        self,
        circuit: Circuit,
        initial_layout: Sequence[int],
        rng: random.Random,
        *,
        emit: bool,
    ) -> Tuple[Optional[MappingBuilder], List[int]]:
        """Vectorised, delta-scored routing pass (see :meth:`_route`).

        Bit-identical to :meth:`_route_reference` by construction: gates are
        executed in the same sorted-front sweep order, candidate SWAPs are
        enumerated into the same sorted list, every distance sum is a sum of
        integer-valued float64 entries (exact regardless of summation order
        or regrouping, which is what licenses the delta bookkeeping below),
        and the scalar post-processing (divide, weight, decay, tie-break,
        RNG draw) applies the same operations in the same order.

        Delta scoring
        -------------
        For a candidate swap ``e = (pa, pb)`` the heuristic needs the front
        and extended-set distance sums *after* hypothetically applying ``e``.
        Both are computed as ``base + delta[e]``:

        * ``base_front`` / ``base_ext`` are the sums at the *current* layout,
          updated in O(moved gates) after each applied swap (this replaces a
          per-iteration O(front) rebuild);
        * ``delta[e] = sum(after e) - sum(current)`` only involves gates
          incident to ``e``, so every candidate is rescored each iteration --
          cheaply, because the extended-set term is only gathered for
          candidates incident to an extended-set endpoint (every other
          candidate's ext delta is exactly 0).
        """

        n = circuit.num_qubits
        topo = self.topology
        dist = self._dist
        dist_flat = np.ascontiguousarray(dist).ravel()
        dag = _Dag.from_circuit(circuit)
        gates = circuit.gates
        num_gates = len(gates)

        builder = (
            MappingBuilder(topo, initial_layout, num_logical=n, name=self.name)
            if emit
            else None
        )
        log_to_phys = list(initial_layout)
        phys_to_log: Dict[int, int] = {p: l for l, p in enumerate(initial_layout)}
        # numpy mirror of log_to_phys for batch gather
        ltp = np.array(log_to_phys, dtype=np.intp)

        # Static per-gate tables (logical endpoints; q1 == q0 for 1q gates).
        gq0 = np.fromiter((g.qubits[0] for g in gates), dtype=np.intp, count=num_gates)
        gq1 = np.fromiter((g.qubits[-1] for g in gates), dtype=np.intp, count=num_gates)
        is2q = np.fromiter((g.is_two_qubit for g in gates), dtype=bool, count=num_gates)
        is2q_list = is2q.tolist()  # python bools for scalar-indexed hot paths

        adj1, edge_list, edge_arr, edge_bits = sabre_tables_for(topo)
        num_edges = len(edge_list)

        indegree = list(dag.indegree)
        front: Set[int] = {i for i, d in enumerate(indegree) if d == 0}
        decay = np.ones(topo.num_qubits)
        swaps_since_reset = 0

        front_dirty = True
        front_2q: List[int] = []
        ext: List[int] = []
        fq0 = fq1 = None

        def execute(idx: int) -> None:
            nonlocal front_dirty
            if emit:
                g = gates[idx]
                if g.kind == GateKind.H:
                    builder.h(log_to_phys[g.qubits[0]], tag="sabre")
                elif g.kind == GateKind.RZ:
                    builder.rz(log_to_phys[g.qubits[0]], g.angle, tag="sabre")
                elif g.kind == GateKind.CPHASE:
                    a, b = g.qubits
                    builder.cphase(log_to_phys[a], log_to_phys[b], g.angle, tag="sabre")
                elif g.kind == GateKind.CNOT:
                    a, b = g.qubits
                    builder.cnot(log_to_phys[a], log_to_phys[b], tag="sabre")
                else:  # pragma: no cover - defensive (SWAPs excluded by _route)
                    raise ValueError(f"unsupported gate kind {g.kind!r}")
            front.discard(idx)
            for succ in dag.successors[idx]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    front.add(succ)
            front_dirty = True

        esize = self.extended_set_size
        successors = dag.successors

        def extended_set(front_2q: List[int]) -> List[int]:
            return _extended_set_of(successors, is2q_list, front_2q, esize)

        # Delta scorer state.  `pos_in_front` / `pos_other` describe the
        # front layer by physical position: front gates are vertex-disjoint
        # (the DAG is built from per-qubit chains, so two front gates can
        # never share a qubit), hence each position hosts at most one
        # front-gate endpoint.
        N = topo.num_qubits
        pos_other = np.zeros(N, dtype=np.intp)  # other endpoint of the front
        pos_in_front = np.zeros(N, dtype=bool)  # gate at this position, if any
        base_front = 0.0
        base_ext = 0.0
        n_front = n_ext = 0
        ext_q: Optional[np.ndarray] = None  # [a(ext) | b(ext)] logical ids
        ext_pos_arr: Optional[np.ndarray] = None  # their physical positions
        ext_pos: List[int] = []  # same, as a list for cheap membership scans
        ext_touch: Optional[np.ndarray] = None  # uint8 by eid: edge meets ext
        ext_stale = False  # ext position tables need a lazy recompute
        cand_dirty = True  # the set of front positions (hence edges) changed
        eids: Optional[np.ndarray] = None

        # Routing statistics (exposed as `last_routing_stats`; used by the
        # perf harness to check the per-swap-iteration cost stays flat).
        n_iterations = 0
        n_rebuilds = 0
        cand_total = 0

        # Main routing loop -------------------------------------------------
        guard = 0
        max_iterations = 50 * (num_gates + 1) + 10_000
        need_sweep = True
        while front:
            guard += 1
            if guard > max_iterations:  # pragma: no cover - safety net
                raise RuntimeError("SABRE routing did not converge")

            # Execute everything executable, in sorted-front sweeps.  The
            # layout cannot change mid-sweep (no logical SWAPs), so one
            # vectorised adjacency lookup decides the whole sweep.
            if need_sweep:
                while front:
                    ready = sorted(front)
                    arr = np.fromiter(ready, dtype=np.intp, count=len(ready))
                    ok = ~is2q[arr] | adj1[ltp[gq0[arr]], ltp[gq1[arr]]]
                    if not ok.any():
                        break
                    for i, idx in enumerate(ready):
                        if ok[i]:
                            execute(idx)
                if not front:
                    break

            if front_dirty:
                front_2q = [i for i in sorted(front) if is2q_list[i]]
                if not front_2q:
                    # only blocked single-qubit gates cannot happen (they are
                    # always executable); defensive guard
                    raise RuntimeError("SABRE front layer contains no 2-qubit gate")
                ext = extended_set(front_2q)
                n_rebuilds += 1
                f_arr = np.fromiter(front_2q, dtype=np.intp, count=len(front_2q))
                fq0, fq1 = gq0[f_arr], gq1[f_arr]
                n_front, n_ext = len(front_2q), len(ext)
                fa, fb = ltp[fq0], ltp[fq1]
                # Every distance is an integer-valued float64, so base sums
                # and deltas reproduce the reference's in-order summation
                # exactly, no matter how they are regrouped.
                base_front = float(dist_flat.take(fa * N + fb).sum())
                pos_in_front.fill(False)
                pos_in_front[fa] = True
                pos_in_front[fb] = True
                pos_other[fa] = fb
                pos_other[fb] = fa
                if n_ext:
                    e_arr = np.fromiter(ext, dtype=np.intp, count=n_ext)
                    ext_q = np.concatenate((gq0[e_arr], gq1[e_arr]))
                    ext_stale = True
                else:
                    ext_q = ext_pos_arr = ext_touch = None
                    base_ext = 0.0
                    ext_pos = []
                    ext_stale = False
                cand_dirty = True
                front_dirty = False

            # Candidate SWAPs = unique edges incident to a front-gate
            # position, in lexicographic (a, b) order == ascending edge-id
            # order (bitset union over the positions' incidence rows).
            # Recomputed only when the *set* of front positions changed -- a
            # swap between two front endpoints leaves it intact.
            if cand_dirty:
                union = np.bitwise_or.reduce(
                    edge_bits[np.flatnonzero(pos_in_front)], axis=0
                )
                eids = np.flatnonzero(
                    np.unpackbits(union, bitorder="little")[:num_edges]
                )
                cand_dirty = False

            if ext_stale:
                # Lazy refresh of the extended-set position tables (ext is
                # capped at ~20 gates): current endpoint positions, the base
                # distance sum, and the edges-meeting-ext incidence mask.
                ext_pos_arr = ltp[ext_q]
                base_ext = float(
                    dist_flat.take(
                        ext_pos_arr[:n_ext] * N + ext_pos_arr[n_ext:]
                    ).sum()
                )
                ext_pos = ext_pos_arr.tolist()
                ext_touch = np.unpackbits(
                    np.bitwise_or.reduce(edge_bits[ext_pos_arr], axis=0),
                    bitorder="little",
                )[:num_edges]
                ext_stale = False

            n_iterations += 1
            cand_total += eids.size

            # Score every candidate.  Front delta: vertex-disjoint front gates
            # mean a candidate (pa, pb) perturbs the front sum by at most two
            # corrections.
            carr = edge_arr[eids]
            pa_v, pb_v = carr[:, 0], carr[:, 1]
            o1 = pos_other[pa_v]
            o2 = pos_other[pb_v]
            d1 = np.where(
                pos_in_front[pa_v] & (o1 != pb_v),
                dist_flat.take(pb_v * N + o1) - dist_flat.take(pa_v * N + o1),
                0.0,
            )
            d2 = np.where(
                pos_in_front[pb_v] & (o2 != pa_v),
                dist_flat.take(pa_v * N + o2) - dist_flat.take(pb_v * N + o2),
                0.0,
            )
            fdel = d1 + d2
            if n_ext:
                # Extended-set delta.  A candidate that meets no extended-set
                # position leaves every ext pair in place, so its delta is
                # exactly 0 -- only candidates incident to an ext endpoint
                # need the relabel-and-gather matrix: relabel their endpoints
                # (pa <-> pb), gather the pair distances, subtract the
                # current-layout base sum.  When nearly every candidate
                # touches the ext set (small topologies) the subset
                # machinery costs more than the skipped rows, so relabel
                # everything instead -- a non-touching row's gathered sum
                # equals base_ext, hence its delta is the exact same 0
                # either way.
                sel = ext_touch[eids].view(bool)
                n_touch = int(sel.sum())
                ab = ext_pos_arr
                if eids.size - n_touch < 16:
                    tpa, tpb = pa_v, pb_v
                else:
                    tpa, tpb = pa_v[sel], pb_v[sel]
                if n_touch:
                    ab2 = np.where(
                        ab[None, :] == tpa[:, None],
                        tpb[:, None],
                        np.where(
                            ab[None, :] == tpb[:, None], tpa[:, None], ab[None, :]
                        ),
                    )
                    flat = ab2[:, :n_ext]
                    flat = flat * N
                    flat += ab2[:, n_ext:]
                    sums = dist_flat.take(flat).sum(axis=1) - base_ext
                    if tpa is pa_v:
                        edel = sums
                    else:
                        edel = np.zeros(eids.size)
                        edel[sel] = sums
                else:
                    edel = np.zeros(eids.size)
            s_front = (base_front + fdel) / max(1, n_front)
            if n_ext:
                s_ext = self.extended_set_weight * (base_ext + edel) / n_ext
            else:
                s_ext = 0.0
            scores = np.maximum(decay[pa_v], decay[pb_v]) * (s_front + s_ext)

            # Tie-break exactly like the reference loop.  With a unique
            # minimum (no other score within the 2e-12 tie window) the
            # reference loop provably ends with best_swaps == [argmin], and
            # the scalar scan can be restricted to the near-minimum subset:
            # a candidate with score > min + 2e-12 can neither take over the
            # running best (the running best never exceeds min + 1e-12) nor
            # land inside its 1e-12 tie window, so it is a no-op in the
            # reference scan.
            min_score = scores.min()
            near = np.flatnonzero(scores <= min_score + 2e-12)
            if near.size == 1:
                best_swaps = [edge_list[eids[near[0]]]]
            else:
                best_score = None
                best_swaps = []
                near_eids = eids[near]
                for e, score in zip(near_eids.tolist(), scores[near].tolist()):
                    if best_score is None or score < best_score - 1e-12:
                        best_score = score
                        best_swaps = [edge_list[e]]
                    elif abs(score - best_score) <= 1e-12:
                        best_swaps.append(edge_list[e])
            pa, pb = rng.choice(best_swaps)

            if emit:
                builder.swap(pa, pb, tag="sabre-swap")
            la = phys_to_log.get(pa)
            lb = phys_to_log.get(pb)
            if la is not None:
                log_to_phys[la] = pb
                ltp[la] = pb
            if lb is not None:
                log_to_phys[lb] = pa
                ltp[lb] = pa
            if la is not None:
                phys_to_log[pb] = la
            elif pb in phys_to_log:
                del phys_to_log[pb]
            if lb is not None:
                phys_to_log[pa] = lb
            elif pa in phys_to_log:
                del phys_to_log[pa]

            # Maintenance: update the base sums and position tables for the
            # front / extended-set gates the swap moved.
            need_sweep = False

            if n_ext and (pa in ext_pos or pb in ext_pos):
                ext_stale = True  # refreshed lazily before the next scoring

            in_a = bool(pos_in_front[pa])
            in_b = bool(pos_in_front[pb])
            if in_a != in_b:
                cand_dirty = True  # the set of front positions changed
            if in_a or in_b:
                oa = int(pos_other[pa]) if in_a else -1
                ob = int(pos_other[pb]) if in_b else -1
                pos_in_front[pa], pos_in_front[pb] = in_b, in_a
                # A front gate spanning (pa, pb) itself cannot occur here --
                # candidates are coupled edges, so such a gate would have been
                # executed by the sweep -- but the oa != pb / ob != pa guards
                # keep the bookkeeping exact even for that degenerate case
                # (the gate's position pair, hence everything derived from it,
                # would be unchanged).
                if in_a and oa != pb:
                    base_front += dist[pb, oa] - dist[pa, oa]
                    pos_other[pb] = oa
                    pos_other[oa] = pb
                    if adj1[pb, oa]:
                        need_sweep = True
                if in_b and ob != pa:
                    base_front += dist[pa, ob] - dist[pb, ob]
                    pos_other[pa] = ob
                    pos_other[ob] = pa
                    if adj1[pa, ob]:
                        need_sweep = True

            swaps_since_reset += 1
            decay[pa] += self.decay_delta
            decay[pb] += self.decay_delta
            if swaps_since_reset >= self.decay_reset_interval:
                decay[:] = 1.0
                swaps_since_reset = 0

        self.last_routing_stats = {
            "iterations": n_iterations,
            "front_rebuilds": n_rebuilds,
            "candidates_mean": cand_total / max(1, n_iterations),
        }
        final_layout = list(log_to_phys)
        return builder, final_layout
