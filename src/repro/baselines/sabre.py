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
:mod:`repro.eval.experiments` reproduces that observation).  Two engines run
the swap loop, bit-identical by construction.  The compiled kernel
(:mod:`repro.baselines.sabre_kernel`) scores candidate SWAPs by exact deltas
against maintained base sums: it keeps the front sorted, reads candidates
off an edge bitset and sums a candidate's extended-set delta over the gates
on its two sites only, so a swap iteration costs what the swap touched, not
the size of the front or of the extended set (see EXPERIMENTS.md
"Performance").  The reference loop (:meth:`SabreMapper._route_reference`)
is the textbook per-candidate scan.  It routes whenever the kernel does not
-- ``kernel="python"``, ``"auto"`` without the built extension, and every
circuit containing logical SWAP gates -- and it is the kernel's test oracle.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..arch.topology import Topology
from ..circuit.circuit import Circuit
from ..circuit.gates import KIND_CODES, GateKind
from ..circuit.qft import qft_circuit
from ..circuit.schedule import MappedCircuit, MappingBuilder
from ..utils import check_budget

__all__ = ["SabreMapper", "SabreNotConverged", "SABRE_KERNELS", "KERNEL_ENV_VAR"]

_SWAP = KIND_CODES[GateKind.SWAP]


class SabreNotConverged(RuntimeError):
    """The swap loop ran past its iteration bound (``50 * (gates + 1) +
    10_000``) with gates left: a property of the cell, so a sweep or the
    service reports it as that cell's ``status == "error"``.  Both engines
    raise it at the same bound."""

#: recognised values for ``SabreMapper(kernel=...)`` / ``REPRO_SABRE_KERNEL``
SABRE_KERNELS = ("auto", "c", "python")

#: environment override for the routing kernel; wins over the constructor
#: argument, so CI (and operators) can force the fallback path repo-wide
#: without touching call sites
KERNEL_ENV_VAR = "REPRO_SABRE_KERNEL"


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
    kernel:
        Which routing engine runs the swap loop.  ``"auto"`` (default) uses
        the compiled C kernel (:mod:`repro.baselines._sabre_kernel`, built
        via ``python setup.py build_ext --inplace``) when it is built and
        the reference loop otherwise; ``"c"`` requires the extension and
        raises with a build hint when it is missing; ``"python"`` runs the
        reference loop and never touches the extension.  Both engines are
        bit-identical -- same swaps, same depth/SWAP metrics, same RNG
        consumption -- so the choice can never change results, only
        wall-clock (the equivalence suite in ``tests/test_sabre_kernel.py``
        pins this).  The environment variable ``REPRO_SABRE_KERNEL``
        overrides the constructor argument.  Circuits containing *logical*
        SWAP gates route through the reference loop once the selection has
        been validated, whatever it is.  The engine that actually routed the
        last ``map_circuit`` call is recorded in ``last_kernel`` and in the
        mapped circuit's ``metadata["kernel"]``, and the counters of its
        last routing pass in ``last_routing_stats``.
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
        if kernel not in SABRE_KERNELS:
            raise ValueError(
                f"unknown SABRE kernel {kernel!r} (one of {SABRE_KERNELS})"
            )
        self.kernel = kernel
        #: routing engine used by the most recent ``map_circuit`` call
        #: ("c" or "python"); also recorded in the mapped metadata
        self.last_kernel: Optional[str] = None
        # Counters of the most recent routing pass: {"iterations"} (one per
        # routing SWAP) from either engine, plus {"front_rebuilds",
        # "candidates_mean"} from the kernel; the perf harness reads them to
        # check the per-swap-iteration cost stays flat at paper scale.
        self.last_routing_stats: Optional[Dict[str, float]] = None
        self._dist = topology.distance_matrix()

    # ------------------------------------------------------------------
    def _resolve_kernel(self) -> str:
        """Routing engine selected for this call: ``"c"`` or ``"python"``.

        The ``REPRO_SABRE_KERNEL`` environment variable overrides the
        constructor argument (checked per call, so CI legs and tests can
        flip it without rebuilding mappers).  An unknown value raises
        ``ValueError``, and ``"c"`` without the built extension raises
        ``RuntimeError`` with the build hint; ``"auto"`` picks the kernel
        when it is built and the reference loop otherwise.  Outputs are
        bit-identical either way, so this is a speed decision, never a
        semantic one.
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
        if kernel_available():
            return "c"
        if choice == "c":
            raise RuntimeError(KERNEL_BUILD_HINT)
        return "python"

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
        reversal) and returns ``(builder or None, final layout)``.  Both
        engines follow the identical algorithm (same execution order, same
        candidate enumeration, same float arithmetic, same RNG consumption),
        so they produce bit-identical routed circuits; the compiled kernel
        (:mod:`repro.baselines.sabre_kernel`, selected at runtime via
        ``kernel=``/``REPRO_SABRE_KERNEL``) runs the whole loop in C over
        tables it builds once for every pass.  The kernel assumes executing
        a gate never changes the layout mid-sweep, which fails for circuits
        containing *logical* SWAP gates -- those route through the reference
        loop, after the selection itself has been validated, so a bad
        selection fails the same way on every circuit.
        """

        self.last_kernel = self.last_routing_stats = None
        engine = self._resolve_kernel()
        if _SWAP in circuit.kinds:
            engine = "python"
        self.last_kernel = engine
        if engine == "c":
            from .sabre_kernel import route_compiled

            return route_compiled(self, circuit)
        # The reference loop walks Gate objects: built before the reversal,
        # one set serves both directions.
        circuit.gates
        circuits = (circuit, circuit.reversed())

        def route(initial_layout, rng, *, emit, backward):
            return self._route_reference(circuits[backward], initial_layout, rng, emit=emit)

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
        # plain floats: the same IEEE-754 doubles, without numpy scalar overhead
        dist = self._dist.tolist()
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
        decay = [1.0] * topo.num_qubits
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

        is2q = [g.is_two_qubit for g in gates]

        def extended_set(front_2q: List[int]) -> List[int]:
            # Look-ahead: BFS over DAG successors of the front layer,
            # collecting up to extended_set_size two-qubit gates.
            size = self.extended_set_size
            out: List[int] = []
            frontier = list(front_2q)
            seen = set(front_2q)
            while frontier and len(out) < size:
                nxt: List[int] = []
                for g in frontier:
                    for s in dag.successors[g]:
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

        def heuristic(front_2q: List[int], ext: List[int], pa: int, pb: int) -> float:
            # Score the layout obtained by swapping (pa, pb).
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
                s_front += dist[phys_of(a)][phys_of(b)]
            s_front /= max(1, len(front_2q))
            s_ext = 0.0
            if ext:
                for g in ext:
                    a, b = gates[g].qubits
                    s_ext += dist[phys_of(a)][phys_of(b)]
                s_ext = self.extended_set_weight * s_ext / len(ext)
            return max(decay[pa], decay[pb]) * (s_front + s_ext)

        # Main routing loop -------------------------------------------------
        guard = 0
        iterations = 0
        max_iterations = 50 * (len(gates) + 1) + 10_000
        while front:
            check_budget()
            guard += 1
            if guard > max_iterations:
                raise SabreNotConverged("SABRE routing did not converge")

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
            iterations += 1
            swaps_since_reset += 1
            decay[pa] += self.decay_delta
            decay[pb] += self.decay_delta
            if swaps_since_reset >= self.decay_reset_interval:
                decay[:] = [1.0] * topo.num_qubits
                swaps_since_reset = 0

        self.last_routing_stats = {"iterations": iterations}
        final_layout = list(log_to_phys)
        return builder, final_layout
