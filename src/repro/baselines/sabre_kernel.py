"""Python side of the compiled SABRE routing kernel.

The C extension (:mod:`repro.baselines._sabre_kernel`, built via
``python setup.py build_ext --inplace``) runs the entire SABRE swap loop --
executable-gate sweeps, front/extended-set maintenance, exact delta scoring,
the reference tie-break and the swap application -- in one call over flat
tables.  This module owns everything around that call:

* **availability**: :func:`kernel_available` probes the import once; callers
  (``SabreMapper``'s runtime kernel selection) fall back to the bit-identical
  reference loop when the extension is not built;
* **table preparation**: per-topology tables (distance matrix, adjacency
  mask, edge endpoints, per-qubit incidence CSR) are built by
  :func:`_kernel_tables_for`, the one per-topology SABRE cache, process-wide
  per coupling graph (``repro.eval.runners.prepare_topology`` warms it
  before forking workers).  Per-circuit tables (gate endpoint arrays and
  the dependence-DAG CSR) are built once per :func:`route_compiled` call,
  so every traversal pass of a ``map_circuit`` shares them.  The endpoint
  arrays are the circuit's ``q0``/``q1`` columns (a one-qubit gate's second
  endpoint is its qubit), so no :class:`~repro.circuit.gates.Gate` is read;
  the backward pass's tables come from the forward arrays reversed, and the
  DAG passes reproduce ``_Dag.from_circuit`` exactly (successor lists
  ascending, indegree = number of *distinct* predecessors);
* **RNG round-trip**: the caller's ``random.Random`` state is exported into
  the kernel (which implements CPython's MT19937 / ``getrandbits`` /
  ``_randbelow`` verbatim) and re-imported afterwards, so RNG consumption is
  word-for-word identical to the reference loop -- including the draw
  CPython makes even for single-candidate tie-breaks;
* **event replay**: the kernel reports its decisions as int32 triples
  ``(code, p0, p1)`` in execution order: ``code >= 0`` executes gate ``code``
  on physical sites ``p0``/``p1`` (``p1 == -1`` for a one-qubit gate), and
  ``code == -1`` is a SWAP of ``(p0, p1)``.  Lookup arrays indexed by
  ``code`` (index ``-1`` is the SWAP entry), filled from the circuit's kind
  and angle columns, give each event's kind code, angle and tag (RZ and
  CPHASE carry the gate's angle, every other op ``None``), and the stream
  goes to :meth:`MappingBuilder.layer` in
  chunks of ``_REPLAY_CHUNK`` events -- one call per chunk, so the
  temporary lists stay bounded on 1,024-qubit routings.  The builder stamps
  and adjacency-checks every op like the per-op emitters the reference loop
  calls, so the output is the same op stream, not just the same metrics.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..arch.topology import Topology
from ..circuit.circuit import Circuit
from ..circuit.gates import KIND_CODES, GateKind
from ..circuit.schedule import MappingBuilder
from ..utils import BoundedCache, check_budget

try:  # pragma: no cover - exercised via both CI legs
    from . import _sabre_kernel as _kernel
except ImportError:  # extension not built: callers fall back / raise typed
    _kernel = None

__all__ = ["kernel_available", "KERNEL_BUILD_HINT", "route_compiled"]

KERNEL_BUILD_HINT = (
    "the compiled SABRE kernel is not built; build it with "
    "`python setup.py build_ext --inplace` (requires a C compiler), or "
    "select kernel='python' / export REPRO_SABRE_KERNEL=python to use the "
    "bit-identical Python path"
)

#: events replayed per :meth:`MappingBuilder.layer` call
_REPLAY_CHUNK = 1 << 15

_RZ = KIND_CODES[GateKind.RZ]
_CPHASE = KIND_CODES[GateKind.CPHASE]
_SWAP = KIND_CODES[GateKind.SWAP]
#: tag lookup: index 0 for a circuit gate, 1 for a routing SWAP
_TAGS = np.array(["sabre", "sabre-swap"], dtype=object)


def kernel_available() -> bool:
    """True when the C extension imported (i.e. has been built)."""

    return _kernel is not None


# The one per-topology SABRE cache: the kernel-shaped tables, process-wide,
# keyed by the coupling-graph identity (`Topology.graph_key`) so seed sweeps
# and topology-grouped evaluation workers build them once per (process,
# topology).  LRU-bounded like the distance-matrix cache in
# :mod:`repro.arch.topology`.
_KERNEL_TABLES: BoundedCache = BoundedCache(16)


def _kernel_tables_for(topology: Topology):
    """Flat per-topology tables in the dtypes the C kernel expects.

    Returns ``(dist, adj, eu, ev, inc_off, inc_eid)``: float64 distance
    matrix, uint8 adjacency, int32 edge endpoint arrays, and the per-qubit
    incident-edge CSR (edge ids ascending per qubit).  Edge ids follow
    ``sorted(edge_set)``, so ascending ids enumerate candidate SWAPs in the
    reference loop's ``sorted(candidates)`` order.
    """

    key = topology.graph_key()
    hit = _KERNEL_TABLES.lookup(key)
    if hit is not None:
        return hit

    n = topology.num_qubits
    edge_arr = np.array(sorted(topology.edge_set), dtype=np.int32).reshape(-1, 2)
    num_edges = len(edge_arr)
    dist = np.ascontiguousarray(topology.distance_matrix(), dtype=np.float64)
    adj = np.zeros((n, n), dtype=np.uint8)
    adj[edge_arr[:, 0], edge_arr[:, 1]] = adj[edge_arr[:, 1], edge_arr[:, 0]] = 1
    eu = np.ascontiguousarray(edge_arr[:, 0])
    ev = np.ascontiguousarray(edge_arr[:, 1])

    # Per-qubit incidence CSR: stable sort by (qubit, edge id) groups each
    # qubit's incident edges in ascending-eid order.
    qubits = edge_arr.ravel()
    eids = np.repeat(np.arange(num_edges, dtype=np.int64), 2)
    order = np.lexsort((eids, qubits))
    inc_eid = np.ascontiguousarray(eids[order], dtype=np.int32)
    counts = np.bincount(qubits, minlength=n)
    inc_off = np.zeros(n + 1, dtype=np.int32)
    inc_off[1:] = np.cumsum(counts)

    for arr in (dist, adj, eu, ev, inc_off, inc_eid):
        arr.setflags(write=False)
    return _KERNEL_TABLES.store(key, (dist, adj, eu, ev, inc_off, inc_eid))


def _dag_tables(gq0: np.ndarray, gq1: np.ndarray, is2q: np.ndarray):
    """Dependence-DAG CSR + indegree of the gates given by endpoint arrays.

    Reproduces :meth:`repro.baselines.sabre._Dag.from_circuit` exactly, but
    with vectorized passes: program-order per-qubit chains give the edges
    (prev gate on the qubit -> this gate), duplicate edges collapse (a gate
    whose two qubits share one predecessor depends on it *once*), successor
    lists come out ascending per gate, and indegree counts distinct
    predecessors.
    """

    m = len(gq0)
    two = np.flatnonzero(is2q)
    qs = np.concatenate([gq0.astype(np.int64), gq1[two].astype(np.int64)])
    idx = np.concatenate([np.arange(m, dtype=np.int64), two])
    order = np.argsort(qs * m + idx)  # by (qubit, gate); every key is distinct
    sq, si = qs[order], idx[order]
    same = sq[1:] == sq[:-1]
    src, dst = si[:-1][same], si[1:][same]
    if m:
        key = np.sort(src * m + dst)  # by (src, dst), then dedupe
        key = np.concatenate((key[:1], key[1:][key[1:] != key[:-1]]))
        src, dst = key // m, key % m
    indeg = np.ascontiguousarray(np.bincount(dst, minlength=m), dtype=np.int32)
    succ_off = np.zeros(m + 1, dtype=np.int32)
    succ_off[1:] = np.cumsum(np.bincount(src, minlength=m))
    succ = np.ascontiguousarray(dst, dtype=np.int32)
    return succ_off, succ, indeg


class _CompiledRoute:
    """One circuit's kernel tables, shared by all of its routing passes."""

    def __init__(self, mapper, circuit: Circuit) -> None:
        if _kernel is None:  # pragma: no cover - dispatch checks availability
            raise RuntimeError(KERNEL_BUILD_HINT)
        self.mapper = mapper
        self.circuit = circuit
        self.topology_tables = _kernel_tables_for(mapper.topology)
        if _SWAP in circuit.kinds:  # pragma: no cover - SabreMapper._router checks
            raise ValueError("unsupported gate kind 'swap'")
        self.kinds = np.array(circuit.kinds, dtype=np.int8)
        gq0 = np.array(circuit.q0, dtype=np.int32)
        gq1 = np.array(circuit.q1, dtype=np.int32)
        one = gq1 < 0
        is2q = (~one).view(np.uint8)
        gq1[one] = gq0[one]  # a one-qubit gate's second endpoint is its qubit
        self._forward = (gq0, gq1, is2q)
        self._tables = {}

    def tables(self, backward: bool):
        """Gate endpoints and DAG tables of the circuit or of its reversal."""

        hit = self._tables.get(backward)
        if hit is None:
            gq0, gq1, is2q = self._forward
            if backward:
                gq0, gq1, is2q = (np.ascontiguousarray(a[::-1]) for a in (gq0, gq1, is2q))
            hit = self._tables[backward] = (gq0, gq1, is2q, *_dag_tables(gq0, gq1, is2q))
        return hit

    def route(
        self,
        initial_layout: Sequence[int],
        rng: random.Random,
        *,
        emit: bool,
        backward: bool = False,
    ) -> Tuple[Optional[MappingBuilder], List[int]]:
        """One compiled routing pass; drop-in for ``SabreMapper._route_reference``.

        Exports ``rng``'s Mersenne-Twister state into the kernel, runs the
        whole swap loop in C, re-imports the advanced state, and (for
        emitting passes) replays the kernel's event stream through a
        :class:`MappingBuilder`.  Records the pass's counters in
        ``mapper.last_routing_stats``.  The kernel polls the cell budget
        (:func:`~repro.utils.check_budget`) every 1,024 swap iterations.
        """

        mapper = self.mapper
        topo = mapper.topology
        n = self.circuit.num_qubits
        dist, adj, eu, ev, inc_off, inc_eid = self.topology_tables
        gq0, gq1, is2q, succ_off, succ, indeg = self.tables(backward)
        layout = np.array(list(initial_layout), dtype=np.int64)

        version, internal, gauss_next = rng.getstate()
        state = np.array(internal, dtype=np.uint32)  # 624 words + index

        events, n_iterations, n_rebuilds, cand_total = _kernel.route(
            state,
            topo.num_qubits,
            n,
            len(gq0),
            len(eu),
            dist,
            adj,
            eu,
            ev,
            inc_off,
            inc_eid,
            gq0,
            gq1,
            is2q,
            succ_off,
            succ,
            indeg,
            layout,
            int(mapper.extended_set_size),
            float(mapper.extended_set_weight),
            float(mapper.decay_delta),
            int(mapper.decay_reset_interval),
            bool(emit),
            check_budget,
        )

        rng.setstate((version, tuple(state.tolist()), gauss_next))
        mapper.last_routing_stats = {
            "iterations": int(n_iterations),
            "front_rebuilds": int(n_rebuilds),
            "candidates_mean": cand_total / max(1, n_iterations),
        }
        final_layout = layout.tolist()
        if not emit:
            return None, final_layout

        builder = MappingBuilder(topo, initial_layout, num_logical=n, name=mapper.name)
        self._replay(builder, np.frombuffer(events, dtype=np.int32).reshape(-1, 3), backward)
        if builder.log_to_phys != final_layout:  # pragma: no cover - kernel bug net
            raise RuntimeError(
                "compiled SABRE kernel and replay disagree about the final layout"
            )
        return builder, final_layout

    def _replay(self, builder: MappingBuilder, events: np.ndarray, backward: bool) -> None:
        """Emit the kernel's ``(code, p0, p1)`` events through ``builder``."""

        kinds = self.kinds[::-1] if backward else self.kinds
        angle_column = self.circuit.angles[::-1] if backward else self.circuit.angles
        m = len(kinds)
        # lookup arrays indexed by the event code; the extra last entry,
        # reached by code -1, is the routing SWAP's
        codes = np.empty(m + 1, dtype=np.int8)
        codes[:m] = kinds
        codes[m] = _SWAP
        angles = np.empty(m + 1, dtype=object)
        angles[:m] = angle_column
        angles[(codes != _RZ) & (codes != _CPHASE)] = None
        # one int object per site (the last entry, reached by -1, for "no
        # operand"), so the operand columns share them instead of holding
        # one new int per op
        sites = np.empty(builder.topology.num_qubits + 1, dtype=object)
        sites[:] = [*range(builder.topology.num_qubits), -1]

        for lo in range(0, len(events), _REPLAY_CHUNK):
            chunk = events[lo : lo + _REPLAY_CHUNK]
            code = chunk[:, 0]
            builder.layer(
                codes[code].tolist(),
                sites[chunk[:, 1]].tolist(),
                sites[chunk[:, 2]].tolist(),
                angles[code].tolist(),
                _TAGS[(code < 0).view(np.uint8)].tolist(),
            )


def route_compiled(
    mapper, circuit: Circuit
) -> Callable[..., Tuple[Optional[MappingBuilder], List[int]]]:
    """Compiled routing passes over ``circuit``; drop-in for the reference loop.

    Builds the circuit's tables once and returns ``route(initial_layout,
    rng, *, emit, backward=False)``, which runs one pass over the circuit
    or, with ``backward``, over its reversal, and returns ``(builder or
    None, final layout)``.  ``SabreMapper.map_circuit`` calls it once for
    all of its traversal passes.
    """

    return _CompiledRoute(mapper, circuit).route
