"""Mapped (hardware) circuits and their scheduling/metric model.

A mapper's output is a :class:`MappedCircuit`: an ordered stream of ops over
*physical* qubits, together with the initial logical->physical layout.  The
stream order is a valid execution order (a topological order of the hardware
dependences); parallelism is recovered by ASAP scheduling.

The stream is stored as columns, one plain list per field
(:class:`OpStream`): the kind code (:data:`~repro.circuit.gates.KIND_CODES`),
the physical operands ``p0``/``p1``, the logical stamps ``l0``/``l1`` (``-1``
where an op has no such operand), the angle and the tag.  Emission,
verification and metric extraction read the columns directly, so compiling,
verifying and measuring a circuit builds no :class:`~repro.circuit.gates.Op`.
``MappedCircuit.ops`` is a read-only sequence view over the columns that
builds an ``Op`` (validated as ever) only when one is indexed or iterated.

Depth model
-----------
The paper measures circuit *depth* in cycles.  On NISQ backends every gate
(H, CPHASE, SWAP) costs one cycle.  On the lattice-surgery FT backend gate
latencies are heterogeneous (Section 2.3): a SWAP on a "fast" (green) link has
depth 2, a SWAP on a CNOT-only link costs 3 CNOTs = depth 6, and a CNOT/CPHASE
costs depth 2 on any link.  The topology prices the whole stream in one
vectorized ``op_latency_array`` call, and :meth:`MappedCircuit.depths` runs
one ASAP pass over the columns that keeps each site's busy time under both
cost models side by side, so one loop yields the uniform NISQ depth and the
weighted FT depth together.

:class:`MappingBuilder` is the convenience layer used by every mapper: it
tracks the logical<->physical correspondence as SWAPs are emitted and stamps
each op with the logical qubits involved, which is what makes verification
(and logical replay on a statevector) straightforward.  Mappers emit either
op by op (``h``, ``cphase``, ``swap``, ...) or a whole layer of decided ops at
once (:meth:`MappingBuilder.layer`); both stamp, check and move the layout
the same way.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence as SequenceABC
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..utils import check_budget
from .gates import (
    KIND_CODES,
    KIND_NAMES,
    SINGLE_QUBIT_KINDS,
    TWO_QUBIT_KINDS,
    GateKind,
    Op,
)

__all__ = ["MappedCircuit", "MappingBuilder", "OpStream"]

#: the number of qubits an op of each kind code takes
_ARITY: Tuple[int, ...] = tuple(
    1 if k in SINGLE_QUBIT_KINDS else 2 if k in TWO_QUBIT_KINDS else 0
    for k in KIND_NAMES
)
_ARITY_ARRAY = np.array(_ARITY, dtype=np.int8)
_H = KIND_CODES[GateKind.H]
_RZ = KIND_CODES[GateKind.RZ]
_CPHASE = KIND_CODES[GateKind.CPHASE]
_CNOT = KIND_CODES[GateKind.CNOT]
_SWAP = KIND_CODES[GateKind.SWAP]
_BARRIER = KIND_CODES[GateKind.BARRIER]


class OpStream(SequenceABC):
    """Read-only sequence view of a columnar op stream.

    The columns are plain lists of equal length, one entry per op: ``kinds``
    (codes from :data:`~repro.circuit.gates.KIND_CODES`), physical operands
    ``p0``/``p1`` and logical stamps ``l0``/``l1`` (``-1`` where the op has no
    such operand: ``p1``/``l1`` of a single-qubit op, all four of a barrier),
    ``angles`` (``None`` where absent) and ``tags``.  Readers may walk the
    columns; nothing may modify them except the :class:`MappingBuilder` that
    appends to them.

    ``len()`` builds nothing.  Indexing and iteration build each
    :class:`~repro.circuit.gates.Op` on demand, so ``Op`` validation runs on
    every op handed out.  Two streams compare equal when every column does,
    i.e. op for op on kind, operands, stamps, angle and tag.
    """

    __slots__ = ("kinds", "p0", "p1", "l0", "l1", "angles", "tags")

    def __init__(
        self,
        kinds: List[int],
        p0: List[int],
        p1: List[int],
        l0: List[int],
        l1: List[int],
        angles: List[Optional[float]],
        tags: List[str],
    ) -> None:
        self.kinds = kinds
        self.p0 = p0
        self.p1 = p1
        self.l0 = l0
        self.l1 = l1
        self.angles = angles
        self.tags = tags

    @classmethod
    def from_ops(cls, ops: Iterable[Op]) -> "OpStream":
        """Pack ``Op`` objects into columns."""

        kinds: List[int] = []
        p0: List[int] = []
        p1: List[int] = []
        l0: List[int] = []
        l1: List[int] = []
        angles: List[Optional[float]] = []
        tags: List[str] = []
        for op in ops:
            code = KIND_CODES.get(op.kind)
            if code is None or len(op.physical) != _ARITY[code]:
                raise ValueError(
                    f"a mapped circuit cannot hold a {op.kind!r} op on qubits {op.physical}"
                )
            phys = op.physical + (-1, -1)
            logical = op.logical + (-1, -1)
            kinds.append(code)
            p0.append(phys[0])
            p1.append(phys[1])
            l0.append(logical[0])
            l1.append(logical[1])
            angles.append(op.angle)
            tags.append(op.tag)
        return cls(kinds, p0, p1, l0, l1, angles, tags)

    def _columns(self) -> Tuple[list, ...]:
        return (self.kinds, self.p0, self.p1, self.l0, self.l1, self.angles, self.tags)

    @staticmethod
    def _op(
        code: int, a: int, b: int, la: int, lb: int, angle: Optional[float], tag: str
    ) -> Op:
        arity = _ARITY[code]
        if arity == 2:
            return Op(KIND_NAMES[code], (a, b), (la, lb), angle, tag)
        if arity == 1:
            return Op(KIND_NAMES[code], (a,), (la,), angle, tag)
        return Op(KIND_NAMES[code], (), (), angle, tag)

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self.kinds)))]
        i = range(len(self.kinds))[index]
        return self._op(*[column[i] for column in self._columns()])

    def __iter__(self) -> Iterator[Op]:
        make = self._op
        for fields in zip(*self._columns()):
            yield make(*fields)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, OpStream):
            return self._columns() == other._columns()
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]


class MappedCircuit:
    """A hardware-compliant circuit produced by a mapper.

    Attributes
    ----------
    topology:
        The :class:`repro.arch.topology.Topology` the circuit targets.
    num_logical:
        Number of logical (program) qubits.
    initial_layout:
        ``initial_layout[logical] = physical`` placement before the first gate.
    ops:
        Ordered op stream (a valid sequential execution order), as a
        read-only :class:`OpStream` view.  The constructor takes an
        ``OpStream`` (adopted as is) or any iterable of
        :class:`~repro.circuit.gates.Op`.
    name:
        Optional provenance string (mapper name).
    metadata:
        Free-form dict for mapper-specific extras (e.g. fallback statistics).
    """

    def __init__(
        self,
        topology: object,
        num_logical: int,
        initial_layout: List[int],
        ops: Union[OpStream, Iterable[Op]] = (),
        name: str = "",
        metadata: Optional[Dict[str, object]] = None,
    ) -> None:
        self.topology = topology
        self.num_logical = num_logical
        self.initial_layout = initial_layout
        self._ops = ops if isinstance(ops, OpStream) else OpStream.from_ops(ops)
        self.name = name
        self.metadata: Dict[str, object] = {} if metadata is None else metadata

    @property
    def ops(self) -> OpStream:
        return self._ops

    # -- basic counters ------------------------------------------------
    def __len__(self) -> int:
        return len(self._ops)

    def gate_counts(self) -> Dict[str, int]:
        return {KIND_NAMES[c]: k for c, k in Counter(self._ops.kinds).items()}

    def swap_count(self) -> int:
        return self._ops.kinds.count(_SWAP)

    def cphase_count(self) -> int:
        return self._ops.kinds.count(_CPHASE)

    def two_qubit_count(self) -> int:
        kinds = self._ops.kinds
        return kinds.count(_CPHASE) + kinds.count(_CNOT) + kinds.count(_SWAP)

    # -- depth ----------------------------------------------------------
    def depths(self) -> Tuple[int, int]:
        """``(depth, unit_depth)``: the ASAP depth under the topology's cost
        model and with every op costing one cycle, from one pass.

        The topology prices every op in one ``op_latency_array`` call.  Each
        op starts once all its sites are free and keeps them busy for its
        latency; a barrier is a global fence that lifts every busy time to
        the latest finish so far.  Latencies are non-negative, so a site's
        busy time never falls and each depth is the largest busy time at the
        end.  The loop costs O(ops) and builds no ``Op``.

        Raises :class:`ValueError` naming the first op with an operand off
        the device (outside ``[0, num_qubits)``).
        """

        ops = self._ops
        topology = self.topology
        n = topology.num_qubits
        kinds = np.array(ops.kinds, dtype=np.int8)
        p0 = np.array(ops.p0, dtype=np.int64)
        p1 = np.array(ops.p1, dtype=np.int64)
        # an operand is off the device when it lies outside [0, n); read as
        # unsigned, a negative site is a huge one
        arity = _ARITY_ARRAY[kinds]
        off = (p0.view(np.uint64) >= n) & (arity > 0)
        off |= (p1.view(np.uint64) >= n) & (arity > 1)
        if off.any():
            i = int(off.argmax())
            code = ops.kinds[i]
            operands = (ops.p0[i], ops.p1[i])[: _ARITY[code]]
            raise ValueError(f"op {i}: {_off_device(code, operands, n)}")
        costs = topology.op_latency_array(kinds, p0, p1).tolist()
        barrier = _BARRIER
        unit = [0] * n  # per-site busy-until cycle, every op one cycle
        busy = [0] * n  # the same under the topology's cost model
        for kind, a, b, cost in zip(ops.kinds, ops.p0, ops.p1, costs):
            if b >= 0:
                start = unit[a]
                if unit[b] > start:
                    start = unit[b]
                unit[a] = unit[b] = start + 1
                start = busy[a]
                if busy[b] > start:
                    start = busy[b]
                busy[a] = busy[b] = start + cost
            elif kind == barrier:
                unit = [max(unit)] * n
                busy = [max(busy)] * n
            else:
                unit[a] += 1
                busy[a] += cost
        return max(busy), max(unit)

    def depth(self) -> int:
        """Latency-weighted depth using the topology's cost model."""

        return self.depths()[0]

    def unit_depth(self) -> int:
        """Depth with every op costing one cycle (NISQ-style counting)."""

        return self.depths()[1]

    # -- layouts ----------------------------------------------------------
    def final_layout(self) -> List[int]:
        """Logical->physical layout after all SWAPs have been applied."""

        layout = list(self.initial_layout)
        phys_to_log = {p: l for l, p in enumerate(layout)}
        ops = self._ops
        for kind, a, b in zip(ops.kinds, ops.p0, ops.p1):
            if kind != _SWAP:
                continue
            la = phys_to_log.get(a)
            lb = phys_to_log.get(b)
            phys_to_log[a], phys_to_log[b] = lb, la
            if lb is not None:
                layout[lb] = a
            if la is not None:
                layout[la] = b
        return layout

    def logical_events(self) -> List[Tuple[str, Tuple[int, ...]]]:
        """Project the op stream onto logical qubits for verification.

        SWAPs vanish (they are identity on the logical state up to relabelling
        which the builder already folded into ``logical`` stamps); every other
        op is reported with its logical operands, in execution order.
        """

        return [(kind, logical) for kind, logical, _ in self.logical_gate_events()]

    def logical_gate_events(self) -> List[Tuple[str, Tuple[int, ...], Optional[float]]]:
        """Like :meth:`logical_events` but including the gate angle.

        This is the form consumed by the statevector simulator when replaying
        a mapped circuit on the logical state.
        """

        ops = self._ops
        events: List[Tuple[str, Tuple[int, ...], Optional[float]]] = []
        for code, la, lb, angle in zip(ops.kinds, ops.l0, ops.l1, ops.angles):
            if code == _SWAP or code == _BARRIER:
                continue
            logical = (la, lb) if _ARITY[code] == 2 else (la,)
            events.append((KIND_NAMES[code], logical, angle))
        return events

    def swaps_by_tag(self) -> Dict[str, int]:
        """SWAP count grouped by the provenance tag (used by ablations)."""

        ops = self._ops
        return dict(Counter(t for k, t in zip(ops.kinds, ops.tags) if k == _SWAP))

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"MappedCircuit(name={self.name!r}, n={self.num_logical}, "
            f"ops={len(self._ops)}, swaps={self.swap_count()})"
        )


def _off_device(code: int, operands: Tuple[int, ...], num_physical: int) -> ValueError:
    """The error for an op with an operand outside ``[0, num_physical)``."""

    return ValueError(
        f"{KIND_NAMES[code].upper()} emitted on physical qubit(s) "
        f"{', '.join(map(str, operands))} outside the topology's "
        f"{num_physical} qubits"
    )


def _uncoupled(code: int, a: int, b: int, num_physical: int) -> ValueError:
    """The error for a two-qubit op on a pair the coupling graph lacks.

    The graph holds on-device pairs only, so its membership test is also the
    range check of an adjacency-checked op; this tells the two cases apart.
    """

    if not 0 <= a < num_physical > b >= 0:
        return _off_device(code, (a, b), num_physical)
    return ValueError(
        f"{KIND_NAMES[code].upper()} emitted on non-adjacent physical "
        f"qubits ({a}, {b})"
    )


class MappingBuilder:
    """Helper that mappers use to emit ops while tracking the layout.

    The builder maintains the bijection between logical qubits and the
    physical qubits they currently occupy: ``log_to_phys`` (indexed by
    logical qubit) and ``phys_to_log`` (indexed by physical qubit, ``-1`` on
    an empty site), both plain lists that mappers may read but only the
    builder's SWAPs update.  Ops are emitted against *physical* indices and
    appended to the columns of :attr:`ops`; the builder stamps the resident
    logical qubits automatically and validates every operand against the
    device (``[0, num_physical)``), then coupling-graph adjacency (when
    ``check_adjacency`` is on) and distinct operands of two-qubit ops, as
    they are emitted, so a buggy mapper fails fast instead of producing an
    invalid circuit.  Emitters return ``None``.

    The per-op emitters (``h``, ``rz``, ``cphase``, ``cnot``, ``swap``,
    ``barrier``) append one op each.  :meth:`layer` takes a batch of ops as
    parallel columns and gives the same result as the per-op calls in the
    same order, in one call: the paper engines decide a whole layer and hand
    it over at once.
    """

    def __init__(
        self,
        topology,
        initial_layout: Sequence[int],
        num_logical: Optional[int] = None,
        name: str = "",
        check_adjacency: bool = True,
    ) -> None:
        self.topology = topology
        self.num_logical = num_logical if num_logical is not None else len(initial_layout)
        if len(set(initial_layout)) != len(initial_layout):
            raise ValueError("initial layout maps two logical qubits to one physical qubit")
        for p in initial_layout:
            if not (0 <= p < topology.num_qubits):
                raise ValueError(f"initial layout uses physical qubit {p} outside topology")
        self.log_to_phys: List[int] = list(initial_layout)
        self.phys_to_log: List[int] = [-1] * topology.num_qubits
        for l, p in enumerate(initial_layout):
            self.phys_to_log[p] = l
        self.initial_layout: List[int] = list(initial_layout)
        self._ops = OpStream.from_ops(())
        # the bound appends of the seven columns, in OpStream field order
        self._push = tuple(column.append for column in self._ops._columns())
        # what layer() writes: the stamp columns, and the bound extends of
        # the other five
        ops = self._ops
        self._stamps = (ops.l0, ops.l1)
        self._extend = tuple(
            column.extend for column in (ops.kinds, ops.p0, ops.p1, ops.angles, ops.tags)
        )
        self._edges = topology.edge_set
        self._n = topology.num_qubits
        self.name = name
        self.check_adjacency = check_adjacency

    @property
    def ops(self) -> OpStream:
        """Read-only view of the ops emitted so far."""

        return self._ops

    # -- queries -----------------------------------------------------------
    def logical_at(self, phys: int) -> Optional[int]:
        """Logical qubit currently at physical position ``phys`` (or None)."""

        lq = self.phys_to_log[phys]
        return None if lq < 0 else lq

    def phys_of(self, logical: int) -> int:
        """Physical position currently holding logical qubit ``logical``."""

        return self.log_to_phys[logical]

    # -- emission ------------------------------------------------------
    def _append(
        self, code: int, a: int, b: int, la: int, lb: int, angle: Optional[float], tag: str
    ) -> None:
        push_kind, push_p0, push_p1, push_l0, push_l1, push_angle, push_tag = self._push
        push_kind(code)
        push_p0(a)
        push_p1(b)
        push_l0(la)
        push_l1(lb)
        push_angle(angle)
        push_tag(tag)

    def _append_pair(
        self, code: int, phys_a: int, phys_b: int, angle: Optional[float], tag: str
    ) -> None:
        if self.check_adjacency:
            edge = (phys_a, phys_b) if phys_a < phys_b else (phys_b, phys_a)
            if edge not in self._edges:
                raise _uncoupled(code, phys_a, phys_b, self._n)
        elif not 0 <= phys_a < self._n > phys_b >= 0:  # both on the device
            raise _off_device(code, (phys_a, phys_b), self._n)
        if phys_a == phys_b:
            raise ValueError(f"duplicate physical qubits in op: {(phys_a, phys_b)}")
        p2l = self.phys_to_log
        self._append(code, phys_a, phys_b, p2l[phys_a], p2l[phys_b], angle, tag)

    def h(self, phys: int, tag: str = "") -> None:
        if not 0 <= phys < self._n:
            raise _off_device(_H, (phys,), self._n)
        self._append(_H, phys, -1, self.phys_to_log[phys], -1, None, tag)

    def rz(self, phys: int, angle: float, tag: str = "") -> None:
        if not 0 <= phys < self._n:
            raise _off_device(_RZ, (phys,), self._n)
        self._append(_RZ, phys, -1, self.phys_to_log[phys], -1, angle, tag)

    def cphase(self, phys_a: int, phys_b: int, angle: float, tag: str = "") -> None:
        self._append_pair(_CPHASE, phys_a, phys_b, angle, tag)

    def cnot(self, phys_c: int, phys_t: int, tag: str = "") -> None:
        self._append_pair(_CNOT, phys_c, phys_t, None, tag)

    def swap(self, phys_a: int, phys_b: int, tag: str = "") -> None:
        self._append_pair(_SWAP, phys_a, phys_b, None, tag)
        p2l = self.phys_to_log
        la, lb = p2l[phys_a], p2l[phys_b]
        if la != -1:
            self.log_to_phys[la] = phys_b
        if lb != -1:
            self.log_to_phys[lb] = phys_a
        p2l[phys_a], p2l[phys_b] = lb, la

    def barrier(self) -> None:
        self._append(_BARRIER, -1, -1, -1, -1, None, "")

    def layer(
        self,
        codes: Sequence[int],
        p0: Sequence[int],
        p1: Sequence[int],
        angles: Sequence[Optional[float]],
        tags: Sequence[str],
    ) -> None:
        """Emit a batch of ops, given as parallel columns, in order.

        ``codes`` holds kind codes; ``p1`` is ``-1`` for a single-qubit op,
        and both operands of a barrier are ``-1``.  Each op is stamped from
        the live layout, and each SWAP moves the layout before the next op
        is stamped, exactly as a per-op emitter call would.  Each op is
        checked as it is reached: its operands must fit its kind (else
        :class:`ValueError`, as :meth:`OpStream.from_ops` reports it) and lie
        on the device, and a two-qubit op must act on coupled sites (when
        ``check_adjacency`` is on) and on two distinct ones, with the per-op
        emitters' messages.  A failing op raises with the ops before it
        emitted.  Each column is extended once.  Each call first polls the
        cell budget (:func:`repro.utils.check_budget`), which is how the
        paper engines and the kernel's replay honour it.
        """

        check_budget()
        k = len(codes)
        if len(p0) != k or len(p1) != k or len(angles) != k or len(tags) != k:
            raise ValueError("layer columns differ in length")
        p2l = self.phys_to_log
        l2p = self.log_to_phys
        edges = self._edges
        check = self.check_adjacency
        n = self._n
        # the stamps go straight onto their columns; the other five columns
        # are extended once the loop has run
        l0, l1 = self._stamps
        start = len(l0)
        try:
            for code, a, b in zip(codes, p0, p1):
                if code == _CPHASE or code == _SWAP or code == _CNOT:
                    if check:
                        if ((a, b) if a < b else (b, a)) not in edges:
                            raise _uncoupled(code, a, b, n)
                    elif not 0 <= a < n > b >= 0:
                        raise _off_device(code, (a, b), n)
                    if a == b:
                        raise ValueError(f"duplicate physical qubits in op: {(a, b)}")
                    la = p2l[a]
                    lb = p2l[b]
                    if code == _SWAP:
                        if la != -1:
                            l2p[la] = b
                        if lb != -1:
                            l2p[lb] = a
                        p2l[a] = lb
                        p2l[b] = la
                    l0.append(la)
                    l1.append(lb)
                elif b == -1 and (code == _H or code == _RZ):
                    if not 0 <= a < n:
                        raise _off_device(code, (a,), n)
                    l0.append(p2l[a])
                    l1.append(-1)
                elif a == b == -1 and code == _BARRIER:
                    l0.append(-1)
                    l1.append(-1)
                else:
                    kind = KIND_NAMES[code] if code in KIND_CODES.values() else code
                    raise ValueError(
                        f"a mapped circuit cannot hold a {kind!r} op on qubits {(a, b)}"
                    )
        finally:
            done = len(l0) - start
            kinds, c0, c1, c_angles, c_tags = self._extend
            if done == k:
                kinds(codes)
                c0(p0)
                c1(p1)
                c_angles(angles)
                c_tags(tags)
            else:
                kinds(codes[:done])
                c0(p0[:done])
                c1(p1[:done])
                c_angles(angles[:done])
                c_tags(tags[:done])

    # -- finish ----------------------------------------------------------
    def build(self, metadata: Optional[Dict[str, object]] = None) -> MappedCircuit:
        return MappedCircuit(
            topology=self.topology,
            num_logical=self.num_logical,
            initial_layout=self.initial_layout,
            ops=self._ops,
            name=self.name,
            metadata=metadata or {},
        )
