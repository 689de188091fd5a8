"""QFT kernel builders.

Three flavours are provided:

``qft_circuit(n)``
    The textbook circuit of Fig. 2: for each qubit ``i`` in order, ``H(i)``
    followed by ``CPHASE(i, j)`` for every ``j > i``.  It is built straight
    into the circuit's columns (no per-gate object), which is also what
    :func:`textbook_qft_qubit_count` compares a circuit with.

``qft_partitioned(n, ranges)``
    The k-partition rewrite of Section 3.2 / Fig. 8: qubits are split into
    consecutive ranges and the computation becomes an alternation of
    *intra-range* QFTs (QFT-IA) and *inter-range* bipartite interactions
    (QFT-IE).  Any nesting of partitions is expressible because a range entry
    may itself carry a ``range_list``.

``qft_pair_list(n)``
    Just the set of required (i, j) CPHASE pairs and per-qubit H gates --
    the "specification" used by the verifier and by the constructive mappers,
    which never materialise a gate list at all.

The partitioned builders are used by the correctness tests (they must be
unitarily equivalent to the textbook circuit) and by the
:mod:`repro.core.partition` framework.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .circuit import Circuit
from .gates import CPHASE, KIND_CODES, H, GateKind, qft_angle

__all__ = [
    "qft_circuit",
    "qft_pair_list",
    "qft_interaction_count",
    "textbook_qft_qubit_count",
    "PartitionRange",
    "qft_partitioned",
    "qft_ie_gates",
    "qft_ia_gates",
]

_H = KIND_CODES[GateKind.H]
_CPHASE = KIND_CODES[GateKind.CPHASE]
_SWAP = KIND_CODES[GateKind.SWAP]


def _qft_columns(n: int, include_final_swaps: bool = False):
    """The kind, ``q0``, ``q1`` and angle columns of :func:`qft_circuit`."""

    #: ``table[d]`` is ``qft_angle(i, i + d)``
    table = [math.ldexp(math.pi, -d) for d in range(n)]
    kinds: List[int] = []
    q0: List[int] = []
    q1: List[int] = []
    angles: List[Optional[float]] = []
    for i in range(n):
        run = n - 1 - i  # H(i), then CPHASE(i, j) for every j > i
        kinds.append(_H)
        kinds += [_CPHASE] * run
        q0 += [i] * (run + 1)
        q1.append(-1)
        q1 += range(i + 1, n)
        angles.append(None)
        angles += table[1 : run + 1]
    if include_final_swaps:
        half = n // 2
        kinds += [_SWAP] * half
        q0 += range(half)
        q1 += range(n - 1, n - 1 - half, -1)
        angles += [None] * half
    return kinds, q0, q1, angles


def qft_circuit(n: int, include_final_swaps: bool = False) -> Circuit:
    """Textbook QFT circuit on ``n`` qubits (Fig. 2 of the paper).

    Parameters
    ----------
    n:
        Number of qubits.
    include_final_swaps:
        The full textbook QFT ends with a layer of SWAPs that reverses the
        qubit order.  The paper (like most mapping work) treats the reversal
        as a relabelling and omits it; pass ``True`` to include it anyway.

    The gates go into the circuit's columns in one validated
    :meth:`~repro.circuit.circuit.Circuit.append_columns` call, with the
    angles read off one ``pi / 2^d`` table.
    """

    if n < 1:
        raise ValueError("QFT needs at least one qubit")
    circ = Circuit(n, name=f"qft_{n}")
    return circ.append_columns(*_qft_columns(n, include_final_swaps))


def qft_pair_list(n: int) -> Tuple[List[int], List[Tuple[int, int]]]:
    """Return (H qubits, ordered CPHASE pair list) for an ``n``-qubit QFT."""

    hs = list(range(n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return hs, pairs


def qft_interaction_count(n: int) -> int:
    """Number of CPHASE gates in an ``n``-qubit QFT."""

    return n * (n - 1) // 2


def textbook_qft_qubit_count(circuit: Circuit) -> Optional[int]:
    """Recognise the textbook QFT circuit; return its qubit count or None.

    This is the guard of the QFT-specialist mappers' uniform ``map_circuit``
    surface: a circuit that is gate-for-gate the output of
    :func:`qft_circuit` (same order, same pairs, same angles, no final SWAP
    layer) is compiled through the analytic construction; anything else
    makes the specialist raise
    :class:`~repro.registry.UnsupportedWorkload`.  It compares the
    circuit's columns with the builder's (CPHASE angles within ``1e-12``) in
    O(#gates), so guarding a 1024-qubit compile costs far less than the
    mapping itself.
    """

    n = circuit.num_qubits
    if len(circuit) != n + n * (n - 1) // 2:
        return None
    kinds, q0, q1, angles = _qft_columns(n)
    if circuit.kinds != kinds or circuit.q0 != q0 or circuit.q1 != q1:
        return None
    cphase = [k == _CPHASE for k in kinds]
    got = np.array(list(compress(circuit.angles, cphase)), dtype=float)
    if not (np.abs(got - list(compress(angles, cphase))) <= 1e-12).all():
        return None
    return n


# ---------------------------------------------------------------------------
# k-partition rewrite (Section 3.2, Fig. 8)
# ---------------------------------------------------------------------------


@dataclass
class PartitionRange:
    """A consecutive range ``[start, stop)`` of logical qubits.

    ``children`` optionally partitions the range further (the recursive
    ``range_list`` of the paper's pseudo-code).  Children must be consecutive,
    disjoint and cover the parent range exactly.
    """

    start: int
    stop: int
    children: List["PartitionRange"] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.stop <= self.start:
            raise ValueError(f"empty partition range [{self.start}, {self.stop})")
        if self.children:
            expected = self.start
            for child in self.children:
                if child.start != expected:
                    raise ValueError(
                        "partition children must be consecutive and start at the "
                        f"parent start; expected {expected}, got {child.start}"
                    )
                expected = child.stop
            if expected != self.stop:
                raise ValueError(
                    f"partition children must cover the parent range exactly "
                    f"(cover ends at {expected}, parent ends at {self.stop})"
                )

    @property
    def size(self) -> int:
        return self.stop - self.start

    def qubits(self) -> range:
        return range(self.start, self.stop)

    @staticmethod
    def even_split(n: int, k: int) -> "PartitionRange":
        """Top-level range [0, n) split into ``k`` near-equal consecutive parts."""

        if k < 1:
            raise ValueError("k must be >= 1")
        if k > n:
            raise ValueError("cannot split into more parts than qubits")
        bounds = [round(i * n / k) for i in range(k + 1)]
        children = [PartitionRange(bounds[i], bounds[i + 1]) for i in range(k)]
        if k == 1:
            return PartitionRange(0, n)
        return PartitionRange(0, n, children)

    @staticmethod
    def from_sizes(sizes: Sequence[int]) -> "PartitionRange":
        """Top-level range built from explicit consecutive group sizes."""

        if not sizes:
            raise ValueError("need at least one group size")
        children = []
        start = 0
        for s in sizes:
            if s <= 0:
                raise ValueError("group sizes must be positive")
            children.append(PartitionRange(start, start + s))
            start += s
        if len(children) == 1:
            return children[0]
        return PartitionRange(0, start, children)


def qft_ia_gates(rng: range) -> List:
    """Gates of QFT-traditional restricted to one range (QFT-IA base case)."""

    gates = []
    qs = list(rng)
    for idx, i in enumerate(qs):
        gates.append(H(i))
        for j in qs[idx + 1 :]:
            gates.append(CPHASE(i, j, qft_angle(i, j)))
    return gates


def qft_ie_gates(range1: range, range2: range, relaxed_order: bool = False) -> List:
    """Gates of QFT-IE between two disjoint ranges.

    In strict order (paper's QFT-IE-strict) the gates preserve the textbook
    nesting ``for i in range1: for j in range2``.  With ``relaxed_order=True``
    the gates are emitted grouped by ``j`` instead -- any order is legal since
    the gates all commute (no H separates them), and tests exercise both.
    """

    gates = []
    if relaxed_order:
        for j in range2:
            for i in range1:
                gates.append(CPHASE(i, j, qft_angle(i, j)))
    else:
        for i in range1:
            for j in range2:
                gates.append(CPHASE(i, j, qft_angle(i, j)))
    return gates


def _qft_ia(part: PartitionRange, out: List, relaxed_ie: bool) -> None:
    """Recursive QFT-IA of Fig. 8."""

    if not part.children:
        out.extend(qft_ia_gates(part.qubits()))
        return
    children = part.children
    for idx, child in enumerate(children):
        _qft_ia(child, out, relaxed_ie)
        for later in children[idx + 1 :]:
            out.extend(qft_ie_gates(child.qubits(), later.qubits(), relaxed_ie))


def qft_partitioned(
    n: int,
    partition: Optional[PartitionRange] = None,
    *,
    k: Optional[int] = None,
    sizes: Optional[Sequence[int]] = None,
    relaxed_ie: bool = False,
) -> Circuit:
    """Build the k-partition QFT circuit of Section 3.2.

    Exactly one of ``partition``, ``k`` or ``sizes`` selects the partition;
    with none given the textbook circuit is returned.

    The resulting circuit contains exactly the same gates as
    :func:`qft_circuit` (same H set, same CPHASE pairs and angles), only
    reordered, and is therefore unitarily equivalent -- property tests check
    this for random partitions.
    """

    selectors = sum(x is not None for x in (partition, k, sizes))
    if selectors > 1:
        raise ValueError("give at most one of partition/k/sizes")
    if partition is None:
        if k is not None:
            partition = PartitionRange.even_split(n, k)
        elif sizes is not None:
            partition = PartitionRange.from_sizes(sizes)
        else:
            return qft_circuit(n)
    if partition.start != 0 or partition.stop != n:
        raise ValueError(
            f"top-level partition must cover [0, {n}), got "
            f"[{partition.start}, {partition.stop})"
        )

    gates: List = []
    _qft_ia(partition, gates, relaxed_ie)
    circ = Circuit(n, name=f"qft_{n}_partitioned")
    circ.extend(gates)
    return circ
