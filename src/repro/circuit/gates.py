"""Gate primitives shared by logical circuits and mapped (hardware) circuits.

The paper's QFT kernel only needs three operations:

* ``H``        -- single-qubit Hadamard,
* ``CPHASE``   -- two-qubit controlled phase rotation (diagonal, symmetric),
* ``SWAP``     -- inserted by the mapper to move logical qubits between
                  physical locations.

For the fault-tolerant (lattice-surgery) backend the paper additionally
reasons about ``CNOT`` gates because a SWAP on a CNOT-only link costs three
CNOTs (Section 2.3).  We therefore also provide ``CNOT`` and ``RZ`` so that
mapped circuits can be *expanded* to a CNOT-level gate set when needed
(e.g. for gate-count accounting on the FT backend or for exporting to other
tools).

Two classes live here:

``Gate``
    A gate acting on *logical* qubit indices.  Used by
    :mod:`repro.circuit.circuit` for device-independent circuits.

``Op``
    A gate instance inside a *mapped* circuit.  It records both the physical
    qubits it acts on and the logical qubits that were resident on those
    physical qubits when the gate was emitted.  Keeping the logical identity
    around makes verification trivial: a mapped circuit can be replayed on the
    logical state without re-simulating the SWAP tracking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Tuple

__all__ = [
    "GateKind",
    "Gate",
    "Op",
    "H",
    "CPHASE",
    "SWAP",
    "CNOT",
    "RZ",
    "qft_angle",
    "TWO_QUBIT_KINDS",
    "SINGLE_QUBIT_KINDS",
    "KIND_CODES",
    "KIND_NAMES",
]


class GateKind:
    """String constants for the supported gate kinds.

    Using plain strings (rather than an Enum) keeps ``Gate`` and ``Op``
    lightweight and cheap to hash/copy -- mapped circuits for 1024-qubit QFT
    contain several hundred thousand ops.
    """

    H = "h"
    CPHASE = "cphase"
    SWAP = "swap"
    CNOT = "cnot"
    RZ = "rz"
    BARRIER = "barrier"


SINGLE_QUBIT_KINDS = frozenset({GateKind.H, GateKind.RZ})
TWO_QUBIT_KINDS = frozenset({GateKind.CPHASE, GateKind.SWAP, GateKind.CNOT})

#: stable small-int kind codes: the kind column of a mapped circuit's op
#: stream (:class:`repro.circuit.schedule.OpStream`), and the codes the
#: topologies' vectorized latency models price
KIND_CODES = {
    GateKind.H: 0,
    GateKind.RZ: 1,
    GateKind.CPHASE: 2,
    GateKind.CNOT: 3,
    GateKind.SWAP: 4,
    GateKind.BARRIER: 5,
}
#: the kind of each code (``KIND_NAMES[KIND_CODES[kind]] == kind``)
KIND_NAMES = tuple(sorted(KIND_CODES, key=KIND_CODES.__getitem__))


def qft_angle(i: int, j: int) -> float:
    """Return the CPHASE rotation angle between QFT qubits ``i`` and ``j``.

    In the textbook QFT over qubits ``0..n-1`` the controlled rotation between
    qubit ``i`` (target, the earlier/hadamarded qubit) and qubit ``j`` (control)
    with ``i < j`` is ``R_{j-i+1}``, i.e. a phase of ``2*pi / 2^(j-i+1)``
    == ``pi / 2^(j-i)``.

    The angle only depends on the *distance* ``|i - j|`` which is what makes
    CPHASE reordering safe: the mapper may execute the pair interactions in any
    Type-II-respecting order and each pair still receives its own fixed angle.

    ``math.ldexp`` scales by the power of two, so the value is the correctly
    rounded ``pi / 2^d`` at every distance (``0.0`` from ``d = 1077``;
    ``pi / float(2 ** d)`` gives the same values but overflows from
    ``d = 1024``).
    """

    if i == j:
        raise ValueError("qft_angle requires two distinct qubits")
    return math.ldexp(math.pi, -abs(j - i))


@dataclass(frozen=True)
class Gate:
    """A gate on logical qubits.

    Parameters
    ----------
    kind:
        One of :class:`GateKind`.
    qubits:
        Logical qubit indices.  Order matters for ``CNOT`` (control, target)
        and mirrors the paper's ``G(target, control)`` notation for CPHASE,
        although CPHASE itself is symmetric.
    angle:
        Rotation angle for parameterised gates (``CPHASE``, ``RZ``).
    """

    kind: str
    qubits: Tuple[int, ...]
    angle: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind in SINGLE_QUBIT_KINDS and len(self.qubits) != 1:
            raise ValueError(f"{self.kind} gate takes exactly one qubit, got {self.qubits}")
        if self.kind in TWO_QUBIT_KINDS and len(self.qubits) != 2:
            raise ValueError(f"{self.kind} gate takes exactly two qubits, got {self.qubits}")
        if self.kind in TWO_QUBIT_KINDS and self.qubits[0] == self.qubits[1]:
            raise ValueError(f"{self.kind} gate needs two distinct qubits, got {self.qubits}")

    # -- convenience -------------------------------------------------------
    @property
    def is_two_qubit(self) -> bool:
        return self.kind in TWO_QUBIT_KINDS

    @property
    def is_single_qubit(self) -> bool:
        return self.kind in SINGLE_QUBIT_KINDS

    def on(self, mapping: dict[int, int]) -> "Gate":
        """Return a copy with qubits remapped through ``mapping``."""

        return Gate(self.kind, tuple(mapping[q] for q in self.qubits), self.angle)

    def sorted_qubits(self) -> Tuple[int, ...]:
        return tuple(sorted(self.qubits))

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        if self.angle is None:
            return f"{self.kind}{self.qubits}"
        return f"{self.kind}{self.qubits}@{self.angle:.4f}"


# Constructor helpers ------------------------------------------------------


def H(q: int) -> Gate:
    """Hadamard on logical qubit ``q``."""

    return Gate(GateKind.H, (q,))


def CPHASE(a: int, b: int, angle: Optional[float] = None) -> Gate:
    """Controlled-phase between logical qubits ``a`` and ``b``.

    If ``angle`` is omitted the standard QFT angle for the pair is used.
    """

    if angle is None:
        angle = qft_angle(a, b)
    return Gate(GateKind.CPHASE, (a, b), angle)


def SWAP(a: int, b: int) -> Gate:
    """SWAP between logical qubits ``a`` and ``b``."""

    return Gate(GateKind.SWAP, (a, b))


def CNOT(control: int, target: int) -> Gate:
    """CNOT with ``control`` and ``target`` logical qubits."""

    return Gate(GateKind.CNOT, (control, target))


def RZ(q: int, angle: float) -> Gate:
    """Z rotation on logical qubit ``q``."""

    return Gate(GateKind.RZ, (q,), angle)


@dataclass(frozen=True)
class Op:
    """A gate inside a *mapped* (hardware) circuit.

    Attributes
    ----------
    kind:
        Gate kind (see :class:`GateKind`).
    physical:
        Physical qubit indices the gate acts on.
    logical:
        Logical qubits resident on those physical qubits when the op was
        emitted.  For a SWAP this is the pair of logical qubits being
        exchanged.  ``logical`` may contain ``-1`` for ancilla/idle positions
        that hold no program qubit (this does not occur for QFT where every
        physical qubit in the region is occupied).
    angle:
        Optional rotation angle.
    tag:
        Free-form provenance string used by mappers ("ia", "ie", "unit-swap",
        "fixup", "routed", ...).  Tags make it easy to attribute depth/SWAP
        cost to phases of the algorithm in ablation benchmarks.
    """

    kind: str
    physical: Tuple[int, ...]
    logical: Tuple[int, ...]
    angle: Optional[float] = None
    tag: str = ""

    def __post_init__(self) -> None:
        if len(self.physical) != len(self.logical):
            raise ValueError("physical and logical tuples must have equal length")
        if self.kind in SINGLE_QUBIT_KINDS and len(self.physical) != 1:
            raise ValueError(f"{self.kind} op takes exactly one qubit")
        if self.kind in TWO_QUBIT_KINDS and len(self.physical) != 2:
            raise ValueError(f"{self.kind} op takes exactly two qubits")
        if len(set(self.physical)) != len(self.physical):
            raise ValueError(f"duplicate physical qubits in op: {self.physical}")

    @property
    def is_two_qubit(self) -> bool:
        return self.kind in TWO_QUBIT_KINDS

    @property
    def is_swap(self) -> bool:
        return self.kind == GateKind.SWAP

    @property
    def is_cphase(self) -> bool:
        return self.kind == GateKind.CPHASE

    def as_gate(self) -> Gate:
        """Project the op onto its logical qubits (dropping physical info)."""

        return Gate(self.kind, self.logical, self.angle)

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        return f"{self.kind} phys={self.physical} log={self.logical}"


def expand_to_cnot(op: Op) -> list:
    """Expand a mapped op into a CNOT + single-qubit gate sequence.

    The decomposition follows the standard identities used by the paper's FT
    cost model (Section 2.3):

    * ``SWAP(a, b)``     -> 3 CNOTs,
    * ``CPHASE(a, b)``   -> CNOT, RZ, CNOT, RZ, RZ (up to global phase),
    * other ops are returned unchanged.

    Only used for gate-count accounting; scheduling works on the native ops.
    """

    if op.kind == GateKind.SWAP:
        a, b = op.physical
        la, lb = op.logical
        return [
            Op(GateKind.CNOT, (a, b), (la, lb), tag=op.tag),
            Op(GateKind.CNOT, (b, a), (lb, la), tag=op.tag),
            Op(GateKind.CNOT, (a, b), (la, lb), tag=op.tag),
        ]
    if op.kind == GateKind.CPHASE:
        a, b = op.physical
        la, lb = op.logical
        theta = op.angle if op.angle is not None else math.pi
        half = theta / 2.0
        return [
            Op(GateKind.RZ, (a,), (la,), half, tag=op.tag),
            Op(GateKind.CNOT, (a, b), (la, lb), tag=op.tag),
            Op(GateKind.RZ, (b,), (lb,), -half, tag=op.tag),
            Op(GateKind.CNOT, (a, b), (la, lb), tag=op.tag),
            Op(GateKind.RZ, (b,), (lb,), half, tag=op.tag),
        ]
    return [op]


def count_kinds(ops: Iterable[Op]) -> dict:
    """Count ops by kind; small helper shared by metrics and tests."""

    counts: dict[str, int] = {}
    for op in ops:
        counts[op.kind] = counts.get(op.kind, 0) + 1
    return counts
