"""Device-independent (logical) quantum circuits.

A :class:`Circuit` over ``n`` logical qubits stores its gates as four flat
columns, one plain list per field: the kind code
(:data:`~repro.circuit.gates.KIND_CODES`), the operands ``q0``/``q1``
(``q1 == -1`` for a one-qubit gate) and the angle (``None`` where absent).
It holds H, RZ, CPHASE, CNOT and SWAP gates.  Builders append through the
emitters (``h``, ``cphase``, ...), which create no
:class:`~repro.circuit.gates.Gate`, or a whole run at once through
:meth:`Circuit.append_columns`; routers and the replay check read the
columns.  ``Circuit.gates`` is a read-only tuple of ``Gate`` built on first
use for the consumers that walk gate objects:

* building its dependence DAG under the strict / relaxed ordering rules
  (``repro.circuit.dag``),
* the SATMAP baseline and SABRE's Python engines,
* replaying it on a statevector for verification.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .gates import KIND_CODES, KIND_NAMES, Gate, GateKind, qft_angle

__all__ = ["Circuit"]

_H = KIND_CODES[GateKind.H]
_RZ = KIND_CODES[GateKind.RZ]
_CPHASE = KIND_CODES[GateKind.CPHASE]
_CNOT = KIND_CODES[GateKind.CNOT]
_SWAP = KIND_CODES[GateKind.SWAP]
#: the code of each kind a logical circuit holds
_LOGICAL_CODES = {
    kind: KIND_CODES[kind]
    for kind in (GateKind.H, GateKind.RZ, GateKind.CPHASE, GateKind.CNOT, GateKind.SWAP)
}
_TWO_QUBIT_CODES = frozenset((_CPHASE, _CNOT, _SWAP))
#: indexed by a kind code below ``len(_TWO)``: does the gate take two qubits?
_TWO = np.zeros(max(_LOGICAL_CODES.values()) + 1, dtype=bool)
_TWO[sorted(_TWO_QUBIT_CODES)] = True


class Circuit:
    """An ordered logical circuit over ``num_qubits`` qubits.

    ``kinds``, ``q0``, ``q1`` and ``angles`` are the columns; readers may
    walk them, and only the circuit's own append methods modify them.  Two
    circuits are equal when their qubit count, gates and name are.
    """

    __hash__ = None  # mutable, compared by value

    def __init__(self, num_qubits: int, gates: Iterable[Gate] = (), name: str = "") -> None:
        if num_qubits <= 0:
            raise ValueError("Circuit needs at least one qubit")
        self.num_qubits = num_qubits
        self.name = name
        self.kinds: List[int] = []
        self.q0: List[int] = []
        self.q1: List[int] = []
        self.angles: List[Optional[float]] = []
        self._gates: Optional[Tuple[Gate, ...]] = None
        self.extend(gates)

    @classmethod
    def _of_columns(cls, num_qubits, name, kinds, q0, q1, angles, gates=None) -> "Circuit":
        """A circuit over already validated columns (which it takes over)."""

        out = cls(num_qubits, name=name)
        out.kinds, out.q0, out.q1, out.angles = kinds, q0, q1, angles
        out._gates = gates
        return out

    # -- construction ------------------------------------------------------
    def _out_of_range(self, kind: str, qubits: Tuple[int, ...], angle) -> ValueError:
        gate = Gate(kind, qubits, angle)
        q = next(q for q in qubits if not 0 <= q < self.num_qubits)
        return ValueError(f"gate {gate} uses qubit {q} outside range [0, {self.num_qubits})")

    def _push(self, code: int, a: int, b: int, angle: Optional[float]) -> "Circuit":
        self.kinds.append(code)
        self.q0.append(a)
        self.q1.append(b)
        self.angles.append(angle)
        self._gates = None
        return self

    def _one(self, code: int, q: int, angle: Optional[float]) -> "Circuit":
        if not 0 <= q < self.num_qubits:
            raise self._out_of_range(KIND_NAMES[code], (q,), angle)
        return self._push(code, q, -1, angle)

    def _two(self, code: int, a: int, b: int, angle: Optional[float]) -> "Circuit":
        if a == b:
            raise ValueError(f"{KIND_NAMES[code]} gate needs two distinct qubits, got {(a, b)}")
        n = self.num_qubits
        if not (0 <= a < n and 0 <= b < n):
            raise self._out_of_range(KIND_NAMES[code], (a, b), angle)
        return self._push(code, a, b, angle)

    def append(self, gate: Gate) -> "Circuit":
        """Append ``gate`` (validated) and return ``self`` for chaining."""

        code = _LOGICAL_CODES.get(gate.kind)
        if code is None:
            raise ValueError(
                f"a logical circuit holds h, rz, cphase, cnot and swap gates, not {gate.kind!r}"
            )
        if code in _TWO_QUBIT_CODES:
            return self._two(code, *gate.qubits, gate.angle)
        return self._one(code, *gate.qubits, gate.angle)

    def extend(self, gates: Iterable[Gate]) -> "Circuit":
        for g in gates:
            self.append(g)
        return self

    def append_columns(
        self,
        kinds: Sequence[int],
        q0: Sequence[int],
        q1: Sequence[int],
        angles: Sequence[Optional[float]],
    ) -> "Circuit":
        """Append whole columns at once and return ``self``.

        Checks what :meth:`append` checks, with whole-array operations: equal
        lengths, the kind codes, arity (``q1 == -1`` exactly for one-qubit
        kinds), distinct operands and range.  Appends nothing when a row
        fails; the first failing row raises what appending it alone would.
        """

        m = len(kinds)
        if not len(q0) == len(q1) == len(angles) == m:
            raise ValueError(
                f"columns differ in length: {m} kinds, {len(q0)} q0, "
                f"{len(q1)} q1, {len(angles)} angles"
            )
        k, a, b = (np.asarray(column) for column in (kinds, q0, q1))
        n = self.num_qubits
        ok = m and all(x.dtype.kind in "iu" for x in (k, a, b))
        ok = ok and 0 <= k.min() and k.max() < len(_TWO)
        if ok:
            two = _TWO[k]
            a2, b2 = a[two], b[two]
            ok = (
                (b[~two] == -1).all()
                and 0 <= a.min()
                and a.max() < n
                and ((0 <= b2) & (b2 < n) & (a2 != b2)).all()
            )
        if ok:
            rows = (k.tolist(), a.tolist(), b.tolist())
        else:  # append row by row, so the first bad row raises as ever
            probe = Circuit(n)
            for code, x, y, angle in zip(kinds, q0, q1, angles):
                kind = KIND_NAMES[code] if 0 <= code < len(_TWO) else code
                probe.append(Gate(kind, (x,) if y == -1 else (x, y), angle))
            rows = (probe.kinds, probe.q0, probe.q1)
        for column, values in zip((self.kinds, self.q0, self.q1, self.angles), (*rows, angles)):
            column.extend(values)
        self._gates = None
        return self

    def h(self, q: int) -> "Circuit":
        return self._one(_H, q, None)

    def cphase(self, a: int, b: int, angle: Optional[float] = None) -> "Circuit":
        if angle is None:
            angle = qft_angle(a, b)
        return self._two(_CPHASE, a, b, angle)

    def swap(self, a: int, b: int) -> "Circuit":
        return self._two(_SWAP, a, b, None)

    def cnot(self, c: int, t: int) -> "Circuit":
        return self._two(_CNOT, c, t, None)

    def rz(self, q: int, angle: float) -> "Circuit":
        return self._one(_RZ, q, angle)

    # -- inspection --------------------------------------------------------
    @property
    def gates(self) -> Tuple[Gate, ...]:
        """The gates as a read-only tuple, built on first use."""

        gates = self._gates
        if gates is None:
            gates = self._gates = tuple(
                Gate(KIND_NAMES[k], (a,) if b == -1 else (a, b), angle)
                for k, a, b, angle in zip(self.kinds, self.q0, self.q1, self.angles)
            )
        return gates

    def __len__(self) -> int:
        return len(self.kinds)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def __getitem__(self, idx: int) -> Gate:
        return self.gates[idx]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.num_qubits, self.name, self.kinds, self.q0, self.q1, self.angles) == (
            other.num_qubits,
            other.name,
            other.kinds,
            other.q0,
            other.q1,
            other.angles,
        )

    def count(self, kind: str) -> int:
        """Number of gates of the given kind."""

        code = _LOGICAL_CODES.get(kind)
        return 0 if code is None else self.kinds.count(code)

    def two_qubit_gates(self) -> List[Gate]:
        return [g for g in self.gates if g.is_two_qubit]

    def qubits_used(self) -> Tuple[int, ...]:
        used = set(self.q0)
        used.update(self.q1)
        used.discard(-1)
        return tuple(sorted(used))

    def depth(self) -> int:
        """Logical circuit depth (greedy per-qubit ASAP layering)."""

        busy_until = [0] * self.num_qubits
        depth = 0
        for a, b in zip(self.q0, self.q1):
            if b == -1:
                end = busy_until[a] + 1
                busy_until[a] = end
            else:
                end = max(busy_until[a], busy_until[b]) + 1
                busy_until[a] = busy_until[b] = end
            if end > depth:
                depth = end
        return depth

    def interaction_pairs(self) -> set:
        """Set of unordered logical pairs touched by two-qubit gates."""

        return {(a, b) if a < b else (b, a) for a, b in zip(self.q0, self.q1) if b != -1}

    # -- transformation ----------------------------------------------------
    def copy(self) -> "Circuit":
        columns = (self.kinds[:], self.q0[:], self.q1[:], self.angles[:])
        return Circuit._of_columns(self.num_qubits, self.name, *columns, self._gates)

    def remapped(self, mapping: Sequence[int]) -> "Circuit":
        """Return a copy with logical qubit ``q`` relabelled to ``mapping[q]``."""

        if len(mapping) != self.num_qubits:
            raise ValueError("mapping length must equal num_qubits")
        table = {q: mapping[q] for q in range(self.num_qubits)}
        out = Circuit(self.num_qubits, name=self.name)
        for g in self.gates:
            out.append(g.on(table))
        return out

    def reversed(self) -> "Circuit":
        """Gates in reverse order (used by SABRE's bidirectional passes)."""

        columns = (self.kinds[::-1], self.q0[::-1], self.q1[::-1], self.angles[::-1])
        gates = None if self._gates is None else self._gates[::-1]
        return Circuit._of_columns(self.num_qubits, self.name + "_rev", *columns, gates)

    def without(self, kinds: Iterable[str]) -> "Circuit":
        drop = {_LOGICAL_CODES.get(kind) for kind in set(kinds)}
        keep = [k not in drop for k in self.kinds]
        columns = (self.kinds, self.q0, self.q1, self.angles)
        kept = [list(compress(column, keep)) for column in columns]
        gates = None if self._gates is None else tuple(compress(self._gates, keep))
        return Circuit._of_columns(self.num_qubits, self.name, *kept, gates)

    def __repr__(self) -> str:
        return (
            f"Circuit(num_qubits={self.num_qubits!r}, gates={list(self.gates)!r}, "
            f"name={self.name!r})"
        )

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        head = f"Circuit(n={self.num_qubits}, gates={len(self)}"
        if self.name:
            head += f", name={self.name!r}"
        return head + ")"
