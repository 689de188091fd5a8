"""Workload-agnostic structural verification of mapped circuits.

:mod:`repro.verify.coverage` knows what a *QFT* must look like; this module
checks a mapped circuit against an arbitrary source :class:`Circuit` instead,
which is what the non-QFT workloads (QAOA, random circuits) use as their
paper-style verification path:

1. every two-qubit op acts on coupled physical qubits,
2. the logical stamps on every op are consistent with replaying the SWAPs
   from the initial layout (the mapper's bookkeeping is honest),
3. the logical (non-SWAP) event stream executes *exactly* the gates of the
   source circuit, each exactly once, in an order that respects the
   per-qubit dependence chains of the program (the reordering freedom every
   router is allowed: gates on disjoint qubits may commute past each other,
   gates sharing a qubit may not).

As in the QFT verifier, an array proof decides and a loop explains:

* **The proof.**  Checks 1 and 2 are the QFT verifier's
  (:func:`~repro.verify.coverage._proved_stamps`).  Check 3
  (:func:`_replay_proved`) reads the circuit's columns and the op columns.
  It ranks every operand incidence within its logical qubit on both sides
  (a stable sort by qubit) and requires identical per-qubit sequences, both
  operands of a two-qubit event on one program gate, equal kind codes, the
  same CNOT operand order and exactly equal angles.  That is exact: in the
  loop, two ready gates never share a signature (the same signature means
  the same qubits, and two gates on the same qubits are ordered on a
  chain), so the loop never has a choice, and it passes if and only if every
  event is the next program gate on each of its qubits with a matching
  signature.  Exact angles are stricter than the loop's 9-decimal rounding;
  a circuit the proof refuses goes to the loop, which then decides.
* **The loop** (:func:`~repro.verify.coverage.check_stamps` and
  :func:`_replay_by_loop`) replays the stream event by event against the
  program's dependence chains and writes the messages and counts.  It runs
  only when the proof fails, so every report is the loop's.

Both are linear in the number of ops up to the proof's sorts, so they run at
every size; the dense statevector cross-check for small instances lives
with the workloads (:meth:`repro.workloads.Workload.verify`).

Source circuits must be SWAP-free: mapped streams cannot distinguish a
program SWAP from a routing SWAP, so workloads express data movement through
the mapper, never as program gates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..circuit.circuit import Circuit
from ..circuit.gates import KIND_CODES, KIND_NAMES, GateKind
from ..circuit.schedule import MappedCircuit
from .coverage import _IS_TWO_QUBIT, _proved_stamps, check_stamps

__all__ = ["ReplayReport", "check_mapped_matches_circuit"]

#: gate kinds that are symmetric in their qubit arguments
_SYMMETRIC_KINDS = frozenset({GateKind.CPHASE, GateKind.SWAP})
_CNOT = KIND_CODES[GateKind.CNOT]
_SWAP = KIND_CODES[GateKind.SWAP]
_BARRIER = KIND_CODES[GateKind.BARRIER]

_MAX_ERRORS = 10


@dataclass
class ReplayReport:
    """Result of checking a mapped circuit against its source circuit."""

    num_logical: int
    ok: bool = True
    errors: List[str] = field(default_factory=list)
    matched_gates: int = 0
    swap_count: int = 0

    def add_error(self, msg: str) -> None:
        self.ok = False
        if len(self.errors) < _MAX_ERRORS:
            self.errors.append(msg)

    def summary(self) -> str:
        status = "OK" if self.ok else "FAILED"
        lines = [
            f"mapped-vs-circuit replay: {status}",
            f"  logical qubits : {self.num_logical}",
            f"  matched gates  : {self.matched_gates}",
            f"  SWAP gates     : {self.swap_count}",
        ]
        lines.extend("  - " + e for e in self.errors)
        return "\n".join(lines)


def _signature(kind: str, qubits: Tuple[int, ...], angle: Optional[float]):
    qs = tuple(sorted(qubits)) if kind in _SYMMETRIC_KINDS else tuple(qubits)
    ang = None if angle is None else round(angle, 9)
    return (kind, qs, ang)


def check_mapped_matches_circuit(
    mapped: MappedCircuit, circuit: Circuit
) -> ReplayReport:
    """Check that ``mapped`` is a hardware-compliant execution of ``circuit``.

    The array proof decides; when it fails the loop runs and writes the
    report, so a failing circuit gets the same report either way.
    """

    report = ReplayReport(num_logical=circuit.num_qubits)
    if _SWAP in circuit.kinds:
        report.add_error(
            "source circuit contains SWAP gates; the generic replay check "
            "requires SWAP-free programs"
        )
        return report
    proved = _proved_stamps(mapped)
    if proved is not None and _replay_proved(mapped, circuit, *proved):
        report.matched_gates = len(circuit)
        report.swap_count = mapped.swap_count()
        return report
    return _replay_by_loop(mapped, circuit, report, stamps_proved=proved is not None)


def _replay_proved(
    mapped: MappedCircuit, circuit: Circuit, kinds: np.ndarray, stamps: np.ndarray
) -> bool:
    """Array proof of check 3 over honest stamps: True iff the loop passes.

    ``kinds`` and ``stamps`` are what :func:`_proved_stamps` returned.  Each
    event (every op but SWAPs and barriers) must be the next program gate on
    each of its logical qubits, with the same kind, the same CNOT operand
    order and exactly the same angle; anything else goes to the loop.
    """

    m = len(circuit)
    event = (kinds != _SWAP) & (kinds != _BARRIER)
    at = np.flatnonzero(event)
    if at.size != m:
        return False
    if not m:
        return True
    # Operand incidences, slot 2g for q0 of gate g and 2g+1 for q1; an
    # absent second operand gets a sentinel above every qubit, so it sorts
    # last.  Stamps of honest ops lie in -1..nq-1.
    n = circuit.num_qubits
    qt = stamps.dtype if n < np.iinfo(stamps.dtype).max else np.int64
    absent = np.iinfo(qt).max
    ev_kinds = kinds[at]
    two = _IS_TWO_QUBIT[ev_kinds.view(np.uint8)]
    seen = np.empty(2 * m, dtype=qt)
    seen[0::2] = stamps[0::2][at]
    seen[1::2] = np.where(two, stamps[1::2][at], absent)
    cols = (np.array(circuit.kinds), np.array(circuit.q0), np.array(circuit.q1))
    if any(col.dtype.kind != "i" for col in cols):
        return False  # an operand that is not an int: the loop decides
    program_kinds, q0, q1 = cols
    want = np.empty(2 * m, dtype=qt)
    want[0::2] = q0
    want[1::2] = np.where(q1 < 0, absent, q1)

    # Rank each incidence within its qubit on both sides (a stable sort by
    # qubit keeps program or op order): the per-qubit sequences must be
    # identical, and each event incidence lands on the program incidence of
    # the same rank.
    seen_order = seen.argsort(kind="stable")
    want_order = want.argsort(kind="stable")
    if not np.array_equal(seen[seen_order], want[want_order]):
        return False
    lands = np.empty(2 * m, dtype=np.int64)
    lands[seen_order] = want_order
    gate = lands[0::2] // 2
    # both operands of a two-qubit event on one program gate, of its kind
    if not (lands[1::2][two] // 2 == gate[two]).all():
        return False
    if not (program_kinds[gate] == ev_kinds).all():
        return False
    # a CNOT's control lands on the gate's control
    if (lands[0::2][ev_kinds == _CNOT] % 2).any():
        return False

    # Exactly equal angles, with no NaN (the loop never matches one).
    angles = circuit.angles
    try:
        as_float = np.array(angles, dtype=float)
    except (OverflowError, TypeError, ValueError):
        return False
    if np.count_nonzero(np.isnan(as_float)) != angles.count(None):
        return False
    ev_angles = list(compress(mapped.ops.angles, event.tobytes()))
    return ev_angles == list(map(angles.__getitem__, gate.tolist()))


def _replay_by_loop(
    mapped: MappedCircuit, circuit: Circuit, report: ReplayReport, stamps_proved: bool
) -> ReplayReport:
    """The reference: checks 1-3 op by op, with a message per violation.

    Checks 1 and 2 run only when their proof failed (``stamps_proved`` is
    False).
    """

    if not stamps_proved:
        if len(set(mapped.initial_layout)) != len(mapped.initial_layout):
            report.add_error("initial layout is not injective")
        check_stamps(mapped, report.add_error)
    report.swap_count = mapped.swap_count()

    # 3: gate-for-gate replay through the per-qubit dependence chains ------
    # Build indegrees/successors of the per-qubit-chain DAG, then consume
    # mapped events greedily: each event must match a *ready* program gate
    # (all predecessors on its qubits already executed) with the same kind,
    # operands and angle.
    m = len(circuit)
    qubits = [(a,) if b == -1 else (a, b) for a, b in zip(circuit.q0, circuit.q1)]
    last_on_qubit: Dict[int, int] = {}
    successors: List[List[int]] = [[] for _ in range(m)]
    indegree = [0] * m
    for idx, qs in enumerate(qubits):
        preds = set()
        for q in qs:
            if q in last_on_qubit:
                preds.add(last_on_qubit[q])
            last_on_qubit[q] = idx
        for p in preds:
            successors[p].append(idx)
            indegree[idx] += 1

    def program_signature(idx: int):
        return _signature(KIND_NAMES[circuit.kinds[idx]], qubits[idx], circuit.angles[idx])

    ready: Dict[Tuple, List[int]] = {}
    for idx in range(m):
        if indegree[idx] == 0:
            ready.setdefault(program_signature(idx), []).append(idx)

    event_errors = 0
    for pos, (kind, logical, angle) in enumerate(mapped.logical_gate_events()):
        sig = _signature(kind, logical, angle)
        queue = ready.get(sig)
        if not queue:
            event_errors += 1
            report.ok = False
            if event_errors <= 5:
                report.add_error(
                    f"event {pos}: {kind}{logical} (angle={angle}) matches no "
                    "ready program gate (wrong gate, duplicate, or dependence "
                    "violation)"
                )
            continue
        idx = queue.pop(0)
        if not queue:
            del ready[sig]
        report.matched_gates += 1
        for succ in successors[idx]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.setdefault(program_signature(succ), []).append(succ)

    if report.matched_gates != m:
        report.add_error(
            f"mapped circuit executed {report.matched_gates} of "
            f"{m} program gates"
        )
        report.ok = False

    return report
