"""Structural verification of mapped QFT circuits.

A mapped circuit is a *correct* hardware QFT kernel iff

1. every two-qubit op acts on coupled physical qubits,
2. the logical stamps on every op are consistent with replaying the SWAPs
   from the initial layout (i.e. the mapper's own bookkeeping is honest),
3. every logical qubit receives exactly one Hadamard,
4. every unordered logical pair ``(i, j)`` receives exactly one CPHASE with
   the correct QFT angle ``pi / 2^(j-i)``,
5. the execution order satisfies the Type II dependence
   ``H(i) < CPHASE(i, j) < H(j)`` (and additionally Type I when a mapper
   claims strict ordering).

These checks are cheap (linear in the number of ops) so they run on every
size used in the evaluation, including 1024-qubit lattice-surgery instances.
The statevector cross-check lives in :mod:`repro.verify.checker` and is only
applied to small instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..circuit.dag import qft_type1_order_ok, qft_type2_order_ok
from ..circuit.gates import (
    KIND_CODES,
    KIND_NAMES,
    TWO_QUBIT_KINDS,
    GateKind,
    qft_angle,
)
from ..circuit.schedule import MappedCircuit

__all__ = ["CoverageReport", "check_mapped_qft_structure", "check_stamps"]

_H = KIND_CODES[GateKind.H]
_CPHASE = KIND_CODES[GateKind.CPHASE]
_SWAP = KIND_CODES[GateKind.SWAP]
_BARRIER = KIND_CODES[GateKind.BARRIER]
_TWO_QUBIT_CODES = frozenset(KIND_CODES[kind] for kind in TWO_QUBIT_KINDS)


@dataclass
class CoverageReport:
    """Result of the structural checks.

    ``ok`` is True iff ``errors`` is empty.  ``errors`` holds human-readable
    messages for the first few violations of each category (capped so that a
    badly broken mapper does not produce a gigabyte of output).
    """

    num_logical: int
    ok: bool = True
    errors: List[str] = field(default_factory=list)
    h_count: int = 0
    cphase_count: int = 0
    swap_count: int = 0
    missing_pairs: int = 0
    duplicate_pairs: int = 0

    MAX_ERRORS_PER_CATEGORY = 5

    def add_error(self, msg: str) -> None:
        self.ok = False
        if len(self.errors) < 50:
            self.errors.append(msg)

    def summary(self) -> str:
        status = "OK" if self.ok else "FAILED"
        lines = [
            f"QFT structural verification: {status}",
            f"  logical qubits : {self.num_logical}",
            f"  H gates        : {self.h_count}",
            f"  CPHASE gates   : {self.cphase_count}",
            f"  SWAP gates     : {self.swap_count}",
        ]
        if not self.ok:
            lines.append(f"  missing pairs  : {self.missing_pairs}")
            lines.append(f"  duplicate pairs: {self.duplicate_pairs}")
            lines.extend("  - " + e for e in self.errors[:10])
        return "\n".join(lines)


def check_stamps(mapped: MappedCircuit, add_error: Callable[[str], None]) -> None:
    """Checks 1 and 2: adjacency and honest logical stamps.

    Replays the SWAPs from the initial layout over the op columns and reports
    through ``add_error``, in op order, the first
    :attr:`CoverageReport.MAX_ERRORS_PER_CATEGORY` two-qubit ops on uncoupled
    physical qubits and the first as many ops whose logical stamps disagree
    with the replayed layout.  Shared by the QFT and the generic verifier.
    """

    cap = CoverageReport.MAX_ERRORS_PER_CATEGORY
    edges = mapped.topology.edge_set
    phys_to_log: Dict[int, int] = {p: l for l, p in enumerate(mapped.initial_layout)}
    tracked = phys_to_log.get
    ops = mapped.ops
    adjacency_errors = stamp_errors = 0
    columns = zip(ops.kinds, ops.p0, ops.p1, ops.l0, ops.l1)
    for pos, (kind, a, b, la, lb) in enumerate(columns):
        if kind == _BARRIER:
            continue
        if kind not in _TWO_QUBIT_CODES:
            ea = tracked(a, -1)
            if ea != la:
                stamp_errors += 1
                if stamp_errors <= cap:
                    add_error(
                        f"op {pos}: logical stamp {(la,)} does not match tracked "
                        f"layout {(ea,)}"
                    )
            continue
        if ((a, b) if a < b else (b, a)) not in edges:
            adjacency_errors += 1
            if adjacency_errors <= cap:
                add_error(
                    f"op {pos}: {KIND_NAMES[kind]} on non-adjacent physical "
                    f"qubits ({a}, {b})"
                )
        ea, eb = tracked(a, -1), tracked(b, -1)
        if ea != la or eb != lb:
            stamp_errors += 1
            if stamp_errors <= cap:
                add_error(
                    f"op {pos}: logical stamp {(la, lb)} does not match tracked "
                    f"layout {(ea, eb)}"
                )
        if kind == _SWAP:
            if eb < 0:
                phys_to_log.pop(a, None)
            else:
                phys_to_log[a] = eb
            if ea < 0:
                phys_to_log.pop(b, None)
            else:
                phys_to_log[b] = ea


def check_mapped_qft_structure(
    mapped: MappedCircuit,
    num_qubits: Optional[int] = None,
    *,
    strict_order: bool = False,
    angle_atol: float = 1e-9,
) -> CoverageReport:
    """Run all structural checks on a mapped QFT circuit."""

    n = num_qubits if num_qubits is not None else mapped.num_logical
    report = CoverageReport(num_logical=n)

    # 1 + 2: adjacency and honest logical stamps -------------------------------
    if len(set(mapped.initial_layout)) != len(mapped.initial_layout):
        report.add_error("initial layout is not injective")
    check_stamps(mapped, report.add_error)

    # 3 + 4: H and CPHASE coverage -------------------------------------------
    h_seen: Dict[int, int] = {}
    pair_seen: Dict[Tuple[int, int], int] = {}
    events: List[Tuple[str, Tuple[int, ...]]] = []
    ops = mapped.ops
    columns = zip(ops.kinds, ops.l0, ops.l1, ops.angles)
    for pos, (kind, la, lb, angle) in enumerate(columns):
        if kind == _H:
            if la < 0 or la >= n:
                report.add_error(f"op {pos}: H on unknown logical qubit {la}")
                continue
            h_seen[la] = h_seen.get(la, 0) + 1
            events.append(("h", (la,)))
        elif kind == _CPHASE:
            if la < 0 or lb < 0 or la >= n or lb >= n:
                report.add_error(f"op {pos}: CPHASE on unknown logical qubits {(la, lb)}")
                continue
            if la == lb:
                report.add_error(f"op {pos}: CPHASE on one logical qubit {la}")
                continue
            lo, hi = (la, lb) if la < lb else (lb, la)
            pair_seen[(lo, hi)] = pair_seen.get((lo, hi), 0) + 1
            expected_angle = qft_angle(lo, hi)
            if angle is None or not math.isclose(
                angle, expected_angle, rel_tol=0.0, abs_tol=angle_atol
            ):
                report.add_error(
                    f"op {pos}: CPHASE({lo},{hi}) has angle {angle}, expected "
                    f"{expected_angle}"
                )
            events.append(("cphase", (lo, hi)))

    report.h_count = sum(h_seen.values())
    report.cphase_count = sum(pair_seen.values())
    report.swap_count = mapped.swap_count()

    missing_h = [q for q in range(n) if h_seen.get(q, 0) == 0]
    extra_h = [q for q, c in h_seen.items() if c > 1]
    for q in missing_h[: CoverageReport.MAX_ERRORS_PER_CATEGORY]:
        report.add_error(f"missing H on logical qubit {q}")
    for q in extra_h[: CoverageReport.MAX_ERRORS_PER_CATEGORY]:
        report.add_error(f"logical qubit {q} received {h_seen[q]} H gates")
    if missing_h or extra_h:
        report.ok = False

    expected_pairs: Set[Tuple[int, int]] = {
        (i, j) for i in range(n) for j in range(i + 1, n)
    }
    missing_pairs = expected_pairs - set(pair_seen)
    duplicate_pairs = {p: c for p, c in pair_seen.items() if c > 1}
    unexpected_pairs = set(pair_seen) - expected_pairs
    report.missing_pairs = len(missing_pairs)
    report.duplicate_pairs = len(duplicate_pairs)
    for p in sorted(missing_pairs)[: CoverageReport.MAX_ERRORS_PER_CATEGORY]:
        report.add_error(f"missing CPHASE for pair {p}")
    for p in sorted(duplicate_pairs)[: CoverageReport.MAX_ERRORS_PER_CATEGORY]:
        report.add_error(f"pair {p} received {duplicate_pairs[p]} CPHASE gates")
    for p in sorted(unexpected_pairs)[: CoverageReport.MAX_ERRORS_PER_CATEGORY]:
        report.add_error(f"unexpected CPHASE pair {p}")
    if missing_pairs or duplicate_pairs or unexpected_pairs:
        report.ok = False

    # 5: dependence order -------------------------------------------------
    ok2, msg2 = qft_type2_order_ok(n, events)
    if not ok2:
        report.add_error(f"Type II dependence violated: {msg2}")
    if strict_order:
        ok1, msg1 = qft_type1_order_ok(n, events)
        if not ok1:
            report.add_error(f"Type I dependence violated: {msg1}")

    return report
