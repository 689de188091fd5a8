"""Structural verification of mapped QFT circuits.

A mapped circuit is a *correct* hardware QFT kernel iff

0. it holds only H, CPHASE, SWAP and barrier ops,
1. every operand and initial placement is a site of the device, and every
   two-qubit op acts on coupled physical qubits,
2. the logical stamps on every op are consistent with replaying the SWAPs
   from the initial layout (i.e. the mapper's own bookkeeping is honest),
3. every logical qubit receives exactly one Hadamard,
4. every unordered logical pair ``(i, j)`` receives exactly one CPHASE with
   the correct QFT angle ``pi / 2^(j-i)``,
5. the execution order satisfies the Type II dependence
   ``H(i) < CPHASE(i, j) < H(j)`` (and additionally Type I when a mapper
   claims strict ordering).

Together these prove the circuit equals the QFT up to its final
permutation.  With honest stamps, dropping the SWAPs (they only relabel)
leaves H and CPHASE gates on logical qubits.  CPHASEs commute with each
other, and a CPHASE fails to commute only with an H on one of its own
qubits, so any order with ``H(i)`` before and ``H(j)`` after every
``CPHASE(i, j)`` (``i < j``) gives the textbook circuit's unitary.  Check 0
is what makes this complete: one stray gate of another kind would slip past
checks 1-5.

Two implementations check these, and they split the work: an array proof
decides, and a loop explains.

* **The proof** (:func:`_qft_proved`, with :func:`_proved_stamps` for checks
  1 and 2) reads the op columns into narrow numpy arrays and decides pass or
  fail with whole-array operations.  Two-qubit ops are looked up as
  ``lo*N+hi`` codes in the sorted edge codes.  For the stamps, the operand
  incidences (slot ``2i`` is ``p0`` of op ``i``, slot ``2i+1`` its ``p1``)
  are stable-sorted by physical qubit, so each one follows the previous
  incidence on its qubit in op order.  Each stamp must equal what that
  predecessor left there (the other operand's stamp after a SWAP, the same
  stamp otherwise), or the initial layout's occupant (``-1`` on an empty
  site) for the first.  This passes exactly when the SWAP replay passes: if
  every stamp is honest, the values the incidences leave are the replayed
  layout; otherwise the first dishonest stamp in op order is compared with
  an honest predecessor, so it is caught.  Coverage, angles and Type II
  order are counts, a sort of the pair codes, a per-distance angle table
  and a comparison with each qubit's H position.
* **The loop** (:func:`_check_qft_by_loop`, with :func:`check_stamps` for
  checks 1 and 2) replays the stream op by op and writes the error
  messages and counts.  It is the reference, and it runs only when the
  proof fails (or for ``strict_order``), so a failing circuit gets the same
  report either way.

The proof is never more lenient than the loop.  It also refuses a column
value too wide for its integer dtype, which the loop may accept (an unused
second operand of a single-qubit op).  Such a circuit goes to the loop,
which then decides.

Both are linear in the number of ops (the proof's sort is a radix sort on
``int16`` sites below 32,768 qubits), so they run on every size used in the
evaluation, including 1024-qubit lattice-surgery instances.  The statevector
cross-check lives in :mod:`repro.verify.checker` and is only applied to
small instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

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
#: the kinds a mapped QFT may hold
_QFT_CODES = frozenset((_H, _CPHASE, _SWAP, _BARRIER))
#: indexed by a kind code viewed as uint8: does the op take two qubits?
_IS_TWO_QUBIT = np.zeros(256, dtype=bool)
_IS_TWO_QUBIT[sorted(_TWO_QUBIT_CODES)] = True
#: indexed by a kind code viewed as uint8: may a mapped QFT hold it?
_IS_QFT_KIND = np.zeros(256, dtype=bool)
_IS_QFT_KIND[sorted(_QFT_CODES)] = True


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
    """Checks 1 and 2: operands on the device, adjacency and honest stamps.

    Replays the SWAPs from the initial layout over the op columns and reports
    through ``add_error``, in op order, the first
    :attr:`CoverageReport.MAX_ERRORS_PER_CATEGORY` initial placements and
    single-qubit operands off the device, the first as many two-qubit ops on
    uncoupled physical qubits (every coupling edge joins two sites of the
    device, so this covers their operands' range) and the first as many ops
    whose logical stamps disagree with the replayed layout.  Shared by the
    QFT and the generic verifier.
    """

    cap = CoverageReport.MAX_ERRORS_PER_CATEGORY
    nq = mapped.topology.num_qubits
    off_device = 0
    for l, p in enumerate(mapped.initial_layout):
        if not 0 <= p < nq:
            off_device += 1
            if off_device <= cap:
                add_error(
                    f"initial layout places logical qubit {l} on physical qubit {p}, "
                    "off the device"
                )
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
            if not 0 <= a < nq:
                off_device += 1
                if off_device <= cap:
                    add_error(
                        f"op {pos}: {_kind_name(kind)} on physical qubit {a}, off the device"
                    )
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


def _kind_name(code: int) -> str:
    return KIND_NAMES[code] if code in KIND_CODES.values() else f"kind code {code}"


def _outside(values: np.ndarray, bound: int) -> bool:
    """True if any value lies outside ``0..bound-1``."""

    return bool(values.size) and (values.min() < 0 or values.max() >= bound)


def _proved_stamps(mapped: MappedCircuit) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Array proof of checks 1 and 2, over an injective on-device layout.

    Returns the kind codes (``int8``) and the interleaved logical stamps
    (slot ``2i`` holds ``l0`` of op ``i``, slot ``2i+1`` its ``l1``) when the
    proof passes, ``None`` when it fails; :func:`check_stamps` explains a
    failure.  Temporaries are deleted as soon as they are used: the sort
    order (8 bytes per incidence) dominates the peak.
    """

    ops = mapped.ops
    k = len(ops)
    nq = mapped.topology.num_qubits
    # sites 0..nq-1, the sentinel nq and stamps -1..nq-1 in the narrowest dtype
    site_t = np.int16 if nq < 2**15 else np.int32 if nq < 2**31 else np.int64
    try:
        placed = np.array(mapped.initial_layout, dtype=np.int64)
        kinds = np.array(ops.kinds, dtype=np.int8)
        phys = np.empty(2 * k, dtype=site_t)
        phys[0::2] = ops.p0
        phys[1::2] = ops.p1
        stamps = np.empty(2 * k, dtype=site_t)
        stamps[0::2] = ops.l0
        stamps[1::2] = ops.l1
    except (OverflowError, TypeError, ValueError):
        return None  # a value too wide for these dtypes, or not an int

    # The initial layout, range-checked before it indexes anything (a
    # negative index would wrap).
    if placed.size > nq or _outside(placed, nq):
        return None
    occupant = np.full(nq, -1, dtype=site_t)
    occupant[placed] = np.arange(placed.size)
    if np.count_nonzero(occupant >= 0) != placed.size:
        return None  # two logical qubits on one site

    # Mask by kind, not by value: a barrier has no operand and a
    # single-qubit op no second one.  Their slots go on the sentinel site
    # nq, which sorts after every real one.
    barrier = kinds == _BARRIER
    two = _IS_TWO_QUBIT[kinds.view(np.uint8)]
    phys[0::2][barrier] = nq
    phys[1::2][~two] = nq
    incidences = 2 * k - np.count_nonzero(barrier) - (k - np.count_nonzero(two))
    del barrier
    if _outside(phys, nq + 1):
        return None

    # 1: every two-qubit op on a coupling edge, as lo*nq+hi codes
    code_t = np.int32 if (nq + 1) ** 2 < 2**31 else np.int64
    pairs = phys.reshape(-1, 2)[two].astype(code_t)
    del two
    codes = pairs.min(axis=1)
    codes *= nq
    codes += pairs.max(axis=1)
    del pairs
    if codes.size:
        # the coupling set's (lo, hi) pairs, sorted, give sorted codes
        edges = np.array(sorted(mapped.topology.edge_set), dtype=np.int64).reshape(-1, 2)
        edge_codes = edges[:, 0] * nq + edges[:, 1]
        if not edge_codes.size:
            return None
        at = edge_codes.searchsorted(codes)
        np.minimum(at, edge_codes.size - 1, out=at)
        if not (edge_codes[at] == codes).all():
            return None
        del at
    del codes

    # 2: what each incidence leaves on its site: after a SWAP the other
    # operand's stamp, after any other op its own
    swap = kinds == _SWAP
    left = stamps.copy()
    left[0::2][swap] = stamps[1::2][swap]
    left[1::2][swap] = stamps[0::2][swap]
    del swap
    order = phys.argsort(kind="stable")[:incidences]
    site = phys[order]
    del phys
    if incidences and site[-1] == nq:
        return None  # an operand on the sentinel, i.e. off the device
    after = left[order]
    del left
    seen = stamps[order]
    del order
    # Each stamp must be what the previous incidence on its site left, or
    # the initial occupant (-1 on an empty site) at a site's first.
    expected = np.empty_like(seen)
    expected[1:] = after[:-1]
    del after
    first = np.empty(site.size, dtype=bool)
    first[:1] = True
    np.not_equal(site[1:], site[:-1], out=first[1:])
    expected[first] = occupant[site[first]]
    if not (seen == expected).all():
        return None
    return kinds, stamps


def _qft_proved(mapped: MappedCircuit, n: int, angle_atol: float) -> bool:
    """Array proof of checks 1-5 (Type II order only): True iff they hold.

    Never more lenient than :func:`_check_qft_by_loop`, and agrees with it
    on every circuit whose operands and initial placements are on the
    device.  Builds no per-pair Python set, event list or dict.
    """

    proved = _proved_stamps(mapped)
    if proved is None:
        return False
    kinds, stamps = proved
    # 0: only H, CPHASE, SWAP and barriers
    if not _IS_QFT_KIND[kinds.view(np.uint8)].all():
        return False
    la, lb = stamps[0::2], stamps[1::2]

    # 3: one H per logical qubit
    is_h = kinds == _H
    h_at = np.flatnonzero(is_h)
    h_on = la[is_h]
    del is_h
    if h_at.size != n or _outside(h_on, n):
        return False
    if n and np.bincount(h_on).max() != 1:
        return False
    h_pos = np.empty(n, dtype=np.int64)
    h_pos[h_on] = h_at

    # 4: one CPHASE per pair, at its angle
    is_cp = kinds == _CPHASE
    if np.count_nonzero(is_cp) != n * (n - 1) // 2:
        return False
    if n < 2:
        return True
    a, b = la[is_cp], lb[is_cp]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    del a, b
    if _outside(lo, n) or _outside(hi, n) or (lo == hi).any():
        return False
    try:
        angles = np.array(list(compress(mapped.ops.angles, is_cp.tobytes())), dtype=float)
    except (OverflowError, TypeError, ValueError):
        return False  # the loop explains (or raises on) what is not a float
    table = np.array([0.0] + [qft_angle(0, d) for d in range(1, n)])
    if not (np.abs(angles - table[hi - lo]) <= angle_atol).all():
        return False
    del angles

    # 5: Type II order, H(lo) < CPHASE(lo, hi) < H(hi)
    cp_at = np.flatnonzero(is_cp)
    del is_cp
    if (h_pos[lo] > cp_at).any() or (h_pos[hi] < cp_at).any():
        return False
    del cp_at

    pair_t = np.int32 if n * n < 2**31 else np.int64
    pairs = lo.astype(pair_t)
    pairs *= n
    pairs += hi
    del lo, hi
    pairs.sort()
    return not (pairs[1:] == pairs[:-1]).any()


def check_mapped_qft_structure(
    mapped: MappedCircuit,
    num_qubits: Optional[int] = None,
    *,
    strict_order: bool = False,
    angle_atol: float = 1e-9,
) -> CoverageReport:
    """Run all structural checks on a mapped QFT circuit.

    The array proof decides; when it fails (or ``strict_order`` asks for
    the Type I check too) the op-by-op loop runs and writes the report.
    """

    n = num_qubits if num_qubits is not None else mapped.num_logical
    if not strict_order and _qft_proved(mapped, n, angle_atol):
        return CoverageReport(
            num_logical=n,
            h_count=n,
            cphase_count=n * (n - 1) // 2,
            swap_count=mapped.swap_count(),
        )
    return _check_qft_by_loop(mapped, n, strict_order, angle_atol)


def _check_qft_by_loop(
    mapped: MappedCircuit, n: int, strict_order: bool, angle_atol: float
) -> CoverageReport:
    """The reference: checks 1-5 op by op, with a message per violation."""

    report = CoverageReport(num_logical=n)

    # 1 + 2: adjacency and honest logical stamps -------------------------------
    if len(set(mapped.initial_layout)) != len(mapped.initial_layout):
        report.add_error("initial layout is not injective")
    check_stamps(mapped, report.add_error)

    # 0, 3 + 4: the gate set, H and CPHASE coverage ---------------------------
    h_seen: Dict[int, int] = {}
    pair_seen: Dict[Tuple[int, int], int] = {}
    events: List[Tuple[str, Tuple[int, ...]]] = []
    foreign = 0
    ops = mapped.ops
    columns = zip(ops.kinds, ops.l0, ops.l1, ops.angles)
    for pos, (kind, la, lb, angle) in enumerate(columns):
        if kind not in _QFT_CODES:
            foreign += 1
            if foreign <= CoverageReport.MAX_ERRORS_PER_CATEGORY:
                report.add_error(
                    f"op {pos}: {_kind_name(kind)} is not a QFT gate "
                    "(H, CPHASE, SWAP or barrier)"
                )
        elif kind == _H:
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
