"""The LNN cascade: linear-depth QFT on a line (Section 2.2, Fig. 3).

The known linear-depth LNN solution can be phrased as a pipeline of
*fronts*: qubit ``q0`` is hadamarded and then travels toward the far end of
the line through repeated (CPHASE, SWAP) steps with every qubit it meets; each
subsequent qubit launches its own front as soon as all of its smaller-index
interactions are complete (at which point it sits at the head of the line and
its H is legal).  After ``4N + O(1)`` layers every pair has interacted exactly
once and the line order is reversed -- exactly the pattern of Fig. 3.

This module implements the cascade twice, deliberately:

* :func:`abstract_line_qft_schedule` produces the schedule for ``k`` *virtual*
  items on a virtual line.  The unit-based mappers (Sycamore, lattice surgery,
  2-D grid) replay it with units in place of qubits: virtual "H" becomes an
  intra-unit QFT, virtual "CPHASE" becomes an inter-unit interaction and
  virtual "SWAP" becomes a unit swap (Fig. 14).

* :func:`cascade_on_line` runs the same rules directly against a
  :class:`~repro.circuit.schedule.MappingBuilder` for the logical qubits
  currently resident on a physical line.  It is the QFT-IA primitive of every
  unit-based mapper and, on its own, the full LNN mapper.

Both engines use the relaxed (Type II only) dependence rules through
:class:`~repro.core.dependence.QFTDependenceTracker`.

How :func:`cascade_on_line` runs a layer, and why each shortcut is exact:

* **Decide, then apply.**  A layer's ops are decided against the occupants
  and tracker state at the start of the layer, then marked in one
  ``mark_cphases`` call.  This is exact because claims keep a layer's ops on
  disjoint sites, an op changes only its own sites' state (an H its qubit,
  a CPHASE mark its pair and two counters, a SWAP its two occupants), and
  every later decision of the layer reads only unclaimed sites.
* **Frontier.**  For the same reason a site's eligibility changes only
  through an op on that site.  So on a line longer than
  :data:`WHOLE_SCAN_MAX_SITES` the pair pass visits only the pairs with a
  site the previous layer touched, in ascending order.  A pair that a claim
  kept from firing had a claimed, hence touched, site, so it is visited
  again.  The H pass visits only the qubits whose last smaller-index CPHASE
  was in the previous layer, since only such a mark can make an H eligible.
  An orientation flip renumbers the positions, so the layer after it scans
  them all.  Shorter lines are scanned whole: there, building the frontier
  costs more than the sites it skips.
* **Emission.**  The engine keeps its own copy of the line's occupants and
  hands the decided ops to :meth:`~repro.circuit.schedule.MappingBuilder.layer`
  in one call per layer on a long line, and once per call on a short one
  (a routed fallback first receives everything decided so far).  The
  builder stamps them from its own layout, so the stream is the one that
  emitting op by op gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import or_
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..circuit.gates import KIND_CODES, GateKind
from ..circuit.schedule import MappingBuilder
from ..utils import BoundedCache
from .dependence import QFTDependenceTracker
from .routed import complete_remaining

__all__ = [
    "AbstractStep",
    "abstract_line_qft_schedule",
    "cascade_on_line",
    "CascadeStalled",
    "WHOLE_SCAN_MAX_SITES",
]

#: Lines of at most this many sites are scanned whole every layer; longer
#: ones visit only the sites the previous layer touched (see the module
#: docstring).  The heavy-hex engine applies it to its main line.  The
#: measured crossover is about 32 sites on an LNN line and about 24 on a
#: caterpillar's main line.
WHOLE_SCAN_MAX_SITES = 24

_H = KIND_CODES[GateKind.H]
_CPHASE = KIND_CODES[GateKind.CPHASE]
_SWAP = KIND_CODES[GateKind.SWAP]

# abstract_line_qft_schedule's results, by item count: the unit-based
# mappers replay the same few small schedules on every compile
_ABSTRACT_SCHEDULES: BoundedCache = BoundedCache(32)


class CascadeStalled(RuntimeError):
    """Raised when the cascade's local rules cannot make progress.

    On the paper's architectures this never happens; it indicates either a
    misuse (e.g. running an intra-unit QFT before the unit's cross
    interactions completed) or an irregular topology, in which case the caller
    may fall back to routed completion.
    """


@dataclass(frozen=True)
class AbstractStep:
    """One action of the abstract (virtual-line) schedule.

    ``kind`` is ``"h"``, ``"cphase"`` or ``"swap"``; ``items`` holds the
    virtual item ids (length 1 or 2, smaller id first for two-item actions)
    and ``positions`` the line positions they occupy when the action runs.
    ``layer`` is the parallel time step the action belongs to.
    """

    kind: str
    items: Tuple[int, ...]
    positions: Tuple[int, ...]
    layer: int


def abstract_line_qft_schedule(k: int) -> Tuple[AbstractStep, ...]:
    """Linear-depth QFT schedule for ``k`` virtual items on a ``k``-slot line.

    The returned steps respect the QFT Type II dependence at item granularity
    (every pair "interacts" exactly once, item ``i``'s "H" precedes all of its
    interactions with larger items, and follows all interactions with smaller
    items) and consecutive items of a two-item step always occupy adjacent
    positions.  The final arrangement is the reversal of the initial one.

    The schedule depends on ``k`` alone, so it is computed once per ``k`` and
    process (in a small bounded cache) and returned as an immutable tuple of
    frozen steps that every caller shares.
    """

    if k < 1:
        raise ValueError("need at least one virtual item")
    hit = _ABSTRACT_SCHEDULES.lookup(k)
    if hit is None:
        hit = _ABSTRACT_SCHEDULES.store(k, tuple(_abstract_schedule(k)))
    return hit


def _abstract_schedule(k: int) -> List[AbstractStep]:
    tracker = QFTDependenceTracker(k)
    line: List[int] = list(range(k))  # line[pos] = virtual item id
    steps: List[AbstractStep] = []
    layer = 0
    max_layers = 8 * k + 16

    while not tracker.all_done():
        if layer > max_layers:
            raise CascadeStalled(
                f"abstract cascade did not converge within {max_layers} layers"
            )
        claimed: Set[int] = set()
        actions: List[AbstractStep] = []

        # Hadamards first: an item's H is on the critical path of its front.
        for pos, item in enumerate(line):
            if pos in claimed:
                continue
            if tracker.can_h(item):
                actions.append(AbstractStep("h", (item,), (pos,), layer))
                claimed.add(pos)

        # CPHASE then SWAP on adjacent position pairs, scanning the line.
        for pos in range(k - 1):
            if pos in claimed or pos + 1 in claimed:
                continue
            a, b = line[pos], line[pos + 1]
            lo, hi = (a, b) if a < b else (b, a)
            if tracker.can_cphase(lo, hi):
                actions.append(AbstractStep("cphase", (lo, hi), (pos, pos + 1), layer))
                claimed.update((pos, pos + 1))
            elif (
                a < b
                and tracker.pair_is_done(a, b)
                and (tracker.has_pending_pairs(a) or tracker.has_pending_pairs(b))
            ):
                actions.append(AbstractStep("swap", (a, b), (pos, pos + 1), layer))
                claimed.update((pos, pos + 1))

        if not actions:
            raise CascadeStalled("abstract cascade stalled with pending interactions")

        for step in actions:
            if step.kind == "h":
                tracker.mark_h(step.items[0])
            elif step.kind == "cphase":
                tracker.mark_cphase(*step.items)
            else:  # swap: smaller item moves toward higher positions
                p, q = step.positions
                line[p], line[q] = line[q], line[p]
        steps.extend(actions)
        layer += 1
    return steps


def _complete(
    builder: MappingBuilder, tracker: QFTDependenceTracker, part: Set[int], tag: str
) -> int:
    """Routed completion of the participants' pending pairs, then their
    Hadamards; returns the SWAPs inserted."""

    qs = sorted(part)
    pairs = [
        (a, b) for i, a in enumerate(qs) for b in qs[i + 1 :] if tracker.pair_is_pending(a, b)
    ]
    swaps = complete_remaining(builder, tracker, pairs, tag=tag + "-fallback")
    for q in qs:
        if tracker.can_h(q):
            builder.h(builder.phys_of(q), tag=tag)
            tracker.mark_h(q)
    return swaps


def cascade_on_line(
    builder: MappingBuilder,
    tracker: QFTDependenceTracker,
    line: Sequence[int],
    participants: Optional[Sequence[int]] = None,
    *,
    tag: str = "ia",
    allow_fallback: bool = True,
    opportunistic: bool = True,
) -> Dict[str, int]:
    """Run the LNN cascade for the logical qubits resident on ``line``.

    Parameters
    ----------
    builder, tracker:
        Shared emission / dependence state.
    line:
        Physical qubits forming a path (consecutive entries must be coupled).
    participants:
        Logical qubits whose mutual interactions this call must complete
        (default: every logical qubit currently on the line).  The cascade
        terminates once all participant pairs are done and every participant
        received its Hadamard.
    tag:
        Provenance tag stamped on emitted ops.
    allow_fallback:
        Finish via routed completion if the local rules stall (never needed on
        a genuine line; kept for robustness on irregular inputs).
    opportunistic:
        Also emit eligible CPHASEs between a participant and a non-participant
        neighbour when they happen to be adjacent (harmless and occasionally
        saves work for the caller).

    Returns a small stats dict (layers, swaps, fallback swaps).
    """

    positions = list(line)
    L = len(positions)
    for a, b in zip(positions, positions[1:]):
        if not builder.topology.has_edge(a, b):
            raise ValueError(f"line entries {a} and {b} are not coupled")

    at = builder.phys_to_log  # live layout, -1 on an empty site
    if participants is None:
        part: Set[int] = {at[p] for p in positions if at[p] >= 0}
    else:
        part = set(participants)
    if not part:
        return {"layers": 0, "swaps": 0, "fallback_swaps": 0}

    # Pending-work counters, maintained alongside every mark_* call in the
    # loop below so the per-layer predicates are O(1) instead of rescanning
    # all participant pairs (which made large lines O(n^3) overall):
    # pend_in[q]   = #pending pairs between q and the other participants,
    # pending_pair_count = #pending pairs within the participant set,
    # h_missing    = #participants still owed their Hadamard.
    part_sorted = sorted(part)
    pend_in: Dict[int, int] = {q: 0 for q in part_sorted}
    pending_pair_count = 0
    if len(part) == tracker.n:
        # whole-circuit cascade (the LNN mapper): the tracker's own per-qubit
        # counters already hold the within-part pending counts
        for q in part_sorted:
            pend_in[q] = tracker.pending_smaller[q] + tracker.pending_larger[q]
        pending_pair_count = tracker.total_pairs - tracker.pairs_completed
    else:
        for i, a in enumerate(part_sorted):
            for b in part_sorted[i + 1 :]:
                if tracker.pair_is_pending(a, b):
                    pend_in[a] += 1
                    pend_in[b] += 1
                    pending_pair_count += 1
    h_missing = sum(1 for q in part if not tracker.h_done[q])
    # The loop runs until every participant pair is done and every
    # participant H'd; `q in part and pend_in[q] > 0` says that q still owes
    # a participant an interaction.

    # The tracker's flat state, read per site below; only mark_h and
    # mark_cphases write it.
    n = tracker.n
    h_done = tracker.h_done
    pending_smaller = tracker.pending_smaller
    done = tracker.pair_done
    angles = tracker.angles

    # The engine decides against its own copy of the line's occupants
    # (-1 on an empty site) and hands the decided ops to the builder in one
    # layer() call: per layer on a long line, once per call on a short one.
    line_log = [at[p] for p in positions]
    codes: List[int] = []
    p0: List[int] = []
    p1: List[int] = []
    angs: List[Optional[float]] = []

    def flush() -> None:
        if codes:
            builder.layer(codes, p0, p1, angs, [tag] * len(codes))
            codes.clear()
            p0.clear()
            p1.clear()
            angs.clear()

    swaps = 0
    fallback_swaps = 0
    layer = 0
    flips = 0
    acted_since_flip = True
    max_layers = 8 * max(L, len(part)) + 16
    all_sites = range(L)
    all_pairs = range(L - 1)
    whole = L <= WHOLE_SCAN_MAX_SITES
    unclaimed = bytearray(L)
    touched: Optional[bytearray] = None  # the previous layer's claims
    freed: List[int] = []  # positions of the qubits its CPHASEs made H-ready

    while pending_pair_count or h_missing:
        if layer > max_layers:
            if allow_fallback:
                flush()
                fallback_swaps += _complete(builder, tracker, part, tag)
                break
            flush()
            raise CascadeStalled("cascade_on_line exceeded its layer budget")

        if touched is None or whole:
            sites, pairs = all_sites, all_pairs
        else:
            sites = freed
            pairs = compress(all_pairs, map(or_, touched[:-1], touched[1:]))
        claim = unclaimed.copy()
        emitted = len(codes)
        los: List[int] = []
        his: List[int] = []
        hi_at: List[int] = []

        # Hadamards first.  An H is marked at once: no later decision of the
        # layer reads its qubit, whose site it claims.
        for pos in sites:
            lq = line_log[pos]
            if lq in part and not h_done[lq] and pending_smaller[lq] == 0:
                codes.append(_H)
                p0.append(positions[pos])
                p1.append(-1)
                angs.append(None)
                tracker.mark_h(lq)
                h_missing -= 1
                claim[pos] = 1

        # CPHASE / SWAP over adjacent line positions.
        for pos in pairs:
            if claim[pos] or claim[pos + 1]:
                continue
            a, b = line_log[pos], line_log[pos + 1]
            if a < 0 or b < 0:
                continue
            lo, hi = (a, b) if a < b else (b, a)
            if (
                h_done[lo]
                and not h_done[hi]
                and not done[lo * n + hi]
                and (opportunistic or (a in part and b in part))
            ):
                codes.append(_CPHASE)
                p0.append(positions[pos])
                p1.append(positions[pos + 1])
                angs.append(angles[hi - lo])
                los.append(lo)
                his.append(hi)
                hi_at.append(pos if hi == a else pos + 1)
                if lo in part and hi in part:
                    pend_in[lo] -= 1
                    pend_in[hi] -= 1
                    pending_pair_count -= 1
                claim[pos] = claim[pos + 1] = 1
            elif (
                a < b
                and done[a * n + b]
                and ((a in part and pend_in[a] > 0) or (b in part and pend_in[b] > 0))
            ):
                codes.append(_SWAP)
                p0.append(positions[pos])
                p1.append(positions[pos + 1])
                angs.append(None)
                line_log[pos], line_log[pos + 1] = b, a
                swaps += 1
                claim[pos] = claim[pos + 1] = 1

        if los:
            tracker.mark_cphases(los, his)
        if len(codes) > emitted:
            if not whole:
                flush()
                freed = sorted([p for q, p in zip(his, hi_at) if not pending_smaller[q]])
            touched = claim
            acted_since_flip = True
        else:
            # The cascade moves smaller-index qubits toward the high end of the
            # line.  After an inter-unit interaction the residents can arrive
            # already in descending order with interactions still pending, in
            # which case the movement rule has nothing to do.  Running the same
            # rules with the line orientation reversed resolves this; the flip
            # itself costs no gates.  Only if a flip yields no progress either
            # do we resort to routed completion.
            if acted_since_flip:
                positions.reverse()
                line_log.reverse()
                flips += 1
                acted_since_flip = False
                touched = None  # positions are renumbered: rescan them all
                continue
            flush()
            if allow_fallback:
                fallback_swaps += _complete(builder, tracker, part, tag)
                break
            raise CascadeStalled(
                "cascade_on_line stalled; participants' interactions incomplete"
            )
        layer += 1
    flush()

    return {
        "layers": layer,
        "swaps": swaps,
        "fallback_swaps": fallback_swaps,
        "orientation_flips": flips,
    }
