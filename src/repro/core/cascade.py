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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..circuit.gates import qft_angle
from ..circuit.schedule import MappingBuilder
from .dependence import QFTDependenceTracker
from .routed import complete_remaining

__all__ = [
    "AbstractStep",
    "abstract_line_qft_schedule",
    "cascade_on_line",
    "CascadeStalled",
]


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


def abstract_line_qft_schedule(k: int) -> List[AbstractStep]:
    """Linear-depth QFT schedule for ``k`` virtual items on a ``k``-slot line.

    The returned steps respect the QFT Type II dependence at item granularity
    (every pair "interacts" exactly once, item ``i``'s "H" precedes all of its
    interactions with larger items, and follows all interactions with smaller
    items) and consecutive items of a two-item step always occupy adjacent
    positions.  The final arrangement is the reversal of the initial one.
    """

    if k < 1:
        raise ValueError("need at least one virtual item")
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

    def note_cphase(lo: int, hi: int) -> None:
        nonlocal pending_pair_count
        if lo in part and hi in part:
            pend_in[lo] -= 1
            pend_in[hi] -= 1
            pending_pair_count -= 1

    def participant_pending(q: int) -> bool:
        # == q in part and any(tracker.pair_is_pending(q, r) for r in part)
        return q in part and pend_in[q] > 0

    def finished() -> bool:
        # == tracker.all_pairs_done_within(part) and all participants H'd
        return pending_pair_count == 0 and h_missing == 0

    # The tracker's flat state, read per site below; only mark_h and
    # mark_cphase write it.
    h_done = tracker.h_done
    pending_smaller = tracker.pending_smaller
    pair_done = tracker.pair_done

    swaps = 0
    fallback_swaps = 0
    layer = 0
    flips = 0
    acted_since_flip = True
    max_layers = 8 * max(L, len(part)) + 16

    while not finished():
        if layer > max_layers:
            if allow_fallback:
                pairs = [
                    (a, b)
                    for i, a in enumerate(sorted(part))
                    for b in sorted(part)[i + 1 :]
                    if tracker.pair_is_pending(a, b)
                ]
                fallback_swaps += complete_remaining(builder, tracker, pairs, tag=tag + "-fallback")
                for q in sorted(part):
                    if tracker.can_h(q):
                        builder.h(builder.phys_of(q), tag=tag)
                        tracker.mark_h(q)
                break
            raise CascadeStalled("cascade_on_line exceeded its layer budget")

        claimed: Set[int] = set()
        emitted_any = False

        # Hadamards first.
        for pos, phys in enumerate(positions):
            lq = at[phys]
            if lq in part and not h_done[lq] and pending_smaller[lq] == 0:
                builder.h(phys, tag=tag)
                tracker.mark_h(lq)
                h_missing -= 1
                claimed.add(pos)
                emitted_any = True

        # CPHASE / SWAP over adjacent line positions.
        for pos in range(L - 1):
            if pos in claimed or pos + 1 in claimed:
                continue
            pa, pb = positions[pos], positions[pos + 1]
            a, b = at[pa], at[pb]
            if a < 0 or b < 0:
                continue
            lo, hi = (a, b) if a < b else (b, a)
            if (
                h_done[lo]
                and not h_done[hi]
                and (lo, hi) not in pair_done
                and (opportunistic or (a in part and b in part))
            ):
                builder.cphase(pa, pb, qft_angle(lo, hi), tag=tag)
                tracker.mark_cphase(lo, hi)
                note_cphase(lo, hi)
                claimed.update((pos, pos + 1))
                emitted_any = True
            elif (
                a < b
                and (a, b) in pair_done
                and (participant_pending(a) or participant_pending(b))
            ):
                builder.swap(pa, pb, tag=tag)
                swaps += 1
                claimed.update((pos, pos + 1))
                emitted_any = True

        if emitted_any:
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
                flips += 1
                acted_since_flip = False
                continue
            if allow_fallback:
                pairs = [
                    (a, b)
                    for i, a in enumerate(sorted(part))
                    for b in sorted(part)[i + 1 :]
                    if tracker.pair_is_pending(a, b)
                ]
                fallback_swaps += complete_remaining(builder, tracker, pairs, tag=tag + "-fallback")
                for q in sorted(part):
                    if tracker.can_h(q):
                        builder.h(builder.phys_of(q), tag=tag)
                        tracker.mark_h(q)
                break
            raise CascadeStalled(
                "cascade_on_line stalled; participants' interactions incomplete"
            )
        layer += 1

    return {
        "layers": layer,
        "swaps": swaps,
        "fallback_swaps": fallback_swaps,
        "orientation_flips": flips,
    }
