"""Inter-unit QFT interactions (QFT-IE) between two adjacent unit lines.

This implements the synced / offset travel-path patterns of Section 5 and
Section 6 (discovered in the paper with program synthesis; re-derived by our
synthesiser in :mod:`repro.synthesis.library` and verified by tests):

* both unit lines run *unconditional* odd-even transposition SWAP layers, so
  after ``L`` layers each line is reversed and -- crucially -- each qubit has
  had every position-neighbour exactly once;
* between SWAP layers, CPHASEs fire on every inter-unit link whose two
  resident qubits still owe each other an interaction;
* on Sycamore the two lines move **in sync** (``offset_b == offset_a``)
  because the inter-unit links connect *different* columns (Fig. 13);
* on the lattice-surgery / regular grid the links connect the *same* column,
  so the second line starts **one step late** (``offset_b = offset_a + 1``,
  Fig. 16 / Appendix 7) -- otherwise a qubit would face the same partner
  forever;
* pairs missed by the pattern (the "same column" pairs on Sycamore) are fixed
  up with a constant number of shift / CPHASE / unshift rounds, exactly as
  described at the end of Section 5.

The relaxed variant fires a CPHASE as soon as the pair is available; the
strict variant (QFT-IE-strict, kept for the ablation of Appendix 5/7) only
fires a CPHASE when it is the next one in textbook order for *both* qubits,
which roughly doubles the number of rounds needed.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..circuit.gates import KIND_CODES, GateKind
from ..circuit.schedule import MappingBuilder
from .dependence import QFTDependenceTracker
from .routed import complete_remaining

__all__ = ["bipartite_all_to_all", "InterUnitStats"]


InterUnitStats = Dict[str, int]

_CPHASE = KIND_CODES[GateKind.CPHASE]
_SWAP = KIND_CODES[GateKind.SWAP]


def _residents(builder: MappingBuilder, line: Sequence[int]) -> List[int]:
    at = builder.phys_to_log
    return [at[p] for p in line if at[p] >= 0]


def _cross_pending(
    tracker: QFTDependenceTracker, side_a: Iterable[int], side_b: Iterable[int]
) -> Set[int]:
    """The pending cross pairs, as ``pair_done`` indices ``lo*n + hi``."""

    n, done = tracker.n, tracker.pair_done
    sb = set(side_b)
    pend: Set[int] = set()
    for x in set(side_a):
        for y in sb:
            if x != y:
                code = x * n + y if x < y else y * n + x
                if not done[code]:
                    pend.add(code)
    return pend


def _strict_ready(
    tracker: QFTDependenceTracker,
    x: int,
    y: int,
    side_of: Dict[int, int],
    side_members: Tuple[List[int], List[int]],
) -> bool:
    """Textbook (Type I) readiness of cross pair (x, y): every cross partner of
    ``x`` with a smaller index than ``y`` (on the other side) must be done, and
    symmetrically for ``y``."""

    other_of_x = side_members[1 - side_of[x]]
    for y2 in other_of_x:
        if y2 < y and tracker.pair_is_pending(x, y2):
            return False
    other_of_y = side_members[1 - side_of[y]]
    for x2 in other_of_y:
        if x2 < x and tracker.pair_is_pending(x2, y):
            return False
    return True


def bipartite_all_to_all(
    builder: MappingBuilder,
    tracker: QFTDependenceTracker,
    line_a: Sequence[int],
    line_b: Sequence[int],
    inter_links: Sequence[Tuple[int, int]],
    *,
    offset_a: int = 0,
    offset_b: int = 0,
    rounds: Optional[int] = None,
    strict: bool = False,
    fixup: bool = True,
    allow_fallback: bool = True,
    tag: str = "ie",
) -> InterUnitStats:
    """Run all pending CPHASEs between the residents of two adjacent unit lines.

    Parameters
    ----------
    line_a, line_b:
        Physical paths holding the two units.
    inter_links:
        Positional links ``(index in line_a, index in line_b)`` whose physical
        endpoints are coupled; only these are used for inter-unit CPHASEs.
    offset_a, offset_b:
        Starting parities of the two lines' unconditional SWAP layers.
    rounds:
        Number of movement rounds (default ``len(line) + 1``); the strict
        variant automatically doubles this.
    strict:
        Use QFT-IE-strict ordering instead of QFT-IE-relaxed.
    fixup:
        Run the constant-depth shift/CPHASE/unshift fix-up rounds for pairs the
        travel pattern misses (e.g. same-column pairs on Sycamore).
    allow_fallback:
        Finish any still-missing pairs with routed completion (recorded in the
        returned stats; zero on the architectures of the paper).
    """

    La, Lb = len(line_a), len(line_b)
    for a, b in zip(line_a, line_a[1:]):
        if not builder.topology.has_edge(a, b):
            raise ValueError("line_a is not a coupled path")
    for a, b in zip(line_b, line_b[1:]):
        if not builder.topology.has_edge(a, b):
            raise ValueError("line_b is not a coupled path")
    for ia, ib in inter_links:
        if not (0 <= ia < La and 0 <= ib < Lb):
            raise ValueError(f"inter link ({ia}, {ib}) out of range")
        if not builder.topology.has_edge(line_a[ia], line_b[ib]):
            raise ValueError(
                f"inter link positions ({ia}, {ib}) are not coupled physically"
            )

    side_a = _residents(builder, line_a)
    side_b = _residents(builder, line_b)
    # `pending` starts as the full target set and shrinks as cphase_pass
    # completes pairs (nothing else marks pairs while this function runs), so
    # membership doubles as the pair_is_pending check and the loop's
    # emptiness test is O(1) instead of rescanning every target each round.
    pending = _cross_pending(tracker, side_a, side_b)
    stats: InterUnitStats = {
        "target_pairs": len(pending),
        "pattern_rounds": 0,
        "swap_layers": 0,
        "fixup_rounds": 0,
        "fallback_swaps": 0,
        "missed_after_pattern": 0,
    }
    if not pending:
        return stats

    side_of = {q: 0 for q in side_a}
    side_of.update({q: 1 for q in side_b})
    side_members = (sorted(side_a), sorted(side_b))

    if rounds is None:
        rounds = max(La, Lb) + 1
    if strict:
        rounds *= 2

    n = tracker.n
    h_done = tracker.h_done
    angles = tracker.angles
    # The primitive decides against its own copy of the two lines' occupants
    # (-1 on an empty site) and hands its ops to the builder in one layer()
    # call for the whole travel pattern, then one per fix-up step.
    at = builder.phys_to_log
    occ = ([at[p] for p in line_a], [at[p] for p in line_b])
    occ_a, occ_b = occ
    lines = (line_a, line_b)
    links = [(ia, ib, line_a[ia], line_b[ib]) for ia, ib in inter_links]
    codes: List[int] = []
    p0: List[int] = []
    p1: List[int] = []
    angs: List[Optional[float]] = []
    tags: List[str] = []

    def cphase_pass() -> None:
        """Decide the eligible link CPHASEs.

        Relaxed: the pass reads no mark it makes (each pair sits on one
        link at most), so its CPHASEs are marked in one call.  Strict:
        ``_strict_ready`` reads the marks made earlier in the pass, so each
        is marked as it is decided."""

        los: List[int] = []
        his: List[int] = []
        for ia, ib, pa, pb in links:
            x, y = occ_a[ia], occ_b[ib]
            if x < 0 or y < 0:
                continue
            lo, hi = (x, y) if x < y else (y, x)
            code = lo * n + hi
            if code not in pending:
                continue
            # the pair is pending, so this is the tracker's can_cphase
            if not h_done[lo] or h_done[hi]:
                continue
            if strict:
                if not _strict_ready(tracker, x, y, side_of, side_members):
                    continue
                tracker.mark_cphase(lo, hi)
            else:
                los.append(lo)
                his.append(hi)
            codes.append(_CPHASE)
            p0.append(pa)
            p1.append(pb)
            angs.append(angles[hi - lo])
            tags.append(tag)
            pending.discard(code)
        if los:
            tracker.mark_cphases(los, his)

    def swap_layer(which: int, parity: int, swap_tag: str) -> None:
        """One odd-even transposition SWAP layer on line ``which``."""

        line, o = lines[which], occ[which]
        parity %= 2
        end = len(line) - 1
        sa = line[parity:end:2]
        k = len(sa)
        codes.extend([_SWAP] * k)
        p0.extend(sa)
        p1.extend(line[parity + 1 :: 2])
        angs.extend([None] * k)
        tags.extend([swap_tag] * k)
        o[parity:end:2], o[parity + 1 :: 2] = o[parity + 1 :: 2], o[parity:end:2]

    def flush() -> None:
        if codes:
            builder.layer(codes, p0, p1, angs, tags)
            for column in (codes, p0, p1, angs, tags):
                column.clear()

    # -- main travel pattern -----------------------------------------------
    for t in range(rounds + 1):
        cphase_pass()
        stats["pattern_rounds"] = t + 1
        if not pending:
            break
        if t < rounds:
            swap_layer(0, t + offset_a, tag)
            swap_layer(1, t + offset_b, tag)
            stats["swap_layers"] += 2
    flush()

    stats["missed_after_pattern"] = len(pending)

    # -- constant-depth structured fix-up ----------------------------------
    if fixup and pending:
        for which, parity in ((0, 0), (1, 0), (0, 1), (1, 1)):
            if not pending:
                break
            swap_layer(which, parity, tag + "-fixup")
            cphase_pass()
            swap_layer(which, parity, tag + "-fixup")
            flush()
            stats["fixup_rounds"] += 1
            stats["swap_layers"] += 2

    # -- guaranteed completion ----------------------------------------------
    if pending and allow_fallback:
        left = [divmod(code, n) for code in pending]
        stats["fallback_swaps"] = complete_remaining(builder, tracker, left, tag=tag + "-fallback")
    elif pending:
        raise RuntimeError(
            f"inter-unit interaction left {len(pending)} pairs incomplete and fallback is disabled"
        )
    return stats
