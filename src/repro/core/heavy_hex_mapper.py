"""Linear-depth QFT on the IBM heavy-hex architecture (Section 4).

The heavy-hex device is first unrolled into a *caterpillar* coupling graph
(one main line plus dangling qubits, Appendix 1).  The mapper then extends the
LNN cascade with two architecture-specific rules:

* **junction stall** -- a qubit occupying a junction node of the main line
  performs the CPHASE with the dangling occupant before it is allowed to move
  on (an extra cycle per junction visit; this is where the complexity grows
  from ``4N`` to ``5N``--``6N``),
* **parking** -- the smallest-index qubit still travelling on the main line is
  swapped *into* the first not-yet-parked dangling position it reaches and
  never moves again; its remaining interactions happen with the qubits that
  later occupy that junction's main-line node.  The original dangling occupant
  is released onto the main line by the same SWAP.

Both rules are exactly the behaviour described in Section 4 / Algorithm 1 and
exploit the relaxed (Type II only) ordering: once ``q0`` is parked, ``q1`` may
interact with high-index qubits *before* ``q0`` does.

A routed fallback guarantees completion on irregular caterpillars (e.g. very
uneven dangling spacing); the number of fallback SWAPs is reported in the
result metadata and is zero on the paper's layouts (tests assert this).

Each layer is decided in five passes (Hadamards ascending, junction CPHASEs,
main-line CPHASEs ascending, the park, main-line SWAPs ascending), then
emitted in one :meth:`~repro.circuit.schedule.MappingBuilder.layer` call and
marked in one ``mark_cphases`` call.  Batching is exact: claims make a
layer's ops disjoint, and every later decision of the layer reads only
unclaimed sites, so no mark or SWAP of the layer can change it.  By the same
argument a site's eligibility changes only through an op on it, so on a
main line longer than :data:`~repro.core.cascade.WHOLE_SCAN_MAX_SITES` the
pair passes visit only pairs with a site the previous layer touched (a pair
a claim kept from firing had a touched site), and the H pass only the
qubits whose last smaller-index CPHASE the previous layer marked.  The park
candidate is the site of the smallest main-line qubit, recomputed only after
a park, the only move between the main line and a dangling site.
"""

from __future__ import annotations

from itertools import compress
from operator import or_
from typing import Dict, List, Optional, Set

from ..arch.heavy_hex import CaterpillarTopology, HeavyHexTopology
from ..circuit.gates import KIND_CODES, GateKind
from ..circuit.schedule import MappedCircuit, MappingBuilder, OpStream
from .cascade import WHOLE_SCAN_MAX_SITES
from .dependence import QFTDependenceTracker
from .routed import complete_remaining
from .qft_specialist import QFTSpecialistMixin

__all__ = ["HeavyHexQFTMapper"]

_H = KIND_CODES[GateKind.H]
_CPHASE = KIND_CODES[GateKind.CPHASE]
_SWAP = KIND_CODES[GateKind.SWAP]


class HeavyHexQFTMapper(QFTSpecialistMixin):
    """Dangling-point QFT mapper for caterpillar / heavy-hex topologies."""

    name = "our-heavyhex"

    def __init__(self, topology) -> None:
        if isinstance(topology, HeavyHexTopology):
            self._original: Optional[HeavyHexTopology] = topology
            self.caterpillar, self._phys_map = topology.to_caterpillar()
        elif isinstance(topology, CaterpillarTopology):
            self._original = None
            self.caterpillar = topology
            self._phys_map = list(range(topology.num_qubits))
        else:
            raise TypeError(
                "HeavyHexQFTMapper needs a CaterpillarTopology or HeavyHexTopology"
            )
        self.topology = topology

    # ------------------------------------------------------------------
    def map_qft(self, num_qubits: Optional[int] = None) -> MappedCircuit:
        cat = self.caterpillar
        n = num_qubits if num_qubits is not None else cat.num_qubits
        if n > cat.num_qubits:
            raise ValueError("more logical qubits than physical qubits")

        serp = cat.serpentine_order()
        layout = serp[:n]
        builder = MappingBuilder(cat, layout, num_logical=n, name=self.name)
        tracker = QFTDependenceTracker(n)
        stats = self._run_engine(builder, tracker, cat, n)

        if not tracker.all_done():
            raise RuntimeError("heavy-hex mapper finished without completing the kernel")

        mapped = builder.build(metadata={"mapper": self.name, **stats})
        if self._original is not None:
            mapped = self._translate(mapped)
        return mapped

    # ------------------------------------------------------------------
    def _run_engine(
        self,
        builder: MappingBuilder,
        tracker: QFTDependenceTracker,
        cat: CaterpillarTopology,
        n: int,
    ) -> Dict[str, int]:
        L = cat.main_length
        nq = cat.num_qubits
        junctions = list(cat.dangling_junctions)
        # dangling site of each junction, -1 elsewhere; the dangling sites
        # are L.. in junction order
        dangling_at = [-1] * nq
        for j in junctions:
            dangling_at[j] = cat.dangling_of[j]
        parked: Set[int] = set()  # dangling *physical* qubits holding a parked qubit
        layers = 0
        fallback_swaps = 0
        max_layers = 14 * n + 64

        # Flat state read once per site: the builder's layout (-1 on an empty
        # site) and the tracker's progress.  Only builder.layer and the
        # tracker's mark_* methods write them, once per layer.
        at = builder.phys_to_log
        where = builder.log_to_phys
        h_done = tracker.h_done
        pending_smaller = tracker.pending_smaller
        pending_larger = tracker.pending_larger
        done = tracker.pair_done
        angles = tracker.angles

        all_sites = range(nq)
        all_pairs = range(L - 1)
        whole = L <= WHOLE_SCAN_MAX_SITES
        unclaimed = bytearray(nq)
        touched: Optional[bytearray] = None  # the previous layer's claims
        freed: List[int] = []  # sites of the qubits its CPHASEs made H-ready
        small_main = min([lq for lq in at[:L] if lq >= 0], default=None)

        while not tracker.all_done():
            if layers > max_layers:
                fallback_swaps += complete_remaining(builder, tracker, tag="hh-fallback")
                self._finish_h(builder, tracker)
                break

            if touched is None or whole:
                sites, line, juncs = all_sites, all_pairs, junctions
            else:
                sites = freed
                line = compress(all_pairs, map(or_, touched[: L - 1], touched[1:L]))
                juncs = compress(
                    junctions, map(or_, map(touched.__getitem__, junctions), touched[L:])
                )
            claim = unclaimed.copy()
            codes: List[int] = []
            p0: List[int] = []
            p1: List[int] = []
            angs: List[Optional[float]] = []
            tags: List[str] = []
            los: List[int] = []
            his: List[int] = []

            # 1. Hadamards, marked at once: no later decision of the layer
            #    reads a qubit whose site it claims.
            for phys in sites:
                lq = at[phys]
                if lq >= 0 and not h_done[lq] and pending_smaller[lq] == 0:
                    codes.append(_H)
                    p0.append(phys)
                    p1.append(-1)
                    angs.append(None)
                    tags.append("hh")
                    tracker.mark_h(lq)
                    claim[phys] = 1

            # 2. Junction CPHASEs (stall rule: take priority over movement).
            for j in juncs:
                d = dangling_at[j]
                if claim[j] or claim[d]:
                    continue
                a, b = at[j], at[d]
                if a < 0 or b < 0:
                    continue
                lo, hi = (a, b) if a < b else (b, a)
                if h_done[lo] and not h_done[hi] and not done[lo * n + hi]:
                    codes.append(_CPHASE)
                    p0.append(j)
                    p1.append(d)
                    angs.append(angles[hi - lo])
                    tags.append("hh-dangling")
                    los.append(lo)
                    his.append(hi)
                    claim[j] = claim[d] = 1

            # 3. Main-line CPHASEs.  A pair whose CPHASE is done may SWAP in
            #    step 5 instead; the pairs that qualify are noted here, and
            #    step 5 skips those that a later claim took.
            movable: List[int] = []
            for p in line:
                if claim[p] or claim[p + 1]:
                    continue
                a, b = at[p], at[p + 1]
                if a < 0 or b < 0:
                    continue
                lo, hi = (a, b) if a < b else (b, a)
                if done[lo * n + hi]:
                    if a < b and (
                        pending_smaller[a] + pending_larger[a] > 0
                        or pending_smaller[b] + pending_larger[b] > 0
                    ):
                        movable.append(p)
                elif h_done[lo] and not h_done[hi]:
                    codes.append(_CPHASE)
                    p0.append(p)
                    p1.append(p + 1)
                    angs.append(angles[hi - lo])
                    tags.append("hh")
                    los.append(lo)
                    his.append(hi)
                    claim[p] = claim[p + 1] = 1

            # 4. Parking SWAP: the smallest main-line qubit enters the
            #    unparked dangling position it has reached (and interacted
            #    with).
            parking = False
            if small_main is not None and h_done[small_main]:
                j = where[small_main]
                d = dangling_at[j]
                if d >= 0 and not (d in parked or claim[j] or claim[d]):
                    a, b = small_main, at[d]
                    # b < 0 is an empty site; an undone pair fires its
                    # junction CPHASE first
                    if b >= 0 and done[a * n + b if a < b else b * n + a]:
                        codes.append(_SWAP)
                        p0.append(j)
                        p1.append(d)
                        angs.append(None)
                        tags.append("hh-park")
                        parked.add(d)
                        parking = True
                        claim[j] = claim[d] = 1

            # 5. Main-line SWAPs (LNN cascade movement).
            for p in movable:
                if claim[p] or claim[p + 1]:
                    continue
                codes.append(_SWAP)
                p0.append(p)
                p1.append(p + 1)
                angs.append(None)
                tags.append("hh")
                claim[p] = claim[p + 1] = 1

            if not codes:
                fallback_swaps += complete_remaining(builder, tracker, tag="hh-fallback")
                self._finish_h(builder, tracker)
                break
            builder.layer(codes, p0, p1, angs, tags)
            if los:
                tracker.mark_cphases(los, his)
            if not whole:
                freed = sorted([where[q] for q in his if not pending_smaller[q]])
            if parking:
                # the park is the only move between the main line and a
                # dangling site
                small_main = min([lq for lq in at[:L] if lq >= 0], default=None)
            touched = claim
            layers += 1

        return {
            "layers": layers,
            "fallback_swaps": fallback_swaps,
            "parked": len(parked),
        }

    @staticmethod
    def _finish_h(builder: MappingBuilder, tracker: QFTDependenceTracker) -> None:
        for q in range(tracker.n):
            if tracker.can_h(q):
                builder.h(builder.phys_of(q), tag="hh")
                tracker.mark_h(q)

    # ------------------------------------------------------------------
    def _translate(self, mapped: MappedCircuit) -> MappedCircuit:
        """Rewrite a caterpillar-indexed circuit onto the original heavy-hex
        device (the caterpillar is a subgraph, so every edge stays valid)."""

        # The appended -1 maps the "no operand" marker of p1 to itself.
        pm = self._phys_map + [-1]
        ops = mapped.ops
        translated = OpStream(
            ops.kinds,
            [pm[p] for p in ops.p0],
            [pm[p] for p in ops.p1],
            ops.l0,
            ops.l1,
            ops.angles,
            ops.tags,
        )
        return MappedCircuit(
            topology=self._original,
            num_logical=mapped.num_logical,
            initial_layout=[pm[p] for p in mapped.initial_layout],
            ops=translated,
            name=mapped.name,
            metadata=dict(mapped.metadata),
        )
