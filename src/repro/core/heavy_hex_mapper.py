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
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..arch.heavy_hex import CaterpillarTopology, HeavyHexTopology
from ..circuit.gates import qft_angle
from ..circuit.schedule import MappedCircuit, MappingBuilder, OpStream
from .dependence import QFTDependenceTracker
from .routed import complete_remaining
from .qft_specialist import QFTSpecialistMixin

__all__ = ["HeavyHexQFTMapper"]


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
        junctions = list(cat.dangling_junctions)
        dangling_of = cat.dangling_of
        parked: Set[int] = set()  # dangling *physical* qubits holding a parked qubit
        layers = 0
        fallback_swaps = 0
        max_layers = 14 * n + 64

        # Flat state read once per site: the builder's layout (-1 on an empty
        # site) and the tracker's progress.  Only builder.swap and the
        # tracker's mark_* methods write them, so the reads stay live.
        at = builder.phys_to_log
        h_done = tracker.h_done
        pending_smaller = tracker.pending_smaller
        pending_larger = tracker.pending_larger
        pair_done = tracker.pair_done

        while not tracker.all_done():
            if layers > max_layers:
                fallback_swaps += complete_remaining(builder, tracker, tag="hh-fallback")
                self._finish_h(builder, tracker)
                break

            claimed: Set[int] = set()
            emitted = False
            small_main = min([lq for lq in at[:L] if lq >= 0], default=None)

            # 1. Hadamards.
            for phys, lq in enumerate(at):
                if lq >= 0 and not h_done[lq] and pending_smaller[lq] == 0:
                    builder.h(phys, tag="hh")
                    tracker.mark_h(lq)
                    claimed.add(phys)
                    emitted = True

            # 2. Junction CPHASEs (stall rule: take priority over movement).
            for j in junctions:
                d = dangling_of[j]
                if j in claimed or d in claimed:
                    continue
                a, b = at[j], at[d]
                if a < 0 or b < 0:
                    continue
                lo, hi = (a, b) if a < b else (b, a)
                if h_done[lo] and not h_done[hi] and (lo, hi) not in pair_done:
                    builder.cphase(j, d, qft_angle(lo, hi), tag="hh-dangling")
                    tracker.mark_cphase(lo, hi)
                    claimed.update((j, d))
                    emitted = True

            # 3. Main-line CPHASEs.
            for p in range(L - 1):
                if p in claimed or p + 1 in claimed:
                    continue
                a, b = at[p], at[p + 1]
                if a < 0 or b < 0:
                    continue
                lo, hi = (a, b) if a < b else (b, a)
                if h_done[lo] and not h_done[hi] and (lo, hi) not in pair_done:
                    builder.cphase(p, p + 1, qft_angle(lo, hi), tag="hh")
                    tracker.mark_cphase(lo, hi)
                    claimed.update((p, p + 1))
                    emitted = True

            # 4. Parking SWAPs: the smallest main-line qubit enters the first
            #    unparked dangling position it has reached (and interacted with).
            for j in junctions:
                d = dangling_of[j]
                if d in parked or j in claimed or d in claimed:
                    continue
                a, b = at[j], at[d]
                if a < 0 or b < 0:
                    continue
                if a != small_main:
                    continue
                if not h_done[a]:
                    continue
                if ((a, b) if a < b else (b, a)) not in pair_done:
                    continue  # the junction CPHASE will fire first
                builder.swap(j, d, tag="hh-park")
                parked.add(d)
                claimed.update((j, d))
                emitted = True

            # 5. Main-line SWAPs (LNN cascade movement).
            for p in range(L - 1):
                if p in claimed or p + 1 in claimed:
                    continue
                a, b = at[p], at[p + 1]
                if a < 0 or b < 0:
                    continue
                if a < b and (a, b) in pair_done and (
                    pending_smaller[a] + pending_larger[a] > 0
                    or pending_smaller[b] + pending_larger[b] > 0
                ):
                    builder.swap(p, p + 1, tag="hh")
                    claimed.update((p, p + 1))
                    emitted = True

            if not emitted:
                fallback_swaps += complete_remaining(builder, tracker, tag="hh-fallback")
                self._finish_h(builder, tracker)
                break
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
