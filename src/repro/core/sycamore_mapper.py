"""Linear-depth QFT on the Google Sycamore architecture (Section 5).

Units are pairs of rows (``2m`` qubits each, ``m/2`` units per ``m x m``
patch); every unit is internally a line (the zigzag of Fig. 12), the units
themselves form a line, and the mapper is the unit-level LNN QFT of Fig. 14
with three primitives:

* **QFT-IA**  -- the LNN cascade on the unit's zigzag line,
* **QFT-IE**  -- the relaxed synced travel pattern between two adjacent units
  (Fig. 13) with the constant-depth same-column fix-up,
* **unit SWAP** -- three layers of transversal SWAPs over the vertical links
  (the ``parallelSWAP`` sequence of Section 5).

The result has depth ``~7 N + O(sqrt N)`` and never needs recompilation when
``m`` changes -- the construction is purely analytical.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..arch.sycamore import SycamoreTopology
from ..circuit.gates import KIND_CODES, GateKind
from ..circuit.schedule import MappedCircuit, MappingBuilder
from .cascade import cascade_on_line
from .dependence import QFTDependenceTracker
from .inter_unit import bipartite_all_to_all
from .routed import complete_remaining, finish_hadamards
from .unit import UnitLevelScheduler
from .qft_specialist import QFTSpecialistMixin

__all__ = ["SycamoreQFTMapper"]

_SWAP = KIND_CODES[GateKind.SWAP]


class SycamoreQFTMapper(QFTSpecialistMixin):
    """Unit-based QFT mapper for :class:`~repro.arch.sycamore.SycamoreTopology`."""

    name = "our-sycamore"

    def __init__(self, topology: SycamoreTopology, *, strict_ie: bool = False) -> None:
        if not isinstance(topology, SycamoreTopology):
            raise TypeError("SycamoreQFTMapper needs a SycamoreTopology")
        self.topology = topology
        self.strict_ie = strict_ie

    # ------------------------------------------------------------------
    def _inter_unit_links(self, slot: int) -> List[tuple]:
        """Positional links between slot ``slot``'s line and slot ``slot+1``'s.

        Unit lines alternate top row / bottom row by position: position
        ``2c`` is the top-row qubit of column ``c`` and ``2c + 1`` the
        bottom-row qubit.  The physical inter-unit links connect the lower
        unit's bottom row with the upper unit's top row, vertically (same
        column) and diagonally (column + 1), which in positional terms is
        ``(2c + 1, 2c)`` and ``(2c + 1, 2c + 2)``.
        """

        topo = self.topology
        at_b = {pb: ib for ib, pb in enumerate(topo.unit_line(slot + 1))}
        return sorted(
            (ia, at_b[q])
            for ia, pa in enumerate(topo.unit_line(slot))
            for q in topo.neighbors(pa)
            if q in at_b
        )

    # ------------------------------------------------------------------
    def map_qft(self, num_qubits: Optional[int] = None) -> MappedCircuit:
        topo = self.topology
        n = num_qubits if num_qubits is not None else topo.num_qubits
        if n != topo.num_qubits:
            raise ValueError(
                "the Sycamore mapper maps the full patch; build a smaller patch "
                "for a smaller QFT"
            )

        unit_size = topo.unit_size
        num_units = topo.num_units
        # Logical unit i starts in slot i; logical qubits fill the unit line
        # in natural order, so the initial layout is simply the concatenation
        # of the unit lines.
        layout: List[int] = []
        for u in range(num_units):
            layout.extend(topo.unit_line(u))
        layout = layout[:n]

        builder = MappingBuilder(topo, layout, num_logical=n, name=self.name)
        tracker = QFTDependenceTracker(n)

        ie_stats_acc: Dict[str, int] = {"missed_after_pattern": 0, "fixup_rounds": 0}

        def ia(slot: int) -> Dict[str, int]:
            return cascade_on_line(builder, tracker, topo.unit_line(slot), tag="ia")

        def ie(slot_a: int, slot_b: int) -> Dict[str, int]:
            stats = bipartite_all_to_all(
                builder,
                tracker,
                topo.unit_line(slot_a),
                topo.unit_line(slot_b),
                self._inter_unit_links(slot_a),
                offset_a=0,
                offset_b=0,
                strict=self.strict_ie,
                tag="ie",
            )
            ie_stats_acc["missed_after_pattern"] += stats["missed_after_pattern"]
            ie_stats_acc["fixup_rounds"] += stats["fixup_rounds"]
            return stats

        def unit_swap(slot_a: int, slot_b: int) -> None:
            # Rows A,B belong to the unit in slot_a; rows C,D to slot_b: the
            # B-C links, then A-B and C-D interleaved by column, then B-C.
            row_a, row_b = topo.unit_rows(slot_a)
            row_c, row_d = topo.unit_rows(slot_b)
            a, b, c, d = (
                [topo.index(row, col) for col in range(topo.m)]
                for row in (row_a, row_b, row_c, row_d)
            )
            middle0 = [q for pair in zip(a, c) for q in pair]
            middle1 = [q for pair in zip(b, d) for q in pair]
            k = 4 * topo.m
            builder.layer(
                [_SWAP] * k, b + middle0 + b, c + middle1 + c, [None] * k, ["unit-swap"] * k
            )

        scheduler = UnitLevelScheduler(num_units, ia, ie, unit_swap)
        stats = scheduler.run()

        fallback = 0
        if not tracker.all_done():
            fallback = complete_remaining(builder, tracker, tag="syc-fallback")
            finish_hadamards(builder, tracker)
        if not tracker.all_done():
            raise RuntimeError("Sycamore mapper finished without completing the kernel")

        metadata = {
            "mapper": self.name,
            "strict_ie": self.strict_ie,
            "final_fallback_swaps": fallback,
            **stats,
            **{f"ie_{k}": v for k, v in ie_stats_acc.items()},
        }
        return builder.build(metadata=metadata)
