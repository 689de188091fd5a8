"""Linear-depth QFT on the lattice-surgery FT backend (Section 6) and on the
regular 2-D grid (Appendix 7).

Both architectures are handled by the same row-unit construction:

* each grid **row is a unit**; within a row the (fast, on lattice surgery)
  horizontal links form the unit line,
* the units themselves form a line connected by the vertical links,
* the unit-level schedule is again the LNN QFT of Fig. 14, with

  - **QFT-IA** = LNN cascade along the row,
  - **QFT-IE** = the offset travel pattern of Fig. 16 / Appendix 7: both rows
    run unconditional odd-even SWAP layers but the second row starts one step
    late, so the same-column vertical links see every cross pair exactly once,
  - **unit SWAP** = one transversal layer of vertical SWAPs (costing three
    CNOTs, i.e. depth 6, per link on the FT backend).

On :class:`~repro.arch.lattice_surgery.LatticeSurgeryTopology` the ASAP depth
is computed with the heterogeneous latencies of Section 2.3 (fast SWAP 2,
CNOT-link SWAP 6, CPHASE 2); on a plain :class:`~repro.arch.grid.GridTopology`
all ops cost one cycle.  The construction itself is identical, which is the
point of the paper's "same framework, different backends" claim.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..arch.grid import GridTopology
from ..arch.lattice_surgery import LatticeSurgeryTopology
from ..circuit.gates import KIND_CODES, GateKind
from ..circuit.schedule import MappedCircuit, MappingBuilder
from .cascade import cascade_on_line
from .dependence import QFTDependenceTracker
from .inter_unit import bipartite_all_to_all
from .routed import complete_remaining, finish_hadamards
from .unit import UnitLevelScheduler
from .qft_specialist import QFTSpecialistMixin

__all__ = ["RowUnitQFTMapper", "LatticeSurgeryQFTMapper", "GridQFTMapper"]

_SWAP = KIND_CODES[GateKind.SWAP]


class RowUnitQFTMapper(QFTSpecialistMixin):
    """Row-unit QFT mapper shared by the FT grid and the regular 2-D grid."""

    name = "our-row-unit"

    def __init__(self, topology, *, strict_ie: bool = False) -> None:
        if not hasattr(topology, "rows") or not hasattr(topology, "cols"):
            raise TypeError("RowUnitQFTMapper needs a grid-like topology (rows/cols)")
        self.topology = topology
        self.strict_ie = strict_ie

    # ------------------------------------------------------------------
    def _row_line(self, r: int) -> List[int]:
        topo = self.topology
        return [r * topo.cols + c for c in range(topo.cols)]

    def map_qft(self, num_qubits: Optional[int] = None) -> MappedCircuit:
        topo = self.topology
        n = num_qubits if num_qubits is not None else topo.num_qubits
        if n != topo.num_qubits:
            raise ValueError(
                "the row-unit mapper maps the full grid; build a smaller grid "
                "for a smaller QFT"
            )

        num_units = topo.rows
        cols = topo.cols
        # Logical unit i starts in row i, qubits left to right.
        layout: List[int] = []
        for r in range(num_units):
            layout.extend(self._row_line(r))
        layout = layout[:n]

        builder = MappingBuilder(topo, layout, num_logical=n, name=self.name)
        tracker = QFTDependenceTracker(n)

        vertical_links = [(c, c) for c in range(cols)]
        ie_stats_acc: Dict[str, int] = {"missed_after_pattern": 0, "fixup_rounds": 0}

        def ia(slot: int) -> Dict[str, int]:
            return cascade_on_line(builder, tracker, self._row_line(slot), tag="ia")

        def ie(slot_a: int, slot_b: int) -> Dict[str, int]:
            stats = bipartite_all_to_all(
                builder,
                tracker,
                self._row_line(slot_a),
                self._row_line(slot_b),
                vertical_links,
                offset_a=0,
                offset_b=1,  # the "one step late" trick of Fig. 16
                strict=self.strict_ie,
                tag="ie",
            )
            ie_stats_acc["missed_after_pattern"] += stats["missed_after_pattern"]
            ie_stats_acc["fixup_rounds"] += stats["fixup_rounds"]
            return stats

        def unit_swap(slot_a: int, slot_b: int) -> None:
            builder.layer(
                [_SWAP] * cols,
                self._row_line(slot_a),
                self._row_line(slot_b),
                [None] * cols,
                ["unit-swap"] * cols,
            )

        scheduler = UnitLevelScheduler(num_units, ia, ie, unit_swap)
        stats = scheduler.run()

        fallback = 0
        if not tracker.all_done():
            fallback = complete_remaining(builder, tracker, tag="row-fallback")
            finish_hadamards(builder, tracker)
        if not tracker.all_done():
            raise RuntimeError("row-unit mapper finished without completing the kernel")

        metadata = {
            "mapper": self.name,
            "strict_ie": self.strict_ie,
            "final_fallback_swaps": fallback,
            **stats,
            **{f"ie_{k}": v for k, v in ie_stats_acc.items()},
        }
        return builder.build(metadata=metadata)


class LatticeSurgeryQFTMapper(RowUnitQFTMapper):
    """Section 6 mapper: row units on the FT lattice-surgery grid."""

    name = "our-lattice-surgery"

    def __init__(self, topology: LatticeSurgeryTopology, *, strict_ie: bool = False) -> None:
        if not isinstance(topology, LatticeSurgeryTopology):
            raise TypeError("LatticeSurgeryQFTMapper needs a LatticeSurgeryTopology")
        super().__init__(topology, strict_ie=strict_ie)


class GridQFTMapper(RowUnitQFTMapper):
    """Appendix 7 mapper: row units on a uniform-latency 2-D grid."""

    name = "our-grid"

    def __init__(self, topology: GridTopology, *, strict_ie: bool = False) -> None:
        if not isinstance(topology, GridTopology):
            raise TypeError("GridQFTMapper needs a GridTopology")
        super().__init__(topology, strict_ie=strict_ie)
