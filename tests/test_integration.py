"""End-to-end integration tests across mappers, baselines and the verifier."""

import pytest

from helpers import assert_valid_qft
from repro.arch import (
    CaterpillarTopology,
    GridTopology,
    LatticeSurgeryTopology,
    LNNTopology,
    SycamoreTopology,
)
import repro
from repro.baselines import LNNPathMapper, SabreMapper, SatmapMapper
from repro.core import GreedyRouterMapper
from repro.verify import (
    circuit_unitary,
    mapped_events_unitary,
    unitaries_equal_up_to_phase,
)
from repro.circuit import qft_circuit


def _qft(topo):
    """The paper's mapper via the supported entry point (ex-compile_qft)."""

    return repro.compile(
        workload="qft", architecture=topo, approach="ours", verify=False
    ).mapped


class TestAllApproachesAgreeOnTheUnitary:
    """Every mapper -- ours and every baseline -- must implement the same
    unitary on the same small instance."""

    def test_grid_2x3_all_approaches(self):
        topo = GridTopology(2, 3)
        n = topo.num_qubits
        reference = circuit_unitary(qft_circuit(n))
        mappers = [
            _qft(topo),
            SabreMapper(topo, seed=1).map_qft(),
            GreedyRouterMapper(topo).map_qft(),
            LNNPathMapper(topo).map_qft(),
            SatmapMapper(topo, timeout_s=120).map_qft(),
        ]
        for mapped in mappers:
            u = mapped_events_unitary(n, mapped.logical_gate_events())
            assert unitaries_equal_up_to_phase(u, reference), mapped.name

    def test_lnn_6_ours_vs_sabre(self):
        topo = LNNTopology(6)
        reference = circuit_unitary(qft_circuit(6))
        for mapped in (_qft(topo), SabreMapper(topo, seed=5).map_qft()):
            u = mapped_events_unitary(6, mapped.logical_gate_events())
            assert unitaries_equal_up_to_phase(u, reference)


class TestPaperHeadlineClaims:
    """Qualitative checks of the evaluation's main claims at reduced scale."""

    def test_linear_depth_on_all_three_architectures(self):
        for topo, bound in (
            (CaterpillarTopology.regular_groups(12), 5),   # 5N - 3 measured
            (SycamoreTopology(8), 12),                      # ~7N (+ slack)
            (LatticeSurgeryTopology(8), 20),                # ~5N in the paper; larger constant here
        ):
            mapped = _qft(topo)
            n = topo.num_qubits
            assert mapped.depth() <= bound * n + 40, topo.name

    def test_ours_beats_sabre_on_depth_at_moderate_scale(self):
        for topo in (
            CaterpillarTopology.regular_groups(6),
            SycamoreTopology(6),
            LatticeSurgeryTopology(6),
        ):
            ours = _qft(topo)
            sabre = SabreMapper(topo, seed=0).map_qft()
            assert ours.depth() < sabre.depth(), topo.name

    def test_ours_beats_sabre_on_swaps_on_lattice_at_scale(self):
        topo = LatticeSurgeryTopology(8)
        ours = _qft(topo)
        sabre = SabreMapper(topo, seed=0).map_qft()
        assert ours.swap_count() < sabre.swap_count()

    def test_no_recompilation_needed_as_size_changes(self):
        """The construction is analytical: compile time stays tiny and does
        not explode with the qubit count (Section 7.3)."""

        import time

        times = {}
        for groups in (4, 16):
            topo = CaterpillarTopology.regular_groups(groups)
            start = time.perf_counter()
            _qft(topo)
            times[groups] = time.perf_counter() - start
        assert times[16] < 10.0

    def test_swap_count_scales_quadratically_not_worse(self):
        small = _qft(CaterpillarTopology.regular_groups(4))
        large = _qft(CaterpillarTopology.regular_groups(8))
        ratio = large.swap_count() / small.swap_count()
        assert ratio < 6  # doubling N should ~4x the SWAPs, never much more


class TestCrossArchitectureConsistency:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: LNNTopology(10),
            lambda: CaterpillarTopology.regular_groups(3),
            lambda: SycamoreTopology(4),
            lambda: LatticeSurgeryTopology(4),
            lambda: GridTopology(4, 4),
        ],
        ids=["lnn", "heavyhex", "sycamore", "lattice", "grid"],
    )
    def test_full_pipeline_structure(self, factory):
        topo = factory()
        mapped = _qft(topo)
        assert_valid_qft(mapped, topo.num_qubits)
        n = topo.num_qubits
        assert mapped.cphase_count() == n * (n - 1) // 2
        assert mapped.gate_counts()["h"] == n
        # the mapped circuit never uses more physical qubits than the device
        used = {p for op in mapped.ops for p in op.physical}
        assert used <= set(range(topo.num_qubits))

    @pytest.mark.parametrize("groups", [2, 3])
    def test_heavy_hex_and_sabre_have_same_gate_totals(self, groups):
        topo = CaterpillarTopology.regular_groups(groups)
        ours = _qft(topo)
        sabre = SabreMapper(topo, seed=0).map_qft()
        assert ours.cphase_count() == sabre.cphase_count()
        assert ours.gate_counts()["h"] == sabre.gate_counts()["h"]
