"""Tests for the heavy-hex dangling-point mapper (Section 4)."""

import pytest

from helpers import assert_valid_qft
from repro.arch import CaterpillarTopology, HeavyHexTopology
from repro.core import HeavyHexQFTMapper


class TestOnRegularCaterpillars:
    @pytest.mark.parametrize("groups", [1, 2, 3, 4, 6, 8])
    def test_produces_verified_qft(self, groups):
        topo = CaterpillarTopology.regular_groups(groups)
        mapped = HeavyHexQFTMapper(topo).map_qft()
        assert_valid_qft(mapped, topo.num_qubits)

    @pytest.mark.parametrize("groups", [2, 4, 8, 12, 16])
    def test_no_fallback_needed_on_paper_layouts(self, groups):
        topo = CaterpillarTopology.regular_groups(groups)
        mapped = HeavyHexQFTMapper(topo).map_qft()
        assert mapped.metadata["fallback_swaps"] == 0

    @pytest.mark.parametrize("groups", [2, 4, 8, 16, 20])
    def test_depth_is_linear_and_close_to_5n(self, groups):
        topo = CaterpillarTopology.regular_groups(groups)
        n = topo.num_qubits
        mapped = HeavyHexQFTMapper(topo).map_qft()
        # the paper proves 5N + O(1) for this layout and 6N + O(1) in general;
        # the mapper gives exactly 5N - 3 on regular caterpillars of 2-80 groups
        depth = mapped.depth()
        assert depth <= 5 * n
        assert depth >= 3 * n

    @pytest.mark.parametrize("groups", [2, 4, 8])
    def test_every_dangling_position_gets_a_parked_qubit(self, groups):
        topo = CaterpillarTopology.regular_groups(groups)
        mapped = HeavyHexQFTMapper(topo).map_qft()
        assert mapped.metadata["parked"] == topo.num_dangling

    def test_parked_qubits_are_the_smallest_indices(self):
        topo = CaterpillarTopology.regular_groups(4)
        mapped = HeavyHexQFTMapper(topo).map_qft()
        final = mapped.final_layout()
        dangling_phys = set(topo.dangling_qubits())
        parked_logicals = {q for q, p in enumerate(final) if p in dangling_phys}
        assert parked_logicals == set(range(topo.num_dangling))

    def test_cphase_count_matches_kernel(self):
        topo = CaterpillarTopology.regular_groups(5)
        n = topo.num_qubits
        mapped = HeavyHexQFTMapper(topo).map_qft()
        assert mapped.cphase_count() == n * (n - 1) // 2

    def test_swap_tags_attribute_parking(self):
        topo = CaterpillarTopology.regular_groups(3)
        mapped = HeavyHexQFTMapper(topo).map_qft()
        tags = mapped.swaps_by_tag()
        assert tags.get("hh-park", 0) == topo.num_dangling


class TestIrregularCaterpillars:
    @pytest.mark.parametrize(
        "main_length,junctions",
        [
            (6, [0]),
            (8, [2, 5]),
            (9, [1, 2, 7]),
            (12, [0, 1, 2, 3]),
            (10, [9]),
        ],
    )
    def test_still_correct_even_if_fallback_is_needed(self, main_length, junctions):
        topo = CaterpillarTopology(main_length, junctions)
        mapped = HeavyHexQFTMapper(topo).map_qft()
        assert_valid_qft(mapped, topo.num_qubits, statevector_limit=6)

    def test_plain_line_degenerates_to_lnn(self):
        topo = CaterpillarTopology(8, [])
        mapped = HeavyHexQFTMapper(topo).map_qft()
        assert_valid_qft(mapped, 8)
        assert mapped.metadata["parked"] == 0


class TestOnRealHeavyHex:
    def test_unrolled_device_is_mapped_and_translated_back(self):
        hh = HeavyHexTopology(3, 7)
        mapped = HeavyHexQFTMapper(hh).map_qft()
        assert mapped.topology is hh
        assert mapped.num_logical == hh.num_qubits
        assert_valid_qft(mapped, hh.num_qubits)

    def test_all_ops_respect_the_device_coupling(self):
        hh = HeavyHexTopology(2, 7)
        mapped = HeavyHexQFTMapper(hh).map_qft()
        for op in mapped.ops:
            if op.is_two_qubit:
                assert hh.has_edge(*op.physical)

    def test_rejects_unknown_topology_type(self):
        from repro.arch import GridTopology

        with pytest.raises(TypeError):
            HeavyHexQFTMapper(GridTopology(3, 3))

    def test_too_many_logical_qubits(self):
        topo = CaterpillarTopology.regular_groups(2)
        with pytest.raises(ValueError):
            HeavyHexQFTMapper(topo).map_qft(topo.num_qubits + 1)
