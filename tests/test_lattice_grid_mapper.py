"""Tests for the lattice-surgery (Section 6) and 2-D grid (Appendix 7) mappers."""

import pytest

from helpers import assert_valid_qft
from repro.arch import GridTopology, LatticeSurgeryTopology, LNNTopology
from repro.core import GridQFTMapper, LatticeSurgeryQFTMapper


class TestLatticeSurgeryMapper:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_produces_verified_qft(self, m):
        topo = LatticeSurgeryTopology(m)
        mapped = LatticeSurgeryQFTMapper(topo).map_qft()
        assert_valid_qft(mapped, topo.num_qubits)

    @pytest.mark.parametrize("m", [3, 4, 6, 8])
    def test_no_routed_fallback(self, m):
        mapped = LatticeSurgeryQFTMapper(LatticeSurgeryTopology(m)).map_qft()
        assert mapped.metadata["final_fallback_swaps"] == 0
        assert mapped.metadata["ie_fallback_swaps"] == 0
        assert mapped.metadata["ia_fallback_swaps"] == 0

    @pytest.mark.parametrize("m", [4, 6, 8, 10, 12])
    def test_weighted_depth_is_linear(self, m):
        topo = LatticeSurgeryTopology(m)
        n = topo.num_qubits
        mapped = LatticeSurgeryQFTMapper(topo).map_qft()
        # paper: ~5N; our row-unit construction has a larger constant but must
        # stay linear in N (the ROADMAP "Paper-claim conformance" item
        # measures the constant-factor gap)
        assert mapped.depth() <= 20 * n + 60

    def test_weighted_depth_exceeds_unit_depth(self):
        topo = LatticeSurgeryTopology(5)
        mapped = LatticeSurgeryQFTMapper(topo).map_qft()
        assert mapped.depth() > mapped.unit_depth()

    def test_vertical_swaps_are_rare_compared_to_fast_swaps(self):
        topo = LatticeSurgeryTopology(6)
        mapped = LatticeSurgeryQFTMapper(topo).map_qft()
        slow = fast = 0
        for op in mapped.ops:
            if op.is_swap:
                if topo.is_fast_link(*op.physical):
                    fast += 1
                else:
                    slow += 1
        # the construction keeps qubit movement on the fast intra-row links and
        # only uses vertical links for transversal unit swaps
        assert slow < fast

    def test_cphase_count(self):
        topo = LatticeSurgeryTopology(5)
        n = topo.num_qubits
        mapped = LatticeSurgeryQFTMapper(topo).map_qft()
        assert mapped.cphase_count() == n * (n - 1) // 2

    def test_requires_lattice_surgery_topology(self):
        with pytest.raises(TypeError):
            LatticeSurgeryQFTMapper(GridTopology(4, 4))

    def test_partial_mapping_not_supported(self):
        with pytest.raises(ValueError):
            LatticeSurgeryQFTMapper(LatticeSurgeryTopology(4)).map_qft(7)

    def test_strict_ie_variant_still_correct(self):
        topo = LatticeSurgeryTopology(4)
        mapped = LatticeSurgeryQFTMapper(topo, strict_ie=True).map_qft()
        assert_valid_qft(mapped, topo.num_qubits)


class TestGridMapper:
    @pytest.mark.parametrize("m", [2, 3, 4, 6])
    def test_produces_verified_qft(self, m):
        topo = GridTopology(m, m)
        mapped = GridQFTMapper(topo).map_qft()
        assert_valid_qft(mapped, topo.num_qubits)

    def test_rectangular_grid(self):
        topo = GridTopology(3, 5)
        mapped = GridQFTMapper(topo).map_qft()
        assert_valid_qft(mapped, 15)

    @pytest.mark.parametrize("m", [4, 6, 8])
    def test_unit_depth_linear(self, m):
        topo = GridTopology(m, m)
        mapped = GridQFTMapper(topo).map_qft()
        assert mapped.depth() <= 10 * topo.num_qubits + 40

    def test_requires_grid_topology(self):
        with pytest.raises(TypeError):
            GridQFTMapper(LNNTopology(9))

    def test_uniform_latency_means_depth_equals_unit_depth(self):
        topo = GridTopology(4, 4)
        mapped = GridQFTMapper(topo).map_qft()
        assert mapped.depth() == mapped.unit_depth()
