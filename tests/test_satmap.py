"""Tests for the SATMAP stand-in (exact router with timeout)."""

import time

import pytest

from helpers import assert_valid_qft
from repro.arch import GridTopology, LNNTopology, SycamoreTopology
from repro.baselines import SatmapMapper, SatmapTimeout
from repro.circuit import Circuit
from repro.utils import cell_budget


class TestSatmapCorrectness:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_line_instances(self, n):
        mapped = SatmapMapper(LNNTopology(n), timeout_s=30).map_qft()
        assert_valid_qft(mapped, n)

    def test_grid_2x2(self):
        mapped = SatmapMapper(GridTopology(2, 2), timeout_s=30).map_qft()
        assert_valid_qft(mapped, 4)

    def test_grid_2x3(self):
        mapped = SatmapMapper(GridTopology(2, 3), timeout_s=60).map_qft()
        assert_valid_qft(mapped, 6)


class TestSatmapOptimality:
    def test_line3_needs_exactly_one_swap(self):
        # QFT-3 on a line: gates (0,1), (0,2), (1,2); only (0,2) is distant;
        # a single SWAP suffices and is necessary.
        mapped = SatmapMapper(LNNTopology(3), timeout_s=30).map_qft()
        assert mapped.swap_count() == 1

    def test_grid_2x2_matches_known_optimum(self):
        # Table 1 row "2*2 Sycamore": SATMAP needs 3 SWAPs for QFT-4 on the
        # degree-limited Sycamore cell; on the fully-linked 2x2 grid the
        # optimum is 2 (only the two diagonal pairs are distant and one SWAP
        # fixes each).
        mapped = SatmapMapper(GridTopology(2, 2), timeout_s=30).map_qft()
        assert mapped.swap_count() <= 2

    def test_never_more_swaps_than_greedy(self):
        from repro.core import GreedyRouterMapper

        topo = LNNTopology(4)
        exact = SatmapMapper(topo, timeout_s=30).map_qft()
        greedy = GreedyRouterMapper(topo).map_qft()
        assert exact.swap_count() <= greedy.swap_count()


class TestSatmapTimeout:
    def test_times_out_on_large_instances(self):
        # mirror of the paper's TLE behaviour: beyond ~10 qubits the exact
        # search cannot finish in a reasonable budget
        mapper = SatmapMapper(GridTopology(4, 4), timeout_s=0.2)
        with pytest.raises(SatmapTimeout):
            mapper.map_qft()

    def test_timeout_is_a_timeout_error(self):
        assert issubclass(SatmapTimeout, TimeoutError)

    def test_cell_budget_replaces_its_own_limit(self):
        """Inside a cell budget the search runs to the budget's deadline, not
        to its own (shorter or longer) limit: that is how the paper
        profile's 2-hour budget replaces the default 60 s."""

        mapper = SatmapMapper(SycamoreTopology(4), timeout_s=0.1)
        budget = 0.6
        start = time.perf_counter()
        with pytest.raises(SatmapTimeout):
            with cell_budget(budget):
                mapper.map_qft()
        elapsed = time.perf_counter() - start
        assert budget <= elapsed < budget + 0.5, f"stopped after {elapsed:.2f}s"

    def test_non_qft_circuit(self):
        topo = LNNTopology(3)
        circ = Circuit(3).h(0).cnot(0, 2).cnot(1, 2)
        mapped = SatmapMapper(topo, timeout_s=20).map_circuit(circ)
        for op in mapped.ops:
            if op.is_two_qubit:
                assert topo.has_edge(*op.physical)
        assert len([op for op in mapped.ops if op.kind == "cnot"]) == 2
