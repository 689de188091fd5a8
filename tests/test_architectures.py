"""Tests for the concrete architecture models (Section 2.2-2.3, 4-6)."""

import numpy as np
import pytest

from repro import architecture_names, make_architecture
from repro.arch import (
    CaterpillarTopology,
    GridTopology,
    HeavyHexTopology,
    LatticeSurgeryTopology,
    LNNTopology,
    SycamoreTopology,
    TwoRowTopology,
)
from repro.circuit import GateKind
from repro.circuit.gates import KIND_CODES, KIND_NAMES, TWO_QUBIT_KINDS


class TestLNN:
    @pytest.mark.parametrize("n", [1, 2, 5, 17])
    def test_path_structure(self, n):
        t = LNNTopology(n)
        assert t.num_qubits == n
        assert t.num_edges() == n - 1
        assert t.line_order() == list(range(n))

    def test_degrees(self):
        t = LNNTopology(6)
        assert t.degree(0) == 1 and t.degree(5) == 1
        assert all(t.degree(q) == 2 for q in range(1, 5))


class TestGrid:
    def test_dimensions_and_edges(self):
        g = GridTopology(3, 4)
        assert g.num_qubits == 12
        # 3*3 horizontal + 2*4 vertical
        assert g.num_edges() == 3 * 3 + 2 * 4

    def test_index_coords_roundtrip(self):
        g = GridTopology(3, 4)
        for q in range(g.num_qubits):
            r, c = g.coords(q)
            assert g.index(r, c) == q

    def test_index_bounds(self):
        g = GridTopology(2, 2)
        with pytest.raises(ValueError):
            g.index(2, 0)

    def test_row_and_col_qubits(self):
        g = GridTopology(3, 3)
        assert g.row_qubits(1) == [3, 4, 5]
        assert g.col_qubits(2) == [2, 5, 8]

    def test_serpentine_is_hamiltonian_path(self):
        g = GridTopology(4, 5)
        order = g.serpentine_order()
        assert sorted(order) == list(range(g.num_qubits))
        for a, b in zip(order, order[1:]):
            assert g.has_edge(a, b)

    def test_two_row_topology(self):
        t = TwoRowTopology(6)
        assert t.rows == 2 and t.cols == 6
        assert t.num_qubits == 12


class TestSycamore:
    def test_requires_even_size(self):
        with pytest.raises(ValueError):
            SycamoreTopology(3)
        with pytest.raises(ValueError):
            SycamoreTopology(0)

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_qubit_count_and_degree_bound(self, m):
        t = SycamoreTopology(m)
        assert t.num_qubits == m * m
        assert max(t.degree(q) for q in range(t.num_qubits)) <= 4

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_unit_lines_are_coupled_paths(self, m):
        t = SycamoreTopology(m)
        assert t.num_units == m // 2
        assert t.unit_size == 2 * m
        for u in range(t.num_units):
            line = t.unit_line(u)
            assert len(line) == 2 * m
            assert len(set(line)) == 2 * m
            for a, b in zip(line, line[1:]):
                assert t.has_edge(a, b)

    def test_unit_of(self):
        t = SycamoreTopology(4)
        assert t.unit_of(t.index(0, 0)) == 0
        assert t.unit_of(t.index(3, 2)) == 1

    def test_inter_unit_links_exist(self):
        t = SycamoreTopology(4)
        links = t.inter_unit_links(0)
        assert links, "adjacent units must share links"
        for a, b in links:
            assert t.has_edge(a, b)

    def test_inter_unit_links_bounds(self):
        t = SycamoreTopology(4)
        with pytest.raises(ValueError):
            t.inter_unit_links(1)  # last unit has no next unit

    def test_unit_rows_bounds(self):
        with pytest.raises(ValueError):
            SycamoreTopology(4).unit_rows(5)


class TestCaterpillar:
    def test_regular_groups_shape(self):
        t = CaterpillarTopology.regular_groups(4)  # 20 qubits
        assert t.num_qubits == 20
        assert t.main_length == 16
        assert t.num_dangling == 4

    def test_dangling_attachment(self):
        t = CaterpillarTopology.regular_groups(2)
        for j, d in t.dangling_of.items():
            assert t.has_edge(j, d)
            assert t.degree(d) == 1
            assert t.is_dangling(d) and t.is_main(j)

    def test_serpentine_order_covers_everything_once(self):
        t = CaterpillarTopology.regular_groups(3)
        order = t.serpentine_order()
        assert sorted(order) == list(range(t.num_qubits))

    def test_serpentine_places_dangling_right_after_junction(self):
        t = CaterpillarTopology(4, [1])
        # main 0,1 then dangling (physical 4), then main 2,3
        assert t.serpentine_order() == [0, 1, 4, 2, 3]

    def test_junction_validation(self):
        with pytest.raises(ValueError):
            CaterpillarTopology(4, [5])
        with pytest.raises(ValueError):
            CaterpillarTopology(4, [2, 1])

    def test_regular_groups_validation(self):
        with pytest.raises(ValueError):
            CaterpillarTopology.regular_groups(0)
        with pytest.raises(ValueError):
            CaterpillarTopology.regular_groups(2, group_size=1)
        with pytest.raises(ValueError):
            CaterpillarTopology.regular_groups(2, dangling_offset=4)

    def test_no_hamiltonian_path_through_dangling(self):
        # dangling qubits have degree 1 and are not at the ends of the main
        # line, so a Hamiltonian path cannot exist once there are >= 2 of them
        t = CaterpillarTopology.regular_groups(3)
        degree_one = [q for q in range(t.num_qubits) if t.degree(q) == 1]
        assert len(degree_one) > 2


class TestHeavyHex:
    def test_row_and_bridge_counts(self):
        hh = HeavyHexTopology(3, 7)
        assert hh.num_rows == 3 and hh.row_length == 7
        # 2 boundaries x 2 bridges each for length 7 (cols {2,6} and {0,4})
        assert len(hh.bridges()) == 4
        assert hh.num_qubits == 3 * 7 + 4

    def test_bridges_connect_adjacent_rows(self):
        hh = HeavyHexTopology(3, 7)
        for r, c, phys in hh.bridges():
            assert hh.has_edge(hh.row_qubit(r, c), phys)
            assert hh.has_edge(phys, hh.row_qubit(r + 1, c))

    def test_unroll_produces_caterpillar_subgraph(self):
        hh = HeavyHexTopology(3, 7)
        cat, phys_map = hh.to_caterpillar()
        assert cat.num_qubits == hh.num_qubits
        assert len(phys_map) == hh.num_qubits
        assert sorted(phys_map) == list(range(hh.num_qubits))
        # every caterpillar edge must exist in the original device
        for a, b in cat.edge_list():
            assert hh.has_edge(phys_map[a], phys_map[b])

    def test_unroll_rejects_incompatible_row_length(self):
        hh = HeavyHexTopology(3, 9)  # 9 % 4 != 3: end bridges missing
        with pytest.raises(ValueError):
            hh.to_caterpillar()

    def test_unrolled_dangling_count(self):
        hh = HeavyHexTopology(3, 7)
        cat, _ = hh.to_caterpillar()
        # one bridge per boundary is consumed by the turn, the rest dangle
        assert cat.num_dangling == len(hh.bridges()) - (hh.num_rows - 1)


class TestLatticeSurgery:
    def test_shape(self):
        t = LatticeSurgeryTopology(4)
        assert t.num_qubits == 16
        assert t.rows == t.cols == 4
        assert t.num_units == 4 and t.unit_size == 4

    def test_fast_vs_slow_links(self):
        t = LatticeSurgeryTopology(3)
        assert t.is_fast_link(0, 1)        # horizontal
        assert not t.is_fast_link(0, 3)    # vertical
        with pytest.raises(ValueError):
            t.is_fast_link(0, 4)           # not a link at all

    def test_latencies(self):
        t = LatticeSurgeryTopology(3)
        swap, cphase, h, barrier = (KIND_CODES[k] for k in ("swap", "cphase", "h", "barrier"))
        # SWAP(0,1), SWAP(0,3), CPHASE(0,1), CPHASE(0,3), H(0), barrier
        kinds = np.array([swap, swap, cphase, cphase, h, barrier])
        lat = t.op_latency_array(kinds, np.array([0, 0, 0, 0, 0, -1]), np.array([1, 3, 1, 3, -1, -1]))
        assert lat.tolist() == [2, 6, 2, 2, 1, 0]
        assert (t.FAST_SWAP_LATENCY, t.SLOW_SWAP_LATENCY, t.CNOT_LATENCY) == (2, 6, 2)

    def test_unit_lines_use_fast_links(self):
        t = LatticeSurgeryTopology(4)
        for u in range(t.num_units):
            line = t.unit_line(u)
            for a, b in zip(line, line[1:]):
                assert t.is_fast_link(a, b)

    def test_serpentine_is_hamiltonian(self):
        t = LatticeSurgeryTopology(5)
        order = t.serpentine_order()
        assert sorted(order) == list(range(t.num_qubits))
        for a, b in zip(order, order[1:]):
            assert t.has_edge(a, b)

    def test_rectangular_variant(self):
        t = LatticeSurgeryTopology(4, rows=3)
        assert t.rows == 3 and t.cols == 4


class TestCostModel:
    @pytest.mark.parametrize("kind", architecture_names())
    def test_latencies_are_non_negative_int64_per_op(self, kind):
        # the depth loop's final max(busy) relies on non-negative latencies
        t = make_architecture(kind, 4)
        a, b = (np.array(side) for side in zip(*t.edge_list()))
        none = np.full(len(a), -1)
        for code, name in enumerate(KIND_NAMES):
            q0 = none if name == GateKind.BARRIER else a
            q1 = b if name in TWO_QUBIT_KINDS else none
            lat = t.op_latency_array(np.full(len(a), code, dtype=np.int8), q0, q1)
            assert lat.dtype == np.int64 and lat.shape == (len(a),)
            assert (lat >= 0).all()
