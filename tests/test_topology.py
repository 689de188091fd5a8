"""Tests for the generic Topology base class."""

import numpy as np
import pytest

from repro.arch import Topology
from repro.circuit import GateKind
from repro.circuit.gates import KIND_CODES


def make_triangle_plus_tail():
    # 0-1, 1-2, 0-2 triangle with a tail 2-3-4
    return Topology(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)], name="tri-tail")


class TestConstruction:
    def test_edge_normalisation_and_dedup(self):
        t = Topology(3, [(1, 0), (0, 1), (1, 2)])
        assert t.num_edges() == 2
        assert t.has_edge(0, 1) and t.has_edge(1, 0)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Topology(3, [(1, 1)])

    def test_rejects_out_of_range_edges(self):
        with pytest.raises(ValueError):
            Topology(3, [(0, 3)])

    def test_rejects_zero_qubits(self):
        with pytest.raises(ValueError):
            Topology(0, [])

    def test_neighbors_sorted(self):
        t = make_triangle_plus_tail()
        assert t.neighbors(2) == [0, 1, 3]
        assert t.degree(2) == 3

    def test_edge_list_sorted(self):
        t = Topology(3, [(2, 1), (1, 0)])
        assert t.edge_list() == [(0, 1), (1, 2)]


class TestDistances:
    def test_distance_matrix_symmetric(self):
        t = make_triangle_plus_tail()
        d = t.distance_matrix()
        assert np.allclose(d, d.T)

    def test_distances(self):
        t = make_triangle_plus_tail()
        assert t.distance(0, 1) == 1
        assert t.distance(0, 3) == 2
        assert t.distance(0, 4) == 3
        assert t.distance(2, 2) == 0

    def test_shortest_path_endpoints_and_adjacency(self):
        t = make_triangle_plus_tail()
        path = t.shortest_path(0, 4)
        assert path[0] == 0 and path[-1] == 4
        assert len(path) == t.distance(0, 4) + 1
        for a, b in zip(path, path[1:]):
            assert t.has_edge(a, b)

    def test_shortest_path_same_node(self):
        t = make_triangle_plus_tail()
        assert t.shortest_path(3, 3) == [3]

    def test_disconnected_path_raises(self):
        t = Topology(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            t.shortest_path(0, 3)

    def test_is_connected(self):
        assert make_triangle_plus_tail().is_connected()
        assert not Topology(4, [(0, 1), (2, 3)]).is_connected()


class TestMisc:
    def test_default_latency_is_one(self):
        t = make_triangle_plus_tail()
        kinds = np.array([KIND_CODES[k] for k in (GateKind.SWAP, GateKind.CPHASE, GateKind.H)])
        assert t.op_latency_array(kinds, np.array([0, 0, 0]), np.array([1, 1, -1])).tolist() == [1] * 3

    def test_to_networkx(self):
        g = make_triangle_plus_tail().to_networkx()
        assert g.number_of_nodes() == 5
        assert g.number_of_edges() == 5

    def test_subtopology_relabels(self):
        t = make_triangle_plus_tail()
        sub = t.subtopology([2, 3, 4])
        assert sub.num_qubits == 3
        assert sub.has_edge(0, 1) and sub.has_edge(1, 2)
        assert not sub.has_edge(0, 2)
