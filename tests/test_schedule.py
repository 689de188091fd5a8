"""Tests for mapped circuits, the MappingBuilder and ASAP scheduling."""

import math

import pytest

from repro.arch import LatticeSurgeryTopology, LNNTopology
from repro.circuit import GateKind, MappingBuilder, Op, asap_depth, asap_layers


def _builder(n=4):
    topo = LNNTopology(n)
    return MappingBuilder(topo, list(range(n)), name="test")


class TestMappingBuilder:
    def test_initial_tracking(self):
        b = _builder()
        assert b.logical_at(2) == 2
        assert b.phys_of(3) == 3

    def test_rejects_duplicate_layout(self):
        topo = LNNTopology(3)
        with pytest.raises(ValueError):
            MappingBuilder(topo, [0, 0, 1])

    def test_rejects_out_of_range_layout(self):
        topo = LNNTopology(3)
        with pytest.raises(ValueError):
            MappingBuilder(topo, [0, 1, 7])

    def test_swap_updates_tracking(self):
        b = _builder()
        b.swap(1, 2)
        assert b.logical_at(1) == 2
        assert b.logical_at(2) == 1
        assert b.phys_of(1) == 2

    def test_cphase_stamps_logicals(self):
        b = _builder()
        b.swap(0, 1)
        b.cphase(0, 1, 0.5)
        assert b.build().ops[-1].logical == (1, 0)

    def test_two_qubit_on_non_adjacent_raises(self):
        b = _builder()
        with pytest.raises(ValueError):
            b.cphase(0, 3, 0.5)

    def test_adjacency_check_can_be_disabled(self):
        topo = LNNTopology(4)
        b = MappingBuilder(topo, [0, 1, 2, 3], check_adjacency=False)
        b.cphase(0, 3, 0.5)  # no exception

    def test_partial_layout_leaves_empty_positions(self):
        topo = LNNTopology(4)
        b = MappingBuilder(topo, [0, 1], num_logical=2)
        assert b.logical_at(3) is None
        b.swap(1, 2)
        assert b.logical_at(2) == 1
        assert b.logical_at(1) is None

    def test_build_produces_mapped_circuit(self):
        b = _builder()
        b.h(0)
        mc = b.build(metadata={"x": 1})
        assert mc.num_logical == 4
        assert mc.metadata["x"] == 1
        assert len(mc.ops) == 1


class TestAsapScheduling:
    def test_depth_of_disjoint_ops_is_one(self):
        ops = [Op(GateKind.H, (i,), (i,)) for i in range(5)]
        assert asap_depth(ops, lambda op: 1) == 1

    def test_depth_of_chained_ops(self):
        ops = [
            Op(GateKind.CPHASE, (0, 1), (0, 1), 0.1),
            Op(GateKind.CPHASE, (1, 2), (1, 2), 0.1),
            Op(GateKind.CPHASE, (2, 3), (2, 3), 0.1),
        ]
        assert asap_depth(ops, lambda op: 1) == 3

    def test_latency_weighting(self):
        ops = [
            Op(GateKind.SWAP, (0, 1), (0, 1)),
            Op(GateKind.SWAP, (1, 2), (1, 2)),
        ]
        assert asap_depth(ops, lambda op: 6) == 12

    def test_barrier_synchronises(self):
        ops = [
            Op(GateKind.H, (0,), (0,)),
            Op(GateKind.H, (0,), (0,)),
            Op(GateKind.BARRIER, (), ()),
            Op(GateKind.H, (1,), (1,)),
        ]
        assert asap_depth(ops, lambda op: 1) == 3

    def test_layers_partition_ops(self):
        ops = [
            Op(GateKind.H, (0,), (0,)),
            Op(GateKind.H, (1,), (1,)),
            Op(GateKind.CPHASE, (0, 1), (0, 1), 0.1),
        ]
        layers = asap_layers(ops)
        assert len(layers) == 2
        assert len(layers[0]) == 2 and len(layers[1]) == 1

    def test_empty_stream(self):
        assert asap_depth([], lambda op: 1) == 0
        assert asap_layers([]) == []


class TestMappedCircuit:
    def test_counts_and_depths(self):
        b = _builder()
        b.h(0)
        b.cphase(0, 1, 0.5)
        b.swap(1, 2)
        mc = b.build()
        assert mc.swap_count() == 1
        assert mc.cphase_count() == 1
        assert mc.two_qubit_count() == 2
        assert mc.unit_depth() == 3
        assert mc.gate_counts()[GateKind.H] == 1

    def test_final_layout_tracks_swaps(self):
        b = _builder()
        b.swap(0, 1)
        b.swap(1, 2)
        mc = b.build()
        # logical 0 travelled 0 -> 1 -> 2
        assert mc.final_layout()[0] == 2
        assert mc.final_layout()[1] == 0
        assert mc.final_layout()[2] == 1

    def test_logical_events_skip_swaps(self):
        b = _builder()
        b.h(0)
        b.swap(0, 1)
        b.cphase(0, 1, 0.5)
        mc = b.build()
        events = mc.logical_events()
        assert events == [("h", (0,)), ("cphase", (1, 0))]

    def test_logical_gate_events_include_angles(self):
        b = _builder()
        b.cphase(0, 1, 0.25)
        mc = b.build()
        assert mc.logical_gate_events() == [("cphase", (0, 1), 0.25)]

    def test_swaps_by_tag(self):
        b = _builder()
        b.swap(0, 1, tag="ia")
        b.swap(1, 2, tag="ie")
        b.swap(2, 3, tag="ie")
        mc = b.build()
        assert mc.swaps_by_tag() == {"ia": 1, "ie": 2}

    def test_weighted_depth_on_lattice_surgery(self):
        topo = LatticeSurgeryTopology(2)
        b = MappingBuilder(topo, [0, 1, 2, 3])
        b.swap(0, 1)   # horizontal: fast, latency 2
        b.swap(0, 2)   # vertical: slow, latency 6
        b.cphase(2, 3, 0.1)  # latency 2
        mc = b.build()
        # qubit 0: 2 + 6 = 8; qubit 2: swap(6, after t=2) ends at 8, then cphase 2 -> 10
        assert mc.depth() == 10
        assert mc.unit_depth() == 3
