"""Tests for mapped circuits, the MappingBuilder and ASAP scheduling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import GridTopology, LatticeSurgeryTopology, LNNTopology
from repro.circuit import GateKind, MappingBuilder, Op
from repro.circuit.gates import KIND_CODES

from helpers import asap_depth, asap_layers


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

    @pytest.mark.parametrize("check", [True, False])
    def test_refuses_operands_off_the_device(self, check):
        h, cphase = KIND_CODES[GateKind.H], KIND_CODES[GateKind.CPHASE]
        barrier = KIND_CODES[GateKind.BARRIER]
        b = MappingBuilder(LNNTopology(3), [0, 1, 2], check_adjacency=check)
        emits = (
            lambda: b.h(-1),
            lambda: b.h(3),
            lambda: b.rz(-1, 0.5),
            lambda: b.cphase(2, 3, 0.5),
            lambda: b.cnot(0, -1),
            lambda: b.swap(-1, 0),
            lambda: b.layer([h], [-1], [-1], [None], [""]),
            lambda: b.layer([h], [3], [-1], [None], [""]),
            lambda: b.layer([cphase], [-1], [0], [0.5], [""]),
        )
        for emit in emits:
            with pytest.raises(ValueError, match="outside the topology's 3 qubits"):
                emit()
        with pytest.raises(ValueError, match=r"^H emitted on physical qubit\(s\) -1 "):
            b.h(-1)
        with pytest.raises(ValueError, match=r"^CPHASE emitted on physical qubit\(s\) 2, 3 "):
            b.cphase(2, 3, 0.5)
        assert len(b.ops) == 0 and b.phys_to_log == [0, 1, 2]
        # the -1 sentinels of single-qubit ops and barriers stay legal
        b.layer([h, barrier], [2, -1], [-1, -1], [None, None], ["", ""])
        b.barrier()
        assert len(b.ops) == 3

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


_TOPOLOGIES = (LNNTopology(4), GridTopology(2, 3), LNNTopology(5))


def _per_op(builder, kind, a, b, angle, tag):
    if kind == GateKind.H:
        builder.h(a, tag=tag)
    elif kind == GateKind.RZ:
        builder.rz(a, angle, tag=tag)
    elif kind == GateKind.CPHASE:
        builder.cphase(a, b, angle, tag=tag)
    elif kind == GateKind.CNOT:
        builder.cnot(a, b, tag=tag)
    elif kind == GateKind.SWAP:
        builder.swap(a, b, tag=tag)
    else:
        builder.barrier()


def _columns(kind, a, b, angle, tag):
    """The layer() columns of what the per-op emitter call appends."""

    if kind in (GateKind.H, GateKind.RZ):
        b = -1
    if kind == GateKind.BARRIER:
        a = b = -1
        tag = ""
    if kind not in (GateKind.RZ, GateKind.CPHASE):
        angle = None
    return KIND_CODES[kind], a, b, angle, tag


def _outcome(builder, emit):
    try:
        emit()
        error = None
    except Exception as exc:  # the type and message are what is compared
        error = (type(exc), str(exc))
    return builder.ops._columns(), builder.phys_to_log, builder.log_to_phys, error


class TestLayerEmitter:
    """``layer()`` equals the per-op emitters called in the same order."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_per_op_emission(self, data):
        topo = data.draw(st.sampled_from(_TOPOLOGIES), label="topology")
        nq = topo.num_qubits
        placed = data.draw(st.integers(1, nq), label="logical qubits")
        layout = data.draw(st.permutations(range(nq)), label="layout")[:placed]
        check = data.draw(st.booleans(), label="check_adjacency")
        site = st.integers(-1, nq)  # one step off the device at each end
        op = st.tuples(
            st.sampled_from(sorted(KIND_CODES, key=KIND_CODES.get)),
            site,
            site,
            st.sampled_from([0.25, 1.5]),
            st.sampled_from(["a", "b"]),
        )
        ops = data.draw(st.lists(op, max_size=24), label="ops")
        cuts = sorted(data.draw(st.sets(st.integers(0, len(ops))), label="cuts") | {0, len(ops)})

        def make():
            return MappingBuilder(topo, layout, num_logical=placed, check_adjacency=check)

        reference = make()

        def per_op():
            for fields in ops:
                _per_op(reference, *fields)

        batched = make()

        def layers():
            for lo, hi in zip(cuts, cuts[1:]):
                columns = list(zip(*(_columns(*fields) for fields in ops[lo:hi])))
                batched.layer(*(list(c) for c in columns) if columns else ([],) * 5)

        assert _outcome(batched, layers) == _outcome(reference, per_op)

    def test_refuses_operands_that_do_not_fit_the_kind(self):
        b = _builder()
        h, swap = KIND_CODES[GateKind.H], KIND_CODES[GateKind.SWAP]
        with pytest.raises(ValueError, match="cannot hold a .*h.* op on qubits \\(0, 1\\)"):
            b.layer([swap, h], [2, 0], [3, 1], [None, None], ["", ""])
        # the op before the refused one is emitted, as a per-op call would have
        assert b.ops.kinds == [swap] and b.logical_at(2) == 3

    def test_refuses_columns_of_different_lengths(self):
        b = _builder()
        with pytest.raises(ValueError, match="differ in length"):
            b.layer([KIND_CODES[GateKind.H]], [0], [-1], [None], [])
        assert len(b.ops) == 0


class TestAsapScheduling:
    def test_depth_of_disjoint_ops_is_one(self):
        ops = [Op(GateKind.H, (i,), (i,)) for i in range(5)]
        assert asap_depth(ops, [1] * len(ops)) == 1

    def test_depth_of_chained_ops(self):
        ops = [
            Op(GateKind.CPHASE, (0, 1), (0, 1), 0.1),
            Op(GateKind.CPHASE, (1, 2), (1, 2), 0.1),
            Op(GateKind.CPHASE, (2, 3), (2, 3), 0.1),
        ]
        assert asap_depth(ops, [1] * len(ops)) == 3

    def test_latency_weighting(self):
        ops = [
            Op(GateKind.SWAP, (0, 1), (0, 1)),
            Op(GateKind.SWAP, (1, 2), (1, 2)),
        ]
        assert asap_depth(ops, [6, 6]) == 12

    def test_barrier_synchronises(self):
        ops = [
            Op(GateKind.H, (0,), (0,)),
            Op(GateKind.H, (0,), (0,)),
            Op(GateKind.BARRIER, (), ()),
            Op(GateKind.H, (1,), (1,)),
        ]
        assert asap_depth(ops, [1] * len(ops)) == 3

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
        assert asap_depth([], []) == 0
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
