"""Workload families: determinism, build validity, verification paths."""

import pytest

from repro import Circuit, GridTopology, UnsupportedWorkload, get_workload
from repro.baselines import SabreMapper
from repro.circuit.gates import GateKind
from repro.circuit.qft import qft_circuit, textbook_qft_qubit_count
from repro.core import GreedyRouterMapper, mapper_for
from repro.verify.generic import check_mapped_matches_circuit
from repro.workloads import workload_names
from repro.workloads.qaoa import qaoa_graph

from helpers import with_ops


class TestBuilders:
    @pytest.mark.parametrize("name", ["qft", "qaoa", "random"])
    def test_build_is_deterministic(self, name):
        wl = get_workload(name)
        a = wl.build(8)
        b = wl.build(8)
        assert [str(g) for g in a.gates] == [str(g) for g in b.gates]

    def test_qaoa_seed_changes_instance(self):
        wl = get_workload("qaoa")
        a = wl.build(8, seed=0)
        b = wl.build(8, seed=1)
        assert [str(g) for g in a.gates] != [str(g) for g in b.gates]

    def test_random_seed_changes_instance(self):
        wl = get_workload("random")
        a = wl.build(8, seed=0)
        b = wl.build(8, seed=1)
        assert [str(g) for g in a.gates] != [str(g) for g in b.gates]

    def test_qaoa_graph_fallback_never_edgeless(self):
        assert qaoa_graph(4, seed=0, edge_prob=0.0) == [(0, 1), (1, 2), (2, 3)]

    def test_unknown_workload_param_raises(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            get_workload("qaoa").build(6, sede=3)
        with pytest.raises(ValueError, match="unknown parameter"):
            get_workload("qft").build(6, seed=1)  # qft takes no params

    def test_random_circuit_only_uses_supported_kinds(self):
        circ = get_workload("random").build(10, seed=3)
        kinds = {g.kind for g in circ.gates}
        assert kinds <= {GateKind.H, GateKind.RZ, GateKind.CPHASE, GateKind.CNOT}
        assert any(g.is_two_qubit for g in circ.gates)


class TestTextbookQFTDetection:
    def test_recognises_builder_output(self):
        for n in (1, 2, 5, 9):
            assert textbook_qft_qubit_count(qft_circuit(n)) == n

    def test_rejects_other_circuits(self):
        assert textbook_qft_qubit_count(get_workload("qaoa").build(5)) is None
        reordered = Circuit(4, reversed(qft_circuit(4).gates))
        assert textbook_qft_qubit_count(reordered) is None


class TestGenericReplayCheck:
    def test_accepts_sabre_reordering(self):
        topo = GridTopology(3, 3)
        circ = get_workload("random").build(9, seed=2)
        mapped = SabreMapper(topo, seed=4).map_circuit(circ)
        assert check_mapped_matches_circuit(mapped, circ).ok

    def test_rejects_missing_gate(self):
        topo = GridTopology(3, 3)
        circ = get_workload("random").build(9, seed=2)
        mapped = SabreMapper(topo, seed=4).map_circuit(circ)
        ops = list(mapped.ops)
        dropped = next(i for i, op in enumerate(ops) if op.kind == GateKind.CPHASE)
        del ops[dropped]
        report = check_mapped_matches_circuit(with_ops(mapped, ops), circ)
        assert not report.ok

    def test_rejects_wrong_angle(self):
        topo = GridTopology(2, 2)
        circ = get_workload("qaoa").build(4, seed=1)
        mapped = SabreMapper(topo, seed=0).map_circuit(circ)
        ops = list(mapped.ops)
        idx = next(i for i, op in enumerate(ops) if op.kind == GateKind.CPHASE)
        op = ops[idx]
        ops[idx] = type(op)(
            op.kind, op.physical, op.logical, (op.angle or 0.0) + 0.5, op.tag
        )
        assert not check_mapped_matches_circuit(with_ops(mapped, ops), circ).ok


class TestVerification:
    @pytest.mark.parametrize("name", ["qaoa", "random"])
    def test_small_instances_get_unitary_cross_check(self, name):
        wl = get_workload(name)
        topo = GridTopology(2, 3)
        mapped = wl.map_with(SabreMapper(topo, seed=7), 6)
        res = wl.verify(mapped, 6)
        assert res.ok and res.unitary_checked

    @pytest.mark.parametrize("name", ["qaoa", "random"])
    def test_large_instances_use_structural_path(self, name):
        wl = get_workload(name)
        topo = GridTopology(4, 4)
        mapped = wl.map_with(SabreMapper(topo, seed=7), 16)
        res = wl.verify(mapped, 16)
        assert res.ok and not res.unitary_checked

    def test_greedy_router_handles_all_workloads(self):
        topo = GridTopology(3, 3)
        for name in workload_names():
            wl = get_workload(name)
            mapped = wl.map_with(GreedyRouterMapper(topo), 9)
            assert wl.verify(mapped, 9).ok, name


class TestSpecialistSurface:
    def test_specialist_maps_textbook_qft_via_map_circuit(self):
        topo = GridTopology(3, 3)
        specialist = mapper_for(topo)
        via_circuit = specialist.map_circuit(qft_circuit(9))
        via_qft = mapper_for(topo).map_qft(9)
        assert [str(op) for op in via_circuit.ops] == [str(op) for op in via_qft.ops]

    def test_specialist_raises_typed_error_for_other_workloads(self):
        topo = GridTopology(3, 3)
        with pytest.raises(UnsupportedWorkload):
            mapper_for(topo).map_circuit(get_workload("qaoa").build(9))

    def test_greedy_qft_map_circuit_equals_map_qft(self):
        topo = GridTopology(3, 3)
        a = GreedyRouterMapper(topo).map_qft(9)
        b = GreedyRouterMapper(topo).map_circuit(qft_circuit(9))
        assert [str(op) for op in a.ops] == [str(op) for op in b.ops]

    def test_greedy_refuses_program_level_swaps(self):
        # A program SWAP is indistinguishable from a routing SWAP in the
        # mapped stream (replay drops every SWAP), so compiling one silently
        # would produce the wrong unitary -- it must be a typed refusal.
        from repro.circuit import Circuit

        circ = Circuit(2).h(0).swap(0, 1)
        with pytest.raises(UnsupportedWorkload, match="SWAP"):
            GreedyRouterMapper(GridTopology(1, 2)).map_circuit(circ)
