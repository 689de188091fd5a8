"""Equivalence of the one-pass metric extraction with the scalar reference.

``result_from_mapped`` (and therefore every pinned metric in the harness)
goes through :func:`repro.eval.metrics.fast_metrics`; these tests pin it to
the scalar :func:`repro.circuit.schedule.asap_depth` / counter methods over
real mapper outputs and adversarial synthetic streams (barriers, idle
qubits, heterogeneous and zero latencies), checking the unit and weighted
depths that one pass computes together.
"""

import random

import numpy as np
import pytest

from repro import GridTopology, LatticeSurgeryTopology, get_workload
from repro.arch import CaterpillarTopology, LNNTopology, SycamoreTopology, Topology
from repro.baselines import SabreMapper
from repro.circuit.gates import GateKind, Op
from repro.circuit.schedule import MappedCircuit, asap_depth
import repro
from repro.eval.metrics import fast_metrics, mapped_op_arrays


def assert_fast_matches_reference(mapped: MappedCircuit):
    depth, unit_depth, swaps, cphases = fast_metrics(mapped)
    assert depth == mapped.depth()
    assert unit_depth == mapped.unit_depth()
    assert swaps == mapped.swap_count()
    assert cphases == mapped.cphase_count()


TOPOLOGIES = [
    LNNTopology(9),
    GridTopology(3, 3),
    SycamoreTopology(4),
    CaterpillarTopology.regular_groups(3),
    LatticeSurgeryTopology(4),  # heterogeneous (weighted) cost model
]


class TestRealMappedCircuits:
    @pytest.mark.parametrize("topo", TOPOLOGIES, ids=lambda t: t.name)
    def test_ours_qft(self, topo):
        mapped = repro.compile(
            workload="qft", architecture=topo, approach="ours", verify=False
        ).mapped
        assert_fast_matches_reference(mapped)

    @pytest.mark.parametrize("topo", TOPOLOGIES, ids=lambda t: t.name)
    def test_sabre_qft(self, topo):
        assert_fast_matches_reference(SabreMapper(topo, seed=3).map_qft())

    @pytest.mark.parametrize("name", ["qaoa", "random"])
    def test_lattice_weighted_depth_on_new_workloads(self, name):
        topo = LatticeSurgeryTopology(3)
        wl = get_workload(name)
        mapped = wl.map_with(SabreMapper(topo, seed=5), 9)
        assert_fast_matches_reference(mapped)


def _random_stream(seed: int, num_sites: int, n_ops: int, barriers: bool):
    rng = random.Random(seed)
    ops = []
    for _ in range(n_ops):
        r = rng.random()
        if barriers and r < 0.03:
            ops.append(Op(GateKind.BARRIER, (), ()))
        elif r < 0.4:
            q = rng.randrange(num_sites)
            ops.append(Op(GateKind.H, (q,), (-1,)))
        else:
            a, b = rng.sample(range(num_sites), 2)
            kind = rng.choice([GateKind.CPHASE, GateKind.SWAP, GateKind.CNOT])
            angle = 0.5 if kind == GateKind.CPHASE else None
            ops.append(Op(kind, (a, b), (-1, -1), angle))
    return ops


class StreamTopology(Topology):
    """A complete graph pricing op ``i`` of one fixed stream at ``weights[i]``.

    The cost model is supplied through both the scalar ``op_latency`` (looked
    up by op identity) and the vectorized ``op_latency_array`` (the weights in
    stream order), which agree op for op as the topology contract requires.
    """

    def __init__(self, num_sites, ops, weights):
        edges = [(a, b) for a in range(num_sites) for b in range(a + 1, num_sites)]
        super().__init__(num_sites, edges, name="stream")
        self._weights = list(weights)
        self._weight_of = {id(op): w for op, w in zip(ops, weights)}

    def op_latency(self, op):
        return self._weight_of[id(op)]

    def op_latency_array(self, kinds, q0, q1):
        assert len(kinds) == len(self._weights)
        return np.asarray(self._weights, dtype=np.int64)


def assert_one_pass_matches_reference(ops, num_sites, weights):
    """Both depths of one ``fast_metrics`` pass against ``asap_depth``."""

    topo = StreamTopology(num_sites, ops, weights)
    mapped = MappedCircuit(topo, num_sites, list(range(num_sites)), ops)
    depth, unit_depth, swaps, cphases = fast_metrics(mapped)
    assert depth == asap_depth(ops, topo.op_latency)
    assert unit_depth == asap_depth(ops, lambda op: 1)
    assert (swaps, cphases) == (mapped.swap_count(), mapped.cphase_count())
    return depth, unit_depth


class TestSyntheticStreams:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("barriers", [False, True])
    def test_unit_latency_streams(self, seed, barriers):
        num_sites = 7
        ops = _random_stream(seed, num_sites, 300, barriers)
        assert_one_pass_matches_reference(ops, num_sites, [1] * len(ops))

    @pytest.mark.parametrize("seed", range(4))
    def test_weighted_latency_streams(self, seed):
        # arbitrary per-op integer latencies, including zero-latency ops
        num_sites = 6
        ops = _random_stream(seed, num_sites, 200, barriers=True)
        rng = random.Random(seed + 100)
        weights = [rng.randrange(0, 5) for _ in ops]
        depth, unit_depth = assert_one_pass_matches_reference(ops, num_sites, weights)
        assert depth != unit_depth  # the two cost models really differ here

    @pytest.mark.parametrize("seed", range(3))
    def test_idle_qubits(self, seed):
        # sites 4-7 stay idle until a barrier and must then start at its
        # fence; sites 8-9 stay idle throughout
        early = _random_stream(seed, 4, 120, barriers=True)
        late = [
            Op(op.kind, tuple(q + 2 for q in op.physical), op.logical, op.angle)
            for op in _random_stream(seed + 50, 6, 60, barriers=True)
        ]
        ops = early + [Op(GateKind.BARRIER, (), ())] + late
        rng = random.Random(seed + 200)
        weights = [rng.randrange(0, 5) for _ in ops]
        assert_one_pass_matches_reference(ops, 10, weights)

    def test_empty_stream(self):
        mapped = MappedCircuit(GridTopology(2, 2), 4, [0, 1, 2, 3], [])
        assert fast_metrics(mapped) == (0, 0, 0, 0)


class TestCustomCostModelFallback:
    def test_scalar_only_override_falls_back_to_reference(self):
        class OddTopology(Topology):
            def op_latency(self, op):
                return 3 if op.kind == GateKind.SWAP else 1

        topo = OddTopology(4, [(0, 1), (1, 2), (2, 3)], name="odd")
        assert topo.op_latency_array(*mapped_op_arrays(
            MappedCircuit(topo, 2, [0, 1], [])
        )) is None
        mapped = SabreMapper(topo, seed=1).map_qft(4)
        assert_fast_matches_reference(mapped)
