"""The one depth loop against the scalar oracle.

:meth:`repro.circuit.schedule.MappedCircuit.depths` is the library's only
depth scheduler: ``depth()``, ``unit_depth()`` and
:func:`repro.eval.metrics.fast_metrics` (and therefore every pinned metric in
the harness) all return its values.  These tests pin it to the tests-only
:func:`helpers.asap_depth` oracle, priced op for op with the topology's
``op_latency_array``, over real mapper outputs and adversarial synthetic
streams (barriers, idle qubits, heterogeneous and zero latencies), and check
that the loop refuses operands off the device.
"""

import random

import numpy as np
import pytest

from repro import GridTopology, LatticeSurgeryTopology, get_workload
from repro.arch import CaterpillarTopology, LNNTopology, SycamoreTopology, Topology
from repro.baselines import SabreMapper
from repro.circuit.gates import GateKind, Op
from repro.circuit.schedule import MappedCircuit
import repro
from repro.eval.metrics import fast_metrics

from helpers import asap_depth


def assert_depths_match_oracle(mapped: MappedCircuit, costs=None):
    """``depths()``, ``depth()``, ``unit_depth()`` and ``fast_metrics``
    against the oracle, op ``i`` costing ``costs[i]`` (default: as the
    topology's ``op_latency_array`` prices it); returns ``(depth, unit_depth)``."""

    ops = mapped.ops
    if costs is None:
        costs = mapped.topology.op_latency_array(
            np.array(ops.kinds, dtype=np.int8), np.array(ops.p0), np.array(ops.p1)
        ).tolist()
    ops = list(ops)
    depths = (asap_depth(ops, costs), asap_depth(ops, [1] * len(ops)))
    counts = tuple(sum(op.kind == k for op in ops) for k in (GateKind.SWAP, GateKind.CPHASE))
    assert mapped.depths() == (mapped.depth(), mapped.unit_depth()) == depths
    assert fast_metrics(mapped) == depths + counts
    return depths


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
        assert_depths_match_oracle(mapped)

    @pytest.mark.parametrize("topo", TOPOLOGIES, ids=lambda t: t.name)
    def test_sabre_qft(self, topo):
        mapped = SabreMapper(topo, seed=3).map_qft()
        assert_depths_match_oracle(mapped)

    @pytest.mark.parametrize("name", ["qaoa", "random"])
    def test_lattice_weighted_depth_on_new_workloads(self, name):
        topo = LatticeSurgeryTopology(3)
        wl = get_workload(name)
        mapped = wl.map_with(SabreMapper(topo, seed=5), 9)
        assert_depths_match_oracle(mapped)


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
    """A complete graph pricing op ``i`` of one fixed stream at ``weights[i]``."""

    def __init__(self, num_sites, weights):
        edges = [(a, b) for a in range(num_sites) for b in range(a + 1, num_sites)]
        super().__init__(num_sites, edges, name="stream")
        self._weights = list(weights)

    def op_latency_array(self, kinds, q0, q1):
        assert len(kinds) == len(self._weights)
        return np.asarray(self._weights, dtype=np.int64)


def assert_one_pass_matches_reference(ops, num_sites, weights):
    topo = StreamTopology(num_sites, weights)
    mapped = MappedCircuit(topo, num_sites, list(range(num_sites)), ops)
    return assert_depths_match_oracle(mapped, weights)


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
        assert mapped.depths() == (0, 0)
        assert fast_metrics(mapped) == (0, 0, 0, 0)


class TestOffDeviceOperands:
    """The loop indexes per-site lists by operand, so it checks them first;
    the constructor still takes such ops (the verifier tests build
    off-device corruptions for it to reject)."""

    H2 = Op(GateKind.H, (2,), (2,))

    @pytest.mark.parametrize(
        "ops, message",
        [
            ([H2, Op(GateKind.CPHASE, (0, 9), (0, -1), 0.5)], r"op 1: CPHASE .* 0, 9 outside"),
            ([H2, H2, Op(GateKind.H, (-2,), (-1,))], r"op 2: H .* -2 outside"),
        ],
        ids=["cphase-past-the-end", "h-on-a-negative-site"],
    )
    def test_depth_refuses_off_device_operand(self, ops, message):
        mapped = MappedCircuit(GridTopology(2, 2), 4, [0, 1, 2, 3], ops)
        for measure in (mapped.depths, mapped.depth, mapped.unit_depth, lambda: fast_metrics(mapped)):
            with pytest.raises(ValueError, match=message + " the topology's 4 qubits"):
                measure()
