"""Equivalence of the vectorized SABRE fast path with the reference path.

The vectorized implementation must be *bit-identical* to the reference --
same emitted op sequence, not just the same metrics -- because the eval
harness caches results keyed by code version and the paper's seed-variance
figure (Fig. 27) depends on exact RNG consumption.
"""

import pytest

from repro.arch import (
    CaterpillarTopology,
    GridTopology,
    LatticeSurgeryTopology,
    LNNTopology,
    SycamoreTopology,
    clear_distance_cache,
)
from repro.baselines import SabreMapper
from repro.circuit.circuit import Circuit

from helpers import assert_valid_qft

TOPOLOGIES = [
    pytest.param(lambda: LNNTopology(6), id="lnn6"),
    pytest.param(lambda: GridTopology(3, 3), id="grid33"),
    pytest.param(lambda: GridTopology(4, 4), id="grid44"),
    pytest.param(lambda: SycamoreTopology(4), id="sycamore4"),
    pytest.param(lambda: CaterpillarTopology.regular_groups(3), id="heavyhex3"),
    pytest.param(lambda: LatticeSurgeryTopology(4), id="lattice4"),
]

# Larger instances exercising the delta-scored fast path (and its opt-in
# cross-iteration cache) where front layers, extended sets and candidate sets
# interact non-trivially; gate-for-gate equivalence with the reference loop
# is the contract that lets the eval harness treat the paths interchangeably.
LARGE_TOPOLOGIES = [
    pytest.param(lambda: GridTopology(5, 5), id="grid55"),
    pytest.param(lambda: SycamoreTopology(6), id="sycamore6"),
    pytest.param(lambda: CaterpillarTopology.regular_groups(5), id="heavyhex5"),
]


@pytest.mark.parametrize("make_topo", TOPOLOGIES)
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_vectorized_ops_bit_identical(make_topo, seed):
    topo = make_topo()
    ref = SabreMapper(topo, seed=seed, vectorized=False).map_qft(topo.num_qubits)
    vec = SabreMapper(topo, seed=seed, vectorized=True).map_qft(topo.num_qubits)
    assert vec.ops == ref.ops
    assert vec.depth() == ref.depth()
    assert vec.swap_count() == ref.swap_count()


@pytest.mark.parametrize("make_topo", LARGE_TOPOLOGIES)
@pytest.mark.parametrize("seed", [1, 7])
def test_default_fast_path_bit_identical_on_larger_instances(make_topo, seed):
    topo = make_topo()
    ref = SabreMapper(topo, seed=seed, vectorized=False).map_qft(topo.num_qubits)
    vec = SabreMapper(topo, seed=seed).map_qft(topo.num_qubits)
    assert vec.ops == ref.ops


def test_sabre_tables_shared_across_mapper_instances():
    from repro.baselines.sabre import sabre_tables_for

    topo_a = GridTopology(4, 4)
    topo_b = GridTopology(4, 4)  # same coupling graph, different instance
    assert sabre_tables_for(topo_a) is sabre_tables_for(topo_b)
    adj, edge_list, edge_arr, edge_bits = sabre_tables_for(topo_a)
    assert not adj.flags.writeable
    assert not edge_bits.flags.writeable
    assert edge_list == sorted(topo_a.edge_set)
    assert sabre_tables_for(GridTopology(4, 5)) is not sabre_tables_for(topo_a)


def test_vectorized_output_is_a_valid_qft():
    topo = GridTopology(4, 4)
    mapped = SabreMapper(topo, seed=3).map_qft(topo.num_qubits)
    assert_valid_qft(mapped, topo.num_qubits)


def test_single_pass_and_trivial_layout_match_reference():
    topo = GridTopology(3, 3)
    kwargs = dict(seed=5, passes=1, trivial_initial_layout=True)
    ref = SabreMapper(topo, vectorized=False, **kwargs).map_qft(topo.num_qubits)
    vec = SabreMapper(topo, vectorized=True, **kwargs).map_qft(topo.num_qubits)
    assert vec.ops == ref.ops


def test_logical_swap_circuit_falls_back_and_matches_reference():
    # Circuits containing *logical* SWAP gates take the reference path (a
    # SWAP changes the layout mid-sweep, which the batched executability
    # check does not model); results must still agree.
    topo = GridTopology(3, 3)
    circ = Circuit(4)
    circ.h(0).cnot(0, 1).swap(1, 2).cnot(2, 3).cphase(0, 3).h(3)
    ref = SabreMapper(topo, seed=2, vectorized=False).map_circuit(circ)
    vec = SabreMapper(topo, seed=2, vectorized=True).map_circuit(circ)
    assert vec.ops == ref.ops


def test_distance_matrix_shared_across_instances():
    clear_distance_cache()
    a = GridTopology(5, 5).distance_matrix()
    b = GridTopology(5, 5).distance_matrix()
    assert a is b  # cache hit: same object, Dijkstra ran once
    assert not a.flags.writeable
    # different graphs do not collide
    c = GridTopology(5, 6).distance_matrix()
    assert c is not a
    clear_distance_cache()


def test_distance_cache_is_lru_bounded():
    from repro.arch.topology import _DIST_CACHE, _DIST_CACHE_MAX

    clear_distance_cache()
    for n in range(2, 2 + _DIST_CACHE_MAX + 4):
        LNNTopology(n).distance_matrix()
    assert len(_DIST_CACHE) == _DIST_CACHE_MAX
    clear_distance_cache()
