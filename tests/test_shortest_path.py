"""``Topology.shortest_path`` reads paths off one BFS tree per source; every
path must be the one the early-exit BFS it replaced returns."""

import pytest

from repro.arch import LNNTopology
from repro.arch.registry import make_architecture
from repro.arch.topology import Topology

from helpers import reference_shortest_path

TOPOLOGIES = {
    "grid-4": lambda: make_architecture("grid", 4),
    "heavyhex-2": lambda: make_architecture("heavyhex", 2),
    "sycamore-4": lambda: make_architecture("sycamore", 4),
    "lattice-3": lambda: make_architecture("lattice", 3),
    "line-7": lambda: LNNTopology(7),
}


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_every_path_equals_the_early_exit_bfs(name):
    topo = TOPOLOGIES[name]()
    n = topo.num_qubits
    for a in range(n):
        for b in range(n):
            assert topo.shortest_path(a, b) == reference_shortest_path(topo, a, b)
    # every tree is kept, one list of n predecessors per source
    assert sorted(topo._bfs_prev) == list(range(n))
    assert all(len(prev) == n for prev in topo._bfs_prev.values())


def test_disconnected_topology_raises_the_same_error():
    topo = Topology(5, [(0, 1), (1, 2), (3, 4)])
    with pytest.raises(ValueError) as reference:
        reference_shortest_path(topo, 0, 4)
    for _ in range(2):  # building the tree, then reading the kept one
        with pytest.raises(ValueError) as got:
            topo.shortest_path(0, 4)
        assert str(got.value) == str(reference.value)
    assert topo.shortest_path(0, 2) == [0, 1, 2]
    assert topo.shortest_path(4, 3) == [4, 3]
