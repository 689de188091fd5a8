"""The columnar op stream: compiling, verifying and measuring builds no ``Op``.

Mappers emit into the builder's columns, and the verifiers and metric
extraction read the columns, so an ``Op`` is built only when a caller indexes
or iterates ``MappedCircuit.ops``.  Emission itself enforces what ``Op``
validation checks (distinct operands), even with the adjacency check off.
"""

import pytest

import repro
from repro.arch import LNNTopology
from repro.circuit import GateKind, MappedCircuit, MappingBuilder, Op


@pytest.fixture
def op_builds(monkeypatch):
    """Count ``Op.__post_init__`` calls (one per ``Op`` built)."""

    calls = []
    original = Op.__post_init__

    def counting(self):
        calls.append(1)
        original(self)

    monkeypatch.setattr(Op, "__post_init__", counting)
    return calls


@pytest.mark.parametrize(
    "approach,kind,size",
    [
        ("ours", "heavyhex", 8),
        ("ours", "lattice", 6),
        ("lnn", "lattice", 6),
        ("sabre", "grid", 4),
        ("greedy", "grid", 4),
    ],
)
def test_compile_verify_and_metrics_build_no_op(op_builds, approach, kind, size):
    res = repro.compile(architecture=kind, size=size, approach=approach, verify=True)
    row = res.metrics()
    assert res.ok and res.verified and row.total_ops > 0
    assert len(res.mapped.ops) == row.total_ops
    assert op_builds == []


def test_view_builds_ops_on_demand(op_builds):
    b = MappingBuilder(LNNTopology(3), [0, 1, 2])
    b.h(0, tag="x")
    b.swap(0, 1)
    b.cphase(1, 2, 0.25)
    b.barrier()
    ops = b.build().ops
    assert len(ops) == 4 and op_builds == []
    assert ops[0] == Op(GateKind.H, (0,), (0,), tag="x")
    assert ops[-2] == Op(GateKind.CPHASE, (1, 2), (0, 2), 0.25)
    assert ops[-1] == Op(GateKind.BARRIER, (), ())
    assert ops[1:3] == list(ops)[1:3]
    assert ops == MappedCircuit(b.topology, 3, [0, 1, 2], list(ops)).ops
    with pytest.raises(IndexError):
        ops[4]
    with pytest.raises(AttributeError):
        b.build().ops = []


@pytest.mark.parametrize("emit", ["cphase", "swap"])
def test_distinct_operands_checked_without_adjacency_check(emit):
    b = MappingBuilder(LNNTopology(4), [0, 1, 2, 3], check_adjacency=False)
    args = (1, 1, 0.5) if emit == "cphase" else (1, 1)
    with pytest.raises(ValueError, match="duplicate physical qubits"):
        getattr(b, emit)(*args)
    assert len(b.ops) == 0
