"""Tests for the QFT verifier: it must accept correct circuits and pinpoint
every class of defect (the paper's 'open-source simulator to check correctness').

The array proof decides pass or fail and the op-by-op loop explains a
failure, so the last part checks that their verdicts agree on corrupted
circuits and that the proof stays lean."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.approaches import make_mapper
from repro.arch import LNNTopology
from repro.arch.registry import make_architecture
from repro.circuit import GateKind, MappedCircuit, MappingBuilder, Op, qft_angle
from repro.circuit.gates import KIND_NAMES
from repro.circuit.schedule import OpStream
from repro.core import LNNQFTMapper
from repro.verify import (
    VerificationResult,
    check_mapped_qft_structure,
    verify_mapped_qft,
)
from repro.circuit.circuit import Circuit
from repro.verify.generic import check_mapped_matches_circuit
from repro.verify.coverage import (
    _check_qft_by_loop,
    _proved_stamps,
    _qft_proved,
    check_stamps,
)
from repro.workloads import get_workload

from helpers import with_ops


def good_mapped_qft(n=4):
    return LNNQFTMapper(LNNTopology(n)).map_qft()


class TestAcceptsCorrectCircuits:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_structure_ok(self, n):
        rep = check_mapped_qft_structure(good_mapped_qft(n), n)
        assert rep.ok, rep.summary()
        assert rep.h_count == n
        assert rep.cphase_count == n * (n - 1) // 2

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_unitary_check_runs_for_small_instances(self, n):
        res = verify_mapped_qft(good_mapped_qft(n), n)
        assert res.ok and res.unitary_checked and res.unitary_ok

    def test_unitary_check_skipped_for_large_instances(self):
        res = verify_mapped_qft(good_mapped_qft(12), 12, statevector_limit=8)
        assert res.ok and not res.unitary_checked
        assert "skipped" in res.summary()

    def test_summary_mentions_ok(self):
        rep = check_mapped_qft_structure(good_mapped_qft(3), 3)
        assert "OK" in rep.summary()


def _manual_builder(n=3):
    topo = LNNTopology(n)
    return topo, MappingBuilder(topo, list(range(n)))


class TestDetectsDefects:
    def test_missing_pair(self):
        topo, b = _manual_builder(3)
        b.h(0)
        b.cphase(0, 1, qft_angle(0, 1))
        b.h(1)
        b.cphase(1, 2, qft_angle(1, 2))
        b.h(2)
        # pair (0, 2) missing
        rep = check_mapped_qft_structure(b.build(), 3)
        assert not rep.ok
        assert rep.missing_pairs == 1
        assert any("missing CPHASE" in e for e in rep.errors)

    def test_duplicate_pair(self):
        topo, b = _manual_builder(2)
        b.h(0)
        b.cphase(0, 1, qft_angle(0, 1))
        b.cphase(0, 1, qft_angle(0, 1))
        b.h(1)
        rep = check_mapped_qft_structure(b.build(), 2)
        assert not rep.ok and rep.duplicate_pairs == 1

    def test_missing_hadamard(self):
        topo, b = _manual_builder(2)
        b.h(0)
        b.cphase(0, 1, qft_angle(0, 1))
        rep = check_mapped_qft_structure(b.build(), 2)
        assert not rep.ok
        assert any("missing H" in e for e in rep.errors)

    def test_double_hadamard(self):
        topo, b = _manual_builder(2)
        b.h(0)
        b.cphase(0, 1, qft_angle(0, 1))
        b.h(1)
        b.h(1)
        rep = check_mapped_qft_structure(b.build(), 2)
        assert not rep.ok

    def test_wrong_angle(self):
        topo, b = _manual_builder(2)
        b.h(0)
        b.cphase(0, 1, 0.123)
        b.h(1)
        rep = check_mapped_qft_structure(b.build(), 2)
        assert not rep.ok
        assert any("angle" in e for e in rep.errors)

    def test_type2_violation_cphase_before_h(self):
        topo, b = _manual_builder(2)
        b.cphase(0, 1, qft_angle(0, 1))
        b.h(0)
        b.h(1)
        rep = check_mapped_qft_structure(b.build(), 2)
        assert not rep.ok
        assert any("Type II" in e for e in rep.errors)

    def test_type2_violation_cphase_after_h_of_larger(self):
        topo, b = _manual_builder(2)
        b.h(0)
        b.h(1)
        b.cphase(0, 1, qft_angle(0, 1))
        rep = check_mapped_qft_structure(b.build(), 2)
        assert not rep.ok

    def test_non_adjacent_two_qubit_op(self):
        topo = LNNTopology(3)
        mapped = LNNQFTMapper(topo).map_qft()
        # tamper: replace the first CPHASE with one on non-adjacent qubits
        bad_ops = list(mapped.ops)
        for i, op in enumerate(bad_ops):
            if op.kind == GateKind.CPHASE:
                bad_ops[i] = Op(GateKind.CPHASE, (0, 2), op.logical, op.angle)
                break
        rep = check_mapped_qft_structure(with_ops(mapped, bad_ops), 3)
        assert not rep.ok
        assert any("non-adjacent" in e for e in rep.errors)

    def test_dishonest_logical_stamp(self):
        mapped = good_mapped_qft(3)
        bad_ops = list(mapped.ops)
        for i, op in enumerate(bad_ops):
            if op.kind == GateKind.CPHASE:
                bad_ops[i] = Op(op.kind, op.physical, (op.logical[1], op.logical[0]), op.angle)
                break
        rep = check_mapped_qft_structure(with_ops(mapped, bad_ops), 3)
        assert not rep.ok

    def test_cphase_with_two_equal_logical_stamps_is_reported(self):
        mapped = good_mapped_qft(3)
        bad_ops = list(mapped.ops)
        pos, op = next(
            (i, op) for i, op in enumerate(bad_ops) if op.kind == GateKind.CPHASE
        )
        bad_ops[pos] = Op(op.kind, op.physical, (0, 0), op.angle)
        rep = check_mapped_qft_structure(with_ops(mapped, bad_ops), 3)
        assert not rep.ok
        assert f"op {pos}: CPHASE on one logical qubit 0" in rep.errors

    def test_strict_order_check_flags_relaxed_schedules(self):
        # our mappers use relaxed ordering; a strict-order check should
        # eventually flag some circuit produced from the relaxed rules
        mapped = LNNQFTMapper(LNNTopology(6)).map_qft()
        relaxed = check_mapped_qft_structure(mapped, 6, strict_order=False)
        assert relaxed.ok
        # (the LNN cascade actually follows textbook order per qubit, so use a
        # hand-built counterexample for the strict check)
        topo, b = _manual_builder(3)
        b.h(0)
        b.cphase(0, 1, qft_angle(0, 1))
        b.swap(1, 2)
        b.cphase(0, 1, qft_angle(0, 2))   # physically adjacent: logical (0, 2)
        b.swap(1, 2)
        b.h(1)
        b.cphase(1, 2, qft_angle(1, 2))
        b.h(2)
        ok_relaxed = check_mapped_qft_structure(b.build(), 3, strict_order=False)
        assert ok_relaxed.ok

    def test_verification_result_ok_property(self):
        res = verify_mapped_qft(good_mapped_qft(3), 3)
        assert isinstance(res, VerificationResult)
        assert res.ok == (res.structure.ok and res.unitary_ok)


# ---------------------------------------------------------------------------
# The array proof decides, the loop explains: they must agree
# ---------------------------------------------------------------------------

#: (approach, architecture, size, workload, qubits or None, workload params)
QFT_CELLS = (
    ("ours", "heavyhex", 3, "qft", None, {}),
    ("ours", "grid", 3, "qft", None, {}),
    ("ours", "sycamore", 4, "qft", None, {}),
    ("ours", "lattice", 4, "qft", None, {}),
    ("lnn", "lattice", 4, "qft", None, {}),
    ("sabre", "grid", 4, "qft", None, {}),
    ("greedy", "grid", 4, "qft", None, {}),
)
GENERIC_CELLS = (
    ("sabre", "grid", 3, "qaoa", 9, {"seed": 1}),
    ("greedy", "grid", 3, "qaoa", 6, {"seed": 1}),
    ("sabre", "grid", 3, "random", 9, {"seed": 2}),
    ("greedy", "grid", 3, "random", 9, {"seed": 2}),
)
CORRUPTIONS = (
    "stamp", "operand", "angle", "kind", "drop", "duplicate", "reorder", "layout",
)
_COLUMNS = ("kinds", "p0", "p1", "l0", "l1", "angles", "tags")


def _map_cell(approach, kind, size, workload, qubits, params):
    topology = make_architecture(kind, size)
    n = qubits or topology.num_qubits
    mapped = get_workload(workload).map_with(make_mapper(approach, topology), n, **params)
    # Every placed logical qubit carries a stamp somewhere, so an off-device
    # placement shows in the loop too (the proof refuses it outright).
    stamped = set(mapped.ops.l0) | set(mapped.ops.l1)
    assert stamped >= set(range(len(mapped.initial_layout)))
    return mapped, n


@pytest.fixture(scope="module")
def qft_cells():
    return [_map_cell(*cell) for cell in QFT_CELLS]


@pytest.fixture(scope="module")
def generic_cells():
    return [_map_cell(*cell) for cell in GENERIC_CELLS]


def _corrupt(mapped, data):
    """``mapped`` with one drawn corruption, built from edited columns."""

    columns = {name: list(getattr(mapped.ops, name)) for name in _COLUMNS}
    layout = list(mapped.initial_layout)
    k, nq, placed = len(columns["kinds"]), mapped.topology.num_qubits, len(layout)
    what = data.draw(st.sampled_from(CORRUPTIONS), label="corruption")
    i = data.draw(st.integers(0, k - 2), label="op")
    if what == "stamp":
        column = data.draw(st.sampled_from(("l0", "l1")))
        columns[column][i] = data.draw(st.integers(-2, placed + 1))
    elif what == "operand":
        column = data.draw(st.sampled_from(("p0", "p1")))
        columns[column][i] = data.draw(st.integers(-2, nq + 1))
    elif what == "angle":
        angle = columns["angles"][i]
        options = [None] if angle is None else [None, angle + 1e-6, angle - 1e-6, angle + 1e-10]
        columns["angles"][i] = data.draw(st.sampled_from(options))
    elif what == "kind":
        columns["kinds"][i] = data.draw(st.integers(0, len(KIND_NAMES) - 1))
    elif what == "drop":
        for column in columns.values():
            del column[i]
    elif what == "duplicate":
        for column in columns.values():
            column.insert(i, column[i])
    elif what == "reorder":
        for column in columns.values():
            column[i], column[i + 1] = column[i + 1], column[i]
    else:
        j = data.draw(st.integers(0, placed - 1))
        if data.draw(st.booleans(), label="move on the device"):
            # to an empty site, or an exchange with the logical qubit there
            site = data.draw(st.integers(0, nq - 1))
            if site in layout:
                layout[layout.index(site)] = layout[j]
            layout[j] = site
        else:  # off the device, or onto another logical qubit's site
            layout[j] = data.draw(st.sampled_from((-1, -2, nq, nq + 3, layout[(j + 1) % placed])))
    ops = OpStream(*(columns[name] for name in _COLUMNS))
    return MappedCircuit(mapped.topology, mapped.num_logical, layout, ops, mapped.name)


class TestArrayProofAgreesWithLoop:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_qft_verdicts_agree_on_single_corruptions(self, qft_cells, data):
        mapped, n = qft_cells[data.draw(st.integers(0, len(qft_cells) - 1), label="cell")]
        bad = _corrupt(mapped, data)
        loop = _check_qft_by_loop(bad, n, False, 1e-9)
        assert _qft_proved(bad, n, 1e-9) == loop.ok, loop.summary()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_stamp_verdicts_agree_on_single_corruptions(self, generic_cells, data):
        mapped, _ = generic_cells[data.draw(st.integers(0, len(generic_cells) - 1), label="cell")]
        bad = _corrupt(mapped, data)
        errors = []
        check_stamps(bad, errors.append)
        injective = len(set(bad.initial_layout)) == len(bad.initial_layout)
        assert (_proved_stamps(bad) is not None) == (injective and not errors), errors

    def test_passing_report_equals_the_loops(self, qft_cells):
        for mapped, n in qft_cells:
            assert check_mapped_qft_structure(mapped, n) == _check_qft_by_loop(mapped, n, False, 1e-9)

    def test_off_device_placement_fails_the_proof_and_the_loop_explains(self):
        # The honest ops of a 2-qubit QFT, with logical 1 placed off the
        # device: numpy would wrap the -1 to the last site.
        ops = [
            Op(GateKind.H, (0,), (0,)),
            Op(GateKind.CPHASE, (0, 1), (0, 1), qft_angle(0, 1)),
            Op(GateKind.H, (1,), (1,)),
        ]
        mapped = MappedCircuit(LNNTopology(2), 2, [0, -1], ops)
        assert not _qft_proved(mapped, 2, 1e-9)
        rep = check_mapped_qft_structure(mapped, 2)
        assert not rep.ok
        assert "op 1: logical stamp (0, 1) does not match tracked layout (0, -1)" in rep.errors

    @pytest.mark.parametrize("site", [-1, 3, 4])
    def test_single_qubit_op_off_the_device_fails_the_proof(self, site):
        mapped = good_mapped_qft(3)
        ops = list(mapped.ops)
        h = next(i for i, op in enumerate(ops) if op.kind == GateKind.H)
        ops[h] = Op(GateKind.H, (site,), ops[h].logical)
        bad = with_ops(mapped, ops)
        assert _proved_stamps(bad) is None
        rep = check_mapped_qft_structure(bad, 3)
        assert f"op {h}: logical stamp {ops[h].logical} does not match tracked layout (-1,)" in rep.errors

    def test_non_adjacent_ops_with_honest_stamps_fail_the_proof(self):
        topo = LNNTopology(3)
        b = MappingBuilder(topo, [0, 1, 2], check_adjacency=False)
        b.h(0)
        b.cphase(0, 2, qft_angle(0, 2))
        b.cphase(0, 1, qft_angle(0, 1))
        b.h(1)
        b.cphase(1, 2, qft_angle(1, 2))
        b.h(2)
        mapped = b.build()
        assert not _qft_proved(mapped, 3, 1e-9)
        assert _proved_stamps(mapped) is None
        rep = check_mapped_qft_structure(mapped, 3)
        assert rep.errors == ["op 1: cphase on non-adjacent physical qubits (0, 2)"]

    def test_duplicate_pair_that_keeps_the_count_fails_the_proof(self):
        topo, b = _manual_builder(3)
        b.h(0)
        b.cphase(0, 1, qft_angle(0, 1))
        b.cphase(0, 1, qft_angle(0, 1))  # in place of the pair (0, 2)
        b.h(1)
        b.cphase(1, 2, qft_angle(1, 2))
        b.h(2)
        mapped = b.build()
        assert not _qft_proved(mapped, 3, 1e-9)
        rep = check_mapped_qft_structure(mapped, 3)
        assert rep.missing_pairs == 1 and rep.duplicate_pairs == 1

    def test_values_wider_than_the_proof_dtype_fall_to_the_loop(self):
        mapped = good_mapped_qft(4)
        columns = {name: list(getattr(mapped.ops, name)) for name in _COLUMNS}
        h = columns["kinds"].index(KIND_NAMES.index(GateKind.H))
        # an unused second operand the loop never reads: the loop passes it
        columns["p1"][h] = 2**40
        odd = with_ops(mapped, OpStream(*(columns[name] for name in _COLUMNS)))
        assert _proved_stamps(odd) is None
        assert check_mapped_qft_structure(odd, 4).ok
        # a stamp no layout can hold: the loop reports it
        columns["p1"][h] = -1
        columns["l0"][h] = 2**40
        bad = with_ops(mapped, OpStream(*(columns[name] for name in _COLUMNS)))
        rep = check_mapped_qft_structure(bad, 4)
        assert not rep.ok
        assert any(f"op {h}: logical stamp ({2**40},)" in e for e in rep.errors)


def _lnn_qft_with(extra):
    """The 12-qubit LNN QFT with ``extra(op)`` inserted before its first
    CPHASE, on that CPHASE's sites and stamps (honest, since neither stray
    kind moves a qubit); returns the circuit and the stray op's position."""

    mapped = repro.compile(workload="qft", architecture="lnn", size=12, verify=False).mapped
    ops = list(mapped.ops)
    at = next(i for i, op in enumerate(ops) if op.kind == GateKind.CPHASE)
    ops.insert(at, extra(ops[at]))
    return with_ops(mapped, ops), at


STRAY_GATES = {
    "cnot": lambda cp: Op(GateKind.CNOT, cp.physical, cp.logical),
    "rz": lambda cp: Op(GateKind.RZ, cp.physical[:1], cp.logical[:1], 0.3),
}


class TestGateSetAndDeviceRange:
    """Circuits that satisfied every other check and verified ok before the
    verifier closed the gate set and range-checked operands and placements."""

    @pytest.mark.parametrize("kind", sorted(STRAY_GATES))
    def test_a_stray_gate_fails_the_proof_and_the_loop_names_it(self, kind):
        bad, at = _lnn_qft_with(STRAY_GATES[kind])
        assert not _qft_proved(bad, 12, 1e-9)
        loop = _check_qft_by_loop(bad, 12, False, 1e-9)
        assert loop.errors == [f"op {at}: {kind} is not a QFT gate (H, CPHASE, SWAP or barrier)"]
        result = verify_mapped_qft(bad, 12)
        assert not result.ok and result.structure == loop
        assert not get_workload("qft").verify(bad, 12).ok

    def test_off_device_placement_and_operand_fail_the_proof_and_the_loop_names_them(self):
        mapped = MappedCircuit(LNNTopology(2), 1, [7], [Op(GateKind.H, (7,), (0,))])
        assert not _qft_proved(mapped, 1, 1e-9)
        loop = _check_qft_by_loop(mapped, 1, False, 1e-9)
        assert loop.errors == [
            "initial layout places logical qubit 0 on physical qubit 7, off the device",
            "op 0: h on physical qubit 7, off the device",
        ]
        assert check_mapped_qft_structure(mapped, 1) == loop
        assert not verify_mapped_qft(mapped, 1).ok

    def test_generic_verifier_range_checks_too(self):
        mapped = MappedCircuit(LNNTopology(2), 1, [7], [Op(GateKind.H, (7,), (0,))])
        circuit = Circuit(1)
        circuit.h(0)
        report = check_mapped_matches_circuit(mapped, circuit)
        assert not report.ok
        assert "op 0: h on physical qubit 7, off the device" in report.errors


class TestVerifierMemory:
    def test_transient_peak_under_100_bytes_per_op(self):
        topology = make_architecture("heavyhex", 20)
        n = topology.num_qubits
        mapped = get_workload("qft").map_with(make_mapper("ours", topology), n)
        assert check_mapped_qft_structure(mapped, n).ok  # warm imports and caches
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert check_mapped_qft_structure(mapped, n).ok
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak / len(mapped.ops) < 100, f"{peak / len(mapped.ops):.0f} B/op"
