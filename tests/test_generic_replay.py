"""The generic replay check: the array proof decides, the loop explains.

Corrupted SABRE- and greedy-routed QAOA and random circuits must get the
same report from :func:`check_mapped_matches_circuit` as from the op-by-op
loop alone, and on circuits of at most 8 qubits every corrupted circuit the
check passes must also pass the dense statevector comparison, an oracle
independent of both.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.approaches import make_mapper
from repro.arch.registry import make_architecture
from repro.circuit import Circuit, GateKind, MappedCircuit
from repro.circuit.gates import KIND_CODES, KIND_NAMES
from repro.circuit.schedule import OpStream
from repro.verify.coverage import _proved_stamps
from repro.verify.generic import (
    ReplayReport,
    _replay_by_loop,
    _replay_proved,
    check_mapped_matches_circuit,
)
from repro.verify.statevector import (
    circuit_unitary,
    mapped_events_unitary,
    unitaries_equal_up_to_phase,
)
from repro.workloads import get_workload

#: (approach, architecture, size, workload, qubits, seed)
CELLS = tuple(
    (approach, arch, size, workload, qubits, seed)
    for approach in ("sabre", "greedy")
    for arch, size, qubits in (("grid", 3, 8), ("heavyhex", 2, 7), ("sycamore", 4, 12), ("lattice", 3, 6))
    for workload, seed in (("qaoa", 1), ("random", 2))
)
CORRUPTIONS = (
    "swap-ops", "move-op", "drop", "duplicate", "stamp", "flip-cnot", "kind", "angle",
)
ANGLE_STEPS = (1e-12, -1e-12, 1e-10, 1e-8, 0.5)
ORACLE_MAX_QUBITS = 8
_COLUMNS = ("kinds", "p0", "p1", "l0", "l1", "angles", "tags")
_CNOT = KIND_CODES[GateKind.CNOT]


def _build(approach, arch, size, workload, qubits, seed):
    topology = make_architecture(arch, size)
    circuit = get_workload(workload).build(qubits, seed=seed)
    mapped = make_mapper(approach, topology).map_circuit(circuit)
    reference = circuit_unitary(circuit) if qubits <= ORACLE_MAX_QUBITS else None
    return mapped, circuit, reference


@pytest.fixture(scope="module")
def cells():
    return [_build(*cell) for cell in CELLS]


def _loop_report(mapped, circuit):
    """What the check reported before the proof: the loop decides alone."""

    report = ReplayReport(num_logical=circuit.num_qubits)
    return _replay_by_loop(mapped, circuit, report, _proved_stamps(mapped) is not None)


def _corrupt(mapped, data):
    """``mapped`` with one drawn corruption, built from edited columns."""

    columns = {name: list(getattr(mapped.ops, name)) for name in _COLUMNS}
    rows = [list(row) for row in zip(*(columns[name] for name in _COLUMNS))]
    k = len(rows)
    what = data.draw(st.sampled_from(CORRUPTIONS), label="corruption")
    i = data.draw(st.integers(0, k - 1), label="op")
    if what == "swap-ops":
        j = data.draw(st.integers(0, k - 1), label="with")
        rows[i], rows[j] = rows[j], rows[i]
    elif what == "move-op":
        rows.insert(data.draw(st.integers(0, k - 1), label="to"), rows.pop(i))
    elif what == "drop":
        del rows[i]
    elif what == "duplicate":
        rows.insert(i, list(rows[i]))
    elif what == "stamp":
        slot = data.draw(st.sampled_from((3, 4)), label="l0 or l1")
        rows[i][slot] = data.draw(st.integers(-1, mapped.num_logical))
    elif what == "flip-cnot":
        cnots = [j for j, row in enumerate(rows) if row[0] == _CNOT]
        if cnots:
            row = rows[data.draw(st.sampled_from(cnots), label="cnot")]
            row[1], row[2], row[3], row[4] = row[2], row[1], row[4], row[3]
    elif what == "kind":
        rows[i][0] = data.draw(st.integers(0, len(KIND_NAMES) - 1), label="code")
    else:
        angled = [j for j, row in enumerate(rows) if row[5] is not None]
        row = rows[data.draw(st.sampled_from(angled), label="angled op")]
        row[5] += data.draw(st.sampled_from(ANGLE_STEPS), label="step")
    ops = OpStream(*(list(col) for col in zip(*rows))) if rows else OpStream(*[[] for _ in _COLUMNS])
    return MappedCircuit(mapped.topology, mapped.num_logical, mapped.initial_layout, ops, mapped.name)


class TestProofAgreesWithLoop:
    def test_the_proof_decides_every_routed_cell(self, cells):
        for mapped, circuit, _ in cells:
            proved = _proved_stamps(mapped)
            assert proved is not None
            assert _replay_proved(mapped, circuit, *proved)
            report = check_mapped_matches_circuit(mapped, circuit)
            assert report.ok and report == _loop_report(mapped, circuit)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_reports_agree_on_single_corruptions(self, cells, data):
        mapped, circuit, reference = cells[data.draw(st.integers(0, len(cells) - 1), label="cell")]
        bad = _corrupt(mapped, data)
        report = check_mapped_matches_circuit(bad, circuit)
        assert report == _loop_report(bad, circuit), report.summary()
        proved = _proved_stamps(bad)
        if proved is not None and _replay_proved(bad, circuit, *proved):
            assert report.ok  # the proof is never more lenient than the loop
        if report.ok and reference is not None:
            events = bad.logical_gate_events()
            actual = mapped_events_unitary(circuit.num_qubits, events)
            assert unitaries_equal_up_to_phase(actual, reference)


class TestAngles:
    def _cell(self):
        return _build("sabre", "grid", 3, "qaoa", 6, 1)

    def _with_angle(self, mapped, index, angle):
        columns = {name: list(getattr(mapped.ops, name)) for name in _COLUMNS}
        columns["angles"][index] = angle
        ops = OpStream(*(columns[name] for name in _COLUMNS))
        return MappedCircuit(mapped.topology, mapped.num_logical, mapped.initial_layout, ops)

    def test_an_angle_the_rounding_forgives_goes_to_the_loop(self):
        mapped, circuit, _ = self._cell()
        at = next(i for i, a in enumerate(mapped.ops.angles) if a is not None)
        bad = self._with_angle(mapped, at, mapped.ops.angles[at] + 1e-12)
        assert not _replay_proved(bad, circuit, *_proved_stamps(bad))
        report = check_mapped_matches_circuit(bad, circuit)
        assert report.ok and report == _loop_report(bad, circuit)

    def test_a_nan_angle_never_passes(self):
        _, circuit, _ = self._cell()
        at = next(i for i, a in enumerate(circuit.angles) if a is not None)
        nan = math.nan
        odd = Circuit(circuit.num_qubits)
        odd.append_columns(
            circuit.kinds, circuit.q0, circuit.q1,
            [nan if i == at else a for i, a in enumerate(circuit.angles)],
        )
        mapped = make_mapper("sabre", make_architecture("grid", 3)).map_circuit(odd)
        assert not _replay_proved(mapped, odd, *_proved_stamps(mapped))
        report = check_mapped_matches_circuit(mapped, odd)
        assert not report.ok and report == _loop_report(mapped, odd)
