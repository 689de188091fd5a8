"""Unit tests for repro.circuit.gates."""

import math

import pytest

from repro.circuit.gates import (
    CNOT,
    CPHASE,
    H,
    RZ,
    SWAP,
    Gate,
    GateKind,
    Op,
    qft_angle,
)


class TestQftAngle:
    def test_adjacent_pair_is_pi_over_two(self):
        assert qft_angle(0, 1) == pytest.approx(math.pi / 2)

    def test_distance_two_is_pi_over_four(self):
        assert qft_angle(0, 2) == pytest.approx(math.pi / 4)

    def test_symmetric_in_arguments(self):
        assert qft_angle(3, 7) == pytest.approx(qft_angle(7, 3))

    def test_depends_only_on_distance(self):
        assert qft_angle(2, 5) == pytest.approx(qft_angle(10, 13))

    def test_same_qubit_rejected(self):
        with pytest.raises(ValueError):
            qft_angle(4, 4)

    @pytest.mark.parametrize("d", range(1, 12))
    def test_halves_with_each_extra_distance(self, d):
        assert qft_angle(0, d) == pytest.approx(math.pi / 2 ** d)

    def test_bit_equal_to_pi_over_a_power_of_two_below_distance_1024(self):
        assert all(qft_angle(0, d) == math.pi / float(2**d) for d in range(1, 1024))

    @pytest.mark.parametrize("d", [1024, 1100])
    def test_no_overflow_at_distance_1024_and_above(self, d):
        # float(2 ** 1024) overflows; a 1,025-qubit QFT needs this distance
        assert 0.0 <= qft_angle(3, 3 + d) < 1e-300


class TestGateConstruction:
    def test_h_is_single_qubit(self):
        g = H(3)
        assert g.kind == GateKind.H
        assert g.qubits == (3,)
        assert g.is_single_qubit and not g.is_two_qubit

    def test_cphase_default_angle_is_qft_angle(self):
        g = CPHASE(1, 4)
        assert g.angle == pytest.approx(qft_angle(1, 4))

    def test_cphase_explicit_angle(self):
        g = CPHASE(0, 1, 0.25)
        assert g.angle == pytest.approx(0.25)

    def test_swap_has_no_angle(self):
        assert SWAP(0, 1).angle is None

    def test_cnot_order_preserved(self):
        g = CNOT(5, 2)
        assert g.qubits == (5, 2)

    def test_rz_requires_angle_field(self):
        g = RZ(2, 1.5)
        assert g.angle == pytest.approx(1.5)

    def test_two_qubit_gate_rejects_identical_qubits(self):
        with pytest.raises(ValueError):
            CPHASE(2, 2, 0.1)

    def test_single_qubit_gate_rejects_two_qubits(self):
        with pytest.raises(ValueError):
            Gate(GateKind.H, (0, 1))

    def test_two_qubit_gate_rejects_single_qubit(self):
        with pytest.raises(ValueError):
            Gate(GateKind.SWAP, (0,))

    def test_sorted_qubits(self):
        assert CPHASE(5, 2, 0.3).sorted_qubits() == (2, 5)

    def test_remap_through_mapping(self):
        g = CPHASE(0, 1, 0.5).on({0: 7, 1: 3})
        assert g.qubits == (7, 3)
        assert g.angle == pytest.approx(0.5)

    def test_gates_are_hashable_and_equal_by_value(self):
        assert H(1) == H(1)
        assert len({H(1), H(1), H(2)}) == 2


class TestOp:
    def test_op_records_physical_and_logical(self):
        op = Op(GateKind.CPHASE, (3, 4), (0, 1), 0.5)
        assert op.physical == (3, 4)
        assert op.logical == (0, 1)
        assert op.is_two_qubit and op.is_cphase and not op.is_swap

    def test_op_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Op(GateKind.H, (0,), (0, 1))

    def test_op_rejects_duplicate_physical(self):
        with pytest.raises(ValueError):
            Op(GateKind.SWAP, (2, 2), (0, 1))

    def test_as_gate_projects_to_logical(self):
        op = Op(GateKind.CPHASE, (9, 5), (2, 3), 0.25)
        g = op.as_gate()
        assert g.qubits == (2, 3)
        assert g.angle == pytest.approx(0.25)

    def test_swap_op_is_swap(self):
        assert Op(GateKind.SWAP, (0, 1), (1, 0)).is_swap
