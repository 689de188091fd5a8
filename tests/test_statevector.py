"""Tests for the dense statevector simulator used by the verifier."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import Circuit, GateKind, qft_circuit
from repro.verify import (
    apply_gate,
    circuit_unitary,
    mapped_events_unitary,
    qft_reference_unitary,
    random_state,
    simulate_circuit,
    states_equal_up_to_phase,
    unitaries_equal_up_to_phase,
)


def basis(n, idx):
    v = np.zeros(2 ** n, dtype=complex)
    v[idx] = 1.0
    return v


class TestApplyGate:
    def test_h_on_single_qubit(self):
        out = apply_gate(basis(1, 0), 1, GateKind.H, (0,))
        assert np.allclose(out, np.array([1, 1]) / math.sqrt(2))

    def test_h_twice_is_identity(self):
        state = random_state(3, seed=1)
        out = apply_gate(apply_gate(state, 3, GateKind.H, (1,)), 3, GateKind.H, (1,))
        assert np.allclose(out, state)

    def test_cphase_only_phases_the_11_component(self):
        # |11> on 2 qubits is index 3
        out = apply_gate(basis(2, 3), 2, GateKind.CPHASE, (0, 1), math.pi / 2)
        assert out[3] == pytest.approx(1j)
        out0 = apply_gate(basis(2, 1), 2, GateKind.CPHASE, (0, 1), math.pi / 2)
        assert out0[1] == pytest.approx(1.0)

    def test_cphase_symmetric_in_qubit_order(self):
        state = random_state(3, seed=2)
        a = apply_gate(state, 3, GateKind.CPHASE, (0, 2), 0.7)
        b = apply_gate(state, 3, GateKind.CPHASE, (2, 0), 0.7)
        assert np.allclose(a, b)

    def test_swap_exchanges_amplitudes(self):
        # |10> -> |01>   (qubit 0 is the most significant bit)
        out = apply_gate(basis(2, 2), 2, GateKind.SWAP, (0, 1))
        assert np.allclose(out, basis(2, 1))

    def test_cnot_flips_target_when_control_set(self):
        out = apply_gate(basis(2, 2), 2, GateKind.CNOT, (0, 1))
        assert np.allclose(out, basis(2, 3))
        out2 = apply_gate(basis(2, 0), 2, GateKind.CNOT, (0, 1))
        assert np.allclose(out2, basis(2, 0))

    def test_rz_applies_phase_to_one_state(self):
        out = apply_gate(basis(1, 1), 1, GateKind.RZ, (0,), math.pi)
        assert out[1] == pytest.approx(-1.0)

    def test_missing_angle_raises(self):
        with pytest.raises(ValueError):
            apply_gate(basis(2, 0), 2, GateKind.CPHASE, (0, 1), None)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            apply_gate(basis(1, 0), 1, "foo", (0,))

    @pytest.mark.parametrize(
        "kind,qubits,angle",
        [
            (GateKind.H, (1,), None),
            (GateKind.RZ, (2,), 0.3),
            (GateKind.CPHASE, (2, 0), 0.7),
            (GateKind.SWAP, (0, 2), None),
            (GateKind.CNOT, (2, 1), None),
        ],
    )
    def test_batch_equals_one_call_per_column(self, kind, qubits, angle):
        n, k = 3, 5
        batch = np.stack([random_state(n, seed=s) for s in range(k)], axis=1)
        out = apply_gate(batch, n, kind, qubits, angle)
        assert out.shape == (2 ** n, k)
        # The matrix product may sum its (at most 4) terms in another order
        # for a wider batch: allow a few ulps of a unit-norm amplitude.
        atol = 4 * np.finfo(float).eps
        for col in range(k):
            single = apply_gate(batch[:, col].copy(), n, kind, qubits, angle)
            assert np.allclose(out[:, col], single, rtol=0.0, atol=atol)


class TestSimulateCircuit:
    def test_default_initial_state_is_all_zero(self):
        c = Circuit(2)
        out = simulate_circuit(c)
        assert np.allclose(out, basis(2, 0))

    def test_bell_state(self):
        c = Circuit(2).h(0).cnot(0, 1)
        out = simulate_circuit(c)
        expected = (basis(2, 0) + basis(2, 3)) / math.sqrt(2)
        assert np.allclose(out, expected)

    def test_norm_preserved(self):
        c = qft_circuit(4)
        out = simulate_circuit(c, random_state(4, seed=3))
        assert np.linalg.norm(out) == pytest.approx(1.0)

    def test_wrong_state_dimension_raises(self):
        with pytest.raises(ValueError):
            simulate_circuit(Circuit(2), np.zeros(3))


class TestUnitaries:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_circuit_unitary_is_unitary(self, n):
        u = circuit_unitary(qft_circuit(n))
        assert np.allclose(u @ u.conj().T, np.eye(2 ** n), atol=1e-9)

    def test_qft_reference_matches_dft_definition(self):
        n = 3
        dft = qft_reference_unitary(n, bit_reversed_output=False)
        dim = 2 ** n
        omega = np.exp(2j * math.pi / dim)
        expected = np.array(
            [[omega ** (j * k) for k in range(dim)] for j in range(dim)]
        ) / math.sqrt(dim)
        assert np.allclose(dft, expected)

    def test_mapped_events_unitary_matches_circuit_unitary(self):
        c = qft_circuit(3)
        events = [(g.kind, g.qubits, g.angle) for g in c.gates]
        assert unitaries_equal_up_to_phase(
            mapped_events_unitary(3, events), circuit_unitary(c)
        )


class TestEquality:
    def test_states_equal_up_to_phase(self):
        s = random_state(3, seed=5)
        assert states_equal_up_to_phase(s, s * np.exp(0.7j))

    def test_states_differing_are_detected(self):
        s = random_state(3, seed=6)
        t = random_state(3, seed=7)
        assert not states_equal_up_to_phase(s, t)

    def test_states_scaled_by_non_unit_factor_rejected(self):
        s = random_state(2, seed=8)
        assert not states_equal_up_to_phase(s, 2.0 * s)

    def test_unitaries_equal_up_to_phase(self):
        u = circuit_unitary(qft_circuit(2))
        assert unitaries_equal_up_to_phase(u, u * np.exp(1j * 0.3))
        assert not unitaries_equal_up_to_phase(u, np.eye(4))

    def test_shape_mismatch(self):
        assert not states_equal_up_to_phase(np.zeros(2), np.zeros(4))
        assert not unitaries_equal_up_to_phase(np.eye(2), np.eye(4))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_random_state_is_normalised(self, seed):
        s = random_state(4, seed=seed)
        assert np.linalg.norm(s) == pytest.approx(1.0)
