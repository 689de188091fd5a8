"""Dense statevector simulation for correctness checking.

The paper states (Section 7) that the authors "write an open-source simulator
to check the correctness of our outcome".  This module is that simulator for
our reproduction: it can

* apply logical gates (H, CPHASE, SWAP, CNOT, RZ) to a dense statevector,
* build the full unitary of a circuit (for <= ~10 qubits),
* produce the reference QFT unitary directly from its definition
  ``F[j, k] = omega^(jk) / sqrt(2^n)``,
* replay a *mapped* circuit on the logical state (using the logical stamps on
  each op, so SWAP tracking is already folded in) and compare against the
  reference.

Gates act on a trailing batch axis too: ``apply_gate`` takes a state of
shape ``(2^n,)`` or a batch of shape ``(2^n, k)``, one state per column, and
applies the gate to all of them with one reshape and one small matrix
product.  A unitary is therefore built from the identity with each gate
applied once to the whole ``2^n x 2^n`` matrix: about a millisecond for a
5-qubit QFT and tens of milliseconds at 8 qubits (the largest instance the
verifiers cross-check by default), which keeps the property-based tests
fast.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from ..circuit.circuit import Circuit
from ..circuit.gates import Gate, GateKind, Op

__all__ = [
    "apply_gate",
    "simulate_circuit",
    "circuit_unitary",
    "qft_reference_unitary",
    "mapped_events_unitary",
    "states_equal_up_to_phase",
    "unitaries_equal_up_to_phase",
    "random_state",
]

_H_MATRIX = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)


def _single_qubit_matrix(kind: str, angle: Optional[float]) -> np.ndarray:
    if kind == GateKind.H:
        return _H_MATRIX
    if kind == GateKind.RZ:
        if angle is None:
            raise ValueError("RZ needs an angle")
        return np.diag([1.0, np.exp(1j * angle)]).astype(complex)
    raise ValueError(f"unsupported single-qubit gate {kind!r}")


def _apply_single(state: np.ndarray, n: int, q: int, mat: np.ndarray) -> np.ndarray:
    """Apply a 2x2 matrix to qubit ``q`` of an ``n``-qubit state or of each
    column of a ``(2^n, k)`` batch of states.

    Qubit 0 is the most significant bit of the basis-state index (the usual
    "qubit 0 on top of the circuit diagram" convention).
    """

    out_shape = state.shape
    state = state.reshape((2,) * n + (-1,))
    state = np.moveaxis(state, q, 0)
    shape = state.shape
    state = state.reshape(2, -1)
    state = mat @ state
    state = state.reshape(shape)
    state = np.moveaxis(state, 0, q)
    return state.reshape(out_shape)


def _apply_two(state: np.ndarray, n: int, a: int, b: int, mat4: np.ndarray) -> np.ndarray:
    """Apply a 4x4 matrix to qubits (a, b) of a state or a batch of states;
    ``a`` indexes the first factor."""

    out_shape = state.shape
    state = state.reshape((2,) * n + (-1,))
    state = np.moveaxis(state, (a, b), (0, 1))
    shape = state.shape
    state = state.reshape(4, -1)
    state = mat4 @ state
    state = state.reshape(shape)
    state = np.moveaxis(state, (0, 1), (a, b))
    return state.reshape(out_shape)


def _cphase_matrix(angle: float) -> np.ndarray:
    return np.diag([1.0, 1.0, 1.0, np.exp(1j * angle)]).astype(complex)


_SWAP_MATRIX = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)

_CNOT_MATRIX = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)


def apply_gate(state: np.ndarray, n: int, kind: str, qubits: Sequence[int],
               angle: Optional[float] = None) -> np.ndarray:
    """Apply one gate to an ``n``-qubit statevector, or to every column of a
    ``(2^n, k)`` batch of them, and return the new state(s)."""

    if kind in (GateKind.H, GateKind.RZ):
        (q,) = qubits
        return _apply_single(state, n, q, _single_qubit_matrix(kind, angle))
    if kind == GateKind.CPHASE:
        a, b = qubits
        if angle is None:
            raise ValueError("CPHASE needs an angle")
        return _apply_two(state, n, a, b, _cphase_matrix(angle))
    if kind == GateKind.SWAP:
        a, b = qubits
        return _apply_two(state, n, a, b, _SWAP_MATRIX)
    if kind == GateKind.CNOT:
        c, t = qubits
        return _apply_two(state, n, c, t, _CNOT_MATRIX)
    if kind == GateKind.BARRIER:
        return state
    raise ValueError(f"unsupported gate kind {kind!r}")


def simulate_circuit(circuit: Circuit, state: Optional[np.ndarray] = None) -> np.ndarray:
    """Run a logical circuit on ``state`` (default ``|0...0>``)."""

    n = circuit.num_qubits
    if state is None:
        state = np.zeros(2 ** n, dtype=complex)
        state[0] = 1.0
    else:
        state = np.asarray(state, dtype=complex).copy()
        if state.shape != (2 ** n,):
            raise ValueError("state has wrong dimension")
    for gate in circuit.gates:
        state = apply_gate(state, n, gate.kind, gate.qubits, gate.angle)
    return state


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full unitary of a logical circuit (dimension ``2^n``; keep n small)."""

    return mapped_events_unitary(
        circuit.num_qubits, ((g.kind, g.qubits, g.angle) for g in circuit.gates)
    )


def mapped_events_unitary(n: int, events: Iterable[Tuple[str, Tuple[int, ...], Optional[float]]]) -> np.ndarray:
    """Unitary of a sequence of logical events (kind, logical qubits, angle).

    Each event is applied once, to all ``2^n`` columns of the identity.
    """

    unitary = np.eye(2 ** n, dtype=complex)
    for kind, qubits, angle in events:
        unitary = apply_gate(unitary, n, kind, qubits, angle)
    return unitary


def qft_reference_unitary(n: int, *, bit_reversed_output: bool = True) -> np.ndarray:
    """The reference QFT matrix.

    With the textbook circuit of Fig. 2 (H + controlled phases, *without* the
    final SWAP network) the output register appears in bit-reversed order;
    ``bit_reversed_output=True`` (default) returns that convention so it can
    be compared directly against the circuit's unitary.  Pass ``False`` for
    the plain DFT matrix ``F[j, k] = omega^(j*k) / sqrt(2^n)``.
    """

    dim = 2 ** n
    j = np.arange(dim).reshape(-1, 1)
    k = np.arange(dim).reshape(1, -1)
    omega = np.exp(2j * math.pi / dim)
    dft = np.power(omega, (j * k) % dim) / math.sqrt(dim)
    if not bit_reversed_output:
        return dft
    # Reorder rows by bit-reversal of the output index.
    rev = np.array([int(format(i, f"0{n}b")[::-1], 2) for i in range(dim)])
    return dft[rev, :][:, :]


def states_equal_up_to_phase(a: np.ndarray, b: np.ndarray, atol: float = 1e-9) -> bool:
    """True if two statevectors are equal up to a global phase."""

    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.shape != b.shape:
        return False
    idx = int(np.argmax(np.abs(a)))
    if abs(a[idx]) < atol:
        return bool(np.allclose(a, b, atol=atol))
    phase = b[idx] / a[idx]
    if abs(abs(phase) - 1.0) > 1e-6:
        return False
    return bool(np.allclose(a * phase, b, atol=atol))


def unitaries_equal_up_to_phase(a: np.ndarray, b: np.ndarray, atol: float = 1e-8) -> bool:
    """True if two unitaries are equal up to a global phase."""

    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    flat_a = a.ravel()
    flat_b = b.ravel()
    idx = int(np.argmax(np.abs(flat_a)))
    if abs(flat_a[idx]) < atol:
        return bool(np.allclose(a, b, atol=atol))
    phase = flat_b[idx] / flat_a[idx]
    if abs(abs(phase) - 1.0) > 1e-6:
        return False
    return bool(np.allclose(a * phase, b, atol=atol))


def random_state(n: int, seed: Optional[int] = None) -> np.ndarray:
    """A Haar-ish random normalised statevector (for property tests)."""

    rng = np.random.default_rng(seed)
    vec = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return vec / np.linalg.norm(vec)
