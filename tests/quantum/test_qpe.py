"""Tests for quantum phase estimation — circuit and analytical forms."""

import numpy as np
import pytest

from repro.quantum import gates as g
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.qpe import (
    PhaseEstimation,
    phase_estimation_circuit,
    qpe_outcome_distribution,
    qpe_probability_kernel,
)
from repro.quantum.statevector import StatevectorSimulator


def _qpe_readout(unitary, eigenstate, num_precision):
    """Exact readout distribution of the QPE circuit for a given eigenstate."""
    circ = phase_estimation_circuit(unitary, num_precision)
    # Precision register |0...0>, system register = eigenstate.
    precision_zero = np.eye(1, 2**num_precision, 0).ravel()
    full = np.kron(precision_zero, np.asarray(eigenstate, dtype=complex))
    return StatevectorSimulator().probabilities(circ, initial_state=full)


def test_exact_phase_is_read_exactly():
    # T gate has eigenvalues 1 and e^{iπ/4}; phase of |1> is 1/8.
    probs = _qpe_readout(g.T_GATE, np.array([0.0, 1.0]), 3)
    assert np.argmax(probs) == 1  # 001 -> θ = 1/8
    assert probs[1] == pytest.approx(1.0, abs=1e-9)


def test_phase_zero_eigenstate():
    probs = _qpe_readout(g.PAULI_Z, np.array([1.0, 0.0]), 3)
    assert probs[0] == pytest.approx(1.0, abs=1e-9)


def test_phase_half_eigenstate():
    probs = _qpe_readout(g.PAULI_Z, np.array([0.0, 1.0]), 2)
    assert np.argmax(probs) == 2  # 10 -> θ = 1/2
    assert probs[2] == pytest.approx(1.0, abs=1e-9)


def test_inexact_phase_spreads_but_peaks_at_nearest():
    theta = 0.3
    unitary = np.diag([1.0, np.exp(2j * np.pi * theta)])
    probs = _qpe_readout(unitary, np.array([0.0, 1.0]), 3)
    # Nearest 3-bit fraction to 0.3 is 2/8 = 0.25 -> outcome 2.
    assert np.argmax(probs) == 2
    assert probs[2] < 1.0


def test_circuit_form_matches_analytical_kernel():
    theta = 0.3
    unitary = np.diag([1.0, np.exp(2j * np.pi * theta)])
    circuit_probs = _qpe_readout(unitary, np.array([0.0, 1.0]), 3)
    kernel = qpe_probability_kernel(theta, 3)
    assert np.allclose(circuit_probs, kernel, atol=1e-9)


def test_kernel_normalisation_and_exact_case():
    kernel = qpe_probability_kernel(0.25, 4)
    assert kernel.sum() == pytest.approx(1.0)
    assert kernel[4] == pytest.approx(1.0)  # 0.25 * 16 = 4 exactly representable


def test_kernel_matches_isclose_mask_bit_for_bit():
    """The exact-phase mask ``|Δ - round(Δ)| <= 1e-12`` is the old ``np.isclose`` test."""
    for t in (1, 3, 5):
        M = 2**t
        thetas = np.concatenate([np.arange(M) / M, np.linspace(0.0, 1.0, 97), [1.0 / 3.0, 1e-13, 1.0 - 1e-13]])
        delta = (thetas % 1.0)[:, None] - np.arange(M) / M
        numerator = np.sin(np.pi * M * delta) ** 2
        denominator = (M**2) * np.sin(np.pi * delta) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            probs = np.where(denominator > 1e-300, numerator / np.where(denominator == 0, 1.0, denominator), 0.0)
        probs = np.where(np.isclose(delta - np.round(delta), 0.0, atol=1e-12), 1.0, probs)
        expected = probs / probs.sum(axis=-1, keepdims=True)
        assert qpe_probability_kernel(thetas, t).tobytes() == expected.tobytes()
    special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-12, -1e-12, 1.0000000000001e-12, 0.5])
    with np.errstate(invalid="ignore"):
        frac = special - np.round(special)
    assert np.array_equal(np.abs(frac) <= 1e-12, np.isclose(frac, 0.0, atol=1e-12))


def test_kernel_vectorised_shape():
    out = qpe_probability_kernel(np.array([0.1, 0.2, 0.9]), 3)
    assert out.shape == (3, 8)
    assert np.allclose(out.sum(axis=1), 1.0)


def test_outcome_distribution_uniform_weights():
    phases = [0.0, 0.5]
    dist = qpe_outcome_distribution(phases, 2)
    assert dist[0] == pytest.approx(0.5)
    assert dist[2] == pytest.approx(0.5)


def test_outcome_distribution_custom_weights():
    dist = qpe_outcome_distribution([0.0, 0.5], 2, weights=[0.75, 0.25])
    assert dist[0] == pytest.approx(0.75)


def test_outcome_distribution_validation():
    with pytest.raises(ValueError):
        qpe_outcome_distribution([], 2)
    with pytest.raises(ValueError):
        qpe_outcome_distribution([0.1], 2, weights=[0.5, 0.5])
    with pytest.raises(ValueError):
        qpe_outcome_distribution([0.1, 0.2], 2, weights=[-1.0, 2.0])


def test_phase_estimation_wrapper():
    pe = PhaseEstimation(g.S_GATE, num_precision=3)
    assert pe.num_system_qubits == 1
    phases = np.sort(pe.eigenphases())
    assert np.allclose(phases, [0.0, 0.25])
    dist = pe.outcome_distribution()
    assert dist[0] == pytest.approx(0.5)
    assert dist[2] == pytest.approx(0.5)  # 010 = 2 -> θ = 1/4
    assert pe.circuit().num_qubits == 4


def test_circuit_unitary_input_as_circuit():
    """Passing U as a circuit (gate-by-gate controlled) matches the dense route."""
    u_circ = QuantumCircuit(1).t(0)
    dense = phase_estimation_circuit(g.T_GATE, 2)
    gatewise = phase_estimation_circuit(u_circ, 2)
    init = np.zeros(8, dtype=complex)
    init[1] = 1.0  # |00>|1>
    sim = StatevectorSimulator()
    assert np.allclose(
        sim.probabilities(dense, initial_state=init),
        sim.probabilities(gatewise, initial_state=init),
        atol=1e-9,
    )


def test_invalid_shapes_rejected():
    with pytest.raises(ValueError):
        phase_estimation_circuit(np.eye(3), 2)
    with pytest.raises(ValueError):
        phase_estimation_circuit(g.PAULI_Z, 2, num_system=2)
