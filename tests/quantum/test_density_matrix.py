"""Tests for the density-matrix simulator."""

import numpy as np
import pytest

from repro.quantum import gates as g
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.density_matrix import DensityMatrix, DensityMatrixSimulator, apply_kraus
from repro.quantum.channels import NoiseSpec, depolarizing_kraus
from repro.quantum.statevector import Statevector, StatevectorSimulator


def test_zero_and_mixed_constructors():
    zero = DensityMatrix.zero_state(2)
    assert zero.purity() == pytest.approx(1.0)
    mixed = DensityMatrix.maximally_mixed(2)
    assert mixed.purity() == pytest.approx(0.25)
    assert mixed.is_valid()


def test_from_statevector():
    rho = DensityMatrix.from_statevector(Statevector.basis_state(1, 1))
    assert np.allclose(rho.matrix, [[0, 0], [0, 1]])


def test_invalid_shapes_rejected():
    with pytest.raises(ValueError):
        DensityMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        DensityMatrix(np.zeros((3, 3)))


def test_pure_state_evolution_matches_statevector():
    circ = QuantumCircuit(2).h(0).cnot(0, 1).rz(0.4, 1)
    sv = StatevectorSimulator().run(circ)
    dm = DensityMatrixSimulator().run(circ)
    assert np.allclose(dm.matrix, sv.density_matrix(), atol=1e-10)


def test_mixed_initial_state_is_invariant_under_unitaries():
    circ = QuantumCircuit(2).h(0).cnot(0, 1).rx(1.1, 1)
    result = DensityMatrixSimulator().run(circ, initial_state=DensityMatrix.maximally_mixed(2))
    assert np.allclose(result.matrix, np.eye(4) / 4, atol=1e-10)


def test_initial_state_size_checked():
    with pytest.raises(ValueError):
        DensityMatrixSimulator().run(QuantumCircuit(2).h(0), initial_state=DensityMatrix.zero_state(1))


def test_probabilities_and_sampling():
    circ = QuantumCircuit(1).h(0)
    rho = DensityMatrixSimulator().run(circ)
    assert np.allclose(rho.probabilities(), [0.5, 0.5])
    counts = rho.sample(2000, seed=1)
    assert abs(counts.get("0", 0) / 2000 - 0.5) < 0.08


def test_expectation():
    rho = DensityMatrixSimulator().run(QuantumCircuit(1).h(0))
    assert rho.expectation(g.PAULI_X) == pytest.approx(1.0)


def test_partial_trace_of_bell_pair_is_maximally_mixed():
    circ = QuantumCircuit(2).h(0).cnot(0, 1)
    rho = DensityMatrixSimulator().run(circ)
    reduced = rho.partial_trace([1])
    assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-10)


def test_partial_trace_keeps_order():
    circ = QuantumCircuit(2).x(0)  # |10>
    rho = DensityMatrixSimulator().run(circ)
    keep0 = rho.partial_trace([0])
    keep1 = rho.partial_trace([1])
    assert np.allclose(keep0.matrix, [[0, 0], [0, 1]])
    assert np.allclose(keep1.matrix, [[1, 0], [0, 0]])


def test_noise_model_depolarizes_towards_identity():
    noisy_sim = DensityMatrixSimulator(NoiseSpec(channel="depolarizing", strength=0.5))
    circ = QuantumCircuit(1).x(0)
    rho = noisy_sim.run(circ)
    # Heavily depolarised X|0> should be close to the maximally mixed state.
    assert rho.is_valid()
    assert rho.purity() < 1.0
    assert rho.matrix[1, 1].real < 1.0


def test_apply_kraus_preserves_trace():
    rho = DensityMatrix.zero_state(2)
    tensor = rho.matrix.reshape([2] * 4)
    out = apply_kraus(tensor, depolarizing_kraus(0.3), [0], 2)
    out_mat = out.reshape(4, 4)
    assert np.trace(out_mat) == pytest.approx(1.0)
    assert DensityMatrix(out_mat).is_valid()


def test_sample_uses_measured_register():
    circ = QuantumCircuit(2).x(0).measure([0])
    counts = DensityMatrixSimulator().sample(circ, shots=50, seed=2)
    assert set(counts) == {"1"}
