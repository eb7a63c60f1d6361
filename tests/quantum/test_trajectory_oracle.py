"""The trajectory route against the per-gate sampler oracle, trajectory by trajectory.

The engine draws each trajectory's uniforms for a whole chunk at once, runs
the columns that drew no error through one fused noise-free pass and only
the others gate by gate (DESIGN.md §12).  For the same seed every
trajectory's distribution must equal the oracle's
(``trajectory_oracle.py``: every column unfused, one ``rng.random`` per
channel) to 1e-12, for every channel kind.
"""

from __future__ import annotations

import numpy as np
import pytest
from trajectory_oracle import oracle_trajectory_rows

import repro.quantum.engine as engine
from repro.core.backends import EstimationProblem
from repro.core.backends.statevector import qtda_circuit
from repro.core.config import QTDAConfig
from repro.quantum.channels import NoiseSpec
from repro.quantum.engine import EnsembleExecutor, derive_trajectory_seeds

SEED = 17


def _laplacian(dim: int) -> np.ndarray:
    rng = np.random.default_rng(2023)
    basis = rng.standard_normal((dim, dim - 2))
    laplacian = basis @ basis.T
    return (laplacian + laplacian.T) / 2.0


def _qtda(system_qubits: int = 3, precision_qubits: int = 3):
    """The Fig. 6 circuit with spectral controlled powers on ``t + q`` qubits."""
    config = QTDAConfig(precision_qubits=precision_qubits, shots=None, delta=6.0)
    hamiltonian = EstimationProblem(
        laplacian=_laplacian(2**system_qubits - 2)
    ).dense_hamiltonian(config)
    circuit, spec = qtda_circuit(
        hamiltonian,
        precision_qubits=precision_qubits,
        use_purification=False,
        synthesis="exact",
        power_synthesis="spectral",
    )
    assert spec.system_qubits == system_qubits
    return circuit, list(spec.precision_register), range(2**spec.system_qubits)


def _compare(noise, n_trajectories=6, weights=None, memory_budget_bytes=None, system_qubits=3):
    """Engine rows, oracle rows and the engine's dirty-column count."""
    circuit, readout, basis = _qtda(system_qubits)
    executor = (
        EnsembleExecutor()
        if memory_budget_bytes is None
        else EnsembleExecutor(memory_budget_bytes=memory_budget_bytes)
    )
    seeds = derive_trajectory_seeds(np.random.default_rng(SEED), n_trajectories)
    rows, dirty = executor._trajectory_rows(circuit, readout, basis, noise, seeds, weights)
    expected = oracle_trajectory_rows(
        circuit,
        readout,
        basis,
        noise,
        np.random.default_rng(SEED),
        n_trajectories,
        weights=weights,
        memory_budget_bytes=memory_budget_bytes,
    )
    np.testing.assert_allclose(rows, expected, rtol=0, atol=1e-12)
    mean, sem = executor.trajectory_basis_distribution(
        circuit, readout, basis, noise, np.random.default_rng(SEED), n_trajectories, weights
    )
    np.testing.assert_allclose(mean, expected.mean(axis=0), rtol=0, atol=1e-12)
    if n_trajectories > 1:
        expected_sem = expected.std(axis=0, ddof=1) / np.sqrt(n_trajectories)
        np.testing.assert_allclose(sem, expected_sem, rtol=0, atol=1e-12)
    return rows, expected, dirty


@pytest.mark.parametrize(
    "noise",
    [
        NoiseSpec(channel="depolarizing", strength=0.01, gate_strengths={"c-U": 0.03, "H": 0.002}),
        NoiseSpec(channel="bit-flip", strength=0.02),
        NoiseSpec(
            channel="phase-flip",
            strength=0.005,
            two_qubit_channel="two-qubit-depolarizing",
            two_qubit_strength=0.03,
        ),
        NoiseSpec(two_qubit_channel="correlated-zz", two_qubit_strength=0.05),
    ],
    ids=["depolarizing-gate-strengths", "bit-flip", "phase-flip+two-qubit", "correlated-zz"],
)
def test_mixed_unitary_channels_match_the_oracle_per_trajectory(noise):
    rows, _, dirty = _compare(noise)
    total = rows.shape[0] * 2**3
    # Both halves of the split run: some columns drew an error, some none.
    assert 0 < dirty < total, dirty


def test_amplitude_damping_makes_every_column_dirty_and_matches_the_oracle():
    rows, _, dirty = _compare(NoiseSpec(channel="amplitude-damping", strength=0.03))
    assert dirty == rows.shape[0] * 2**3


def test_readout_error_and_non_uniform_weights_match_the_oracle():
    weights = list(np.random.default_rng(3).random(2**3))
    noise = NoiseSpec(channel="depolarizing", strength=0.01, readout_error=0.03)
    _compare(noise, weights=weights)


@pytest.mark.parametrize("channel", ["depolarizing", "amplitude-damping"])
def test_several_basis_chunks_match_the_oracle(channel):
    """A budget of three columns splits the 8 members into chunks of 3, 3, 2,
    and each chunk draws its own uniforms in the oracle's order."""
    circuit, _, _ = _qtda()
    budget = 3 * 2**circuit.num_qubits * 16
    assert EnsembleExecutor(memory_budget_bytes=budget).max_batch(circuit.num_qubits) == 3
    _compare(NoiseSpec(channel=channel, strength=0.02), memory_budget_bytes=budget)


def test_a_single_trajectory_matches_the_oracle_with_zero_sem():
    circuit, readout, basis = _qtda()
    noise = NoiseSpec(channel="depolarizing", strength=0.02)
    _compare(noise, n_trajectories=1)
    _, sem = EnsembleExecutor().trajectory_basis_distribution(
        circuit, readout, basis, noise, np.random.default_rng(SEED), n_trajectories=1
    )
    assert np.array_equal(sem, np.zeros(2 ** len(readout)))


def test_wider_system_register_matches_the_oracle():
    """q=4 on t=3: the controlled powers run on 5 qubits through their block."""
    _compare(
        NoiseSpec(channel="depolarizing", strength=0.005, gate_strengths={"c-U": 0.01}),
        n_trajectories=3,
        system_qubits=4,
    )


def test_dirty_columns_are_blocked_no_wider_than_the_chunk(monkeypatch):
    """Dirty columns of several trajectories share a block, up to the chunk width."""
    circuit, readout, basis = _qtda()
    budget = 4 * 2**circuit.num_qubits * 16
    widths = []
    sampler = engine.sample_channel_branches

    def spy(channel, states, qubits, num_qubits, uniforms):
        widths.append(states.shape[1])
        return sampler(channel, states, qubits, num_qubits, uniforms)

    monkeypatch.setattr(engine, "sample_channel_branches", spy)
    noise = NoiseSpec(channel="depolarizing", strength=0.05)
    seeds = derive_trajectory_seeds(np.random.default_rng(SEED), 8)
    executor = EnsembleExecutor(memory_budget_bytes=budget)
    _, dirty = executor._trajectory_rows(circuit, readout, basis, noise, seeds, None)
    assert widths and max(widths) <= 4
    steps = sum(len(noise.channels_for_gate(gate)) for gate in circuit.gates)
    # Every dirty column runs through every channel step exactly once.
    assert sum(widths) == dirty * steps


def test_noiseless_spec_runs_no_per_gate_column(monkeypatch):
    circuit, readout, basis = _qtda()
    monkeypatch.setattr(engine, "sample_channel_branches", None)
    seeds = derive_trajectory_seeds(np.random.default_rng(SEED), 3)
    rows, dirty = EnsembleExecutor()._trajectory_rows(
        circuit, readout, basis, NoiseSpec(), seeds, None
    )
    assert dirty == 0
    expected = EnsembleExecutor().basis_ensemble_distribution(circuit, readout, basis)
    np.testing.assert_allclose(rows, np.tile(expected, (3, 1)), rtol=0, atol=1e-12)
