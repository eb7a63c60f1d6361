"""Test oracle: the per-gate trajectory sampler loop, every column unfused.

Every (trajectory, basis member) column is stepped through the original
gates one at a time, and after each gate one Kraus branch of every placed
channel is drawn with ``rng.random(len(chunk))``, trajectory by trajectory
and chunk by chunk.  This is the trajectory route as it ran before the
engine split its columns into clean ones (one fused noise-free pass) and
dirty ones (this loop).  For the same seed every trajectory's distribution
must agree with the engine's to floating-point accuracy; the tests in
``test_trajectory_oracle.py`` pin that.

The sampler is kept here too, on the ``rng`` it drew from, so the oracle
shares no branch-sampling code with the engine.
"""

from __future__ import annotations

import numpy as np

from repro.quantum.channels import apply_readout_error
from repro.quantum.engine import (
    EnsembleExecutor,
    _normalised_weights,
    apply_gate_to_ensemble,
    derive_trajectory_seeds,
)
from repro.quantum.measurement import ensemble_member_marginal_probabilities
from repro.quantum.operations import Barrier, Measurement


def _sample_branches(channel, states, qubits, num_qubits, rng):
    """One trajectory step: a Kraus branch of ``channel`` per column of ``states``."""
    batch = states.shape[-1]
    if channel.is_mixed_unitary:
        u = rng.random(batch)
        idx = np.searchsorted(channel.cumulative_probabilities, u, side="right")
        idx = np.clip(idx, 0, len(channel.unitary_branches) - 1)
        out = np.array(states, copy=True)
        for column in range(batch):
            if not channel.identity_branches[idx[column]]:
                out[:, column] = apply_gate_to_ensemble(
                    states[:, column : column + 1],
                    channel.unitary_branches[idx[column]],
                    qubits,
                    num_qubits,
                )[:, 0]
        return out
    branch_states = np.stack(
        [apply_gate_to_ensemble(states, k, qubits, num_qubits) for k in channel.kraus_ops]
    )
    probs = (np.abs(branch_states) ** 2).sum(axis=1)
    cumulative = np.cumsum(probs, axis=0)
    u = rng.random(batch) * cumulative[-1]
    idx = np.clip((u[None, :] > cumulative).sum(axis=0), 0, len(channel.kraus_ops) - 1)
    members = np.arange(batch)
    norms = np.sqrt(probs[idx, members])
    return branch_states[idx, :, members].T / np.where(norms > 0, norms, 1.0)


def oracle_trajectory_rows(
    circuit,
    qubits,
    basis_states,
    noise_spec,
    rng,
    n_trajectories=8,
    weights=None,
    memory_budget_bytes=None,
):
    """The ``(T, out_dim)`` readout distribution of each trajectory."""
    seeds = derive_trajectory_seeds(rng, n_trajectories)
    executor = (
        EnsembleExecutor()
        if memory_budget_bytes is None
        else EnsembleExecutor(memory_budget_bytes=memory_budget_bytes)
    )
    n = circuit.num_qubits
    basis = [int(b) for b in basis_states]
    w = _normalised_weights(weights, len(basis))
    gates = [g for g in circuit.gates if not isinstance(g, (Measurement, Barrier))]
    noise_plan = [noise_spec.channels_for_gate(g) for g in gates]
    chunk = executor.max_batch(n)
    rows = np.zeros((len(seeds), 2 ** len(list(qubits))))
    for trajectory, seed in enumerate(seeds):
        trajectory_rng = np.random.default_rng(int(seed))
        total = None
        for start in range(0, len(basis), chunk):
            block = basis[start : start + chunk]
            states = np.zeros((2**n, len(block)), dtype=complex)
            states[block, np.arange(len(block))] = 1.0
            for gate, placed in zip(gates, noise_plan):
                states = apply_gate_to_ensemble(
                    states, np.asarray(gate.matrix, dtype=complex), gate.qubits, n
                )
                for channel, targets in placed:
                    states = _sample_branches(channel, states, targets, n, trajectory_rng)
            marginals = ensemble_member_marginal_probabilities(states, n, qubits)
            partial = marginals @ w[start : start + len(block)]
            total = partial if total is None else total + partial
        distribution = total / total.sum()
        if noise_spec.readout_error > 0:
            distribution = apply_readout_error(distribution, noise_spec.readout_error)
        rows[trajectory] = distribution
    return rows
