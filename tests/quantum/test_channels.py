"""Tests for the quantum-channel layer: Kraus factories, QuantumChannel, NoiseSpec."""

import numpy as np
import pytest

from repro.quantum.channels import (
    NOISE_CHANNELS,
    TWO_QUBIT_NOISE_CHANNELS,
    NoiseSpec,
    QuantumChannel,
    apply_readout_error,
    is_trace_preserving,
)
from repro.quantum.circuit import QuantumCircuit


# ---------------------------------------------------------------------------
# QuantumChannel
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", NOISE_CHANNELS + TWO_QUBIT_NOISE_CHANNELS)
@pytest.mark.parametrize("strength", [0.0, 0.01, 0.3, 1.0])
def test_every_builtin_channel_is_trace_preserving(name, strength):
    channel = QuantumChannel.from_name(name, strength)
    assert is_trace_preserving(channel.kraus_ops)
    dim = 2**channel.arity
    assert all(k.shape == (dim, dim) for k in channel.kraus_ops)


@pytest.mark.parametrize(
    "name,mixed_unitary",
    [
        ("depolarizing", True),
        ("bit-flip", True),
        ("phase-flip", True),
        ("two-qubit-depolarizing", True),
        ("correlated-zz", True),
        ("amplitude-damping", False),
    ],
)
def test_mixed_unitary_detection(name, mixed_unitary):
    channel = QuantumChannel.from_name(name, 0.2)
    assert channel.is_mixed_unitary is mixed_unitary
    if mixed_unitary:
        # The branch table is a categorical distribution over unitaries.
        assert channel.branch_probabilities.sum() == pytest.approx(1.0)
        assert channel.cumulative_probabilities[-1] == pytest.approx(1.0)
        dim = 2**channel.arity
        for u in channel.unitary_branches:
            assert np.allclose(u.conj().T @ u, np.eye(dim), atol=1e-12)
        # The √(1−p)·I branch divides out to the identity bit-exactly, and
        # the sampler's skip-list marks it.
        assert channel.identity_branches[0]
        assert not channel.identity_branches[1:].any()
    else:
        assert channel.branch_probabilities is None
        assert channel.unitary_branches is None
        assert channel.identity_branches is None


@pytest.mark.parametrize(
    "name", ["depolarizing", "bit-flip", "phase-flip", "two-qubit-depolarizing", "correlated-zz"]
)
def test_identity_branch_is_marked_at_every_strength(name):
    """``sqrt(1 - p)`` squared is not always ``1 - p`` in floating point
    (p = 0.02 is one such strength), so dividing the branch by ``sqrt(p_k)``
    left it an ulp off ``I`` and every trajectory column went through the
    per-gate sampler.  The ``c·I`` branch is ``I`` exactly at every strength."""
    for strength in np.round(np.arange(0.001, 0.2, 0.001), 3):
        channel = QuantumChannel.from_name(name, float(strength))
        assert channel.identity_branches[0], strength
        assert np.array_equal(channel.unitary_branches[0], np.eye(2**channel.arity))


def test_from_name_rejects_unknown_channels():
    with pytest.raises(ValueError, match="available channels"):
        QuantumChannel.from_name("dephasing-42", 0.1)


def test_channel_rejects_non_trace_preserving_kraus():
    with pytest.raises(ValueError, match="completeness"):
        QuantumChannel(name="broken", kraus_ops=(np.eye(2) * 0.5,), arity=1)


# ---------------------------------------------------------------------------
# Readout error
# ---------------------------------------------------------------------------


def test_readout_error_zero_is_identity():
    dist = np.array([0.7, 0.1, 0.1, 0.1])
    assert np.array_equal(apply_readout_error(dist, 0.0), dist)


def test_readout_error_single_bit_confusion():
    dist = np.array([1.0, 0.0])
    np.testing.assert_allclose(apply_readout_error(dist, 0.1), [0.9, 0.1])


def test_readout_error_preserves_normalisation_and_mixes_towards_uniform():
    rng = np.random.default_rng(0)
    dist = rng.random(8)
    dist /= dist.sum()
    out = apply_readout_error(dist, 0.25)
    assert out.sum() == pytest.approx(1.0)
    # The confusion contraction is a doubly stochastic map: it contracts
    # towards the uniform distribution.
    uniform = np.full(8, 1 / 8)
    assert np.abs(out - uniform).sum() < np.abs(dist - uniform).sum()
    # p = 1/2 is complete scrambling.
    np.testing.assert_allclose(apply_readout_error(dist, 0.5), uniform)


def test_readout_error_validates_inputs():
    with pytest.raises(ValueError):
        apply_readout_error(np.array([1.0, 0.0]), 1.5)
    with pytest.raises(ValueError, match="power of two"):
        apply_readout_error(np.array([0.5, 0.3, 0.2]), 0.1)


# ---------------------------------------------------------------------------
# NoiseSpec
# ---------------------------------------------------------------------------


def test_noise_spec_round_trip():
    spec = NoiseSpec(
        channel="depolarizing",
        strength=0.01,
        gate_strengths={"CNOT": 0.05, "H": 0.0},
        two_qubit_channel="correlated-zz",
        two_qubit_strength=0.02,
        readout_error=0.03,
    )
    assert NoiseSpec.from_dict(spec.as_dict()) == spec


def test_noise_spec_accepts_tuple_of_pairs_gate_strengths():
    # The wire layer freezes mappings into sorted tuples of pairs.
    frozen = NoiseSpec(channel="bit-flip", strength=0.1, gate_strengths=(("CNOT", 0.2),))
    assert frozen.gate_strengths == {"CNOT": 0.2}
    assert frozen == NoiseSpec(
        channel="bit-flip", strength=0.1, gate_strengths={"CNOT": 0.2}
    )


def test_noise_spec_validation():
    with pytest.raises(ValueError, match="requires a channel"):
        NoiseSpec(strength=0.1)
    with pytest.raises(ValueError, match="requires a baseline channel"):
        NoiseSpec(gate_strengths={"CNOT": 0.1})
    with pytest.raises(ValueError, match="requires a two_qubit_channel"):
        NoiseSpec(two_qubit_strength=0.1)
    with pytest.raises(ValueError, match="channel must be one of"):
        NoiseSpec(channel="two-qubit-depolarizing", strength=0.1)  # wrong arity slot
    with pytest.raises(ValueError, match="two_qubit_channel must be one of"):
        NoiseSpec(two_qubit_channel="depolarizing", two_qubit_strength=0.1)
    with pytest.raises(ValueError):
        NoiseSpec(channel="depolarizing", strength=1.5)
    with pytest.raises(ValueError):
        NoiseSpec(readout_error=-0.1)


def test_noise_spec_classification():
    assert NoiseSpec().is_noiseless
    assert not NoiseSpec().has_gate_noise
    readout_only = NoiseSpec(readout_error=0.05)
    assert not readout_only.has_gate_noise
    assert not readout_only.is_noiseless
    assert NoiseSpec(channel="depolarizing", strength=0.1).has_gate_noise
    # A zero-strength baseline with a positive per-gate override still counts.
    override_only = NoiseSpec(channel="depolarizing", strength=0.0, gate_strengths={"CNOT": 0.1})
    assert override_only.has_gate_noise
    zeroed = NoiseSpec(channel="depolarizing", strength=0.0)
    assert not zeroed.has_gate_noise


def test_channels_for_gate_placement():
    spec = NoiseSpec(
        channel="depolarizing",
        strength=0.01,
        gate_strengths={"H": 0.04},
        two_qubit_channel="two-qubit-depolarizing",
        two_qubit_strength=0.02,
    )
    circuit = QuantumCircuit(2).h(0).cnot(0, 1)
    h_gate, cnot_gate = circuit.gates

    placed = spec.channels_for_gate(h_gate)
    assert len(placed) == 1  # single qubit touched, no 2q channel
    channel, qubits = placed[0]
    assert qubits == (0,)
    # Per-gate-class override wins over the baseline strength.
    assert channel == QuantumChannel.from_name("depolarizing", 0.04)

    placed = spec.channels_for_gate(cnot_gate)
    # One baseline channel per touched qubit, then the correlated channel.
    assert [qubits for _, qubits in placed] == [(0,), (1,), (0, 1)]
    assert placed[0][0] == QuantumChannel.from_name("depolarizing", 0.01)
    assert placed[2][0] == QuantumChannel.from_name("two-qubit-depolarizing", 0.02)


def test_channels_for_gate_zero_override_disables_the_class():
    spec = NoiseSpec(channel="depolarizing", strength=0.01, gate_strengths={"H": 0.0})
    circuit = QuantumCircuit(1).h(0)
    assert spec.channels_for_gate(circuit.gates[0]) == []
