"""Tests for the noise channels and their per-gate placement by a NoiseSpec."""

import numpy as np
import pytest

from repro.quantum.channels import (
    NoiseSpec,
    QuantumChannel,
    amplitude_damping_kraus,
    bit_flip_kraus,
    depolarizing_kraus,
    is_trace_preserving,
    phase_flip_kraus,
)
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.density_matrix import DensityMatrixSimulator


@pytest.mark.parametrize(
    "factory,param",
    [
        (bit_flip_kraus, 0.1),
        (phase_flip_kraus, 0.3),
        (depolarizing_kraus, 0.2),
        (amplitude_damping_kraus, 0.4),
    ],
)
def test_channels_are_trace_preserving(factory, param):
    assert is_trace_preserving(factory(param))


def test_probability_validation():
    with pytest.raises(ValueError):
        depolarizing_kraus(1.5)
    with pytest.raises(ValueError):
        bit_flip_kraus(-0.1)


def test_zero_strength_channels_are_identity():
    ops = depolarizing_kraus(0.0)
    assert len(ops) == 4
    assert np.allclose(ops[0], np.eye(2))
    assert all(np.allclose(k, 0) for k in ops[1:])


def test_full_depolarizing_gives_maximally_mixed():
    sim = DensityMatrixSimulator(NoiseSpec(channel="depolarizing", strength=1.0))
    rho = sim.run(QuantumCircuit(1).x(0))
    # p=1 depolarising twirl leaves (ρ + XρX + YρY + ZρZ)/3... not exactly I/2,
    # but for a basis state it is 2/3 mixed; just check purity dropped substantially.
    assert rho.purity() < 0.7


def test_amplitude_damping_decays_excited_state():
    sim = DensityMatrixSimulator(NoiseSpec(channel="amplitude-damping", strength=0.6))
    rho = sim.run(QuantumCircuit(1).x(0))
    assert rho.matrix[1, 1].real == pytest.approx(0.4, abs=1e-9)


def test_gate_filter():
    """A gate filter is a zero baseline strength plus a per-gate-class override."""
    spec = NoiseSpec(channel="depolarizing", strength=0.0, gate_strengths={"CNOT": 0.5})
    sim = DensityMatrixSimulator(spec)
    rho = sim.run(QuantumCircuit(1).x(0))  # X is not in the filter -> noiseless
    assert rho.purity() == pytest.approx(1.0)
    bell = sim.run(QuantumCircuit(2).h(0).cnot(0, 1))  # the CNOT is noisy
    assert bell.purity() < 0.9


def test_noise_model_validation():
    with pytest.raises(ValueError):
        QuantumChannel("bad", (np.eye(2) * 0.5,), arity=1)  # not trace preserving
    with pytest.raises(ValueError):
        QuantumChannel("bad", (np.eye(4),), arity=1)  # wrong dimension
    with pytest.raises(ValueError, match="amplitude-damping"):
        NoiseSpec(channel="cosmic-rays", strength=0.1)


def test_describe():
    info = NoiseSpec(channel="bit-flip", strength=0.1).describe()
    assert info["channel"] == "bit-flip"
    assert info["strength"] == 0.1
    assert info["gate_strengths"] == {}
    assert info["is_noiseless"] is False


def test_to_spec_round_trip_for_named_channels():
    spec = NoiseSpec(channel="depolarizing", strength=0.05)
    assert NoiseSpec.from_dict(spec.as_dict()) == spec
    filtered = NoiseSpec(channel="depolarizing", strength=0.0, gate_strengths={"CNOT": 0.05})
    assert NoiseSpec.from_dict(filtered.as_dict()) == filtered
    assert filtered.has_gate_noise


def test_noisy_bell_state_stays_valid_density_matrix():
    sim = DensityMatrixSimulator(NoiseSpec(channel="depolarizing", strength=0.05))
    rho = sim.run(QuantumCircuit(2).h(0).cnot(0, 1))
    assert rho.is_valid()
    assert rho.purity() < 1.0
