"""Tests for QTDAConfig validation."""

import numpy as np
import pytest

from repro.core.config import QTDAConfig


def test_defaults_are_valid():
    config = QTDAConfig()
    assert config.precision_qubits == 3
    assert config.backend == "exact"
    assert 0 < config.delta < 2 * np.pi


def test_invalid_backend_and_padding():
    with pytest.raises(ValueError):
        QTDAConfig(backend="qiskit")
    with pytest.raises(ValueError):
        QTDAConfig(padding="mirror")


def test_delta_bounds():
    with pytest.raises(ValueError):
        QTDAConfig(delta=0.0)
    with pytest.raises(ValueError):
        QTDAConfig(delta=2 * np.pi)
    QTDAConfig(delta=6.0)


def test_precision_and_shots_validation():
    with pytest.raises(ValueError):
        QTDAConfig(precision_qubits=0)
    with pytest.raises(ValueError):
        QTDAConfig(shots=0)
    assert QTDAConfig(shots=None).shots is None


def test_trotter_parameters():
    with pytest.raises(ValueError):
        QTDAConfig(trotter_order=3)
    with pytest.raises(ValueError):
        QTDAConfig(trotter_steps=0)


def test_noise_model_type_checked():
    """Noise is plain data on the config (wire schema 7 removed the
    ``noise_model`` object field): an explicit object is an unknown field."""
    with pytest.raises(TypeError, match="noise_model"):
        QTDAConfig(noise_model="noisy")


def test_replace_creates_modified_copy():
    base = QTDAConfig(precision_qubits=2)
    other = base.replace(precision_qubits=5)
    assert base.precision_qubits == 2
    assert other.precision_qubits == 5


def test_backend_validated_against_registry():
    from repro.core.backends import available_backends

    for name in available_backends():
        assert QTDAConfig(backend=name).backend == name


def test_noise_field_validation():
    with pytest.raises(ValueError):
        QTDAConfig(noise_channel="cosmic-rays")
    with pytest.raises(ValueError):
        QTDAConfig(noise_strength=1.5)
    with pytest.raises(ValueError):
        QTDAConfig(noise_strength=-0.1)
    config = QTDAConfig(noise_channel="bit-flip", noise_strength=0.25)
    assert config.noise_channel == "bit-flip"
    assert config.noise_strength == 0.25


def test_positive_noise_strength_requires_a_channel_or_model():
    """A strength with no channel would be silently ignored — reject it."""
    with pytest.raises(ValueError, match="noise_channel"):
        QTDAConfig(noise_strength=0.05)
    QTDAConfig(noise_strength=0.05, noise_channel="depolarizing")
    QTDAConfig(noise_strength=0.0)  # noiseless stays valid without a channel


def test_round_trip_through_dict_covers_noise_fields():
    config = QTDAConfig(
        precision_qubits=5,
        shots=None,
        delta=6.0,
        backend="statevector",
        circuit_engine="ptm",
        noise_channel="amplitude-damping",
        noise_strength=0.125,
        seed=7,
    )
    data = config.as_dict()
    assert data["noise_channel"] == "amplitude-damping"
    assert data["noise_strength"] == 0.125
    assert "noise_model" not in data
    restored = QTDAConfig.from_dict(data)
    assert restored == config


def test_as_dict_rejects_explicit_noise_model_object():
    """The dict form has no ``noise_model`` key, and one added to it is rejected."""
    data = QTDAConfig(noise_channel="depolarizing", noise_strength=0.01).as_dict()
    with pytest.raises(TypeError, match="noise_model"):
        QTDAConfig.from_dict({**data, "noise_model": "depolarizing"})


def test_extended_noise_field_validation():
    with pytest.raises(ValueError):
        QTDAConfig(noise_two_qubit_channel="depolarizing")  # wrong arity
    with pytest.raises(ValueError, match="noise_two_qubit_channel"):
        QTDAConfig(noise_two_qubit_strength=0.1)
    with pytest.raises(ValueError, match="noise_channel"):
        QTDAConfig(noise_gate_strengths={"CNOT": 0.1})
    with pytest.raises(ValueError):
        QTDAConfig(readout_error=1.5)
    with pytest.raises(ValueError):
        QTDAConfig(n_trajectories=0)
    config = QTDAConfig(
        noise_channel="depolarizing",
        noise_strength=0.01,
        noise_gate_strengths={"CNOT": 0.05},
        noise_two_qubit_channel="correlated-zz",
        noise_two_qubit_strength=0.02,
        readout_error=0.03,
        n_trajectories=16,
    )
    assert config.n_trajectories == 16
    spec = config.resolved_noise_spec()
    assert spec.channel == "depolarizing"
    assert spec.gate_strengths == {"CNOT": 0.05}
    assert spec.two_qubit_channel == "correlated-zz"
    assert spec.readout_error == 0.03


def test_round_trip_covers_extended_noise_fields():
    config = QTDAConfig(
        backend="statevector",
        shots=None,
        noise_channel="depolarizing",
        noise_strength=0.01,
        noise_gate_strengths={"CNOT": 0.05, "H": 0.0},
        noise_two_qubit_channel="two-qubit-depolarizing",
        noise_two_qubit_strength=0.02,
        readout_error=0.04,
        n_trajectories=12,
        seed=9,
    )
    restored = QTDAConfig.from_dict(config.as_dict())
    assert restored == config
    # The wire layer freezes the mapping into a tuple of pairs; the config
    # must rebuild the same dict from that shape too.
    frozen = config.replace(noise_gate_strengths=(("CNOT", 0.05), ("H", 0.0)))
    assert frozen.noise_gate_strengths == config.noise_gate_strengths


def test_pure_state_engines_reject_extended_gate_noise():
    with pytest.raises(ValueError):
        QTDAConfig(
            backend="statevector",
            circuit_engine="ensemble",
            noise_two_qubit_channel="correlated-zz",
            noise_two_qubit_strength=0.05,
        )
    # Readout error is classical post-processing — allowed on every engine.
    QTDAConfig(backend="statevector", circuit_engine="ensemble", readout_error=0.05)


@pytest.mark.parametrize("engine", ["auto", "trajectory", "ptm"])
def test_only_an_explicit_ptm_is_bounded_by_the_ptm_qubit_threshold(engine):
    """``auto`` falls back to trajectories and ``trajectory`` has no qubit budget;
    an explicit ``ptm`` at ``t >= PTM_AUTO_QUBIT_THRESHOLD`` can never run."""
    from repro.core.backends.statevector import PTM_AUTO_QUBIT_THRESHOLD

    noisy = {"backend": "statevector", "noise_channel": "depolarizing", "noise_strength": 0.01}
    below = QTDAConfig(circuit_engine=engine, precision_qubits=PTM_AUTO_QUBIT_THRESHOLD - 1, **noisy)
    assert below.circuit_engine == engine
    at = dict(circuit_engine=engine, precision_qubits=PTM_AUTO_QUBIT_THRESHOLD, **noisy)
    if engine == "ptm":
        with pytest.raises(ValueError, match="circuit_engine='ptm'"):
            QTDAConfig(**at)
    else:
        assert QTDAConfig(**at).precision_qubits == PTM_AUTO_QUBIT_THRESHOLD
