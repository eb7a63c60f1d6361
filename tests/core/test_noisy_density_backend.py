"""Tests for the exact noisy route (``statevector`` backend,
``circuit_engine="ptm"``, a density tensor) and the noise parametrisation."""

import numpy as np
import pytest

from repro.core.config import QTDAConfig
from repro.core.estimator import QTDABettiEstimator
from repro.quantum.channels import NOISE_CHANNELS, NoiseSpec, QuantumChannel


def _estimate(complex_, **config_kwargs):
    defaults = dict(
        precision_qubits=3, shots=None, delta=6.0, backend="statevector", circuit_engine="ptm"
    )
    defaults.update(config_kwargs)
    return QTDABettiEstimator(QTDAConfig(**defaults)).estimate(complex_, 1)


def test_noise_degrades_estimate_monotonically_in_strength(hollow_triangle):
    clean = _estimate(hollow_triangle)
    weak = _estimate(hollow_triangle, noise_channel="depolarizing", noise_strength=0.01)
    strong = _estimate(hollow_triangle, noise_channel="depolarizing", noise_strength=0.10)
    assert weak.p_zero != pytest.approx(clean.p_zero, abs=1e-12)
    assert abs(weak.betti_estimate - clean.betti_estimate) < abs(
        strong.betti_estimate - clean.betti_estimate
    )
    # Noise perturbs but does not destroy the estimate at these strengths.
    assert abs(weak.betti_estimate - clean.betti_estimate) < 1.0


@pytest.mark.parametrize("channel", NOISE_CHANNELS)
def test_every_channel_is_runnable(hollow_triangle, channel):
    estimate = _estimate(hollow_triangle, noise_channel=channel, noise_strength=0.02)
    assert np.isfinite(estimate.betti_estimate)
    assert 0.0 <= estimate.p_zero <= 1.0


def test_noise_model_resolution():
    assert QTDAConfig().resolved_noise_spec() == NoiseSpec()
    assert not QTDAConfig().resolved_noise_spec().has_gate_noise
    built = QTDAConfig(noise_channel="amplitude-damping", noise_strength=0.1).resolved_noise_spec()
    assert built == NoiseSpec(channel="amplitude-damping", strength=0.1)
    assert built.has_gate_noise


def test_from_channel_unknown_name_lists_channels():
    with pytest.raises(ValueError, match="amplitude-damping"):
        QuantumChannel.from_name("cosmic-rays", 0.1)


def test_noisy_backend_with_shots_is_reproducible(hollow_triangle):
    kwargs = dict(
        precision_qubits=3,
        shots=200,
        delta=6.0,
        backend="statevector",
        circuit_engine="ptm",
        noise_channel="depolarizing",
        noise_strength=0.02,
        seed=42,
    )
    a = QTDABettiEstimator(QTDAConfig(**kwargs)).estimate(hollow_triangle, 1)
    b = QTDABettiEstimator(QTDAConfig(**kwargs)).estimate(hollow_triangle, 1)
    assert a.betti_estimate == b.betti_estimate
    assert a.counts == b.counts
    assert sum(a.counts.values()) == 200


def test_noisy_backend_through_pipeline(circle_points):
    from repro.core.pipeline import PipelineConfig, QTDAPipeline

    pipeline = QTDAPipeline(
        PipelineConfig(
            epsilon=0.7,
            estimator=QTDAConfig(
                precision_qubits=2,
                shots=None,
                backend="statevector",
                circuit_engine="ptm",
                noise_channel="depolarizing",
                noise_strength=0.01,
            ),
        )
    )
    features = pipeline.features_from_point_cloud(circle_points)
    assert features.shape == (2,)
    assert np.all(np.isfinite(features))
