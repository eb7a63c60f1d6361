"""Backend-agreement tests: exact ≡ statevector ≡ (converged) trotter.

These are the integration tests that justify using the fast ``exact`` backend
for the paper-scale sweeps: all three backends implement the same algorithm
and must agree on the infinite-shot probability of the all-zero readout.
"""

import numpy as np
import pytest

from repro.core.backends import EstimationProblem
from repro.core.backends.statevector import (
    density_reference_distribution,
    purified_reference_distribution,
)
from repro.core.config import QTDAConfig
from repro.core.estimator import QTDABettiEstimator
from repro.tda.complexes import SimplicialComplex
from repro.tda.laplacian import combinatorial_laplacian


@pytest.fixture(scope="module")
def small_complex():
    """A complex whose Δ_1 is 5x5 (padded to 8): hollow square plus a tail edge."""
    return SimplicialComplex(
        [(0,), (1,), (2,), (3,), (4,), (0, 1), (1, 2), (2, 3), (0, 3), (3, 4)]
    )


def _estimate(complex_, backend, **kwargs):
    estimator = QTDABettiEstimator(precision_qubits=3, shots=None, backend=backend, **kwargs)
    return estimator.estimate(complex_, 1)


def _oracle_p_zero(complex_, oracle):
    problem = EstimationProblem(laplacian=combinatorial_laplacian(complex_, 1))
    config = QTDAConfig(precision_qubits=3, shots=None, backend="statevector")
    return float(oracle(problem, config)[0])


def test_exact_equals_statevector_purified(small_complex):
    exact = _estimate(small_complex, "exact")
    purified = _oracle_p_zero(small_complex, purified_reference_distribution)
    assert purified == pytest.approx(exact.p_zero, abs=1e-9)


def test_exact_equals_statevector_density_route(small_complex):
    exact = _estimate(small_complex, "exact")
    density = _oracle_p_zero(small_complex, density_reference_distribution)
    assert density == pytest.approx(exact.p_zero, abs=1e-9)


def test_exact_equals_statevector_ensemble_route(small_complex):
    exact = _estimate(small_complex, "exact")
    ensemble = _estimate(small_complex, "statevector")  # circuit_engine="auto"
    assert ensemble.engine_route == "ensemble"
    assert ensemble.p_zero == pytest.approx(exact.p_zero, abs=1e-9)


def test_trotter_converges_to_exact(small_complex):
    exact = _estimate(small_complex, "exact")
    coarse = _estimate(small_complex, "trotter", trotter_steps=1)
    fine = _estimate(small_complex, "trotter", trotter_steps=12)
    assert abs(fine.p_zero - exact.p_zero) <= abs(coarse.p_zero - exact.p_zero) + 1e-12
    assert fine.p_zero == pytest.approx(exact.p_zero, abs=0.02)


def test_all_backends_round_to_true_betti(appendix_k):
    for backend in ("exact", "statevector", "trotter"):
        estimator = QTDABettiEstimator(
            precision_qubits=3, shots=None, backend=backend, delta=6.0, trotter_steps=8
        )
        assert estimator.estimate(appendix_k, 1).betti_rounded == 1, backend


def test_noise_degrades_estimate_smoothly(small_complex):
    clean = _estimate(small_complex, "statevector")
    noisy = QTDABettiEstimator(
        precision_qubits=3,
        shots=None,
        backend="statevector",
        noise_channel="depolarizing",
        noise_strength=0.02,
    ).estimate(small_complex, 1)
    # Noise perturbs but does not destroy the estimate at this strength.
    assert noisy.p_zero != pytest.approx(clean.p_zero, abs=1e-12)
    assert abs(noisy.betti_estimate - clean.betti_estimate) < 1.5


def test_shot_sampling_consistent_across_backends(small_complex):
    exact = QTDABettiEstimator(precision_qubits=3, shots=4000, backend="exact", seed=3).estimate(small_complex, 1)
    sv = QTDABettiEstimator(
        precision_qubits=3, shots=4000, backend="statevector", seed=3
    ).estimate(small_complex, 1)
    # Same underlying distribution → estimates within a few shot-noise sigmas.
    sigma = 8 * np.sqrt(0.25 / 4000)
    assert abs(exact.betti_estimate - sv.betti_estimate) < 6 * sigma
