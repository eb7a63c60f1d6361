"""Tests for the ``sparse-exact`` backend (shift-invert partial spectrum)."""

import numpy as np
import pytest
from scipy import sparse

from repro.core.backends import EstimationProblem
from repro.core.backends.sparse_exact import SparseExactBackend
from repro.core.config import QTDAConfig
from repro.core.estimator import QTDABettiEstimator
from repro.datasets.point_clouds import circle_cloud
from repro.tda.betti import betti_number
from repro.tda.laplacian import combinatorial_laplacian
from repro.tda.rips import rips_complex


def _medium_complex():
    """An annulus Rips complex whose Δ_1 is ~100x100 — big enough to force
    the sparse path with a low threshold, small enough for fast tests."""
    cloud = circle_cloud(100)
    eps = 2 * np.sin(2 * np.pi / 100) + 1e-9  # connect 2 neighbours per side
    return rips_complex(cloud, eps, max_dimension=2)


def _run(backend, laplacian, config, cache=None):
    rng = np.random.default_rng(0)
    return backend.run(EstimationProblem(laplacian=laplacian, spectrum_cache=cache), config, rng)


def test_constructor_validation():
    with pytest.raises(ValueError):
        SparseExactBackend(dense_threshold=0)
    with pytest.raises(ValueError):
        SparseExactBackend(num_eigenvalues=0)
    with pytest.raises(ValueError):
        SparseExactBackend(shift=0.0)


def test_dense_input_uses_dense_path_bit_identically(appendix_k):
    from repro.core.backends.exact import ExactBackend

    laplacian = combinatorial_laplacian(appendix_k, 1)
    config = QTDAConfig(precision_qubits=4, shots=None, delta=6.0, backend="sparse-exact")
    sparse_result = _run(SparseExactBackend(), laplacian, config)
    exact_result = _run(ExactBackend(), laplacian, config.replace(backend="exact"))
    np.testing.assert_array_equal(sparse_result.distribution, exact_result.distribution)
    assert sparse_result.lambda_max == exact_result.lambda_max


def test_sparse_path_agrees_with_exact_distribution():
    """Above the threshold the surrogate spectrum's readout distribution is
    within a few hundredths of the full-spectrum one."""
    complex_ = _medium_complex()
    laplacian = combinatorial_laplacian(complex_, 1, sparse_format=True)
    assert laplacian.shape[0] > 64
    config = QTDAConfig(precision_qubits=5, shots=None, backend="sparse-exact")
    backend = SparseExactBackend(dense_threshold=32, num_eigenvalues=24)
    result = _run(backend, laplacian, config)

    from repro.core.backends.exact import ExactBackend

    exact = _run(ExactBackend(), laplacian, config.replace(backend="exact"))
    est_sparse = 2**result.num_system_qubits * result.distribution[0]
    est_exact = 2**exact.num_system_qubits * exact.distribution[0]
    assert result.num_system_qubits == exact.num_system_qubits
    assert result.lambda_max == pytest.approx(exact.lambda_max)
    assert est_sparse == pytest.approx(est_exact, abs=0.15)


def test_sparse_path_rounds_to_true_betti_number():
    """Needs 8 precision qubits: the annulus Laplacian's smallest non-zero
    eigenvalues are tiny, and even the full-spectrum estimate only resolves
    the single loop once t = 8 (the same precision-dependence as Fig. 3)."""
    complex_ = _medium_complex()
    # Use a low-threshold instance directly so the sparse route is exercised.
    backend = SparseExactBackend(dense_threshold=16, num_eigenvalues=16)
    laplacian = combinatorial_laplacian(complex_, 1, sparse_format=True)
    config = QTDAConfig(precision_qubits=8, shots=None, backend="sparse-exact")
    result = _run(backend, laplacian, config)
    estimate = 2**result.num_system_qubits * result.distribution[0]
    assert int(round(estimate)) == betti_number(complex_, 1) == 1


def test_kernel_window_widens_until_nonzero_eigenvalue():
    """A Laplacian whose kernel exceeds ``num_eigenvalues`` must not truncate
    the kernel: the window doubles until a non-zero eigenvalue appears."""
    # 30 disjoint edges: graph Laplacian (Δ_0) is 60x60 with a 30-dim kernel.
    blocks = [np.array([[1.0, -1.0], [-1.0, 1.0]]) for _ in range(30)]
    laplacian = sparse.block_diag(blocks, format="csr")
    backend = SparseExactBackend(dense_threshold=8, num_eigenvalues=4)
    config = QTDAConfig(precision_qubits=6, shots=None, backend="sparse-exact")
    result = _run(backend, laplacian, config)
    estimate = 2**result.num_system_qubits * result.distribution[0]
    assert int(round(estimate)) == 30


def test_partial_spectrum_is_reproducible_within_a_process():
    """Above the default dense threshold, repeated calls on one Laplacian give
    bitwise-equal eigenvalues: the Lanczos start vector is fixed, not drawn
    from ARPACK's call-history-dependent generator."""
    from repro.core.operators import as_operator

    points = 150  # 4 neighbours per side -> a 600-edge annulus
    cloud = circle_cloud(points)
    eps = 2.0 * np.sin(4.0 * np.pi / points) + 1e-9
    laplacian = combinatorial_laplacian(
        rips_complex(cloud, eps, max_dimension=2), 1, sparse_format=True
    )
    backend = SparseExactBackend()
    assert laplacian.shape[0] > backend.dense_threshold
    first, first_lam = backend._partial_eigenvalues(as_operator(laplacian), 1e-8)
    second, second_lam = backend._partial_eigenvalues(as_operator(laplacian), 1e-8)
    assert np.array_equal(first, second)
    assert first_lam == second_lam


def test_sparse_backend_rejects_asymmetric_matrices():
    mat = sparse.csr_matrix(np.triu(np.ones((40, 40))))
    backend = SparseExactBackend(dense_threshold=8)
    config = QTDAConfig(precision_qubits=3, shots=None, backend="sparse-exact")
    with pytest.raises(ValueError, match="symmetric"):
        _run(backend, mat, config)


def test_estimate_hands_sparse_laplacian_to_the_backend(appendix_k):
    """``estimate`` builds the Laplacian in the backend's ``operator_format``."""
    estimator = QTDABettiEstimator(precision_qubits=4, shots=None, delta=6.0, backend="sparse-exact")
    exact = QTDABettiEstimator(precision_qubits=4, shots=None, delta=6.0, backend="exact")
    a = estimator.estimate(appendix_k, 1)
    b = exact.estimate(appendix_k, 1)
    assert a.betti_estimate == b.betti_estimate
    assert a.exact_betti == b.exact_betti == 1


def test_sparse_backend_through_pipeline_and_batch_engine(circle_points):
    """The pipeline/batch layers pass any registered backend through unchanged."""
    from repro.core.batch import BatchFeatureEngine
    from repro.core.pipeline import PipelineConfig, QTDAPipeline

    config = PipelineConfig(
        epsilon=0.7,
        estimator=QTDAConfig(precision_qubits=4, shots=None, backend="sparse-exact"),
    )
    features = QTDAPipeline(config).features_from_point_cloud(circle_points)
    engine_features = BatchFeatureEngine(config).transform_point_clouds([circle_points])
    reference = QTDAPipeline(
        PipelineConfig(epsilon=0.7, estimator=QTDAConfig(precision_qubits=4, shots=None))
    ).features_from_point_cloud(circle_points)
    np.testing.assert_allclose(features, reference)
    np.testing.assert_allclose(engine_features[0], reference)
