"""Tests for the QPE-based Betti estimator (Eqs. 10–11)."""

import numpy as np
import pytest
from scipy import sparse

from repro.core.config import QTDAConfig
from repro.core.estimator import BettiEstimate, QTDABettiEstimator
from repro.core.hamiltonian import SpectrumCache
from repro.tda.betti import betti_number
from repro.tda.complexes import SimplicialComplex
from repro.tda.homology import betti_number_gf2
from repro.tda.laplacian import combinatorial_laplacian
from repro.tda.rips import RipsComplex, rips_complex


def test_appendix_worked_example_estimate(appendix_k):
    """β̃_1 rounds to the correct value β_1 = 1 (Appendix A result)."""
    estimator = QTDABettiEstimator(precision_qubits=3, shots=1000, delta=6.0, seed=5)
    result = estimator.estimate(appendix_k, 1)
    assert result.exact_betti == 1
    assert result.betti_rounded == 1
    assert 0.5 < result.betti_estimate < 1.7
    assert result.lambda_max == pytest.approx(6.0)


def test_infinite_shots_uses_exact_probability(appendix_k):
    estimator = QTDABettiEstimator(precision_qubits=4, shots=None, delta=6.0)
    result = estimator.estimate(appendix_k, 1)
    assert result.counts == {}
    assert result.betti_estimate == pytest.approx(8 * result.p_zero)


def test_estimate_beta_zero(appendix_k, two_components):
    estimator = QTDABettiEstimator(precision_qubits=6, shots=None)
    assert estimator.estimate(appendix_k, 0).betti_rounded == 1
    assert estimator.estimate(two_components, 0).betti_rounded == 2


def test_error_decreases_with_precision(appendix_k):
    errors = []
    for t in (1, 3, 6):
        result = QTDABettiEstimator(precision_qubits=t, shots=None, delta=6.0).estimate(appendix_k, 1)
        errors.append(result.absolute_error)
    assert errors[0] >= errors[1] >= errors[2]
    assert errors[2] < 0.2


def test_no_k_simplices_short_circuit(hollow_triangle):
    estimator = QTDABettiEstimator(precision_qubits=3, shots=100)
    result = estimator.estimate(hollow_triangle, 2)
    assert result.betti_estimate == 0.0
    assert result.num_system_qubits == 0
    assert result.exact_betti == 0


def test_no_k_simplices_without_compute_exact_reports_no_ground_truth(hollow_triangle):
    """Regression: the num_k == 0 path must not invent exact_betti=0 when
    compute_exact=False — absolute_error would then claim a ground truth
    that was never computed."""
    estimator = QTDABettiEstimator(precision_qubits=3, shots=100)
    result = estimator.estimate(hollow_triangle, 2, compute_exact=False)
    assert result.exact_betti is None
    assert result.absolute_error is None
    assert result.rounded_error is None


def test_estimate_from_laplacian_directly(appendix_k):
    laplacian = combinatorial_laplacian(appendix_k, 1)
    estimator = QTDABettiEstimator(precision_qubits=4, shots=None, delta=6.0)
    result = estimator.estimate_from_laplacian(laplacian, exact_betti=1)
    assert result.exact_betti == 1
    assert result.absolute_error is not None
    assert result.rounded_error == 0


def test_estimate_requires_complex_type():
    estimator = QTDABettiEstimator()
    with pytest.raises(TypeError):
        estimator.estimate(np.eye(4), 1)


@pytest.mark.parametrize("backend", ["exact", "statevector"])
def test_estimate_from_laplacian_rejects_asymmetric_matrices(backend):
    """Every backend validates symmetry — eigvalsh would silently read one
    triangle of a garbage matrix on the exact fast path."""
    estimator = QTDABettiEstimator(precision_qubits=3, shots=None, backend=backend)
    with pytest.raises(ValueError, match="symmetric"):
        estimator.estimate_from_laplacian(np.array([[1.0, 5.0], [0.0, 1.0]]))


@pytest.mark.parametrize("backend", ["exact", "statevector"])
def test_estimate_from_laplacian_accepts_sparse_input(appendix_k, backend):
    laplacian = sparse.csr_matrix(combinatorial_laplacian(appendix_k, 1))
    estimator = QTDABettiEstimator(precision_qubits=4, shots=None, delta=6.0, backend=backend)
    assert estimator.estimate_from_laplacian(laplacian).betti_rounded == 1


def test_shot_sampling_reproducible_with_seed(appendix_k):
    a = QTDABettiEstimator(precision_qubits=3, shots=500, seed=11).estimate(appendix_k, 1)
    b = QTDABettiEstimator(precision_qubits=3, shots=500, seed=11).estimate(appendix_k, 1)
    assert a.betti_estimate == b.betti_estimate
    assert a.counts == b.counts


def test_estimate_betti_numbers_multiple_dimensions(appendix_k):
    estimator = QTDABettiEstimator(precision_qubits=4, shots=None)
    results = estimator.estimate_betti_numbers(appendix_k, [0, 1])
    assert [r.betti_rounded for r in results] == [1, 1]


@pytest.mark.parametrize("max_dimension", [1, 2, 3, 4])
def test_exact_betti_is_rank_and_gf2_betti_on_rips_complexes(max_dimension):
    """``exact_betti`` (a kernel count) equals both classical Betti numbers on Rips complexes,
    from the object complex and from the flag arrays alike."""
    rng = np.random.default_rng(40 + max_dimension)
    estimator = QTDABettiEstimator(precision_qubits=3, shots=None)
    for _ in range(8):
        points = rng.normal(size=(int(rng.integers(3, 12)), 3))
        rips = RipsComplex.from_points(points, float(rng.uniform(0.5, 2.5)), max_dimension)
        complex_ = rips.complex()
        for k in range(max_dimension + 1):
            expected = betti_number(complex_, k)
            assert betti_number_gf2(complex_, k) == expected
            for representation in (complex_, rips.flag_arrays()):
                assert estimator.estimate(representation, k).exact_betti == expected


def test_exact_betti_reads_the_spectrum_cache(appendix_k):
    """The kernel count and the exact backend share one eigendecomposition."""
    cache = SpectrumCache()
    estimate = QTDABettiEstimator(precision_qubits=3, shots=None, spectrum_cache=cache).estimate(
        appendix_k, 1
    )
    assert estimate.exact_betti == 1
    assert (cache.hits, cache.misses) == (1, 1)


def test_rips_pipeline_circle(circle_points):
    """The circle's loop is found, but only once the precision register can
    resolve the circle Laplacian's small non-zero eigenvalues — the same
    precision-dependence the paper's Fig. 3 reports."""
    complex_ = rips_complex(circle_points, 0.7, max_dimension=2)
    coarse = QTDABettiEstimator(precision_qubits=4, shots=None).estimate(complex_, 1)
    fine = QTDABettiEstimator(precision_qubits=8, shots=None).estimate(complex_, 1)
    assert fine.absolute_error < coarse.absolute_error
    assert fine.betti_rounded == 1


def test_zero_padding_overestimates_without_correction(appendix_k):
    """The ablation the paper motivates: zero padding inflates β̃ by the padding count."""
    identity = QTDABettiEstimator(precision_qubits=6, shots=None, delta=6.0, padding="identity")
    zero = QTDABettiEstimator(precision_qubits=6, shots=None, delta=6.0, padding="zero")
    est_identity = identity.estimate(appendix_k, 1)
    est_zero = zero.estimate(appendix_k, 1)
    assert est_identity.betti_rounded == 1
    assert est_zero.betti_rounded == pytest.approx(1 + 2)  # 2 spurious zeros from padding


def test_config_and_overrides():
    config = QTDAConfig(precision_qubits=2, shots=10)
    estimator = QTDABettiEstimator(config, shots=50)
    assert estimator.config.shots == 50
    assert estimator.config.precision_qubits == 2


def test_as_dict_contains_key_fields(appendix_k):
    result = QTDABettiEstimator(precision_qubits=3, shots=None).estimate(appendix_k, 1)
    data = result.as_dict()
    assert set(data) >= {"betti_estimate", "p_zero", "backend", "absolute_error"}


def test_betti_estimate_error_properties():
    estimate = BettiEstimate(
        betti_estimate=1.2,
        betti_rounded=1,
        p_zero=0.15,
        num_system_qubits=3,
        precision_qubits=3,
        shots=100,
        backend="exact",
        exact_betti=None,
    )
    assert estimate.absolute_error is None
    assert estimate.rounded_error is None
