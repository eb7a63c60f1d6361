"""Property-based tests for the TDA substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from complex_oracle import oracle_boundary, oracle_laplacian, oracle_levels
from repro.core.estimator import QTDABettiEstimator
from repro.core.hamiltonian import build_hamiltonian
from repro.core.padding import pad_laplacian
from repro.tda.betti import betti_number, betti_numbers, euler_characteristic
from repro.tda.boundary import boundary_matrix
from repro.tda.complexes import SimplicialComplex
from repro.tda.homology import betti_number_gf2, betti_numbers_gf2
from repro.tda.laplacian import combinatorial_laplacian
from repro.tda.random_complexes import random_simplicial_complex
from repro.tda.rips import flag_complex_arrays

complex_params = st.tuples(
    st.integers(min_value=3, max_value=9),      # number of vertices
    st.floats(min_value=0.1, max_value=0.9),    # edge probability
    st.integers(min_value=0, max_value=2**31 - 1),  # seed
)


@settings(max_examples=30, deadline=None)
@given(complex_params)
def test_boundary_squared_is_zero(params):
    n, p, seed = params
    complex_ = random_simplicial_complex(n, edge_probability=p, seed=seed, ensure_nontrivial=False)
    for k in range(1, complex_.dimension + 1):
        d_k = boundary_matrix(complex_, k)
        d_k1 = boundary_matrix(complex_, k + 1)
        if d_k.size and d_k1.size:
            assert np.allclose(d_k @ d_k1, 0.0)


@settings(max_examples=30, deadline=None)
@given(complex_params, st.integers(min_value=1, max_value=50), st.integers(min_value=0, max_value=100))
def test_builders_match_the_per_simplex_oracle(params, scale, offset):
    """∂_k and Δ_k of a complex with labels ``scale·v + offset`` equal the oracle's."""
    n, p, seed = params
    clique = random_simplicial_complex(n, edge_probability=p, seed=seed, ensure_nontrivial=False)
    simplices = [tuple(scale * v + offset for v in s.vertices) for s in clique.simplices()]
    complex_ = SimplicialComplex(simplices[::-1])
    levels = oracle_levels(simplices)
    for k in range(complex_.dimension + 2):
        expected = oracle_boundary(levels, k).toarray().astype(float)
        assert np.array_equal(boundary_matrix(complex_, k), expected)
        assert np.array_equal(boundary_matrix(complex_, k, sparse_format=True).toarray(), expected)
        expected = oracle_laplacian(levels, k)
        assert combinatorial_laplacian(complex_, k).tobytes() == expected.tobytes()
        assert np.array_equal(combinatorial_laplacian(complex_, k, sparse_format=True).toarray(), expected)


@settings(max_examples=30, deadline=None)
@given(complex_params)
def test_euler_poincare_identity(params):
    n, p, seed = params
    complex_ = random_simplicial_complex(n, edge_probability=p, seed=seed, ensure_nontrivial=False)
    numbers = betti_numbers(complex_)
    assert euler_characteristic(complex_) == sum((-1) ** k * b for k, b in enumerate(numbers))


@settings(max_examples=20, deadline=None)
@given(complex_params)
def test_betti_methods_agree(params):
    n, p, seed = params
    complex_ = random_simplicial_complex(n, edge_probability=p, seed=seed, ensure_nontrivial=False)
    rank_betti = betti_numbers(complex_, method="rank")
    laplacian_betti = betti_numbers(complex_, method="laplacian")
    gf2_betti = betti_numbers_gf2(complex_)
    assert rank_betti == laplacian_betti == gf2_betti


@settings(max_examples=30, deadline=None)
@given(complex_params)
def test_estimator_exact_betti_is_rank_and_gf2_betti(params):
    """The estimator's kernel count equals both classical Betti numbers, in both forms."""
    n, p, seed = params
    complex_ = random_simplicial_complex(n, edge_probability=p, seed=seed, ensure_nontrivial=False)
    # The random complex is the clique complex of its 1-skeleton: rebuild it as flag arrays.
    distances = np.full((n, n), 2.0)
    np.fill_diagonal(distances, 0.0)
    for edge in complex_.simplices(1):
        i, j = edge.vertices
        distances[i, j] = distances[j, i] = 0.5
    arrays = flag_complex_arrays(distances, 1.0, max_dimension=2)
    assert arrays == complex_.arrays
    estimator = QTDABettiEstimator(precision_qubits=3, shots=None)
    for k in range(4):
        expected = betti_number(complex_, k)
        assert betti_number_gf2(complex_, k) == expected
        for representation in (complex_, arrays):
            assert estimator.estimate(representation, k).exact_betti == expected


@settings(max_examples=20, deadline=None)
@given(complex_params)
def test_laplacian_is_psd_and_padding_preserves_kernel(params):
    n, p, seed = params
    complex_ = random_simplicial_complex(n, edge_probability=p, seed=seed)
    k = 1
    if complex_.num_simplices(k) == 0:
        return
    laplacian = combinatorial_laplacian(complex_, k)
    eigenvalues = np.linalg.eigvalsh(laplacian)
    assert eigenvalues.min() >= -1e-8
    padded = pad_laplacian(laplacian)
    padded_zeros = int(np.count_nonzero(np.abs(np.linalg.eigvalsh(padded.matrix)) < 1e-8))
    true_zeros = int(np.count_nonzero(np.abs(eigenvalues) < 1e-8))
    if padded.lambda_max > 0:
        assert padded_zeros == true_zeros


@settings(max_examples=15, deadline=None)
@given(complex_params)
def test_exact_infinite_precision_limit_recovers_betti(params):
    """With enough precision qubits the exact-backend estimate converges on β_k."""
    n, p, seed = params
    complex_ = random_simplicial_complex(n, edge_probability=p, seed=seed)
    k = 1
    if complex_.num_simplices(k) == 0:
        return
    laplacian = combinatorial_laplacian(complex_, k)
    hamiltonian = build_hamiltonian(laplacian)
    betti = betti_numbers(complex_)[k] if k < len(betti_numbers(complex_)) else 0
    assert hamiltonian.zero_eigenvalue_count() == betti
