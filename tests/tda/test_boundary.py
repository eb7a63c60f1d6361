"""Tests for restricted boundary operators (Eqs. 1–2, 14–15)."""

import numpy as np
import pytest
from scipy import sparse

from repro.tda.boundary import boundary_composition_is_zero, boundary_matrix, boundary_operators
from repro.tda.complexes import SimplicialComplex
from repro.tda.simplex import Simplex


#: ∂_1 of the worked example; rows indexed by vertices 1..5, columns by edges
#: (1,2),(1,3),(2,3),(3,4),(3,5),(4,5) in canonical order.
#:
#: Note on signs: the paper's printed Eq. 14 is the *negative* of what its own
#: definition (Eq. 1) produces for edges — Eq. 1 gives ∂[v0, v1] = [v1] - [v0],
#: while the printed matrix encodes [v0] - [v1] (its Eq. 15 for ∂_2 does follow
#: Eq. 1).  We implement Eq. 1 consistently; the overall sign of ∂_1 has no
#: effect on the combinatorial Laplacian (Eq. 17 is reproduced exactly, see
#: test_laplacian.py), so the discrepancy is purely typographical.
EXPECTED_D1 = -np.array(
    [
        [1, 1, 0, 0, 0, 0],
        [-1, 0, 1, 0, 0, 0],
        [0, -1, -1, 1, 1, 0],
        [0, 0, 0, -1, 0, 1],
        [0, 0, 0, 0, -1, -1],
    ],
    dtype=float,
)

#: ∂_2 of the worked example (Eq. 15); the single triangle (1,2,3).
EXPECTED_D2 = np.array([[1], [-1], [1], [0], [0], [0]], dtype=float)


def test_appendix_boundary_1_matches_equation_14_up_to_sign(appendix_k):
    computed = boundary_matrix(appendix_k, 1)
    assert np.array_equal(computed, EXPECTED_D1)
    # The printed Eq. 14 differs only by a global sign, which leaves the
    # Laplacian (∂_1† ∂_1 term) unchanged.
    assert np.array_equal(computed.T @ computed, EXPECTED_D1.T @ EXPECTED_D1)


def test_appendix_boundary_2_matches_equation_15(appendix_k):
    assert np.array_equal(boundary_matrix(appendix_k, 2), EXPECTED_D2)


def test_boundary_0_is_zero_map(appendix_k):
    d0 = boundary_matrix(appendix_k, 0)
    assert d0.shape == (0, 5)


def test_boundary_of_missing_dimension_is_empty(hollow_triangle):
    d2 = boundary_matrix(hollow_triangle, 2)
    assert d2.shape == (3, 0)


def test_boundary_composition_is_zero(appendix_k):
    assert boundary_composition_is_zero(appendix_k, 1)
    d1 = boundary_matrix(appendix_k, 1)
    d2 = boundary_matrix(appendix_k, 2)
    assert np.allclose(d1 @ d2, 0.0)


def test_sparse_format_matches_dense(appendix_k):
    sparse_d1 = boundary_matrix(appendix_k, 1, sparse_format=True)
    assert sparse.issparse(sparse_d1)
    assert np.array_equal(sparse_d1.toarray(), EXPECTED_D1)


def test_boundary_operators_pair(appendix_k):
    d1, d2 = boundary_operators(appendix_k, 1)
    assert d1.shape == (5, 6)
    assert d2.shape == (6, 1)


def test_each_edge_column_has_one_plus_and_one_minus(appendix_k):
    d1 = boundary_matrix(appendix_k, 1)
    for col in d1.T:
        assert sorted(col[col != 0]) == [-1, 1]


def test_negative_dimension_rejected(appendix_k):
    with pytest.raises(ValueError):
        boundary_matrix(appendix_k, -1)


def test_tetrahedron_boundary_ranks():
    complex_ = SimplicialComplex.from_maximal_simplices([(0, 1, 2, 3)])
    d1 = boundary_matrix(complex_, 1)
    d2 = boundary_matrix(complex_, 2)
    d3 = boundary_matrix(complex_, 3)
    assert d1.shape == (4, 6)
    assert d2.shape == (6, 4)
    assert d3.shape == (4, 1)
    assert np.allclose(d1 @ d2, 0.0)
    assert np.allclose(d2 @ d3, 0.0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_boundary_column_drops_one_vertex_at_a_time(k):
    """Eq. 1: column ``[v_0..v_k]`` holds ``(-1)^i`` at the face without ``v_i``."""
    complex_ = SimplicialComplex.from_maximal_simplices([(0, 1, 2, 3)])
    rows = complex_.simplex_index(k - 1)
    matrix = boundary_matrix(complex_, k)
    for column, simplex in enumerate(complex_.simplices(k)):
        expected = np.zeros(len(rows))
        for i in range(k + 1):
            face = simplex.vertices[:i] + simplex.vertices[i + 1:]
            expected[rows[Simplex(face)]] = (-1) ** i
        assert np.array_equal(matrix[:, column], expected)
