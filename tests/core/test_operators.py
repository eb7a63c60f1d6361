"""Tests for the Laplacian operator layer (repro.core.operators)."""

import numpy as np
import pytest
from scipy import sparse

from repro.core.operators import DenseOperator, SparseOperator, as_operator
from repro.paulis.gershgorin import gershgorin_bound
from repro.tda.laplacian import (
    combinatorial_laplacian,
    laplacian_operator_from_flag_arrays,
)
from repro.tda.rips import rips_complex


@pytest.fixture()
def laplacian(appendix_k):
    return combinatorial_laplacian(appendix_k, 1)


# -- coercion --------------------------------------------------------------------

def test_as_operator_wraps_each_format(laplacian):
    dense = as_operator(laplacian)
    sparse_op = as_operator(sparse.csr_matrix(laplacian))
    assert isinstance(dense, DenseOperator) and dense.format == "dense"
    assert isinstance(sparse_op, SparseOperator) and sparse_op.format == "sparse"
    # Idempotent: an operator passes through unchanged.
    assert as_operator(dense) is dense


def test_operators_must_be_square():
    with pytest.raises(ValueError, match="square"):
        DenseOperator(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="square"):
        SparseOperator(sparse.csr_matrix((2, 3)))
    with pytest.raises(TypeError):
        SparseOperator(np.zeros((2, 2)))


# -- views are equivalent ---------------------------------------------------------

def test_all_formats_agree_on_every_view(laplacian):
    ops = [as_operator(laplacian), as_operator(sparse.csr_matrix(laplacian))]
    x = np.arange(laplacian.shape[0], dtype=float)
    expected = laplacian @ x
    for op in ops:
        assert op.shape == laplacian.shape
        assert op.dim == laplacian.shape[0]
        np.testing.assert_array_equal(op.matvec(x), expected)
        np.testing.assert_array_equal(op @ x, expected)
        np.testing.assert_array_equal(op.to_dense(), laplacian)
        np.testing.assert_array_equal(op.to_sparse().toarray(), laplacian)
        assert op.gershgorin_bound() == gershgorin_bound(laplacian)
        assert op.trace() == pytest.approx(np.trace(laplacian))
        assert op.frobenius_norm_squared() == pytest.approx(np.square(laplacian).sum())


# -- fingerprints -----------------------------------------------------------------

def test_dense_fingerprint_is_content_keyed(laplacian):
    a = DenseOperator(laplacian).fingerprint()
    b = DenseOperator(laplacian.copy()).fingerprint()
    c = DenseOperator(laplacian + np.eye(laplacian.shape[0])).fingerprint()
    assert a == b
    assert a != c


def test_sparse_fingerprint_is_layout_invariant(laplacian):
    """Equal matrices hash equally regardless of construction route/layout."""
    csr = sparse.csr_matrix(laplacian)
    coo = sparse.coo_matrix(laplacian)
    csc = sparse.csc_matrix(laplacian)
    prints = {
        SparseOperator(csr).fingerprint(),
        SparseOperator(coo).fingerprint(),
        SparseOperator(csc).fingerprint(),
    }
    assert len(prints) == 1
    # Explicitly stored zeros do not change the key.
    with_zero = sparse.csr_matrix(
        (
            np.append(coo.data, 0.0),
            (np.append(coo.row, 0), np.append(coo.col, csr.shape[0] - 1)),
        ),
        shape=csr.shape,
    )
    assert SparseOperator(with_zero).fingerprint() == SparseOperator(csr).fingerprint()
    # Different content does.
    assert SparseOperator(2.0 * csr).fingerprint() != SparseOperator(csr).fingerprint()


def test_sparse_and_dense_fingerprints_never_collide(laplacian):
    assert DenseOperator(laplacian).fingerprint() != SparseOperator(
        sparse.csr_matrix(laplacian)
    ).fingerprint()


# -- construction helpers ---------------------------------------------------------

def test_operator_returning_laplacian_helpers(appendix_k):
    op = laplacian_operator_from_flag_arrays(appendix_k, 1)
    assert op.format == "sparse"
    np.testing.assert_array_equal(op.to_dense(), combinatorial_laplacian(appendix_k, 1))
    dense_op = laplacian_operator_from_flag_arrays(appendix_k, 1, sparse_format=False)
    assert dense_op.format == "dense"
    np.testing.assert_array_equal(dense_op.to_dense(), op.to_dense())


def test_flag_array_operator_helper():
    rng = np.random.default_rng(5)
    points = rng.normal(size=(9, 3))
    complex_ = rips_complex(points, 1.4, 2)
    from repro.tda.rips import RipsComplex

    arrays = RipsComplex.from_points(points, 1.4, max_dimension=2).flag_arrays()
    for k in (0, 1):
        if complex_.num_simplices(k) == 0:
            continue
        op = laplacian_operator_from_flag_arrays(arrays, k)
        assert op.format == "sparse"
        np.testing.assert_array_equal(op.to_dense(), combinatorial_laplacian(complex_, k))
