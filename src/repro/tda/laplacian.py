"""Combinatorial Laplacians.

The ``k``-th combinatorial Laplacian of a complex is

    Δ_k = ∂_k† ∂_k + ∂_{k+1} ∂_{k+1}†                    (Eq. 5)

a real, symmetric, positive semi-definite ``|S_k| x |S_k|`` matrix whose
kernel dimension equals the ``k``-th Betti number (Eq. 6).  The QTDA
algorithm estimates exactly that kernel dimension with QPE.
:func:`combinatorial_laplacian` is the one builder: it reads the
:class:`~repro.tda.complexes.ComplexArrays` of any complex (``.arrays``),
explicit or built from a point cloud.

``Δ_0``, the graph Laplacian, is filled directly.  Above ``k = 0`` every
face's row is found once (:meth:`ComplexArrays.face_rows`) and the build
takes one of two routes.  A dense ``Δ_k`` is scattered straight from face
pairs into one preallocated array: no boundary matrix, no sparse product,
no ``todense``.  A CSR ``Δ_k`` is the sparse product of boundary matrices
built from the same rows.  Every entry is a small integer, so both formats
hold the same matrix exactly.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.tda.boundary import boundary_matrix, face_signs
from repro.tda.complexes import ComplexArrays, SimplicialComplex
from repro.utils.validation import check_integer


def combinatorial_laplacian(
    complex_: SimplicialComplex | ComplexArrays, k: int, sparse_format: bool = False
) -> np.ndarray | sparse.csr_matrix:
    """The combinatorial Laplacian ``Δ_k`` of ``complex_`` (read through its ``.arrays``).

    Returns a ``|S_k| x |S_k|`` matrix; when the complex has no
    ``k``-simplices the result is a ``0 x 0`` matrix (and ``β_k = 0``).
    """
    k = check_integer(k, "k", minimum=0)
    arrays = complex_.arrays
    n = arrays.num_vertices
    num_k = arrays.num_simplices(k)
    if num_k == 0:
        return sparse.csr_matrix((0, 0)) if sparse_format else np.zeros((0, 0))
    if k == 0:
        # ∂_1 ∂_1ᵀ is the graph Laplacian: vertex degrees on the diagonal,
        # -1 per edge — two fancy assignments, cheaper here than the
        # face-pair scatter (same integer entries either way).
        edges = arrays.simplices(1)
        dense = np.zeros((n, n))
        if len(edges):
            dense[edges[:, 0], edges[:, 1]] = -1.0
            dense[edges[:, 1], edges[:, 0]] = -1.0
            degrees = np.bincount(edges.reshape(-1), minlength=n).astype(float)
            np.fill_diagonal(dense, degrees)
        if sparse_format:
            return sparse.csr_matrix(dense)
        return dense
    if not sparse_format:
        return _scatter_laplacian(arrays, k)
    d_k = boundary_matrix(arrays, k, sparse_format=True)
    lap = (d_k.T @ d_k).tocsr()
    if arrays.num_simplices(k + 1):
        d_k1 = boundary_matrix(arrays, k + 1, sparse_format=True)
        lap = (lap + d_k1 @ d_k1.T).tocsr()
    return lap


def _scatter_laplacian(arrays: ComplexArrays, k: int) -> np.ndarray:
    """Dense ``Δ_k``, ``k >= 1``, scattered from face pairs with no boundary matrix.

    ``∂_{k+1} ∂_{k+1}ᵀ`` adds ``(-1)^(s+t)`` at ``(r_s, r_t)`` for faces
    ``s, t`` of each ``(k+1)``-simplex; ``∂_kᵀ ∂_k`` does the same for every
    two ``k``-simplices that share a ``(k-1)``-face.  Every entry is a small
    integer, so the summation order cannot change a bit.
    """
    n = arrays.num_simplices(k)
    lap = np.zeros((n, n))
    flat = lap.reshape(-1)
    if arrays.num_simplices(k + 1):
        rows = arrays.face_rows(k + 1)
        signs = face_signs(k + 1)
        index = rows[:, :, None] * n + rows[:, None, :]
        np.add.at(flat, index.ravel(), np.tile(np.outer(signs, signs).ravel(), len(rows)))
    faces = arrays.face_rows(k).ravel()  # slot s is face s % (k+1) of simplex s // (k+1)
    left, right = _pairs_of_equal(faces)
    signs = np.tile(face_signs(k), n)
    np.add.at(flat, (left // (k + 1)) * n + right // (k + 1), signs[left] * signs[right])
    return lap


def _pairs_of_equal(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every ordered pair ``(i, j)`` with ``keys[i] == keys[j]``, ``i == j`` included."""
    order = np.argsort(keys, kind="stable")
    starts = np.flatnonzero(np.diff(keys[order], prepend=-1))
    sizes = np.diff(starts, append=len(keys))
    # Sorted slot p is repeated once per member of its group; its run of
    # pairs starts at cumsum(width)[p] - width[p] and walks the group from
    # its first slot, so ``right`` is that position minus a per-run shift.
    width = np.repeat(sizes, sizes)
    shift = np.cumsum(width) - width - np.repeat(starts, sizes)
    right = np.arange(width.sum()) - np.repeat(shift, width)
    return np.repeat(order, width), order[right]


def laplacian_operator_from_flag_arrays(arrays: SimplicialComplex | ComplexArrays, k: int, sparse_format: bool = True):
    """:func:`combinatorial_laplacian` wrapped as a :class:`repro.core.operators.LaplacianOperator`.

    The batch engine builds every point-cloud Laplacian through it.
    """
    # Imported lazily: repro.tda must stay importable without repro.core.
    from repro.core.operators import as_operator

    return as_operator(combinatorial_laplacian(arrays, k, sparse_format=sparse_format))


def laplacian_spectrum(complex_: SimplicialComplex | ComplexArrays, k: int) -> np.ndarray:
    """Sorted eigenvalues of ``Δ_k`` (empty array when there are no ``k``-simplices)."""
    lap = combinatorial_laplacian(complex_, k)
    if lap.shape[0] == 0:
        return np.zeros(0)
    return np.linalg.eigvalsh(lap)


def laplacian_kernel_dimension(complex_: SimplicialComplex | ComplexArrays, k: int, atol: float = 1e-8) -> int:
    """Number of (numerically) zero eigenvalues of ``Δ_k`` — the Betti number ``β_k``."""
    spectrum = laplacian_spectrum(complex_, k)
    return int(np.count_nonzero(np.abs(spectrum) <= atol))


def hodge_decomposition_ranks(complex_: SimplicialComplex | ComplexArrays, k: int, atol: float = 1e-8) -> dict:
    """Ranks of the Hodge decomposition ``C_k = im ∂_{k+1} ⊕ im ∂_k† ⊕ ker Δ_k``.

    Returned as a dictionary with keys ``"gradient"`` (rank ∂_k),
    ``"curl"`` (rank ∂_{k+1}) and ``"harmonic"`` (dim ker Δ_k = β_k); their sum
    equals ``|S_k|``, which the property tests verify.
    """
    d_k = boundary_matrix(complex_, k)
    d_k1 = boundary_matrix(complex_, k + 1)
    rank_k = int(np.linalg.matrix_rank(d_k, tol=atol)) if d_k.size else 0
    rank_k1 = int(np.linalg.matrix_rank(d_k1, tol=atol)) if d_k1.size else 0
    harmonic = complex_.num_simplices(k) - rank_k - rank_k1
    return {"gradient": rank_k, "curl": rank_k1, "harmonic": int(harmonic)}
