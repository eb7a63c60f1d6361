"""Combinatorial Laplacians.

The ``k``-th combinatorial Laplacian of a complex is

    Δ_k = ∂_k† ∂_k + ∂_{k+1} ∂_{k+1}†                    (Eq. 5)

a real, symmetric, positive semi-definite ``|S_k| x |S_k|`` matrix whose
kernel dimension equals the ``k``-th Betti number (Eq. 6).  The QTDA
algorithm estimates exactly that kernel dimension with QPE.
:func:`combinatorial_laplacian` builds it from a :class:`SimplicialComplex`,
:func:`laplacian_from_flag_arrays` from the arrays every point cloud becomes.

Above ``k = 0`` (the graph Laplacian, filled directly) the array builder
finds every face's row once (``_face_rows``) and then takes one of two
routes.  A dense ``Δ_k`` is scattered straight from face pairs into one
preallocated array: no boundary matrix, no sparse product, no ``todense``.
A CSR ``Δ_k`` keeps the sparse products of boundary matrices built from the
same rows.  Both produce the same small-integer entries as the object path,
so the dense matrices are byte-identical.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.tda.boundary import boundary_matrix
from repro.tda.complexes import SimplicialComplex
from repro.utils.validation import check_integer


def combinatorial_laplacian(complex_: SimplicialComplex, k: int, sparse_format: bool = False) -> np.ndarray | sparse.csr_matrix:
    """The combinatorial Laplacian ``Δ_k`` of ``complex_``.

    Returns a ``|S_k| x |S_k|`` matrix; when the complex has no
    ``k``-simplices the result is a ``0 x 0`` matrix (and ``β_k = 0``).
    """
    k = check_integer(k, "k", minimum=0)
    num_k = complex_.num_simplices(k)
    if num_k == 0:
        return sparse.csr_matrix((0, 0)) if sparse_format else np.zeros((0, 0))
    d_k = boundary_matrix(complex_, k, sparse_format=True)
    d_k1 = boundary_matrix(complex_, k + 1, sparse_format=True)
    down = d_k.T @ d_k if d_k.shape[0] > 0 else sparse.csr_matrix((num_k, num_k))
    up = d_k1 @ d_k1.T if d_k1.shape[1] > 0 else sparse.csr_matrix((num_k, num_k))
    lap = (down + up).tocsr()
    if sparse_format:
        return lap
    return np.asarray(lap.todense(), dtype=float)


def laplacian_from_flag_arrays(arrays, k: int, sparse_format: bool = False) -> np.ndarray | sparse.csr_matrix:
    """``Δ_k`` straight from :class:`repro.tda.rips.FlagComplexArrays`.

    The array representation keeps the lexicographic simplex order of
    :class:`SimplicialComplex`, so this returns *exactly* the matrix
    :func:`combinatorial_laplacian` would build from the equivalent complex —
    without per-simplex Python objects.
    """
    k = check_integer(k, "k", minimum=0)
    n = arrays.num_points
    num_k = arrays.num_simplices(k)
    if num_k == 0:
        return sparse.csr_matrix((0, 0)) if sparse_format else np.zeros((0, 0))
    if k == 0:
        # ∂_1 ∂_1ᵀ is the graph Laplacian: vertex degrees on the diagonal,
        # -1 per edge — two fancy assignments, cheaper here than the
        # face-pair scatter (same integer entries either way).
        edges = arrays.edges
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
    d_k = _flag_boundary(arrays, k)
    lap = (d_k.T @ d_k).tocsr()
    if arrays.num_simplices(k + 1):
        d_k1 = _flag_boundary(arrays, k + 1)
        lap = (lap + d_k1 @ d_k1.T).tocsr()
    return lap


def _scatter_laplacian(arrays, k: int) -> np.ndarray:
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
        rows = _face_rows(arrays, k + 1)
        signs = _face_signs(k + 1)
        index = rows[:, :, None] * n + rows[:, None, :]
        np.add.at(flat, index.ravel(), np.tile(np.outer(signs, signs).ravel(), len(rows)))
    faces = _face_rows(arrays, k).ravel()  # slot s is face s % (k+1) of simplex s // (k+1)
    left, right = _pairs_of_equal(faces)
    signs = np.tile(_face_signs(k), n)
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


def _face_signs(k: int) -> np.ndarray:
    """``(-1)^t`` for faces ``t = 0..k`` of a ``k``-simplex (Eqs. 1–2)."""
    return (-1.0) ** np.arange(k + 1)


def _face_rows(arrays, k: int) -> np.ndarray:
    """Row of each face among the ``(k-1)``-simplices, shape ``(|S_k|, k+1)``, ``k >= 1``.

    Column ``t`` holds the face that drops vertex ``t``.  At ``k = 1`` the
    faces are vertex ids; above that, each face is looked up among the sorted
    ``(k-1)``-simplices.
    """
    simplices = arrays.simplices(k)
    if k == 1:
        return simplices[:, ::-1]
    keep = [[c for c in range(k + 1) if c != t] for t in range(k + 1)]
    faces = simplices[:, keep].reshape(-1, k)  # face t of simplex i is row i·(k+1) + t
    return _row_index(arrays.simplices(k - 1), faces, arrays.num_points).reshape(len(simplices), k + 1)


def _flag_boundary(arrays, k: int) -> sparse.csr_matrix:
    """``∂_k`` (shape ``(|S_{k-1}|, |S_k|)``) of flag arrays, for ``k >= 1``."""
    rows = _face_rows(arrays, k)
    m = len(rows)
    cols = np.repeat(np.arange(m), k + 1)
    data = np.tile(_face_signs(k), m)
    return sparse.csr_matrix((data, (rows.ravel(), cols)), shape=(arrays.num_simplices(k - 1), m))


def _row_index(rows: np.ndarray, queries: np.ndarray, num_points: int) -> np.ndarray:
    """Positions of ``queries`` (each one of the rows) in the sorted ``rows``.

    A prefix is keyed by the rank of its shorter prefix times ``num_points``
    plus its last vertex, so keys stay below ``len(rows) · num_points``:
    exact where a base-``num_points`` code of a whole row overflows int64.
    """
    keys, query_keys = rows[:, 0], queries[:, 0]
    for c in range(1, rows.shape[1]):
        if c > 1:
            ranks = np.concatenate(([0], np.cumsum(keys[1:] != keys[:-1])))
            keys, query_keys = ranks, ranks[np.searchsorted(keys, query_keys)]
        keys = keys * num_points + rows[:, c]
        query_keys = query_keys * num_points + queries[:, c]
    return np.searchsorted(keys, query_keys)


def combinatorial_laplacian_operator(complex_: SimplicialComplex, k: int, sparse_format: bool = True):
    """``Δ_k`` wrapped as a :class:`repro.core.operators.LaplacianOperator`.

    The operator-returning variant of :func:`combinatorial_laplacian`, in the
    format the caller names (sparse CSR by default: the boundary products
    are built sparse anyway, so the sparse operator is the zero-copy view).
    """
    # Imported lazily: repro.tda must stay importable without repro.core.
    from repro.core.operators import as_operator

    return as_operator(combinatorial_laplacian(complex_, k, sparse_format=sparse_format))


def laplacian_operator_from_flag_arrays(arrays, k: int, sparse_format: bool = True):
    """Operator-returning variant of :func:`laplacian_from_flag_arrays`."""
    from repro.core.operators import as_operator

    return as_operator(laplacian_from_flag_arrays(arrays, k, sparse_format=sparse_format))


def laplacian_spectrum(complex_: SimplicialComplex, k: int) -> np.ndarray:
    """Sorted eigenvalues of ``Δ_k`` (empty array when there are no ``k``-simplices)."""
    lap = combinatorial_laplacian(complex_, k)
    if lap.shape[0] == 0:
        return np.zeros(0)
    return np.linalg.eigvalsh(lap)


def laplacian_kernel_dimension(complex_: SimplicialComplex, k: int, atol: float = 1e-8) -> int:
    """Number of (numerically) zero eigenvalues of ``Δ_k`` — the Betti number ``β_k``."""
    spectrum = laplacian_spectrum(complex_, k)
    return int(np.count_nonzero(np.abs(spectrum) <= atol))


def hodge_decomposition_ranks(complex_: SimplicialComplex, k: int, atol: float = 1e-8) -> dict:
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
