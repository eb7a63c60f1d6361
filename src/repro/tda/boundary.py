"""Restricted boundary operators.

For a complex ``K_ε`` with ``S_k`` the (ordered) set of ``k``-simplices, the
restricted boundary operator ``∂_k : C_k -> C_{k-1}`` acts on a simplex
``s = [v_0, ..., v_k]`` as

    ∂_k s = Σ_t (-1)^t [v_0, ..., v_{t-1}, v_{t+1}, ..., v_k]        (Eqs. 1–2)

and is represented by the ``|S_{k-1}| x |S_k|`` matrix whose column for ``s``
has ``(-1)^t`` in the row of the face obtained by dropping ``v_t`` (compare
Eqs. 14–15 of the worked example).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.tda.complexes import ComplexArrays, SimplicialComplex
from repro.utils.validation import check_integer


def face_signs(k: int) -> np.ndarray:
    """``(-1)^t`` for faces ``t = 0..k`` of a ``k``-simplex (Eqs. 1–2)."""
    return (-1.0) ** np.arange(k + 1)


def boundary_matrix(
    complex_: SimplicialComplex | ComplexArrays, k: int, sparse_format: bool = False
) -> np.ndarray | sparse.csr_matrix:
    """The matrix of ``∂_k`` in the canonical simplex ordering of ``complex_``.

    Parameters
    ----------
    complex_:
        The simplicial complex, read through its ``.arrays``.
    k:
        Chain dimension.  ``∂_0`` is the (conventionally) zero map onto the
        trivial space, represented as a ``0 x |S_0|`` matrix.
    sparse_format:
        Return a ``scipy.sparse.csr_matrix`` instead of a dense array (useful
        for the larger random complexes of the Fig. 3 sweeps).

    Returns
    -------
    numpy.ndarray or scipy.sparse.csr_matrix
        Shape ``(|S_{k-1}|, |S_k|)``; empty dimensions give zero-sized
        matrices so that downstream rank computations handle edge cases
        uniformly.  Column ``i`` holds ``(-1)^t`` in the row of face ``t``
        of simplex ``i`` (:meth:`~repro.tda.complexes.ComplexArrays.face_rows`).
    """
    k = check_integer(k, "k", minimum=0)
    arrays = complex_.arrays
    m = arrays.num_simplices(k)
    shape = (arrays.num_simplices(k - 1), m) if k else (0, m)
    if k == 0 or m == 0:
        return sparse.csr_matrix(shape) if sparse_format else np.zeros(shape)
    rows = arrays.face_rows(k).ravel()
    cols = np.repeat(np.arange(m), k + 1)
    mat = sparse.csr_matrix((np.tile(face_signs(k), m), (rows, cols)), shape=shape)
    return mat if sparse_format else mat.toarray()


def boundary_operators(complex_: SimplicialComplex | ComplexArrays, k: int, sparse_format: bool = False):
    """The pair ``(∂_k, ∂_{k+1})`` needed to form the combinatorial Laplacian ``Δ_k``."""
    return (
        boundary_matrix(complex_, k, sparse_format=sparse_format),
        boundary_matrix(complex_, k + 1, sparse_format=sparse_format),
    )


def boundary_composition_is_zero(complex_: SimplicialComplex | ComplexArrays, k: int, atol: float = 1e-12) -> bool:
    """Check the fundamental identity ``∂_k ∘ ∂_{k+1} = 0`` for the complex."""
    if k < 1:
        return True
    d_k = boundary_matrix(complex_, k)
    d_k1 = boundary_matrix(complex_, k + 1)
    if d_k.size == 0 or d_k1.size == 0:
        return True
    return bool(np.allclose(d_k @ d_k1, 0.0, atol=atol))
