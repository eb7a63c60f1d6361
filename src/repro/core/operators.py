"""The Laplacian operator layer — one seam between matrices and backends.

A :class:`LaplacianOperator` wraps a combinatorial Laplacian, stored as a
dense array (:class:`DenseOperator`) or a CSR matrix
(:class:`SparseOperator`), behind one interface —

* ``shape`` / ``dim`` — the ``|S_k| x |S_k|`` geometry;
* ``matvec(x)`` — the only primitive an iterative backend needs;
* ``to_dense()`` / ``to_sparse()`` — explicit, on-demand format conversion;
* ``gershgorin_bound()`` — the Eq. 7 ``λ̃_max`` in whatever way is cheap for
  the format (row reductions, never a diagonalisation);
* ``trace()`` / ``frobenius_norm_squared()`` — the moment reductions the
  surrogate-spectrum and stochastic-trace backends need;
* ``fingerprint()`` — a content hash so :class:`~repro.core.hamiltonian.
  SpectrumCache` can key sparse operators without densifying them.

Each backend declares the one format it reads (``operator_format``, see
:mod:`repro.core.backends`); producers build Laplacians in that format and
:func:`as_operator` wraps raw matrices.  See DESIGN.md §9.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Tuple

import numpy as np
from scipy import sparse as _sparse

from repro.paulis.gershgorin import gershgorin_bound as _dense_gershgorin

#: The two operator formats: a dense ``ndarray`` or a CSR matrix.
DENSE, SPARSE = "dense", "sparse"


def _square_shape(shape) -> Tuple[int, int]:
    shape = tuple(int(s) for s in shape)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"operator must be square, got shape {shape}")
    return shape


class LaplacianOperator:
    """Abstract symmetric PSD linear operator over ``R^{|S_k|}``.

    Subclasses fix the native storage ``format`` and implement ``matvec``,
    ``to_dense`` and ``fingerprint``; everything else (shape bookkeeping,
    ``__matmul__`` sugar, the reductions on the dense matrix, which
    :class:`SparseOperator` overrides) lives here.
    """

    #: ``DENSE`` or ``SPARSE``; the operator's *native* storage.
    format: str = "abstract"

    def __init__(self, shape: Tuple[int, int]):
        self._shape = _square_shape(shape)

    # -- geometry ---------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return self._shape

    @property
    def dim(self) -> int:
        """``|S_k|`` — the unpadded Laplacian dimension."""
        return self._shape[0]

    # -- primitives (subclass responsibility) ------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def to_dense(self) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def to_sparse(self) -> "_sparse.csr_matrix":
        return _sparse.csr_matrix(self.to_dense())

    def fingerprint(self) -> bytes:  # pragma: no cover - abstract
        """Content hash for cache keying (memoised by the subclasses)."""
        raise NotImplementedError

    # -- derived reductions -------------------------------------------------------
    def gershgorin_bound(self) -> float:
        """Upper bound on ``λ_max`` (Eq. 7's ``λ̃_max``), format-appropriate."""
        return _dense_gershgorin(self.to_dense())

    def trace(self) -> float:
        return float(np.trace(self.to_dense()))

    def frobenius_norm_squared(self) -> float:
        """``‖Δ‖_F² = tr Δ²`` for symmetric operators — the second moment."""
        dense = self.to_dense()
        return float(np.square(dense).sum())

    # -- sugar --------------------------------------------------------------------
    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.dim}x{self.dim} format={self.format!r}>"


class DenseOperator(LaplacianOperator):
    """A dense ``ndarray``-backed Laplacian operator."""

    format = DENSE

    def __init__(self, matrix: np.ndarray):
        arr = np.ascontiguousarray(np.asarray(matrix, dtype=float))
        super().__init__(arr.shape)
        self._matrix = arr
        self._fingerprint: Optional[bytes] = None

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self._matrix @ np.asarray(x, dtype=float)

    def to_dense(self) -> np.ndarray:
        return self._matrix

    def fingerprint(self) -> bytes:
        # Memoised: operators are treated as immutable once constructed, so a
        # reused operator (e.g. across unchanged streaming windows) hashes its
        # matrix exactly once and SpectrumCache lookups become O(1).
        if self._fingerprint is None:
            digest = hashlib.sha1(self._matrix.tobytes()).digest()
            self._fingerprint = b"dense" + self.dim.to_bytes(8, "little") + digest
        return self._fingerprint


class SparseOperator(LaplacianOperator):
    """A CSR-backed Laplacian operator — reductions never densify."""

    format = SPARSE

    def __init__(self, matrix: "_sparse.spmatrix"):
        if not _sparse.issparse(matrix):
            raise TypeError("SparseOperator expects a scipy.sparse matrix")
        csr = matrix.tocsr().astype(float, copy=False)
        super().__init__(csr.shape)
        self._matrix = csr
        self._fingerprint: Optional[bytes] = None

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self._matrix @ np.asarray(x, dtype=float)

    def to_dense(self) -> np.ndarray:
        return np.ascontiguousarray(np.asarray(self._matrix.todense(), dtype=float))

    def to_sparse(self) -> "_sparse.csr_matrix":
        return self._matrix

    def fingerprint(self) -> bytes:
        # Memoised under the same immutability assumption as DenseOperator.
        if self._fingerprint is not None:
            return self._fingerprint
        # Canonicalise so that equal matrices with different internal layouts
        # (unsorted indices, explicit duplicates/zeros) hash identically.
        canonical = self._matrix.copy()
        canonical.sum_duplicates()
        canonical.eliminate_zeros()
        canonical.sort_indices()
        h = hashlib.sha1()
        h.update(np.ascontiguousarray(canonical.data, dtype=float).tobytes())
        h.update(np.ascontiguousarray(canonical.indices, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(canonical.indptr, dtype=np.int64).tobytes())
        self._fingerprint = b"sparse" + self.dim.to_bytes(8, "little") + h.digest()
        return self._fingerprint

    def gershgorin_bound(self) -> float:
        if self.dim == 0:
            return 0.0
        diag = np.asarray(self._matrix.diagonal(), dtype=float)
        row_abs = np.asarray(np.abs(self._matrix).sum(axis=1)).ravel()
        return max(float(np.max(diag + row_abs - np.abs(diag))), 0.0)

    def trace(self) -> float:
        return float(np.asarray(self._matrix.diagonal(), dtype=float).sum())

    def frobenius_norm_squared(self) -> float:
        return float(np.square(self._matrix.data).sum())


def as_operator(laplacian) -> LaplacianOperator:
    """Coerce a matrix-ish object into a :class:`LaplacianOperator`.

    Accepts an existing operator (returned unchanged), a ``scipy.sparse``
    matrix (wrapped as :class:`SparseOperator`) or anything array-like
    (wrapped as :class:`DenseOperator`).
    """
    if isinstance(laplacian, LaplacianOperator):
        return laplacian
    if _sparse.issparse(laplacian):
        return SparseOperator(laplacian)
    return DenseOperator(laplacian)
