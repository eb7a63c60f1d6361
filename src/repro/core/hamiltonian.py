"""Spectral rescaling and the QTDA unitary (Eqs. 8–9).

QPE reads phases ``θ ∈ [0, 1)`` of eigenvalues ``e^{2πiθ}`` of a unitary, so
the Laplacian spectrum must be mapped into ``[0, 2π)`` before exponentiation.
The paper rescales the padded Laplacian by ``δ / λ̃_max`` with ``δ`` slightly
below ``2π``:

    H = (δ / λ̃_max) Δ̃_k,      U = e^{iH}.

Zero eigenvalues of ``Δ_k`` map to phase 0 exactly, so counting the all-zero
phase readout counts the kernel.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import sparse as _sparse
from scipy.linalg import expm

from repro.core.operators import LaplacianOperator, as_operator
from repro.core.padding import PaddedLaplacian, pad_laplacian
from repro.paulis.decompose import pauli_decompose
from repro.paulis.gershgorin import gershgorin_bound
from repro.paulis.pauli_sum import PauliSum
from repro.utils.cache import BoundedCache
from repro.utils.validation import check_symmetric


@dataclass(frozen=True)
class RescaledHamiltonian:
    """The rescaled Hamiltonian ``H`` together with its provenance.

    Attributes
    ----------
    matrix:
        Dense ``2^q x 2^q`` symmetric matrix ``H = (δ/λ̃_max) Δ̃_k``.
    padded:
        The :class:`PaddedLaplacian` it was built from.
    delta:
        The ``δ`` used for the rescaling.
    scale:
        The actual factor ``δ / λ̃_max`` applied (1.0 when ``λ̃_max = 0``).
    """

    matrix: np.ndarray
    padded: PaddedLaplacian
    delta: float
    scale: float

    @property
    def num_qubits(self) -> int:
        """System-register size ``q``."""
        return self.padded.num_qubits

    def unitary(self) -> np.ndarray:
        """The dense QTDA unitary ``U = exp(iH)``."""
        return expm(1j * self.matrix)

    def eigenphases(self, atol: float = 1e-12) -> np.ndarray:
        """QPE phases ``θ_j = λ_j(H) / 2π ∈ [0, 1)`` of the unitary's eigenvalues.

        The Laplacian is positive semi-definite, but floating-point
        eigenvalues of its kernel can come out as tiny negative numbers; left
        untreated they would wrap to phases just below 1.  They are clipped
        to exactly 0 so the kernel always reads as phase 0.
        """
        eigenvalues = np.linalg.eigvalsh(self.matrix)
        eigenvalues = np.where(np.abs(eigenvalues) <= atol, 0.0, eigenvalues)
        eigenvalues = np.clip(eigenvalues, 0.0, None)
        return (eigenvalues / (2.0 * np.pi)) % 1.0

    def pauli_decomposition(self, tol: float = 1e-10) -> PauliSum:
        """Pauli expansion of ``H`` (Eq. 19 for the worked example)."""
        return pauli_decompose(self.matrix, tol=tol)

    def zero_eigenvalue_count(self, atol: float = 1e-8) -> int:
        """Exact number of zero eigenvalues of ``H`` (ground truth for tests)."""
        eigenvalues = np.linalg.eigvalsh(self.matrix)
        return int(np.count_nonzero(np.abs(eigenvalues) <= atol))


def build_hamiltonian(
    laplacian: np.ndarray,
    delta: Optional[float] = None,
    padding: str = "identity",
) -> RescaledHamiltonian:
    """Pad and rescale a combinatorial Laplacian into the QPE Hamiltonian.

    Parameters
    ----------
    laplacian:
        The ``|S_k| x |S_k|`` combinatorial Laplacian ``Δ_k`` (dense,
        ``scipy.sparse`` or a :class:`~repro.core.operators.LaplacianOperator`;
        non-dense input is densified — the padded Hamiltonian is dense anyway).
    delta:
        Spectral scaling constant ``δ`` (defaults to ``0.9 · 2π ≈ 5.65``,
        close to the worked example's ``δ = 6``).  The margin below 2π
        matters: phases are periodic, so an eigenvalue mapped to a phase just
        below 1 is indistinguishable from phase 0 and would leak into the
        Betti count.
    padding:
        ``"identity"`` (Eq. 7) or ``"zero"`` (ablation baseline).

    Notes
    -----
    When the Laplacian is identically zero, ``λ̃_max = 0`` and no rescaling is
    needed (every eigenvalue is already 0); the scale is set to 1.
    """
    if delta is None:
        delta = 2.0 * np.pi * 0.9
    delta = float(delta)
    if not 0.0 < delta < 2.0 * np.pi:
        raise ValueError(f"delta must lie in (0, 2π), got {delta}")
    padded = pad_laplacian(_as_dense_laplacian(laplacian), mode=padding)
    if padded.lambda_max > 0:
        scale = delta / padded.lambda_max
    else:
        scale = 1.0
    matrix = scale * padded.matrix
    return RescaledHamiltonian(matrix=matrix, padded=padded, delta=delta, scale=scale)


def qtda_unitary(laplacian: np.ndarray, delta: Optional[float] = None, padding: str = "identity") -> np.ndarray:
    """One-call convenience: the dense unitary ``U = exp(iH)`` for a Laplacian."""
    return build_hamiltonian(laplacian, delta=delta, padding=padding).unitary()


# ---------------------------------------------------------------------------
# Analytical padded spectra (the fast path of the ``exact`` backend)
# ---------------------------------------------------------------------------

def _as_dense_laplacian(laplacian) -> np.ndarray:
    """Densify a Laplacian (array, sparse or operator) into a contiguous float array."""
    return as_operator(laplacian).to_dense()


def laplacian_spectrum_info(laplacian) -> Tuple[np.ndarray, float]:
    """Eigenvalues and Gershgorin bound of the *unpadded* ``|S_k| x |S_k|`` Laplacian.

    This is the expensive half of an exact-backend estimate; everything
    downstream (padding, rescaling, QPE phases) follows analytically from it
    — see :func:`padded_spectrum` and DESIGN.md §6.  Accepts dense arrays,
    ``scipy.sparse`` matrices and :class:`~repro.core.operators.
    LaplacianOperator` objects (the eigendecomposition itself is dense, so
    non-dense inputs are materialised here).
    """
    # Same validation the dense build_hamiltonian path applies: eigvalsh
    # would silently read one triangle of an asymmetric matrix.
    lap = np.asarray(check_symmetric(_as_dense_laplacian(laplacian), "laplacian"), dtype=float)
    if lap.shape[0] == 0:
        raise ValueError("Cannot diagonalise an empty (0x0) Laplacian")
    return np.linalg.eigvalsh(lap), gershgorin_bound(lap)


class SpectrumCache(BoundedCache):
    """Thread-safe LRU cache of Laplacian spectra, keyed by operator fingerprint.

    The estimator's ``exact`` backend needs only the eigenvalues of the small
    (unpadded) Laplacian; experiment drivers revisit the same Laplacians many
    times — across precision/shot settings, across ε values whose edge sets
    coincide, and across repeated windows — so caching the eigendecomposition
    removes the dominant per-estimate cost.  Cached values are exactly what
    :func:`laplacian_spectrum_info` would recompute, so cache hits are
    bit-identical to cache misses.  The eigenvalue arrays are shared by every
    lookup, so they are stored read-only.

    Keys are :meth:`~repro.core.operators.LaplacianOperator.fingerprint`
    content hashes, so sparse operators are keyed from their native storage
    — a cached sparse lookup never materialises a dense matrix.
    """

    def __init__(self, maxsize: int = 1024):
        super().__init__(maxsize)

    def spectrum(self, laplacian) -> Tuple[np.ndarray, float]:
        """(eigenvalues, Gershgorin ``λ̃_max``) of the unpadded Laplacian, cached."""
        operator = as_operator(laplacian)
        if self.maxsize <= 0:
            return laplacian_spectrum_info(operator)
        key = operator.fingerprint()
        cached = self.get(key)
        if cached is not None:
            return cached
        eigenvalues, lam = laplacian_spectrum_info(operator)
        eigenvalues.setflags(write=False)
        return self.put(key, (eigenvalues, lam))


@dataclass(frozen=True)
class PaddedSpectrum:
    """Spectral view of the padded, rescaled Hamiltonian — no ``2^q`` matrix built.

    Identity padding (Eq. 7) appends ``2^q - |S_k|`` copies of the *known*
    eigenvalue ``λ̃_max / 2`` to the Laplacian spectrum (zero padding appends
    zeros), and the rescaling multiplies every eigenvalue by ``δ / λ̃_max``.
    Both operations act on eigenvalues directly, so the padded Hamiltonian's
    eigenphases follow from the small ``|S_k| x |S_k|`` eigendecomposition
    without ever densifying or rediagonalising the ``2^q x 2^q`` matrix.
    """

    eigenvalues: np.ndarray  # of the unpadded |S_k| x |S_k| Laplacian
    lambda_max: float
    delta: float
    scale: float
    padding: str
    original_dimension: int
    num_qubits: int

    @property
    def padded_dimension(self) -> int:
        return 2**self.num_qubits

    def padded_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the padded (unscaled) Laplacian ``Δ̃_k``."""
        pad_count = self.padded_dimension - self.original_dimension
        fill = self.lambda_max / 2.0 if self.padding == "identity" else 0.0
        return np.concatenate([self.eigenvalues, np.full(pad_count, fill)])

    def hamiltonian_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of ``H = (δ / λ̃_max) Δ̃_k``."""
        return self.scale * self.padded_eigenvalues()

    def eigenphases(self, atol: float = 1e-12) -> np.ndarray:
        """QPE phases ``θ_j ∈ [0, 1)``, with the kernel clipped to exactly 0.

        Mirrors :meth:`RescaledHamiltonian.eigenphases` (same tolerance, same
        clipping) so the analytical route is interchangeable with the dense
        one.
        """
        eigenvalues = self.hamiltonian_eigenvalues()
        eigenvalues = np.where(np.abs(eigenvalues) <= atol, 0.0, eigenvalues)
        eigenvalues = np.clip(eigenvalues, 0.0, None)
        return (eigenvalues / (2.0 * np.pi)) % 1.0

    def zero_eigenvalue_count(self, atol: float = 1e-8) -> int:
        """Kernel dimension of the *unpadded* Laplacian — the exact ``β_k``."""
        return int(np.count_nonzero(np.abs(self.eigenvalues) <= atol))


def padded_spectrum(
    laplacian,
    delta: Optional[float] = None,
    padding: str = "identity",
    cache: Optional[SpectrumCache] = None,
) -> PaddedSpectrum:
    """Spectral counterpart of :func:`build_hamiltonian`.

    Diagonalises the small ``|S_k| x |S_k|`` Laplacian (given as a dense
    array, ``scipy.sparse`` matrix or :class:`~repro.core.operators.
    LaplacianOperator`) — through ``cache`` when one is supplied — and
    derives the padded, rescaled Hamiltonian's spectrum analytically instead
    of materialising the ``2^q x 2^q`` matrix.
    """
    if delta is None:
        delta = 2.0 * np.pi * 0.9
    delta = float(delta)
    if not 0.0 < delta < 2.0 * np.pi:
        raise ValueError(f"delta must lie in (0, 2π), got {delta}")
    if padding not in ("identity", "zero"):
        raise ValueError(f"Unknown padding mode {padding!r}")
    operator = as_operator(laplacian)
    dim = operator.dim
    if dim == 0:
        raise ValueError("Cannot pad an empty (0x0) Laplacian; the complex has no k-simplices")
    if cache is not None:
        eigenvalues, lam = cache.spectrum(operator)
    else:
        eigenvalues, lam = laplacian_spectrum_info(operator)
    num_qubits = max(1, int(np.ceil(np.log2(dim))))
    scale = delta / lam if lam > 0 else 1.0
    return PaddedSpectrum(
        eigenvalues=eigenvalues,
        lambda_max=lam,
        delta=delta,
        scale=scale,
        padding=padding,
        original_dimension=dim,
        num_qubits=num_qubits,
    )
