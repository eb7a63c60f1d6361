"""The ``sparse-exact`` backend — matrix-free spectral path for large complexes.

The ``exact`` backend densifies the ``|S_k| x |S_k|`` Laplacian and runs a
full ``eigvalsh``, which is cubic in ``|S_k|``; for Rips complexes with
thousands of k-simplices that dominates everything else.  This backend keeps
the Laplacian sparse and computes only the part of the spectrum that matters
for the Betti estimate:

* ``λ̃_max`` is the Gershgorin bound — row sums of a sparse matrix, never a
  diagonalisation (exactly as the dense path, Eq. 7);
* the *low* end of the spectrum — the kernel (the Betti number itself) and
  the near-zero eigenvalues whose QPE leakage dominates the estimation error
  — is computed exactly with shift-invert Lanczos
  (:func:`scipy.sparse.linalg.eigsh` at a small negative shift, so the
  factorised matrix is positive definite even though the Laplacian is
  singular).  If the whole computed window is still kernel, the window is
  doubled until a non-zero eigenvalue appears, so the kernel is never
  truncated;
* the remaining bulk eigenvalues sit far from phase 0 where the Fejér kernel
  is small; they are represented by a uniform surrogate spectrum whose mean
  and variance match the *exact* residual moments ``tr Δ_k - Σ computed`` and
  ``tr Δ_k² - Σ computed²`` (both are cheap sparse reductions — the trace and
  the squared Frobenius norm need no diagonalisation).  Spreading the bulk
  uniformly rather than concentrating it at the mean integrates over the
  Fejér kernel's oscillations, which keeps the surrogate's readout
  distribution within a few hundredths of the full-spectrum one.

Everything then feeds the existing analytic padded-spectrum machinery
(:class:`repro.core.hamiltonian.PaddedSpectrum`).  Below
``dense_threshold`` (or for dense input) the backend delegates to the dense
path, so results on paper-scale complexes are **bit-identical** to the
``exact`` backend — the benchmark gate in
``benchmarks/test_bench_sparse_backend.py`` pins both that equivalence and
the ≥3× speedup on a ~1000-simplex complex.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import identity
from scipy.sparse import linalg as _sparse_linalg

from repro.core.backends.base import BackendResult, EstimationProblem, register_backend
from repro.core.hamiltonian import PaddedSpectrum, padded_spectrum
from repro.quantum.qpe import qpe_outcome_distribution


class SparseExactBackend:
    """Partial-spectrum analytic backend for sparse Laplacians.

    Parameters
    ----------
    dense_threshold:
        Below this dimension (or for dense input) the dense
        :func:`padded_spectrum` path is used verbatim — bit-identical to the
        ``exact`` backend and faster at small sizes, where a sparse
        factorisation has nothing to amortise.
    num_eigenvalues:
        Initial size ``m`` of the exactly-computed low-spectrum window.
        Automatically doubled while the window is entirely kernel.
    shift:
        Shift ``σ < 0`` for the shift-invert factorisation; ``Δ_k - σI`` is
        positive definite for any negative shift because the Laplacian is
        positive semi-definite.
    lanczos_tol:
        Relative accuracy requested from ARPACK.  ``1e-10`` is far below the
        ``zero_eigenvalue_atol`` used to identify the kernel and markedly
        cheaper than machine precision on clustered spectra.
    """

    name = "sparse-exact"
    description = "shift-invert partial spectrum on the sparse |S_k| Laplacian (dense fallback below threshold)"
    prefers_sparse = True
    supported_formats = ("sparse", "dense")
    supports_noise = False

    def __init__(
        self,
        dense_threshold: int = 256,
        num_eigenvalues: int = 24,
        shift: float = -1e-3,
        lanczos_tol: float = 1e-10,
    ):
        if dense_threshold < 1:
            raise ValueError("dense_threshold must be positive")
        if num_eigenvalues < 1:
            raise ValueError("num_eigenvalues must be positive")
        if shift >= 0:
            raise ValueError("shift must be negative (the Laplacian itself is singular)")
        self.dense_threshold = int(dense_threshold)
        self.num_eigenvalues = int(num_eigenvalues)
        self.shift = float(shift)
        self.lanczos_tol = float(lanczos_tol)

    def run(self, problem: EstimationProblem, config, rng: np.random.Generator) -> BackendResult:
        spectrum = self._spectrum(problem, config)
        distribution = qpe_outcome_distribution(spectrum.eigenphases(), config.precision_qubits)
        return BackendResult(
            distribution=distribution,
            num_system_qubits=spectrum.num_qubits,
            lambda_max=spectrum.lambda_max,
        )

    # -- spectral machinery ----------------------------------------------------
    def _spectrum(self, problem: EstimationProblem, config) -> PaddedSpectrum:
        operator = problem.operator
        n = operator.dim
        if operator.format != "sparse" or n <= self.dense_threshold:
            return padded_spectrum(
                operator, delta=config.delta, padding=config.padding, cache=problem.spectrum_cache
            )
        partial = self._partial_eigenvalues(operator, config.zero_eigenvalue_atol)
        if partial is None:
            # Lanczos did not converge, or the window grew to the full matrix:
            # fall back to the dense path rather than return a worse answer.
            return padded_spectrum(
                operator, delta=config.delta, padding=config.padding, cache=problem.spectrum_cache
            )
        eigenvalues, lam = partial
        num_qubits = max(1, int(np.ceil(np.log2(n))))
        scale = config.delta / lam if lam > 0 else 1.0
        return PaddedSpectrum(
            eigenvalues=eigenvalues,
            lambda_max=lam,
            delta=config.delta,
            scale=scale,
            padding=config.padding,
            original_dimension=n,
            num_qubits=num_qubits,
        )

    def _partial_eigenvalues(self, operator, atol: float):
        """``(surrogate spectrum, λ̃_max)`` of the unpadded sparse Laplacian.

        ``operator`` is the problem's sparse :class:`LaplacianOperator`; the
        Gershgorin bound and the moment reductions come from it (one shared
        implementation, DESIGN.md §9).  Returns ``None`` when the sparse
        route cannot answer reliably (the caller then takes the dense
        fallback).
        """
        lap = operator.to_sparse()
        n = lap.shape[0]
        asymmetry = abs(lap - lap.T)
        if asymmetry.nnz and asymmetry.max() > 1e-10:
            raise ValueError("laplacian must be symmetric")
        lam = operator.gershgorin_bound()
        opinv = self._shift_invert_operator(lap)
        if opinv is None:
            return None

        m = min(self.num_eigenvalues, n - 2)
        while True:
            try:
                computed = _sparse_linalg.eigsh(
                    lap,
                    k=m,
                    sigma=self.shift,
                    which="LM",
                    return_eigenvectors=False,
                    tol=self.lanczos_tol,
                    OPinv=opinv,
                )
            except (_sparse_linalg.ArpackError, RuntimeError, ValueError):
                return None
            computed = np.sort(np.asarray(computed, dtype=float))
            if float(computed[-1]) > atol:
                break
            if m >= n - 2:
                # The whole window is kernel — the complex is almost entirely
                # harmonic and the partial path has no bulk left to summarise.
                return None
            m = min(n - 2, 2 * m)
        # Snap the computed kernel to exactly zero (Lanczos residuals are
        # larger than the dense path's 1e-15 noise) and clip tiny negatives.
        computed = np.where(np.abs(computed) <= atol, 0.0, np.clip(computed, 0.0, None))
        # Uniform surrogate for the bulk, matching the exact residual moments
        # tr Δ and tr Δ² — see the module docstring.
        rest = n - m
        trace1 = operator.trace()
        trace2 = operator.frobenius_norm_squared()  # ‖Δ‖_F² = tr Δ² (symmetric)
        mean = (trace1 - float(computed.sum())) / rest
        variance = max((trace2 - float(np.square(computed).sum())) / rest - mean**2, 0.0)
        half_width = float(np.sqrt(3.0 * variance))  # uniform dist: var = w²/3
        lo, hi = mean - half_width, mean + half_width
        # Keep the surrogate inside [top of the computed window, λ̃_max],
        # shifting to preserve the mean where the clip allows it.
        floor = float(computed[-1])
        shift = 0.0
        if lo < floor:
            shift = floor - lo
        elif hi > lam:
            shift = lam - hi
        lo = float(np.clip(lo + shift, floor, lam))
        hi = float(np.clip(hi + shift, floor, lam))
        bulk = np.linspace(lo, hi, rest) if rest > 1 else np.array([(lo + hi) / 2.0])
        return np.concatenate([computed, bulk]), lam

    def _shift_invert_operator(self, lap):
        """``(Δ_k - σI)^{-1}`` as a factorised operator, or ``None`` if singular.

        ``Δ_k - σI`` is symmetric positive definite, so the factorisation
        uses a symmetric fill-reducing ordering (minimum degree on ``A + Aᵀ``)
        and no partial pivoting — markedly less fill, and so cheaper Lanczos
        solves, than the general-purpose LU :func:`eigsh` builds on its own.
        One factorisation serves every window doubling.
        """
        n = lap.shape[0]
        shifted = (lap - self.shift * identity(n, format="csc")).tocsc()
        try:
            lu = _sparse_linalg.splu(
                shifted,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except RuntimeError:
            return None
        return _sparse_linalg.LinearOperator((n, n), matvec=lu.solve, dtype=float)


register_backend(SparseExactBackend.name, SparseExactBackend())
