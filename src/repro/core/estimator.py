"""The QPE-based Betti-number estimator (Eqs. 10–11).

:class:`QTDABettiEstimator` ties the whole Section 3 pipeline together:
Laplacian -> padding -> rescaling -> (circuit or analytical) QPE with a
maximally mixed input -> probability of the all-zero phase readout ->
``β̃_k = 2^q · p(0)``.

Execution is delegated to the pluggable backend registry
(:mod:`repro.core.backends`, DESIGN.md §5): the configured ``backend`` name
is resolved through :func:`repro.core.backends.get_backend`, the backend
returns the precision-register readout distribution, and the estimator
derives ``p(0)`` from it — exactly for infinite shots, by multinomial
sampling otherwise, so finite-shot behaviour is identical across backends.
The exact ``β_k`` reported alongside is :func:`kernel_dimension` of the same
Laplacian, read through the spectrum cache the spectral backends share.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.backends import EstimationProblem, get_backend
from repro.core.config import QTDAConfig
from repro.core.hamiltonian import SpectrumCache, laplacian_spectrum_info
from repro.quantum.measurement import sample_counts
from repro.tda.complexes import ComplexArrays, SimplicialComplex
from repro.tda.laplacian import combinatorial_laplacian
from repro.utils.rng import as_rng
from repro.utils.validation import check_integer


def kernel_dimension(laplacian, atol: float, cache: Optional[SpectrumCache] = None) -> int:
    """Number of eigenvalues of ``Δ_k`` with ``|λ| <= atol`` — the exact ``β_k`` (Eq. 6).

    The spectrum is read through ``cache`` when one is given, so a backend
    that diagonalises the same Laplacian afterwards finds it there.
    """
    if laplacian.shape[0] == 0:
        return 0
    if cache is not None:
        eigenvalues = cache.spectrum(laplacian)[0]
    else:
        eigenvalues = laplacian_spectrum_info(laplacian)[0]
    return int(np.count_nonzero(np.abs(eigenvalues) <= atol))


@dataclass
class BettiEstimate:
    """Result of one Betti-number estimation.

    Attributes
    ----------
    betti_estimate:
        The raw rational estimate ``β̃_k = 2^q · p(0)`` (Eq. 11).
    betti_rounded:
        ``β̃_k`` rounded to the nearest integer (what the paper reports as
        "the correct value" in the worked example).
    p_zero:
        Probability (exact or empirical) of the all-zero phase readout.
    num_system_qubits:
        ``q``, so that ``betti_estimate = 2**num_system_qubits * p_zero``.
    precision_qubits, shots, backend:
        Echo of the configuration used.
    exact_betti:
        Classically computed ``β_k``, the kernel count of ``Δ_k`` (only
        populated when asked for); used for error reporting à la Eq. 12.
    counts:
        Raw measurement counts of the precision register (empty for
        infinite-shot runs).
    lambda_max, delta:
        Spectral-scaling provenance.
    betti_std:
        One standard error of ``β̃_k`` as reported by a *stochastic* backend
        (``2^q`` times the backend's ``p(0)`` standard error; the
        ``stochastic-trace`` backend's Hutchinson sampling error).  ``None``
        for deterministic backends.  Shot noise is *not* included — it is
        identical across backends and already visible through ``counts``.
    engine_route, fused_gates, n_trajectories, noise_spec:
        The circuit route facts, filled from
        :attr:`BackendResult.route <repro.core.backends.BackendResult>`: the
        concrete route the circuit backend took
        (``"ensemble"``/``"ptm"``/``"trajectory"``), the post-fusion block
        count (fused gates on the ensemble engine, fused superoperators on
        the PTM route), the number of stochastic Kraus-trajectory
        repetitions (``trajectory`` route) and the JSON-safe resolved
        :class:`~repro.quantum.channels.NoiseSpec` the run executed under.
        ``None`` where they do not apply (non-circuit backends, noiseless
        runs).
    """

    betti_estimate: float
    betti_rounded: int
    p_zero: float
    num_system_qubits: int
    precision_qubits: int
    shots: Optional[int]
    backend: str
    exact_betti: Optional[int] = None
    counts: Dict[str, int] = field(default_factory=dict)
    lambda_max: float = 0.0
    delta: float = 0.0
    betti_std: Optional[float] = None
    engine_route: Optional[str] = None
    fused_gates: Optional[int] = None
    n_trajectories: Optional[int] = None
    noise_spec: Optional[Dict[str, object]] = None

    @property
    def absolute_error(self) -> Optional[float]:
        """``|β̃_k - β_k|`` (Eq. 12) when the exact value is known."""
        if self.exact_betti is None:
            return None
        return float(abs(self.betti_estimate - self.exact_betti))

    @property
    def rounded_error(self) -> Optional[int]:
        """``|round(β̃_k) - β_k|`` when the exact value is known."""
        if self.exact_betti is None:
            return None
        return int(abs(self.betti_rounded - self.exact_betti))

    def as_dict(self) -> Dict[str, object]:
        """Plain-dictionary view: every field plus the two error properties.

        Dict-valued fields (``counts``, ``noise_spec``) are copied, so the
        view does not alias the estimate.
        """
        data = {}
        for f in fields(self):
            value = getattr(self, f.name)
            data[f.name] = dict(value) if isinstance(value, dict) else value
        data["absolute_error"] = self.absolute_error
        data["rounded_error"] = self.rounded_error
        return data


class QTDABettiEstimator:
    """Estimate Betti numbers of simplicial complexes with QPE.

    Parameters mirror :class:`repro.core.config.QTDAConfig`; either pass a
    ready-made config or keyword arguments (keywords override the config).

    Examples
    --------
    >>> from repro.tda import SimplicialComplex
    >>> complex_ = SimplicialComplex([(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)])
    >>> estimator = QTDABettiEstimator(precision_qubits=4, shots=None)
    >>> estimator.estimate(complex_, k=1).betti_rounded   # the hollow triangle has one loop
    1
    """

    def __init__(
        self,
        config: Optional[QTDAConfig] = None,
        spectrum_cache: Optional[SpectrumCache] = None,
        **overrides,
    ):
        base = config if config is not None else QTDAConfig()
        self.config = base.replace(**overrides) if overrides else base
        self._rng = as_rng(self.config.seed)
        #: Optional shared cache of Laplacian spectra used by the spectral
        #: backends (see DESIGN.md §6); caching never changes results, only cost.
        self.spectrum_cache = spectrum_cache

    # -- public API -----------------------------------------------------------
    @property
    def backend(self):
        """The resolved :class:`repro.core.backends.BettiBackend` instance."""
        return get_backend(self.config.backend)

    @property
    def operator_format(self) -> str:
        """The format the configured backend reads, ``"dense"`` or ``"sparse"``.

        :meth:`estimate` and the batch engine build every Laplacian they hand
        to this estimator in it (DESIGN.md §9).
        """
        return self.backend.operator_format

    def estimate(
        self, complex_: SimplicialComplex | ComplexArrays, k: int, compute_exact: bool = True
    ) -> BettiEstimate:
        """Estimate ``β_k`` of a simplicial complex or of its arrays.

        Both reach the same :func:`combinatorial_laplacian` through their
        ``.arrays``, built in the backend's :attr:`operator_format`.
        ``compute_exact=True`` also reports the exact ``β_k``, counted at
        ``config.zero_eigenvalue_atol`` (:func:`kernel_dimension`).
        """
        arrays = getattr(complex_, "arrays", None)
        if not isinstance(arrays, ComplexArrays):
            raise TypeError(
                "estimate expects a SimplicialComplex or ComplexArrays; "
                "use estimate_from_laplacian for raw matrices"
            )
        k = check_integer(k, "k", minimum=0)
        if arrays.num_simplices(k) == 0:
            # No k-simplices: β_k = 0 by convention, nothing to run.
            return BettiEstimate(
                betti_estimate=0.0,
                betti_rounded=0,
                p_zero=0.0,
                num_system_qubits=0,
                precision_qubits=self.config.precision_qubits,
                shots=self.config.shots,
                backend=self.config.backend,
                exact_betti=0 if compute_exact else None,
                lambda_max=0.0,
                delta=self.config.delta,
            )
        laplacian = combinatorial_laplacian(arrays, k, sparse_format=self.operator_format == "sparse")
        exact = None
        if compute_exact:
            atol = self.config.zero_eigenvalue_atol
            exact = kernel_dimension(laplacian, atol, self.spectrum_cache)
        return self.estimate_from_laplacian(laplacian, exact_betti=exact)

    def estimate_from_laplacian(self, laplacian: np.ndarray, exact_betti: Optional[int] = None) -> BettiEstimate:
        """Estimate the kernel dimension of an explicit combinatorial Laplacian.

        Accepts dense matrices, ``scipy.sparse`` matrices and
        :class:`~repro.core.operators.LaplacianOperator` objects.  The
        configured backend is resolved through the registry and handed an
        :class:`~repro.core.backends.EstimationProblem` (the Laplacian
        operator plus the shared spectrum cache, when one is attached); shot
        sampling of the returned distribution happens here so it is identical
        across backends.
        """
        if exact_betti is None:
            exact_betti_val: Optional[int] = None
        else:
            exact_betti_val = int(exact_betti)
        problem = EstimationProblem(laplacian=laplacian, spectrum_cache=self.spectrum_cache)
        result = self.backend.run(problem, self.config, self._rng)
        p_zero, counts = self._readout(result.distribution)
        dim = 2**result.num_system_qubits
        estimate = dim * p_zero
        betti_std = None if result.p_zero_std is None else float(dim * result.p_zero_std)
        return BettiEstimate(
            betti_estimate=float(estimate),
            betti_rounded=int(round(estimate)),
            p_zero=float(p_zero),
            num_system_qubits=result.num_system_qubits,
            precision_qubits=self.config.precision_qubits,
            shots=self.config.shots,
            backend=self.config.backend,
            exact_betti=exact_betti_val,
            counts=counts,
            lambda_max=result.lambda_max,
            delta=self.config.delta,
            betti_std=betti_std,
            **result.route,
        )

    def estimate_betti_numbers(
        self,
        complex_: SimplicialComplex | ComplexArrays,
        dimensions: Sequence[int],
        compute_exact: bool = True,
    ) -> List[BettiEstimate]:
        """Estimate several Betti numbers of the same complex (e.g. ``[0, 1]``)."""
        return [self.estimate(complex_, k, compute_exact=compute_exact) for k in dimensions]

    # -- readout ----------------------------------------------------------------
    def _readout(self, distribution: np.ndarray) -> tuple[float, Dict[str, int]]:
        """Exact or sampled probability of the all-zero precision readout."""
        distribution = np.asarray(distribution, dtype=float)
        if self.config.shots is None:
            return float(distribution[0]), {}
        num_bits = int(np.log2(distribution.size))
        counts = sample_counts(distribution, self.config.shots, num_bits=num_bits, seed=self._rng)
        zero_key = "0" * num_bits
        return counts.get(zero_key, 0) / self.config.shots, counts
