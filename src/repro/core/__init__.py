"""The paper's core algorithm: QPE-based estimation of Betti numbers.

The pipeline implemented here follows Section 3 of the paper step by step:

1. :mod:`repro.core.padding` — pad the combinatorial Laplacian to the next
   power of two with an identity block scaled by ``λ̃_max / 2`` (Eq. 7), so
   the padding introduces no spurious zero eigenvalues (the naive zero
   padding is also provided, as the ablation baseline).
2. :mod:`repro.core.hamiltonian` — rescale to ``H = (δ / λ̃_max) Δ̃_k`` so the
   spectrum fits inside ``[0, 2π)`` and build ``U = exp(iH)`` (Eqs. 8–9).
3. :mod:`repro.core.mixed_state` — prepare the maximally mixed input state
   with auxiliary qubits (Fig. 2).
4. :mod:`repro.core.qtda_circuit` — assemble the full circuit of Fig. 6
   (mixed-state preparation + QPE with the chosen number of precision
   qubits).
5. :mod:`repro.core.backends` — the pluggable execution-backend registry
   (analytical, sparse spectral, stochastic trace, circuit and Trotterised
   paths; see DESIGN.md §5).
6. :mod:`repro.core.estimator` — resolve the configured backend, read off
   ``p(0)`` and return ``β̃_k = 2^q · p(0)`` (Eqs. 10–11).
7. :mod:`repro.core.pipeline` — go from raw point clouds / time series to
   Betti-number feature vectors for machine learning (Section 5).
8. :mod:`repro.core.api` — the service-grade front door: typed
   request/response layer (``EstimationRequest`` → ``EstimationResult``)
   and the concurrent :class:`~repro.core.api.QTDAService` over all of the
   above (DESIGN.md §10).
"""

from repro.core.backends import (
    BackendResult,
    BettiBackend,
    EstimationProblem,
    available_backends,
    backend_supports_noise,
    get_backend,
    register_backend,
    temporary_backend,
    unregister_backend,
)
from repro.core.operators import (
    DenseOperator,
    LaplacianOperator,
    SparseOperator,
    as_operator,
)
from repro.core.config import QTDAConfig
from repro.core.padding import pad_laplacian, zero_pad_laplacian, PaddedLaplacian
from repro.core.hamiltonian import (
    build_hamiltonian,
    qtda_unitary,
    padded_spectrum,
    PaddedSpectrum,
    RescaledHamiltonian,
    SpectrumCache,
)
from repro.core.mixed_state import maximally_mixed_state_circuit, mixed_state_purification_qubits
from repro.core.qtda_circuit import qtda_circuit, QTDACircuitSpec
from repro.core.estimator import BettiEstimate, QTDABettiEstimator
from repro.core.zne import ZNEResult, richardson_extrapolate, zero_noise_extrapolation
from repro.core.pipeline import PipelineConfig, QTDAPipeline, betti_feature_vector
from repro.core.batch import BatchConfig, BatchFeatureEngine
from repro.core.api import (
    EstimationRequest,
    EstimationResult,
    ExperimentRequest,
    PipelineRequest,
    Provenance,
    QTDAService,
    SweepRequest,
    request_from_dict,
)

__all__ = [
    "QTDAConfig",
    "BackendResult",
    "BettiBackend",
    "EstimationProblem",
    "available_backends",
    "backend_supports_noise",
    "get_backend",
    "register_backend",
    "temporary_backend",
    "unregister_backend",
    "LaplacianOperator",
    "DenseOperator",
    "SparseOperator",
    "as_operator",
    "padded_spectrum",
    "PaddedSpectrum",
    "SpectrumCache",
    "BatchConfig",
    "BatchFeatureEngine",
    "pad_laplacian",
    "zero_pad_laplacian",
    "PaddedLaplacian",
    "build_hamiltonian",
    "qtda_unitary",
    "RescaledHamiltonian",
    "maximally_mixed_state_circuit",
    "mixed_state_purification_qubits",
    "qtda_circuit",
    "QTDACircuitSpec",
    "BettiEstimate",
    "QTDABettiEstimator",
    "ZNEResult",
    "richardson_extrapolate",
    "zero_noise_extrapolation",
    "PipelineConfig",
    "QTDAPipeline",
    "betti_feature_vector",
    "EstimationRequest",
    "PipelineRequest",
    "SweepRequest",
    "ExperimentRequest",
    "EstimationResult",
    "Provenance",
    "QTDAService",
    "request_from_dict",
]
