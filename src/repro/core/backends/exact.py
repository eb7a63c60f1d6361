"""The ``exact`` backend — analytical QPE readout from the padded spectrum.

Fastest realisation of the estimator, used for all paper-scale sweeps: the
padded, rescaled Hamiltonian's eigenphases follow analytically from the
eigendecomposition of the small ``|S_k| x |S_k|`` Laplacian (DESIGN.md §6),
and the QPE readout distribution is the Fejér-kernel mixture of those phases
(:func:`repro.quantum.qpe.qpe_outcome_distribution`).  With finite ``shots``
the estimator samples the returned distribution, reproducing shot noise
exactly.
"""

from __future__ import annotations

import numpy as np

from repro.core.backends.base import BackendResult, EstimationProblem, register_backend
from repro.core.hamiltonian import padded_spectrum
from repro.quantum.qpe import qpe_outcome_distribution


class ExactBackend:
    """Analytical QPE outcome distribution from the Hamiltonian's eigenphases."""

    name = "exact"
    description = "analytical QPE readout from the padded spectrum (dense |S_k| eigendecomposition)"
    operator_format = "dense"
    supports_noise = False

    def run(self, problem: EstimationProblem, config, rng: np.random.Generator) -> BackendResult:
        spectrum = padded_spectrum(
            problem.operator,
            delta=config.delta,
            padding=config.padding,
            cache=problem.spectrum_cache,
        )
        distribution = qpe_outcome_distribution(spectrum.eigenphases(), config.precision_qubits)
        return BackendResult(
            distribution=distribution,
            num_system_qubits=spectrum.num_qubits,
            lambda_max=spectrum.lambda_max,
        )


register_backend(ExactBackend.name, ExactBackend())
