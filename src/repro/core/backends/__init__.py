"""Pluggable execution backends for the QPE Betti-number estimator.

This subpackage is the architectural seam between *what* the Section 3
algorithm computes (``β̃_k = 2^q · p(0)``) and *how* the readout distribution
is obtained.  Importing it registers the built-in backends:

========================  ====================================================
name                      realisation
========================  ====================================================
``exact``                 analytical QPE readout from the padded spectrum
``sparse-exact``          shift-invert partial spectrum on the sparse
                          Laplacian (dense fallback below a size threshold)
``stochastic-trace``      Hutchinson/SLQ trace estimate via matvecs only
                          (reports error bars)
``statevector``           explicit Fig. 6 circuit, exact controlled powers
``trotter``               Fig. 6 with Trotterised evolution (Fig. 7)
========================  ====================================================

Backends receive :class:`EstimationProblem`\\ s carrying a
:class:`repro.core.operators.LaplacianOperator` and each declares the one
format it reads as ``operator_format``: ``exact``, ``statevector`` and
``trotter`` read ``"dense"``, ``sparse-exact`` and ``stochastic-trace`` read
``"sparse"``.  The estimator builds every Laplacian in its backend's format,
and :func:`register_backend` rejects a backend without a valid one.
Third-party backends implement :class:`BettiBackend` and
call :func:`register_backend` (or :func:`temporary_backend` for scoped
registration); every consumer (config validation, estimator, pipeline, batch
engine, CLI, experiment drivers) resolves names through this registry, so a
registered backend is immediately usable everywhere.  See DESIGN.md §5/§9.
"""

from repro.core.backends.base import (
    BackendResult,
    BettiBackend,
    EstimationProblem,
    available_backends,
    backend_capabilities,
    backend_supports_noise,
    get_backend,
    register_backend,
    temporary_backend,
    unregister_backend,
)

# Importing the modules registers the built-in backends.
from repro.core.backends.exact import ExactBackend
from repro.core.backends.sparse_exact import SparseExactBackend
from repro.core.backends.stochastic_trace import StochasticTraceBackend
from repro.core.backends.statevector import StatevectorBackend
from repro.core.backends.trotter import TrotterBackend

__all__ = [
    "BackendResult",
    "BettiBackend",
    "EstimationProblem",
    "available_backends",
    "backend_capabilities",
    "backend_supports_noise",
    "get_backend",
    "register_backend",
    "temporary_backend",
    "unregister_backend",
    "ExactBackend",
    "SparseExactBackend",
    "StochasticTraceBackend",
    "StatevectorBackend",
    "TrotterBackend",
]
