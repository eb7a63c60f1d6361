"""repro — reproduction of "Quantum-Enhanced Topological Data Analysis" (arXiv:2302.09553).

The package is organised as a set of substrates plus the paper's core
algorithm:

* :mod:`repro.paulis` — Pauli strings, Pauli decomposition, Gershgorin bounds.
* :mod:`repro.quantum` — gate-level quantum circuit simulators (statevector
  and density matrix), QFT/QPE builders, Trotterised Pauli evolution, noise.
* :mod:`repro.tda` — simplicial complexes, Vietoris–Rips construction,
  boundary operators, combinatorial Laplacians, classical Betti numbers,
  Takens embedding.
* :mod:`repro.core` — the QPE-based Betti-number estimator (the paper's
  contribution) and the point-cloud-to-features pipeline.
* :mod:`repro.api` — the service-grade front door: typed requests
  (``EstimationRequest``, ``PipelineRequest``, ``SweepRequest``,
  ``ExperimentRequest``), the ``EstimationResult`` envelope with provenance,
  and the concurrent ``QTDAService`` executor (DESIGN.md §10).
* :mod:`repro.serve` — the network deployment of that service: a stdlib
  HTTP/JSON adapter with request coalescing, per-caller quotas, metrics on
  ``GET /v1/stats`` and a load-test client (DESIGN.md §15).
* :mod:`repro.ml` — minimal classical ML (logistic regression, kNN, scaling,
  splitting, metrics) used for the Section 5 classification experiments.
* :mod:`repro.datasets` — synthetic gearbox vibration data and reference
  point clouds.
* :mod:`repro.experiments` — drivers that regenerate each table and figure.

Quick start — one request in, one result envelope out::

    import numpy as np
    from repro import EstimationRequest, QTDAService
    from repro.tda import RipsComplex

    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [2.0, 1.0], [2.5, 0.2]])
    request = EstimationRequest(
        points=points, epsilon=1.5, k=1,
        config={"precision_qubits": 4, "shots": 1000, "seed": 7},
    )
    with QTDAService() as service:
        result = service.run(request)
    print(result.payload["betti_estimate"], result.payload["betti_rounded"])
    print(result.provenance.backend, result.provenance.wall_time_s)

The same service fans batches across a worker pool (``service.map``), runs
requests asynchronously (``service.submit``) and streams ε-sweeps
incrementally (``service.stream_sweep``).  The pre-service entry points
remain available and bit-identical::

    from repro import QTDABettiEstimator

    complex_ = RipsComplex.from_points(points, epsilon=1.5, max_dimension=2).complex()
    estimator = QTDABettiEstimator(precision_qubits=4, shots=1000, seed=7)
    result = estimator.estimate(complex_, k=1)
    print(result.betti_estimate, result.betti_rounded)
"""

from repro._version import __version__

#: Names this module re-exports lazily, keyed by the submodule serving them.
#: ``__all__`` and ``__getattr__`` are both derived from this table, so the
#: advertised surface and the served surface cannot drift apart (regression-
#: tested by ``tests/test_package.py``).
_LAZY_EXPORTS = {
    "repro.core": (
        "QTDABettiEstimator",
        "BettiEstimate",
        "QTDAPipeline",
        "PipelineConfig",
        "QTDAConfig",
        "BatchConfig",
        "BatchFeatureEngine",
        "ZNEResult",
        "richardson_extrapolate",
        "zero_noise_extrapolation",
    ),
    "repro.api": (
        "EstimationRequest",
        "PipelineRequest",
        "SweepRequest",
        "ExperimentRequest",
        "EstimationResult",
        "Provenance",
        "QTDAService",
        "request_from_dict",
        "deterministic_request",
    ),
    "repro.serve": (
        "QTDAServer",
        "ServeConfig",
        "ServiceClient",
    ),
    "repro.tda": (
        "RipsComplex",
        "SimplicialComplex",
    ),
    "repro.quantum": (
        "EnsembleExecutor",
        "QuantumCircuit",
        "StatevectorSimulator",
    ),
}

__all__ = ["__version__"] + [name for names in _LAZY_EXPORTS.values() for name in names]


def __getattr__(name):
    """Lazily re-export the headline classes to keep import time low."""
    for module_name, names in _LAZY_EXPORTS.items():
        if name in names:
            import importlib

            return getattr(importlib.import_module(module_name), name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
