"""Benchmark — the batched (``ensemble``) circuit route vs the oracle simulations.

The faithful Fig. 6 backends used to simulate the maximally mixed input
either by purification (statevector on ``t + 2q`` qubits) or by density-
matrix evolution (a ``2^(t+q) x 2^(t+q)`` matrix, squared cost per gate).
Both survive as reference oracles
(:func:`~repro.core.backends.statevector.density_reference_distribution`,
:func:`~repro.core.backends.statevector.purified_reference_distribution`).
The execution engine (DESIGN.md §11) evolves the ``2^q`` system basis states
as one ``(2^(t+q), 2^q)`` batched array with fused gates instead.

The gate: at ``q = 6`` system qubits and ``t = 4`` precision qubits (a
48-dimensional Laplacian padded to 64), the ensemble route must beat the
density-matrix oracle by at least 5× while agreeing with it to 1e-10 on the
readout distribution.  The purified oracle is timed for the JSON artefact
but does not gate (it loses to both on memory long before it loses on time).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.backends import EstimationProblem
from repro.core.backends.statevector import (
    circuit_backend_result,
    density_reference_distribution,
    purified_reference_distribution,
)
from repro.core.config import QTDAConfig

PRECISION = 4  # t
DIMENSION = 48  # |S_k|, padded to 2^6 -> q = 6
DELTA = 6.0
GATE = 5.0


def _workload_laplacian(dim: int = DIMENSION) -> np.ndarray:
    """A deterministic symmetric PSD matrix with a small kernel (rank dim-2).

    Twin of ``synthetic_laplacian`` in examples/circuit_engine.py (the
    example illustrates the routes this benchmark gates) — keep the
    construction in sync.
    """
    rng = np.random.default_rng(2023)
    basis = rng.standard_normal((dim, dim - 2))
    lap = basis @ basis.T
    return (lap + lap.T) / 2.0


def _config(engine: str = "auto") -> QTDAConfig:
    return QTDAConfig(
        precision_qubits=PRECISION,
        shots=None,
        delta=DELTA,
        backend="statevector",
        circuit_engine=engine,
    )


def _route_seconds(problem: EstimationProblem, engine: str):
    config = _config(engine)
    start = time.perf_counter()
    result = circuit_backend_result(problem, config, "exact")
    return time.perf_counter() - start, result


def _oracle_seconds(problem: EstimationProblem, oracle):
    config = _config()
    start = time.perf_counter()
    distribution = oracle(problem, config, "exact")
    return time.perf_counter() - start, distribution


@pytest.mark.benchmark(group="circuit-engine")
def test_bench_ensemble_route_speedup(benchmark, paper_scale, bench_json):
    laplacian = _workload_laplacian()
    problem = EstimationProblem(laplacian=laplacian)

    # A cold fusion cache is part of the route's real cost (same convention
    # as the cold spectrum caches of the other benchmarks), so the gated
    # number is the first run.  The pedantic rerun that feeds the
    # pytest-benchmark table hits the warm fusion cache; its timing is
    # recorded separately so the artefact shows both regimes.
    ensemble_seconds, ensemble = _route_seconds(problem, "ensemble")
    density_seconds, density = _oracle_seconds(problem, density_reference_distribution)
    purified_seconds, purified = _oracle_seconds(problem, purified_reference_distribution)

    warm = benchmark.pedantic(
        lambda: _route_seconds(problem, "ensemble")[0], rounds=1, iterations=1
    )
    ensemble_warm_seconds = float(warm)

    speedup = density_seconds / ensemble_seconds
    agreement = float(np.max(np.abs(ensemble.distribution - density)))
    print()
    print(
        f"q=6 t={PRECISION}: ensemble {ensemble_seconds:.3f}s (warm "
        f"{ensemble_warm_seconds:.3f}s) | density {density_seconds:.3f}s | "
        f"purified {purified_seconds:.3f}s | speedup vs density {speedup:.1f}x | "
        f"max |Δp| {agreement:.2e} | fused gates {ensemble.route['fused_gates']}"
    )
    bench_json(
        "circuit_engine",
        {
            "system_qubits": 6,
            "precision_qubits": PRECISION,
            "laplacian_dimension": DIMENSION,
            "ensemble_seconds": ensemble_seconds,
            "ensemble_warm_fusion_cache_seconds": ensemble_warm_seconds,
            "density_seconds": density_seconds,
            "purified_seconds": purified_seconds,
            "speedup_vs_density": speedup,
            "max_distribution_delta": agreement,
            "fused_gates": ensemble.route["fused_gates"],
            "gate": GATE,
        },
    )

    # Same science: the route and both oracles prepare the same mixed-state readout.
    np.testing.assert_allclose(ensemble.distribution, density, atol=1e-10)
    np.testing.assert_allclose(purified, density, atol=1e-10)
    assert ensemble.route["engine_route"] == "ensemble"
    assert ensemble.route["fused_gates"] is not None
    # The acceptance criterion of the execution-engine PR.
    assert speedup >= GATE, (
        f"expected >= {GATE}x over the density-matrix oracle, measured {speedup:.1f}x"
    )
