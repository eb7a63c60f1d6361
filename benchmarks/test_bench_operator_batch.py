"""Benchmark — the sparse end-to-end batch path vs the dense handoff.

PR 2 made ``sparse-exact`` fast on large Laplacians, but the batch engine
still *built* every Laplacian dense and handed it over, so sweeps never saw
the speedup: the backend's sparse fast path was unreachable end to end.  The
operator layer (DESIGN.md §9) closes that gap — ``sparse-exact`` declares
``operator_format = "sparse"`` and the engine builds its flag-array
Laplacians directly as CSR matrices.

The gate: on a large-window sweep (annulus point clouds whose Δ_1 has
hundreds of 1-simplices) with ``backend="sparse-exact"``, the sparse path
must beat the dense handoff (the pre-operator behaviour: a backend that
declares ``"dense"`` and delegates to ``SparseExactBackend().run``, which
then takes its dense path) by at least 2×, while producing the same science
(same rounded Betti features, estimates within the sparse surrogate's
documented tolerance).

A second (non-gating) measurement times the ``stochastic-trace`` backend on
the same sweep, recording the matvec-only path's trajectory in the JSON
artefact.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.backends import SparseExactBackend, temporary_backend
from repro.core.batch import BatchFeatureEngine
from repro.core.config import QTDAConfig
from repro.core.pipeline import PipelineConfig
from repro.datasets.point_clouds import circle_cloud

PRECISION = 5
DELTA = 6.0


def _annulus_workload(paper_scale: bool):
    """Clouds whose Rips Δ_1 is large (~1000–1800 edges) plus a 2-point ε grid."""
    points = 450 if paper_scale else 300
    rng = np.random.default_rng(42)
    clouds = []
    for jitter in (0.0, 0.004, 0.008):
        cloud = circle_cloud(points)
        clouds.append(cloud + rng.normal(scale=jitter or 1e-6, size=cloud.shape))
    # 4 and 6 neighbours per side: |S_1| ≈ 4·points and 6·points.
    epsilons = [
        2.0 * np.sin(4.0 * np.pi / points) + 1e-9,
        2.0 * np.sin(6.0 * np.pi / points) + 1e-9,
    ]
    return clouds, epsilons


class _DenseHandoff(SparseExactBackend):
    """``sparse-exact`` handed dense Laplacians: the pre-operator batch path."""

    name = "sparse-exact-dense-handoff"
    description = "sparse-exact fed dense Laplacians (benchmark baseline)"
    operator_format = "dense"


def _engine(backend: str) -> BatchFeatureEngine:
    return BatchFeatureEngine(
        PipelineConfig(
            use_quantum=True,
            estimator=QTDAConfig(
                precision_qubits=PRECISION, shots=None, delta=DELTA, backend=backend, seed=1
            ),
        )
    )


@pytest.mark.benchmark(group="operator-batch")
def test_bench_sparse_end_to_end_batch_speedup(benchmark, paper_scale, bench_json):
    clouds, epsilons = _annulus_workload(paper_scale)

    with temporary_backend(_DenseHandoff.name, _DenseHandoff()):
        dense_engine = _engine(_DenseHandoff.name)
        start = time.perf_counter()
        dense_features = dense_engine.sweep(clouds, epsilons)
        dense_seconds = time.perf_counter() - start

    # benchmark.pedantic feeds the pytest-benchmark table; the gate ratio is
    # timed on a fresh engine below so the first run's (empty) cache is part
    # of the measured cost — same convention as the batch-engine benchmark.
    benchmark.pedantic(
        _engine("sparse-exact").sweep, args=(clouds, epsilons), rounds=1, iterations=1
    )
    fresh = _engine("sparse-exact")
    start = time.perf_counter()
    sparse_features = fresh.sweep(clouds, epsilons)
    sparse_seconds = time.perf_counter() - start

    start = time.perf_counter()
    trace_features = _engine("stochastic-trace").sweep(clouds, epsilons)
    trace_seconds = time.perf_counter() - start

    speedup = dense_seconds / sparse_seconds
    print()
    print(
        f"dense handoff {dense_seconds:.3f}s | sparse end-to-end {sparse_seconds:.3f}s | "
        f"speedup {speedup:.1f}x | stochastic-trace {trace_seconds:.3f}s "
        f"on {len(clouds)} clouds x {len(epsilons)} scales ({len(clouds[0])} points each)"
    )
    bench_json(
        "operator_batch",
        {
            "num_clouds": len(clouds),
            "num_scales": len(epsilons),
            "points_per_cloud": int(len(clouds[0])),
            "precision_qubits": PRECISION,
            "dense_handoff_seconds": dense_seconds,
            "sparse_end_to_end_seconds": sparse_seconds,
            "stochastic_trace_seconds": trace_seconds,
            "speedup": speedup,
            "gate": 2.0,
        },
    )

    # Same science: estimates within the sparse surrogate's documented
    # tolerance (a few hundredths of p(0), i.e. < 0.25 on β̃) of the
    # dense-handoff values.  Exact rounded equality is *not* asserted here —
    # at this leakage-heavy scale estimates can straddle a .5 boundary — the
    # single-Laplacian sparse benchmark and the regression suite pin rounding
    # on clean complexes.  The stochastic path is sanity-checked loosely; its
    # "within reported error bars" contract is gated by
    # tests/core/test_stochastic_trace_backend.py.
    assert sparse_features.shape == dense_features.shape
    np.testing.assert_allclose(sparse_features, dense_features, atol=0.25)
    np.testing.assert_allclose(trace_features, dense_features, atol=3.0)
    # The acceptance criterion of the operator-layer refactor.
    assert speedup >= 2.0, f"expected >= 2x over the dense handoff, measured {speedup:.1f}x"
