"""Benchmark — the streaming sliding-window sweep vs the batch sweep.

The batch sweep treats every window as a fresh cloud: it rebuilds every flag
complex and every Laplacian, and re-hashes each Laplacian for its spectrum
cache lookup.  The :class:`~repro.core.batch.StreamingFeatureEngine`
(DESIGN.md §13) builds each window's distances the same way, and when they
(or an ε's flag complex) equal the previous window's it carries the
operators and classical feature rows over — while staying bit-identical to
the batch sweep.

The gate: on a steady-state stream (overlapping windows, stride = window/8,
both routes serving from one pre-warmed spectrum cache — the deployment
shape, where eigendecompositions are already amortised) the streaming engine
must beat the from-scratch sweep by at least 5× with bit-identical features.
An aperiodic stream is additionally pinned for bit-identity (its speedup is
reported but not gated: fresh geometry every window means fresh eigensolves
dominate both routes).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.batch import BatchFeatureEngine, StreamingFeatureEngine
from repro.core.hamiltonian import SpectrumCache
from repro.core.pipeline import PipelineConfig
from repro.datasets.windows import sliding_windows

WINDOW = 256
STRIDE = 32  # = WINDOW / 8 — the densest overlap the acceptance gate names
NUM_WINDOWS = 48
EPSILONS = (0.6, 1.1, 1.7)
GATE = 5.0


def _pipeline() -> PipelineConfig:
    # Classical route: the gate measures the sweep machinery (distances,
    # complexes, operators, hashing), not estimator sampling noise.
    return PipelineConfig(
        epsilon=1.0,
        use_quantum=False,
        takens_dimension=3,
        takens_delay=2,
        takens_stride=4,
        homology_dimensions=(0, 1),
    )


def _series(num_windows: int = NUM_WINDOWS) -> tuple[np.ndarray, np.ndarray]:
    """(steady-state stream, aperiodic stream), both the same length.

    The steady-state stream tiles one stride-length block, so consecutive
    windows are *bitwise* equal — the serving regime where the signal's
    local geometry has stabilised.  (Exact trigonometric signals are only
    approximately periodic in floating point; tiling makes it exact.)
    """
    length = WINDOW + STRIDE * (num_windows - 1)
    rng = np.random.default_rng(2023)
    block = rng.standard_normal(STRIDE)
    steady = np.tile(block, length // STRIDE + 1)[:length]
    aperiodic = rng.standard_normal(length)
    return steady, aperiodic


def _batch_seconds(series: np.ndarray, cache: SpectrumCache) -> tuple[float, np.ndarray]:
    """From-scratch baseline: embed every window, full sweep over the grid."""
    engine = BatchFeatureEngine(_pipeline(), spectrum_cache=cache)
    start = time.perf_counter()
    windows = sliding_windows(series, WINDOW, STRIDE, copy=False)
    clouds = [engine._takens.transform(window) for window in windows]
    features = engine.sweep(clouds, EPSILONS)
    return time.perf_counter() - start, features


def _streaming_seconds(series: np.ndarray, cache: SpectrumCache) -> tuple[float, np.ndarray, dict]:
    engine = StreamingFeatureEngine(
        _pipeline(), window_length=WINDOW, stride=STRIDE, epsilons=EPSILONS, spectrum_cache=cache
    )
    start = time.perf_counter()
    features = engine.process(series)
    return time.perf_counter() - start, features, dict(engine.stats)


@pytest.mark.benchmark(group="streaming")
def test_bench_streaming_speedup(benchmark, paper_scale, bench_json):
    steady, aperiodic = _series()
    cache = SpectrumCache()

    # Warm the shared spectrum cache once (and sanity-check the stream shape)
    # so both timed routes measure steady-state serving, not first-window
    # eigendecompositions.
    _, warmup_features, _ = _streaming_seconds(steady, cache)
    assert warmup_features.shape == (len(EPSILONS), NUM_WINDOWS, 2)

    batch_seconds, batch_features = _batch_seconds(steady, cache)
    streaming_seconds, streaming_features, stats = _streaming_seconds(steady, cache)
    warm = benchmark.pedantic(
        lambda: _streaming_seconds(steady, cache)[0], rounds=1, iterations=1
    )
    streaming_warm_seconds = float(warm)

    aperiodic_batch_seconds, aperiodic_batch = _batch_seconds(aperiodic, SpectrumCache())
    aperiodic_streaming_seconds, aperiodic_streaming, aperiodic_stats = _streaming_seconds(
        aperiodic, SpectrumCache()
    )

    speedup = batch_seconds / streaming_seconds
    aperiodic_speedup = aperiodic_batch_seconds / aperiodic_streaming_seconds
    per_window_us = streaming_seconds / NUM_WINDOWS * 1e6
    print()
    print(
        f"{NUM_WINDOWS} windows of {WINDOW} @ stride {STRIDE}, {len(EPSILONS)} scales: "
        f"streaming {streaming_seconds:.3f}s (warm {streaming_warm_seconds:.3f}s, "
        f"{per_window_us:.0f}us/window) | batch {batch_seconds:.3f}s | "
        f"speedup {speedup:.1f}x | aperiodic {aperiodic_speedup:.1f}x "
        f"({stats['unchanged_windows']} unchanged windows steady, "
        f"{aperiodic_stats['unchanged_windows']} aperiodic)"
    )
    bench_json(
        "streaming",
        {
            "window_length": WINDOW,
            "stride": STRIDE,
            "num_windows": NUM_WINDOWS,
            "num_epsilons": len(EPSILONS),
            "takens": {"dimension": 3, "delay": 2, "stride": 4},
            "streaming_seconds": streaming_seconds,
            "streaming_warm_seconds": streaming_warm_seconds,
            "batch_seconds": batch_seconds,
            "speedup": speedup,
            "per_window_microseconds": per_window_us,
            "aperiodic_streaming_seconds": aperiodic_streaming_seconds,
            "aperiodic_batch_seconds": aperiodic_batch_seconds,
            "aperiodic_speedup": aperiodic_speedup,
            "engine_stats": stats,
            "aperiodic_engine_stats": aperiodic_stats,
            "gate": GATE,
        },
    )

    # Bit-identity is the contract, not an approximation: both streams, the
    # whole (num_epsilons, num_windows, num_features) tensor.
    assert np.array_equal(streaming_features, batch_features)
    assert np.array_equal(aperiodic_streaming, aperiodic_batch)
    assert speedup >= GATE, (
        f"expected >= {GATE}x over from-scratch rebuilds, measured {speedup:.1f}x"
    )
