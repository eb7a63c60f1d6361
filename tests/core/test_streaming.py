"""Tests for the streaming sweep engine and the service observe endpoint.

The contract under test (DESIGN.md §13): a :class:`StreamingFeatureEngine`
fed one raw series produces features **bit-identical** to Takens-embedding
every sliding window and running the batch sweep — whatever the stride
(aligned with the Takens stride, misaligned, or non-overlapping), whatever
the geometry (all-duplicate points, ε below every distance), whatever the
homology dimensions, whatever the estimator (classical or seeded quantum).
On top of that sit the session semantics of ``QTDAService.observe``.
"""

import json

import numpy as np
import pytest

from repro.core.api import EstimationResult, ObserveRequest, QTDAService, request_from_dict
from repro.core.batch import BatchFeatureEngine, StreamingFeatureEngine
from repro.core.config import QTDAConfig
from repro.core.pipeline import PipelineConfig
from repro.datasets.windows import sliding_windows

EPSILONS = (0.6, 1.1, 1.7)


def _config(use_quantum=False, takens_stride=4, homology_dimensions=(0, 1)):
    estimator = QTDAConfig(seed=123, shots=64, precision_qubits=3)
    return PipelineConfig(
        epsilon=1.0,
        use_quantum=use_quantum,
        takens_dimension=3,
        takens_delay=2,
        takens_stride=takens_stride,
        homology_dimensions=homology_dimensions,
        estimator=estimator,
    )


def _batch_features(config, series, window_length, stride, epsilons=EPSILONS):
    engine = BatchFeatureEngine(config)
    windows = sliding_windows(series, window_length, stride)
    clouds = [engine._takens.transform(w) for w in windows]
    return engine.sweep(clouds, epsilons)


def _stream_features(config, series, window_length, stride, epsilons=EPSILONS):
    engine = StreamingFeatureEngine(
        config, window_length=window_length, stride=stride, epsilons=epsilons
    )
    return engine.process(series), engine.stats


@pytest.mark.parametrize(
    "use_quantum,stride",
    [
        (False, 32),  # stride % takens_stride == 0: windows share embedded points
        (True, 32),  # quantum estimates, per-window derived seeds
        (False, 7),  # misaligned stride: every embedded point moves
        (False, 300),  # non-overlapping windows
    ],
)
def test_streaming_bit_identical_to_batch_sweep(use_quantum, stride):
    rng = np.random.default_rng(42)
    series = rng.standard_normal(700)
    config = _config(use_quantum=use_quantum)
    baseline = _batch_features(config, series, 256, stride)
    features, stats = _stream_features(config, series, 256, stride)
    assert np.array_equal(features, baseline)
    assert stats["windows"] == baseline.shape[1]
    assert stats["unchanged_windows"] == 0


def test_all_duplicate_point_windows_match_batch_sweep():
    # A constant stretch embeds every point onto one spot: all distances are
    # exactly 0.0, so each ε complex is one clique.  The stream then runs
    # into fresh samples, so windows go from identical to changing.
    rng = np.random.default_rng(3)
    series = np.concatenate([np.full(160, 0.7), rng.standard_normal(160)])
    config = _config()
    baseline = _batch_features(config, series, 64, 16)
    features, stats = _stream_features(config, series, 64, 16)
    assert np.array_equal(features, baseline)
    assert np.array_equal(features[:, 0], [[1.0, 0.0]] * len(EPSILONS))
    assert stats["unchanged_windows"] >= 1


def test_epsilon_below_every_distance_matches_batch_sweep():
    # No edges at any window: every ε complex is the bare vertex set.
    rng = np.random.default_rng(4)
    series = rng.standard_normal(400)
    config = _config()
    engine = StreamingFeatureEngine(config, window_length=64, stride=16, epsilons=(1e-9,))
    features = engine.process(series)
    baseline = _batch_features(config, series, 64, 16, epsilons=(1e-9,))
    assert np.array_equal(features, baseline)
    assert np.all(features[..., 0] == engine.points_per_window)
    assert np.all(features[..., 1] == 0.0)
    # The distances change every window but the (empty) complexes do not:
    # the per-ε content comparison keeps each state and its classical row.
    assert engine.stats["unchanged_windows"] == engine.stats["windows"] - 1
    assert engine.stats["feature_rows_reused"] == engine.stats["windows"] - 1


@pytest.mark.parametrize("use_quantum", [False, True])
def test_streaming_matches_batch_sweep_up_to_dimension_two(use_quantum):
    # homology_dimensions (0, 1, 2) builds flag complexes up to dimension 3.
    rng = np.random.default_rng(5)
    series = rng.standard_normal(320)
    config = _config(use_quantum=use_quantum, homology_dimensions=(0, 1, 2))
    assert config.max_complex_dimension == 3
    baseline = _batch_features(config, series, 128, 32)
    features, _ = _stream_features(config, series, 128, 32)
    assert features.shape[-1] == 3
    assert np.array_equal(features, baseline)


def test_extend_copies_the_callers_samples():
    # The caller reuses its array after extend(): later windows must still
    # see the samples as they were fed.
    rng = np.random.default_rng(6)
    series = rng.standard_normal(200)
    config = _config()
    baseline = _batch_features(config, series, 64, 32)
    engine = StreamingFeatureEngine(config, window_length=64, stride=32, epsilons=EPSILONS)
    head = series[:40].copy()
    windows = engine.extend(head)
    head[:] = 0.0
    windows += engine.extend(series[40:])
    assert np.array_equal(np.stack([w.features for w in windows], axis=1), baseline)
    # iter_windows copies the series when called, not when first iterated.
    reused = series.copy()
    lazy = BatchFeatureEngine(config).iter_windows(reused, 64, stride=32, epsilons=EPSILONS)
    reused[:] = 0.0
    assert np.array_equal(np.stack([w.features for w in lazy], axis=1), baseline)


def test_observe_one_sample_at_a_time_matches_extend():
    rng = np.random.default_rng(1)
    series = rng.standard_normal(420)
    config = _config()
    chunked = StreamingFeatureEngine(config, window_length=256, stride=32, epsilons=EPSILONS)
    expected = chunked.extend(series)
    sampled = StreamingFeatureEngine(config, window_length=256, stride=32, epsilons=EPSILONS)
    emitted = [w for s in series if (w := sampled.observe(s)) is not None]
    assert len(emitted) == len(expected)
    for got, want in zip(emitted, expected):
        assert got.index == want.index and got.start == want.start
        assert np.array_equal(got.features, want.features)
    assert sampled.samples_seen == series.size
    assert sampled.windows_emitted == len(expected)


def test_periodic_stream_reuses_unchanged_windows():
    rng = np.random.default_rng(9)
    period = rng.standard_normal(32)
    series = np.tile(period, 25)  # bitwise-periodic: every advance is a no-op
    config = _config()
    baseline = _batch_features(config, series, 256, 32)
    engine = StreamingFeatureEngine(config, window_length=256, stride=32, epsilons=EPSILONS)
    features = engine.process(series)
    assert np.array_equal(features, baseline)
    assert engine.stats["unchanged_windows"] == engine.stats["windows"] - 1
    # Classical features depend only on geometry, so unchanged windows reuse
    # their rows outright.
    assert engine.stats["feature_rows_reused"] > 0


def test_periodic_stream_quantum_rows_not_reused():
    # Quantum estimates carry per-window derived seeds: identical geometry
    # must still be re-estimated, and stay bit-identical to the batch route.
    rng = np.random.default_rng(10)
    series = np.tile(rng.standard_normal(24), 8)
    config = _config(use_quantum=True)
    baseline = _batch_features(config, series, 120, 24, epsilons=(0.8, 1.3))
    engine = StreamingFeatureEngine(config, window_length=120, stride=24, epsilons=(0.8, 1.3))
    features = engine.process(series)
    assert np.array_equal(features, baseline)
    assert engine.stats["feature_rows_reused"] == 0


def test_iter_windows_lazily_matches_streaming_engine():
    rng = np.random.default_rng(11)
    series = rng.standard_normal(500)
    config = _config()
    reference = StreamingFeatureEngine(
        config, window_length=256, stride=32, epsilons=EPSILONS
    ).extend(series)
    windows = list(
        BatchFeatureEngine(config).iter_windows(series, 256, stride=32, epsilons=EPSILONS)
    )
    assert len(windows) == len(reference)
    for got, want in zip(windows, reference):
        assert np.array_equal(got.features, want.features)
        assert got.unchanged == want.unchanged


def test_streaming_engine_validation():
    config = _config()
    with pytest.raises(ValueError):
        StreamingFeatureEngine(config, window_length=0, stride=32, epsilons=EPSILONS)
    with pytest.raises(ValueError):
        StreamingFeatureEngine(config, window_length=256, stride=0, epsilons=EPSILONS)
    with pytest.raises(ValueError):
        # Window shorter than the Takens span: not a single embedded point.
        StreamingFeatureEngine(config, window_length=4, stride=2, epsilons=EPSILONS)


# -- the service endpoint -------------------------------------------------------


def _observe_request(series, session="default", **overrides):
    kwargs = dict(
        samples=tuple(series),
        session=session,
        window_length=256,
        stride=32,
        epsilons=EPSILONS,
        pipeline=_config(),
    )
    kwargs.update(overrides)
    return ObserveRequest(**kwargs)


def test_observe_endpoint_bit_identical_across_chunked_feeds():
    rng = np.random.default_rng(12)
    series = rng.standard_normal(600)
    config = _config()
    baseline = _batch_features(config, series, 256, 32)
    with QTDAService() as service:
        windows = []
        for chunk in np.array_split(series, 7):
            result = service.observe(_observe_request(chunk))
            windows.extend(result.payload["windows"])
            assert result.provenance.request_fingerprint == ""  # stateful: uncacheable
        stacked = np.stack([np.asarray(w["features"]) for w in windows], axis=1)
        assert np.array_equal(stacked, baseline)
        assert result.payload["windows_emitted"] == baseline.shape[1]
        assert result.payload["engine_stats"]["windows"] == baseline.shape[1]
        assert set(windows[0]) == {"index", "start", "features", "unchanged"}


def test_observe_wire_schema_round_trip():
    rng = np.random.default_rng(13)
    request = _observe_request(rng.standard_normal(50))
    document = json.loads(json.dumps(request.as_dict()))
    assert document["kind"] == "observe"
    restored = request_from_dict(document)
    assert restored == request
    with QTDAService() as service:
        result = service.run_dict(document)
        envelope = json.loads(result.to_json())
        EstimationResult.validate_dict(envelope)
        assert envelope["provenance"]["backend"] == "classical-exact"


def test_observe_session_semantics():
    rng = np.random.default_rng(14)
    series = rng.standard_normal(300)
    with QTDAService() as service:
        service.observe(_observe_request(series, session="a"))
        service.observe(_observe_request(series, session="b", stride=64))
        assert service.open_sessions == ("a", "b")
        assert service.stats["open_sessions"] == 2
        # Config mismatch against an existing session is rejected...
        with pytest.raises(ValueError, match="does not match"):
            service.observe(_observe_request(series, session="a", stride=64))
        # ...until the session is closed and recreated.
        assert service.close_session("a")
        assert not service.close_session("a")
        service.observe(_observe_request(series, session="a", stride=64))
        assert service.open_sessions == ("a", "b")
    # close() drops all sessions.
    assert service.open_sessions == ()


def test_observe_request_validation():
    with pytest.raises(ValueError):
        _observe_request([1.0], session="")
    with pytest.raises(ValueError):
        _observe_request([1.0], window_length=0)
    with pytest.raises(ValueError):
        _observe_request([1.0], epsilons=())
    with pytest.raises(ValueError):
        _observe_request([1.0], epsilons=(-0.5,))
    with pytest.raises(ValueError):
        _observe_request(np.zeros((2, 2)))  # not 1-D
    with pytest.raises(TypeError):
        _observe_request([1.0], pipeline=42)
    # An empty priming request is legal and opens the session.
    with QTDAService() as service:
        result = service.observe(_observe_request([], session="primed"))
        assert result.payload["new_windows"] == 0
        assert service.open_sessions == ("primed",)


def test_cache_stats_shape_and_hit_rate():
    with QTDAService() as service:
        stats = service.cache_stats()
        assert stats["spectrum_hit_rate"] is None  # no lookups yet
        rng = np.random.default_rng(15)
        service.observe(_observe_request(rng.standard_normal(300)))
        stats = service.cache_stats()
        assert set(stats) == {
            "result_cache_entries",
            "result_cache_hits",
            "spectrum_hits",
            "spectrum_misses",
            "spectrum_entries",
            "spectrum_hit_rate",
        }
        assert stats["spectrum_entries"] > 0
        json.dumps(stats)  # JSON-safe by construction
