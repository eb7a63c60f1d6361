"""Tests for condition-monitoring features and the feature-to-cloud map."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.datasets.features import (
    FEATURE_NAMES,
    condition_features,
    feature_matrix,
    feature_row_to_point_cloud,
    feature_rows_to_point_clouds,
)


def test_feature_vector_length_and_names():
    features = condition_features(np.sin(np.linspace(0, 10, 500)))
    assert features.shape == (len(FEATURE_NAMES),) == (6,)
    assert np.all(np.isfinite(features))


def test_known_values_for_simple_signal():
    signal = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    features = condition_features(signal)
    named = dict(zip(FEATURE_NAMES, features))
    assert named["rms"] == pytest.approx(1.0)
    assert named["variance"] == pytest.approx(1.0)
    assert named["crest_factor"] == pytest.approx(1.0)
    assert named["peak_to_peak"] == pytest.approx(2.0)


def test_impulsive_signal_has_higher_kurtosis_and_crest():
    smooth = np.sin(np.linspace(0, 20, 1000))
    impulsive = smooth.copy()
    impulsive[::100] += 5.0
    smooth_feats = dict(zip(FEATURE_NAMES, condition_features(smooth)))
    impulsive_feats = dict(zip(FEATURE_NAMES, condition_features(impulsive)))
    assert impulsive_feats["kurtosis"] > smooth_feats["kurtosis"]
    assert impulsive_feats["crest_factor"] > smooth_feats["crest_factor"]


def test_too_short_signal_rejected():
    with pytest.raises(ValueError):
        condition_features(np.array([1.0, 2.0]))


def test_feature_matrix_shape():
    windows = np.vstack([np.sin(np.linspace(0, 10, 200))] * 4)
    assert feature_matrix(windows).shape == (4, 6)
    with pytest.raises(ValueError):
        feature_matrix(windows[0])


def test_feature_row_to_point_cloud_shape_and_determinism():
    row = np.arange(6.0)
    cloud = feature_row_to_point_cloud(row)
    assert cloud.shape == (4, 3)
    assert np.array_equal(cloud, feature_row_to_point_cloud(row))
    # Each point's coordinates are a subset of the row values.
    for point in cloud:
        assert all(value in row for value in point)


def test_feature_row_to_point_cloud_validation():
    with pytest.raises(ValueError):
        feature_row_to_point_cloud(np.arange(5.0))
    with pytest.raises(ValueError):
        feature_row_to_point_cloud(np.arange(6.0), num_points=21)


def test_feature_rows_to_point_clouds():
    rows = np.arange(12.0).reshape(2, 6)
    clouds = feature_rows_to_point_clouds(rows)
    assert len(clouds) == 2
    assert clouds[0].shape == (4, 3)
    with pytest.raises(ValueError):
        feature_rows_to_point_clouds(np.arange(10.0).reshape(2, 5))


def test_service_and_gearbox_imports_leave_scipy_stats_unloaded():
    """``scipy.stats`` (~30 MB, ~0.4 s) loads only when features are computed."""
    src = Path(__file__).resolve().parents[2] / "src"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    script = (
        "import sys\n"
        "import repro.serve, repro.core.api, repro.datasets.gearbox\n"
        "assert 'scipy.stats' not in sys.modules, 'scipy.stats was imported'\n"
        "from repro.datasets.features import condition_features\n"
        "condition_features([0.0, 1.0, 0.5, -1.0, 0.25])\n"
        "assert 'scipy.stats' in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120)
