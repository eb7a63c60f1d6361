"""Condition-monitoring features and the feature-row-to-point-cloud map.

The paper's second Section 5 experiment starts from six features extracted
from each gearbox time series [Kumar et al., IJCNN 2021] and, for every
six-dimensional row, builds a tiny point cloud of **four points in 3-D** by
"taking three features at a time".  The QTDA algorithm is then applied to
that cloud.

The six features used here are the standard vibration statistics (RMS,
variance, kurtosis, skewness, crest factor, peak-to-peak); the exact choice
does not matter for the reproduction as long as they separate the two classes
and produce non-degenerate point clouds.
"""

from __future__ import annotations

from itertools import combinations
from typing import List

import numpy as np

#: Names of the six extracted features, in column order.
FEATURE_NAMES = ("rms", "variance", "kurtosis", "skewness", "crest_factor", "peak_to_peak")


def condition_features(signal: np.ndarray) -> np.ndarray:
    """Six standard condition-monitoring features of one vibration window."""
    # Imported here, by its only user: ``scipy.stats`` costs ~30 MB and
    # ~0.4 s at import, which every importer of the gearbox dataset paid.
    from scipy import stats

    x = np.asarray(signal, dtype=float).reshape(-1)
    if x.size < 4:
        raise ValueError("signal too short for feature extraction (need >= 4 samples)")
    rms = float(np.sqrt(np.mean(x**2)))
    variance = float(np.var(x))
    kurtosis = float(stats.kurtosis(x, fisher=True, bias=False))
    skewness = float(stats.skew(x, bias=False))
    peak = float(np.max(np.abs(x)))
    crest = peak / rms if rms > 0 else 0.0
    peak_to_peak = float(np.max(x) - np.min(x))
    return np.array([rms, variance, kurtosis, skewness, crest, peak_to_peak])


def feature_matrix(windows: np.ndarray) -> np.ndarray:
    """Apply :func:`condition_features` to every row of a window matrix."""
    arr = np.asarray(windows, dtype=float)
    if arr.ndim != 2:
        raise ValueError("windows must be a 2-D array (one window per row)")
    return np.vstack([condition_features(row) for row in arr])


def feature_row_to_point_cloud(feature_row: np.ndarray, num_points: int = 4) -> np.ndarray:
    """Turn one six-dimensional feature row into a small 3-D point cloud.

    Following the paper, each point takes three of the six features at a
    time.  There are ``C(6, 3) = 20`` such triples; the first ``num_points``
    triples in a fixed deterministic order are used (the paper uses four
    points per row).

    Returns
    -------
    numpy.ndarray
        Shape ``(num_points, 3)``.
    """
    row = np.asarray(feature_row, dtype=float).reshape(-1)
    if row.size != 6:
        raise ValueError(f"feature row must have 6 entries, got {row.size}")
    if not 1 <= num_points <= 20:
        raise ValueError("num_points must be between 1 and C(6,3)=20")
    triples: List[tuple] = list(combinations(range(6), 3))
    # A fixed spread-out selection: first, last, and two middle triples, then
    # the rest in order — deterministic so the experiment is reproducible.
    order = [0, 19, 9, 10] + [i for i in range(20) if i not in (0, 19, 9, 10)]
    chosen = [triples[i] for i in order[:num_points]]
    return np.array([[row[i], row[j], row[k]] for i, j, k in chosen], dtype=float)


def feature_rows_to_point_clouds(features: np.ndarray, num_points: int = 4) -> List[np.ndarray]:
    """Vectorised convenience: one point cloud per feature row."""
    arr = np.asarray(features, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 6:
        raise ValueError("features must have shape (n_rows, 6)")
    return [feature_row_to_point_cloud(row, num_points=num_points) for row in arr]
