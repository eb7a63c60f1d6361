"""Point-cloud geometry: distance matrices and epsilon-neighbourhood graphs.

The paper's construction starts from a point cloud ``{x_i}`` with a distance
function ``d`` (Euclidean by default) and connects every pair of points at
distance at most the grouping scale ``ε``, producing the graph
``G_ε = (V, E_ε)`` from which the Vietoris–Rips complex is built.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Tuple

import numpy as np
from scipy.spatial.distance import cdist

if TYPE_CHECKING:  # networkx loads only where a graph is built
    import networkx as nx

MetricLike = str | Callable[[np.ndarray, np.ndarray], float]


def pairwise_distances(points: np.ndarray, metric: MetricLike = "euclidean") -> np.ndarray:
    """Symmetric matrix of pairwise distances between the rows of ``points``.

    Parameters
    ----------
    points:
        ``(n, m)`` array of ``n`` points with ``m`` features.
    metric:
        Any metric name accepted by :func:`scipy.spatial.distance.cdist`
        ("euclidean", "cityblock", "chebyshev", ...) or a callable
        ``f(x, y) -> float``.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ValueError(f"points must be a 2-D array, got shape {pts.shape}")
    if pts.shape[0] == 0:
        return np.zeros((0, 0))
    dist = cdist(pts, pts, metric=metric)
    # Enforce exact symmetry and a zero diagonal against floating-point noise.
    dist = (dist + dist.T) / 2.0
    np.fill_diagonal(dist, 0.0)
    return dist


def epsilon_edges(distance_matrix: np.ndarray, epsilon: float) -> List[Tuple[int, int]]:
    """Edges ``(i, j)`` (i < j) whose endpoints are within ``epsilon`` of each other."""
    dist = np.asarray(distance_matrix, dtype=float)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValueError("distance_matrix must be square")
    if not epsilon >= 0:
        raise ValueError("epsilon must be non-negative")
    iu, ju = np.triu_indices(dist.shape[0], k=1)
    mask = dist[iu, ju] <= epsilon
    return [(int(i), int(j)) for i, j in zip(iu[mask], ju[mask])]


def epsilon_graph(points_or_distances: np.ndarray, epsilon: float, *, is_distance_matrix: bool = False, metric: MetricLike = "euclidean") -> nx.Graph:
    """The ε-neighbourhood graph ``G_ε`` as a :class:`networkx.Graph`.

    Vertices are ``0..n-1``; each edge stores the pairwise distance in its
    ``weight`` attribute.

    Parameters
    ----------
    points_or_distances:
        Either an ``(n, m)`` point cloud or, when ``is_distance_matrix`` is
        true, a precomputed ``(n, n)`` distance matrix.
    epsilon:
        Grouping scale ``ε``.
    is_distance_matrix:
        Interpret the first argument as a distance matrix.
    metric:
        Distance metric when a point cloud is given.
    """
    if is_distance_matrix:
        dist = np.asarray(points_or_distances, dtype=float)
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise ValueError("distance matrix must be square")
    else:
        dist = pairwise_distances(points_or_distances, metric=metric)
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(dist.shape[0]))
    for i, j in epsilon_edges(dist, epsilon):
        graph.add_edge(i, j, weight=float(dist[i, j]))
    return graph


def diameter_bounds(points: np.ndarray, metric: MetricLike = "euclidean") -> Tuple[float, float]:
    """(min positive pairwise distance, max pairwise distance) of a cloud.

    Handy when choosing a grouping-scale sweep: below the lower bound the
    complex is a set of isolated vertices, above the upper bound it is a full
    simplex.  Duplicate points contribute zero distances, which are *not*
    positive and are therefore excluded from the lower bound; when every pair
    coincides (no positive distance exists) both bounds are 0.
    """
    dist = pairwise_distances(points, metric=metric)
    n = dist.shape[0]
    if n < 2:
        return (0.0, 0.0)
    iu, ju = np.triu_indices(n, k=1)
    values = dist[iu, ju]
    positive = values[values > 0.0]
    lower = float(positive.min()) if positive.size else 0.0
    return (lower, float(values.max()))
