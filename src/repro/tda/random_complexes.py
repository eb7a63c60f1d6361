"""Random simplicial complexes for the Section 4 experiments.

The paper evaluates the QPE estimator on "randomly generated simplicial
complexes" for ``n ∈ {5, 10, 15}`` vertices (Fig. 3) without specifying the
generator.  Two natural generators are provided:

* :func:`random_simplicial_complex` — an Erdős–Rényi–style flag complex: a
  random graph ``G(n, p)`` whose clique complex (up to ``max_dimension``) is
  taken.  This matches the spirit of "random complex on n points" and always
  yields a valid (downward-closed) complex.
* :func:`random_point_cloud_complex` — a Vietoris–Rips complex of uniformly
  random points at a random grouping scale, the construction actually used in
  the paper's machine-learning pipeline.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.tda.complexes import SimplicialComplex
from repro.tda.rips import RipsComplex
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_integer


def random_simplicial_complex(
    num_vertices: int,
    edge_probability: float | None = None,
    max_dimension: int = 2,
    seed: SeedLike = None,
    ensure_nontrivial: bool = True,
) -> SimplicialComplex:
    """Random flag complex on ``num_vertices`` vertices.

    Parameters
    ----------
    num_vertices:
        Number of vertices ``n``.
    edge_probability:
        Edge probability of the underlying ``G(n, p)`` graph; when ``None`` a
        probability is drawn uniformly from ``[0.3, 0.7]`` so that repeated
        draws cover sparse and dense regimes (mirroring "random simplicial
        complexes" without a fixed density).
    max_dimension:
        Highest simplex dimension kept in the clique complex.
    seed:
        RNG seed.
    ensure_nontrivial:
        Redraw (up to a few times) if the complex has no simplices of
        dimension >= 1, so that ``Δ_1`` is not empty for the k=1 experiments.
    """
    import networkx as nx

    n = check_integer(num_vertices, "num_vertices", minimum=1)
    rng = as_rng(seed)
    attempts = 8 if ensure_nontrivial else 1
    complex_ = None
    for _ in range(attempts):
        p = float(edge_probability) if edge_probability is not None else float(rng.uniform(0.3, 0.7))
        if not 0.0 <= p <= 1.0:
            raise ValueError("edge_probability must lie in [0, 1]")
        adjacency = rng.random((n, n)) < p
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        iu, ju = np.triu_indices(n, k=1)
        for i, j in zip(iu, ju):
            if adjacency[i, j]:
                graph.add_edge(int(i), int(j))
        complex_ = SimplicialComplex.from_graph(graph, max_dimension=max_dimension)
        if not ensure_nontrivial or complex_.num_simplices(1) > 0:
            return complex_
    return complex_


def random_point_cloud_complex(
    num_points: int,
    ambient_dimension: int = 3,
    epsilon: float | None = None,
    max_dimension: int = 2,
    seed: SeedLike = None,
) -> Tuple[SimplicialComplex, np.ndarray, float]:
    """Vietoris–Rips complex of a random point cloud.

    Points are drawn uniformly from the unit cube; when ``epsilon`` is not
    given it is drawn uniformly between the 25th and 75th percentile of the
    pairwise distances, which keeps the complex away from the trivial
    extremes (fully disconnected / complete).

    Returns
    -------
    (complex, points, epsilon)
    """
    n = check_integer(num_points, "num_points", minimum=1)
    dim = check_integer(ambient_dimension, "ambient_dimension", minimum=1)
    rng = as_rng(seed)
    points = rng.random((n, dim))
    rips = None
    if epsilon is None:
        from repro.tda.distances import pairwise_distances

        dist = pairwise_distances(points)
        if n > 1:
            iu, ju = np.triu_indices(n, k=1)
            lo, hi = np.percentile(dist[iu, ju], [25, 75])
            epsilon = float(rng.uniform(lo, hi))
        else:
            epsilon = 0.0
    rips = RipsComplex.from_points(points, float(epsilon), max_dimension=max_dimension)
    return rips.complex(), points, float(epsilon)
