"""Vietoris–Rips complex construction (the GUDHI ``RipsComplex`` substitute).

Given a point cloud (or a precomputed distance matrix) and a grouping scale
``ε``, the Vietoris–Rips complex contains a ``k``-simplex for every set of
``k + 1`` points that are *pairwise* within ``ε``.  Equivalently, it is the
clique (flag) complex of the ε-neighbourhood graph.  Every point cloud takes
that form as :func:`flag_complex_arrays`, a
:class:`~repro.tda.complexes.ComplexArrays` built level by level with no
closure check (a flag complex is closed by construction).
:meth:`RipsComplex.complex` enumerates the same cliques with networkx into a
:class:`SimplicialComplex`: an independent enumeration that the tests and
the benchmark's answer check compare the arrays against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.tda.complexes import ComplexArrays, SimplicialComplex
from repro.tda.distances import MetricLike, epsilon_graph, pairwise_distances
from repro.utils.validation import check_integer


@dataclass
class RipsComplex:
    """Vietoris–Rips complex of a point cloud at a fixed grouping scale.

    Attributes
    ----------
    distance_matrix:
        Symmetric ``(n, n)`` matrix of pairwise distances.
    epsilon:
        Grouping scale ``ε``; pairs at distance <= ``ε`` are connected.
    max_dimension:
        Largest simplex dimension to enumerate (2 is enough for ``β_0`` and
        ``β_1``, the features used throughout the paper).
    """

    distance_matrix: np.ndarray
    epsilon: float
    max_dimension: int = 2
    _complex: Optional[SimplicialComplex] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        dist = np.asarray(self.distance_matrix, dtype=float)
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise ValueError("distance_matrix must be a square matrix")
        if not np.allclose(dist, dist.T, atol=1e-9):
            raise ValueError("distance_matrix must be symmetric")
        if not float(self.epsilon) >= 0:
            raise ValueError("epsilon must be non-negative")
        self.distance_matrix = dist
        self.epsilon = float(self.epsilon)
        self.max_dimension = check_integer(self.max_dimension, "max_dimension", minimum=0)

    # -- constructors ----------------------------------------------------------
    @classmethod
    def from_points(
        cls,
        points: np.ndarray,
        epsilon: float,
        max_dimension: int = 2,
        metric: MetricLike = "euclidean",
    ) -> "RipsComplex":
        """Build from an ``(n, m)`` point cloud using ``metric`` distances."""
        return cls(pairwise_distances(points, metric=metric), epsilon, max_dimension)

    @classmethod
    def from_distance_matrix(
        cls, distance_matrix: np.ndarray, epsilon: float, max_dimension: int = 2
    ) -> "RipsComplex":
        """Build from a precomputed distance matrix."""
        return cls(np.asarray(distance_matrix, dtype=float), epsilon, max_dimension)

    # -- API --------------------------------------------------------------------
    @property
    def num_points(self) -> int:
        return int(self.distance_matrix.shape[0])

    def graph(self):
        """The ε-neighbourhood graph ``G_ε`` underlying the complex."""
        return epsilon_graph(self.distance_matrix, self.epsilon, is_distance_matrix=True)

    def complex(self) -> SimplicialComplex:
        """The simplicial complex ``K_ε`` from networkx cliques (cached after the first call)."""
        if self._complex is None:
            self._complex = SimplicialComplex.from_graph(self.graph(), max_dimension=self.max_dimension)
        return self._complex

    def num_simplices(self, dimension: Optional[int] = None) -> int:
        """Simplex count of ``K_ε`` (all dimensions or a single one)."""
        return self.complex().num_simplices(dimension)

    def flag_arrays(self) -> ComplexArrays:
        """The complex as :class:`ComplexArrays`, enumerated by :func:`flag_complex_arrays`."""
        return flag_complex_arrays(self.distance_matrix, self.epsilon, self.max_dimension)

    def __repr__(self) -> str:
        return (
            f"RipsComplex(num_points={self.num_points}, epsilon={self.epsilon:.4g}, "
            f"max_dimension={self.max_dimension})"
        )


def flag_complex_arrays(
    distance_matrix: np.ndarray, epsilon: float, max_dimension: int = 2
) -> ComplexArrays:
    """Vectorised flag-complex enumeration from a precomputed distance matrix.

    Array counterpart of ``SimplicialComplex.from_graph(epsilon_graph(...))``
    at any ``max_dimension``.  Level ``d`` extends every ``(d-1)``-simplex by
    each common neighbour above its last vertex.
    """
    dist = np.asarray(distance_matrix, dtype=float)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValueError("distance_matrix must be a square matrix")
    if not float(epsilon) >= 0:
        raise ValueError("epsilon must be non-negative")
    max_dimension = check_integer(max_dimension, "max_dimension", minimum=0)
    n = dist.shape[0]
    adjacency = dist <= float(epsilon)
    np.fill_diagonal(adjacency, False)
    skeleton: List[np.ndarray] = []
    if max_dimension >= 1:
        iu, ju = np.triu_indices(n, k=1)
        mask = adjacency[iu, ju]
        skeleton.append(np.stack([iu[mask], ju[mask]], axis=1).astype(np.int64))
    for d in range(2, max_dimension + 1):
        lower = skeleton[-1]
        # Row s of ``candidates`` flags the common neighbours v > last(s) of
        # simplex s.  np.nonzero walks rows (already lexicographic) then
        # columns (v ascending), so the extended simplices come out in
        # exactly the sorted order SimplicialComplex uses.
        candidates = adjacency[lower[:, 0]]
        for column in lower.T[1:]:
            candidates &= adjacency[column]
        candidates &= np.arange(n)[None, :] > lower[:, -1][:, None]
        rows, last = np.nonzero(candidates)
        level = np.empty((len(rows), d + 1), dtype=np.int64)
        level[:, :d] = lower[rows]
        level[:, d] = last
        skeleton.append(level)
    return ComplexArrays(num_vertices=n, skeleton=tuple(skeleton))


def rips_complex(
    points: np.ndarray,
    epsilon: float,
    max_dimension: int = 2,
    metric: MetricLike = "euclidean",
) -> SimplicialComplex:
    """One-call convenience: the Vietoris–Rips complex of ``points`` at scale ``epsilon``."""
    return RipsComplex.from_points(points, epsilon, max_dimension, metric).complex()
