"""An independent oracle for boundary matrices and combinatorial Laplacians.

The program builds every ``∂_k`` and ``Δ_k`` from sorted integer arrays
(``ComplexArrays.face_rows``).  This helper builds them the textbook way and
shares no code with it: each dimension's simplices are sorted vertex tuples
in Python's lexicographic order, a dict indexes the ``(k-1)``-simplices, and
a loop over every simplex writes ``(-1)^t`` in the row of the face that
drops vertex ``t`` (Eqs. 1–2).  ``Δ_k = ∂_kᵀ∂_k + ∂_{k+1}∂_{k+1}ᵀ`` (Eq. 5)
is formed in exact integer arithmetic, then converted to floats.

Flag complexes come from networkx's clique enumeration of the
ε-neighbourhood graph, thresholded here from the distance matrix.
"""

from __future__ import annotations

from itertools import takewhile
from typing import Dict, Iterable, List, Tuple

import networkx as nx
import numpy as np
from scipy import sparse

Levels = Dict[int, List[Tuple[int, ...]]]


def oracle_levels(simplices: Iterable[Iterable[int]]) -> Levels:
    """Distinct simplices as sorted tuples, grouped by dimension, each group sorted."""
    levels: Levels = {}
    for simplex in {tuple(sorted(int(v) for v in s)) for s in simplices}:
        levels.setdefault(len(simplex) - 1, []).append(simplex)
    return {k: sorted(group) for k, group in levels.items()}


def clique_levels(distance_matrix: np.ndarray, epsilon: float, max_dimension: int) -> Levels:
    """The flag complex of the ε-neighbourhood graph, by networkx cliques."""
    dist = np.asarray(distance_matrix, dtype=float)
    n = dist.shape[0]
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(zip(*np.nonzero(np.triu(dist <= epsilon, 1))))
    # enumerate_all_cliques yields cliques in non-decreasing size.
    return oracle_levels(takewhile(lambda c: len(c) <= max_dimension + 1, nx.enumerate_all_cliques(graph)))


def oracle_boundary(levels: Levels, k: int) -> sparse.csr_matrix:
    """``∂_k`` as an int64 matrix of shape ``(|S_{k-1}|, |S_k|)`` (``(0, |S_0|)`` at ``k = 0``)."""
    columns = levels.get(k, [])
    if k == 0:
        return sparse.csr_matrix((0, len(columns)), dtype=np.int64)
    index = {simplex: row for row, simplex in enumerate(levels.get(k - 1, []))}
    rows, cols, data = [], [], []
    for col, simplex in enumerate(columns):
        for t in range(len(simplex)):
            rows.append(index[simplex[:t] + simplex[t + 1 :]])
            cols.append(col)
            data.append((-1) ** t)
    shape = (len(index), len(columns))
    return sparse.csr_matrix((np.array(data, dtype=np.int64), (rows, cols)), shape=shape)


def oracle_laplacian_int(levels: Levels, k: int) -> sparse.csr_matrix:
    """``∂_kᵀ∂_k + ∂_{k+1}∂_{k+1}ᵀ`` as an exact int64 sparse matrix."""
    d_k, d_k1 = oracle_boundary(levels, k), oracle_boundary(levels, k + 1)
    return (d_k.T @ d_k + d_k1 @ d_k1.T).tocsr()


def oracle_laplacian(levels: Levels, k: int) -> np.ndarray:
    """Dense float ``Δ_k`` (``0 x 0`` when there are no ``k``-simplices)."""
    return oracle_laplacian_int(levels, k).toarray().astype(float)
