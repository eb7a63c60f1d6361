"""Simplicial complexes.

A simplicial complex ``K`` is a set of simplices closed under taking faces.
Every complex is stored as :class:`ComplexArrays`: one lexicographically
sorted int64 array of vertex ranks per dimension.  That order defines the
rows/columns of the boundary operators and hence of the combinatorial
Laplacian, exactly as in the worked example of Appendix A (Eqs. 13–17).
Point clouds become arrays directly (:func:`repro.tda.rips.flag_complex_arrays`);
a :class:`SimplicialComplex` adds its sorted vertex labels, and ranking
them keeps the order.  Both answer ``.arrays``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, takewhile
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.tda.simplex import Simplex, vertex_label

if TYPE_CHECKING:  # networkx loads only where a graph is read or built
    import networkx as nx


class _FaceCounts:
    """Face counts read off ``self.arrays``, shared by both complex types."""

    def num_simplices(self, dimension: Optional[int] = None) -> int:
        """``|S_k|`` for a given ``k``, or the total count when ``k`` is omitted."""
        arrays = self.arrays
        if dimension is not None:
            return len(arrays.simplices(int(dimension))) if dimension >= 0 else 0
        return arrays.num_vertices + sum(len(level) for level in arrays.skeleton)

    def f_vector(self) -> Tuple[int, ...]:
        """``(|S_0|, |S_1|, ..., |S_dim|)`` — the face-count vector."""
        arrays = self.arrays
        counts = [arrays.num_vertices] + [len(level) for level in arrays.skeleton]
        while len(counts) > 1 and counts[-1] == 0:
            counts.pop()
        return tuple(counts) if arrays.num_vertices else ()

    @property
    def dimension(self) -> int:
        """Largest simplex dimension present (-1 for the empty complex)."""
        return len(self.f_vector()) - 1


@dataclass(frozen=True, eq=False)
class ComplexArrays(_FaceCounts):
    """A simplicial complex as plain integer arrays, one per dimension.

    Vertices are implicitly ``0..num_vertices-1``, and ``skeleton[k - 1]``
    holds the ``(|S_k|, k + 1)`` int64 array of ``k``-simplices for every
    ``1 <= k <= max_dimension``, each row sorted and the rows in
    lexicographic order.  The constructor checks nothing: closure is checked
    by :class:`SimplicialComplex`, and flag complexes are closed by
    construction.
    """

    num_vertices: int
    skeleton: Tuple[np.ndarray, ...]

    @property
    def arrays(self) -> "ComplexArrays":
        return self

    @property
    def max_dimension(self) -> int:
        return len(self.skeleton)

    def simplices(self, k: int) -> np.ndarray:
        """The ``(|S_k|, k + 1)`` array of ``k``-simplices (vertices as ``(n, 1)``)."""
        if k == 0:
            return np.arange(self.num_vertices, dtype=np.int64)[:, None]
        if 1 <= k <= self.max_dimension:
            return self.skeleton[k - 1]
        return np.zeros((0, k + 1), dtype=np.int64)

    def face_rows(self, k: int) -> np.ndarray:
        """Row of each face among the ``(k-1)``-simplices, shape ``(|S_k|, k+1)``, ``k >= 1``.

        Column ``t`` holds the face that drops vertex ``t``.  At ``k = 1`` the
        faces are vertex ids; above that, each face is looked up among the
        sorted ``(k-1)``-simplices.  A face that is not there gets some row in
        range; :class:`SimplicialComplex` compares the rows to find it.
        """
        simplices = self.simplices(k)
        if k == 1:
            return simplices[:, ::-1]
        faces = _faces(simplices).reshape(-1, k)  # face t of simplex i is row i·(k+1) + t
        return _row_index(self.simplices(k - 1), faces, self.num_vertices).reshape(len(simplices), k + 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComplexArrays):
            return NotImplemented
        f_vector = self.f_vector()
        return f_vector == other.f_vector() and all(
            np.array_equal(self.simplices(k), other.simplices(k)) for k in range(1, len(f_vector))
        )


def _faces(simplices: np.ndarray) -> np.ndarray:
    """``(|S_k|, k+1, k)``: face ``t`` of each simplex drops its vertex ``t``."""
    size = simplices.shape[1]
    keep = [[c for c in range(size) if c != t] for t in range(size)]
    return simplices[:, keep]


def _row_index(rows: np.ndarray, queries: np.ndarray, num_vertices: int) -> np.ndarray:
    """Positions of ``queries`` in the sorted ``rows`` (in range even for a missing query).

    A prefix is keyed by the rank of its shorter prefix times ``num_vertices``
    plus its last vertex, so keys stay below ``len(rows) · num_vertices``:
    exact where a base-``num_vertices`` code of a whole row overflows int64.
    """
    last = len(rows) - 1
    keys, query_keys = rows[:, 0], queries[:, 0]
    for c in range(1, rows.shape[1]):
        if c > 1:
            ranks = np.concatenate(([0], np.cumsum(keys[1:] != keys[:-1])))
            keys, query_keys = ranks, ranks[np.minimum(np.searchsorted(keys, query_keys), last)]
        keys = keys * num_vertices + rows[:, c]
        query_keys = query_keys * num_vertices + queries[:, c]
    return np.minimum(np.searchsorted(keys, query_keys), last)


def _sorted_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of ``rows`` in lexicographic order."""
    if len(rows) < 2:
        return rows
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    return rows[keep]


class SimplicialComplex(_FaceCounts):
    """A finite abstract simplicial complex.

    Parameters
    ----------
    simplices:
        Any iterable of simplices (as :class:`Simplex`, tuples or lists of
        vertex labels: integers in ``[0, 2**63)``).  Faces are *not* added
        automatically unless ``close_downward`` is true; by default the
        constructor validates closure and raises if a face is missing,
        because a combinatorial Laplacian built from a non-closed set is
        meaningless.
    close_downward:
        Add all missing faces instead of raising.
    """

    def __init__(self, simplices: Iterable, close_downward: bool = False):
        by_size: Dict[int, List[Tuple[int, ...]]] = {}
        for s in simplices:
            vertices = s.vertices if isinstance(s, Simplex) else tuple(map(vertex_label, s))
            if not vertices:
                raise ValueError("A simplex needs at least one vertex")
            by_size.setdefault(len(vertices), []).append(vertices)
        levels = [
            np.sort(np.array(by_size.get(size, []), dtype=np.int64).reshape(-1, size), axis=1)
            for size in range(1, max(by_size, default=0) + 1)
        ]
        for level in levels[1:]:
            repeated = np.flatnonzero(np.any(level[:, 1:] == level[:, :-1], axis=1))
            if repeated.size:
                raise ValueError(f"Simplex vertices must be distinct, got {tuple(level[repeated[0]].tolist())}")
        labels = np.unique(np.concatenate([level.ravel() for level in levels])) if levels else np.zeros(0, np.int64)
        ranked = [np.searchsorted(labels, level) for level in levels]
        if close_downward:
            for size in range(len(ranked), 1, -1):
                # Deduplicate before taking faces: shared faces would multiply level by level.
                ranked[size - 1] = _sorted_rows(ranked[size - 1])
                ranked[size - 2] = np.concatenate([ranked[size - 2], _faces(ranked[size - 1]).reshape(-1, size - 1)])
        self._labels = labels
        self._arrays = ComplexArrays(len(labels), tuple(_sorted_rows(level) for level in ranked[1:]))
        if not close_downward:
            given = np.zeros(len(labels), dtype=bool)
            if ranked:
                given[ranked[0].ravel()] = True
            self._check_closed(given)

    def _check_closed(self, given: np.ndarray) -> None:
        """Raise ``ValueError`` unless every face of every simplex is present.

        ``given`` marks the vertex ranks passed as 0-simplices.  Above
        dimension 1, each face's row from :meth:`ComplexArrays.face_rows`
        must hold that face.
        """
        arrays = self._arrays
        for k in range(1, arrays.max_dimension + 1):
            simplices, lower = arrays.simplices(k), arrays.simplices(k - 1)
            faces = _faces(simplices)
            if k == 1:
                present = given[faces[:, :, 0]]
            elif len(lower):
                present = np.all(lower[arrays.face_rows(k)] == faces, axis=2)
            else:
                present = np.zeros(faces.shape[:2], dtype=bool)
            if not present.all():
                row, t = np.argwhere(~present)[0]
                raise ValueError(
                    f"{self._simplex(simplices[row])} is present but its face "
                    f"{self._simplex(faces[row, t])} is missing; "
                    "pass close_downward=True to add faces automatically"
                )

    def _simplex(self, ranks: np.ndarray) -> Simplex:
        return Simplex(self._labels[ranks].tolist())

    # -- constructors -----------------------------------------------------------
    @classmethod
    def from_maximal_simplices(cls, maximal: Iterable) -> "SimplicialComplex":
        """Build the downward closure of a set of maximal simplices."""
        return cls(maximal, close_downward=True)

    @classmethod
    def complete_complex(cls, num_vertices: int, max_dimension: int) -> "SimplicialComplex":
        """The full complex on ``num_vertices`` vertices up to ``max_dimension``."""
        simplices = []
        for k in range(0, max_dimension + 1):
            simplices.extend(combinations(range(num_vertices), k + 1))
        return cls(simplices)

    @classmethod
    def from_graph(cls, graph: nx.Graph, max_dimension: int = 2) -> "SimplicialComplex":
        """Clique (flag) complex of a graph up to ``max_dimension``.

        This is exactly the Vietoris–Rips construction once the graph is the
        ε-neighbourhood graph: every ``(k+1)``-clique becomes a ``k``-simplex.
        """
        import networkx as nx

        # enumerate_all_cliques yields every clique, vertices first, in non-decreasing size.
        return cls(takewhile(lambda clique: len(clique) <= max_dimension + 1, nx.enumerate_all_cliques(graph)))

    # -- accessors -----------------------------------------------------------------
    @property
    def arrays(self) -> ComplexArrays:
        """The complex on vertex ranks, read by every boundary and Laplacian builder."""
        return self._arrays

    @property
    def vertices(self) -> Tuple[int, ...]:
        """Sorted tuple of vertex labels."""
        return tuple(self._labels.tolist())

    @property
    def num_vertices(self) -> int:
        return len(self._labels)

    def simplices(self, dimension: Optional[int] = None) -> List[Simplex]:
        """All simplices, or only those of the given dimension, in canonical order."""
        if dimension is None:
            return [s for k in range(self.dimension + 1) for s in self.simplices(k)]
        if dimension < 0:
            return []
        return [Simplex(row) for row in self._labels[self._arrays.simplices(dimension)].tolist()]

    def simplex_index(self, dimension: int) -> Dict[Simplex, int]:
        """Mapping simplex -> column index used by the boundary matrices."""
        return {s: i for i, s in enumerate(self.simplices(dimension))}

    def __contains__(self, simplex) -> bool:
        s = simplex if isinstance(simplex, Simplex) else Simplex(simplex)
        rows = self._labels[self._arrays.simplices(s.dimension)]
        return bool(np.any(np.all(rows == np.array(s.vertices, dtype=np.int64), axis=1)))

    def __len__(self) -> int:
        return self.num_simplices()

    # -- derived structures ------------------------------------------------------
    def skeleton(self, max_dimension: int) -> "SimplicialComplex":
        """The sub-complex of all simplices of dimension <= ``max_dimension``."""
        levels = (self._labels[self._arrays.simplices(k)].tolist() for k in range(max_dimension + 1))
        return SimplicialComplex(chain.from_iterable(levels))

    def one_skeleton_graph(self) -> nx.Graph:
        """The underlying graph (0- and 1-simplices)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.vertices)
        graph.add_edges_from(map(tuple, self._labels[self._arrays.simplices(1)].tolist()))
        return graph

    def is_connected(self) -> bool:
        """Connectivity of the 1-skeleton (true for the empty complex)."""
        graph = self.one_skeleton_graph()
        if graph.number_of_nodes() == 0:
            return True
        import networkx as nx

        return nx.is_connected(graph)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return np.array_equal(self._labels, other._labels) and self._arrays == other._arrays

    def __repr__(self) -> str:
        return f"SimplicialComplex(f_vector={self.f_vector()})"
