"""Simplicial complexes.

A simplicial complex ``K`` is a set of simplices closed under taking faces.
:class:`SimplicialComplex` stores the simplices grouped by dimension in a
deterministic (lexicographic) order; that order defines the rows/columns of
the boundary operators and hence of the combinatorial Laplacian, exactly as
in the worked example of Appendix A (Eqs. 13–17).
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import networkx as nx

from repro.tda.simplex import Simplex


def check_closed(simplices: set) -> None:
    """Raise ``ValueError`` unless the set of :class:`Simplex` holds every face
    of each of its members."""
    for simplex in simplices:
        for face in simplex.faces():
            if face not in simplices:
                raise ValueError(
                    f"{simplex} is present but its face {face} is missing; "
                    "pass close_downward=True to add faces automatically"
                )


class SimplicialComplex:
    """A finite abstract simplicial complex.

    Parameters
    ----------
    simplices:
        Any iterable of simplices (as :class:`Simplex`, tuples or lists of
        vertex indices).  Faces are *not* added automatically unless
        ``close_downward`` is true; by default the constructor validates
        closure and raises if a face is missing, because a combinatorial
        Laplacian built from a non-closed set is meaningless.
    close_downward:
        Add all missing faces instead of raising.
    """

    def __init__(self, simplices: Iterable, close_downward: bool = False):
        collected: set[Simplex] = set()
        for s in simplices:
            simplex = s if isinstance(s, Simplex) else Simplex(s)
            collected.add(simplex)
        if close_downward:
            closure: set[Simplex] = set()
            for simplex in collected:
                closure.update(simplex.all_subsimplices())
            collected = closure
        else:
            check_closed(collected)
        self._by_dim: Dict[int, List[Simplex]] = {}
        for simplex in collected:
            self._by_dim.setdefault(simplex.dimension, []).append(simplex)
        for dim in self._by_dim:
            self._by_dim[dim].sort(key=lambda s: s.vertices)

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
        simplices: List[Tuple[int, ...]] = [(int(v),) for v in graph.nodes]
        if max_dimension >= 1:
            simplices.extend(tuple(sorted((int(u), int(v)))) for u, v in graph.edges)
        if max_dimension >= 2:
            for clique in nx.enumerate_all_cliques(graph):
                size = len(clique)
                if size < 3:
                    continue
                if size > max_dimension + 1:
                    break  # enumerate_all_cliques yields cliques in non-decreasing size
                simplices.append(tuple(sorted(int(v) for v in clique)))
        return cls(simplices)

    # -- accessors -----------------------------------------------------------------
    @property
    def dimension(self) -> int:
        """Largest simplex dimension present (-1 for the empty complex)."""
        return max(self._by_dim) if self._by_dim else -1

    @property
    def vertices(self) -> Tuple[int, ...]:
        """Sorted tuple of vertex labels."""
        return tuple(s.vertices[0] for s in self._by_dim.get(0, []))

    @property
    def num_vertices(self) -> int:
        return len(self._by_dim.get(0, []))

    def simplices(self, dimension: Optional[int] = None) -> List[Simplex]:
        """All simplices, or only those of the given dimension, in canonical order."""
        if dimension is not None:
            return list(self._by_dim.get(dimension, []))
        out: List[Simplex] = []
        for dim in sorted(self._by_dim):
            out.extend(self._by_dim[dim])
        return out

    def num_simplices(self, dimension: Optional[int] = None) -> int:
        """``|S_k|`` for a given ``k``, or the total count when ``k`` is omitted."""
        if dimension is not None:
            return len(self._by_dim.get(dimension, []))
        return sum(len(v) for v in self._by_dim.values())

    def simplex_index(self, dimension: int) -> Dict[Simplex, int]:
        """Mapping simplex -> column index used by the boundary matrices."""
        return {s: i for i, s in enumerate(self._by_dim.get(dimension, []))}

    def __contains__(self, simplex) -> bool:
        s = simplex if isinstance(simplex, Simplex) else Simplex(simplex)
        return s in set(self._by_dim.get(s.dimension, []))

    def __len__(self) -> int:
        return self.num_simplices()

    def f_vector(self) -> Tuple[int, ...]:
        """``(|S_0|, |S_1|, ..., |S_dim|)`` — the face-count vector."""
        if not self._by_dim:
            return ()
        return tuple(self.num_simplices(k) for k in range(self.dimension + 1))

    # -- derived structures ------------------------------------------------------
    def skeleton(self, max_dimension: int) -> "SimplicialComplex":
        """The sub-complex of all simplices of dimension <= ``max_dimension``."""
        simplices = [s for k, group in self._by_dim.items() if k <= max_dimension for s in group]
        return SimplicialComplex(simplices)

    def one_skeleton_graph(self) -> nx.Graph:
        """The underlying graph (0- and 1-simplices)."""
        graph = nx.Graph()
        graph.add_nodes_from(self.vertices)
        graph.add_edges_from(tuple(s.vertices) for s in self._by_dim.get(1, []))
        return graph

    def star(self, vertex: int) -> List[Simplex]:
        """All simplices containing ``vertex``."""
        return [s for s in self.simplices() if vertex in s]

    def link(self, vertex: int) -> List[Simplex]:
        """The link of ``vertex``: faces of its star that do not contain it."""
        out = []
        for simplex in self.star(vertex):
            remaining = tuple(v for v in simplex.vertices if v != vertex)
            if remaining:
                out.append(Simplex(remaining))
        return sorted(set(out))

    def add_simplex(self, simplex, close_downward: bool = True) -> "SimplicialComplex":
        """Return a new complex with ``simplex`` (and its faces) added."""
        simplices = self.simplices() + [simplex if isinstance(simplex, Simplex) else Simplex(simplex)]
        return SimplicialComplex(simplices, close_downward=close_downward)

    def is_connected(self) -> bool:
        """Connectivity of the 1-skeleton (true for the empty complex)."""
        graph = self.one_skeleton_graph()
        if graph.number_of_nodes() == 0:
            return True
        return nx.is_connected(graph)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.simplices() == other.simplices()

    def __repr__(self) -> str:
        return f"SimplicialComplex(f_vector={self.f_vector()})"
