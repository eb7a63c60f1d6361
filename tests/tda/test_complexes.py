"""Tests for SimplicialComplex."""

import re
from itertools import combinations

import networkx as nx
import numpy as np
import pytest

from repro.tda.complexes import SimplicialComplex
from repro.tda.simplex import Simplex


def test_closure_validation():
    with pytest.raises(ValueError):
        SimplicialComplex([(0, 1)])  # missing vertices
    # With closure requested the faces are added.
    complex_ = SimplicialComplex([(0, 1)], close_downward=True)
    assert complex_.num_simplices(0) == 2
    assert complex_.num_simplices(1) == 1


def test_from_maximal_simplices():
    complex_ = SimplicialComplex.from_maximal_simplices([(0, 1, 2)])
    assert complex_.f_vector() == (3, 3, 1)


def test_appendix_complex_f_vector(appendix_k):
    """Eq. 13 lists 5 vertices, 6 edges and 1 triangle."""
    assert appendix_k.f_vector() == (5, 6, 1)
    assert appendix_k.dimension == 2
    assert len(appendix_k) == 12


def test_simplices_ordering_is_canonical(appendix_k):
    edges = appendix_k.simplices(1)
    assert [s.vertices for s in edges] == [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)]


def test_simplex_index(appendix_k):
    index = appendix_k.simplex_index(1)
    assert index[Simplex([1, 2])] == 0
    assert index[Simplex([4, 5])] == 5


def test_contains(appendix_k):
    assert (1, 2, 3) in appendix_k
    assert (1, 4) not in appendix_k


def test_complete_complex_counts():
    complex_ = SimplicialComplex.complete_complex(4, 2)
    assert complex_.f_vector() == (4, 6, 4)


def test_from_graph_clique_complex():
    graph = nx.Graph([(0, 1), (1, 2), (0, 2), (2, 3)])
    complex_ = SimplicialComplex.from_graph(graph, max_dimension=2)
    assert complex_.num_simplices(2) == 1  # the triangle {0,1,2}
    assert complex_.num_simplices(1) == 4


def test_from_graph_respects_max_dimension():
    graph = nx.complete_graph(4)
    complex_ = SimplicialComplex.from_graph(graph, max_dimension=1)
    assert complex_.dimension == 1


def test_skeleton(appendix_k):
    skeleton = appendix_k.skeleton(1)
    assert skeleton.dimension == 1
    assert skeleton.num_simplices(0) == 5


def test_one_skeleton_graph(appendix_k):
    graph = appendix_k.one_skeleton_graph()
    assert graph.number_of_nodes() == 5
    assert graph.number_of_edges() == 6


def test_is_connected(appendix_k, two_components):
    assert appendix_k.is_connected()
    assert not two_components.is_connected()


def test_equality(hollow_triangle):
    same = SimplicialComplex([(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)])
    assert hollow_triangle == same


@pytest.mark.parametrize(
    "simplices, missing",
    [
        ([(0,), (1,), (0, 1, 2)], "Simplex[1, 2]"),
        ([(0,), (1,), (2,), (0, 1), (0, 2), (0, 1, 2)], "Simplex[1, 2]"),
        ([(7,), (9,), (7, 9), (7, 11)], "Simplex[11]"),
        ([(5,), (6,), (7,), (5, 6, 7)], "Simplex[6, 7]"),
        ([(1,), (2,), (1, 2), (1, 2, 3)], "Simplex[2, 3]"),
    ],
)
def test_closure_check_names_a_missing_face(simplices, missing):
    with pytest.raises(ValueError, match=rf"is present but its face {re.escape(missing)} is missing"):
        SimplicialComplex(simplices)


def test_closure_check_agrees_with_a_face_walk():
    """Random sets of simplices on six vertices: closed exactly when every face is there."""
    rng = np.random.default_rng(17)
    universe = [c for size in range(1, 5) for c in combinations(range(6), size)]
    for _ in range(300):
        chosen = {universe[i] for i in rng.choice(len(universe), size=int(rng.integers(1, 30)), replace=False)}
        closed = all(face in chosen for s in chosen for face in combinations(s, len(s) - 1) if face)
        labels = [tuple(int(v) * 5 + 2 for v in rng.permutation(s)) for s in chosen]
        if closed:
            assert SimplicialComplex(labels).num_simplices() == len(chosen)
        else:
            with pytest.raises(ValueError, match="is missing"):
                SimplicialComplex(labels)


def test_labels_are_validated_not_coerced():
    with pytest.raises(TypeError, match="vertex label"):
        SimplicialComplex([[0.9], [1.2], [0.9, 1.2]])
    with pytest.raises(TypeError, match="vertex label"):
        SimplicialComplex([["0"]])
    with pytest.raises(ValueError, match="vertex label"):
        SimplicialComplex([[10**30]])
    with pytest.raises(ValueError, match="distinct"):
        SimplicialComplex([(1,), (1, 1)])
    huge = SimplicialComplex([(3,), (2**63 - 1,), (3, 2**63 - 1)])
    assert huge.vertices == (3, 2**63 - 1)
    assert (3, 2**63 - 1) in huge and (2**63 - 1,) in huge and (4,) not in huge


def test_arrays_hold_vertex_ranks_in_lexicographic_order():
    complex_ = SimplicialComplex([(30,), (10,), (20,), (30, 10), (20, 30), (10, 20), (20, 10, 30)])
    assert complex_.vertices == (10, 20, 30)
    arrays = complex_.arrays
    assert arrays.arrays is arrays
    assert arrays.simplices(1).tolist() == [[0, 1], [0, 2], [1, 2]]
    assert arrays.simplices(2).tolist() == [[0, 1, 2]]
    assert arrays.f_vector() == complex_.f_vector() == (3, 3, 1)
    assert arrays.num_simplices() == len(complex_) == 7
    assert arrays.dimension == complex_.dimension == 2


def test_empty_complex():
    complex_ = SimplicialComplex([])
    assert complex_.f_vector() == () and complex_.dimension == -1 and len(complex_) == 0
    assert complex_.simplices() == [] and complex_.vertices == ()
