"""Tests for the Vietoris–Rips construction."""

import numpy as np
import pytest

from repro.tda.betti import betti_numbers
from repro.tda.rips import RipsComplex, rips_complex


def test_three_points_all_connected_forms_triangle():
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]])
    complex_ = rips_complex(points, epsilon=1.5, max_dimension=2)
    assert complex_.f_vector() == (3, 3, 1)


def test_epsilon_zero_gives_isolated_vertices():
    points = np.random.default_rng(0).random((5, 2))
    complex_ = rips_complex(points, epsilon=0.0)
    assert complex_.f_vector() == (5,)


def test_large_epsilon_gives_complete_skeleton():
    points = np.random.default_rng(0).random((4, 2))
    complex_ = rips_complex(points, epsilon=10.0, max_dimension=2)
    assert complex_.num_simplices(1) == 6
    assert complex_.num_simplices(2) == 4


def test_max_dimension_respected():
    points = np.random.default_rng(1).random((5, 2))
    complex_ = rips_complex(points, epsilon=10.0, max_dimension=1)
    assert complex_.dimension == 1


def test_circle_has_single_loop(circle_points):
    complex_ = rips_complex(circle_points, epsilon=0.7, max_dimension=2)
    assert betti_numbers(complex_, 1) == [1, 1]


def test_clusters_have_three_components(three_clusters):
    complex_ = rips_complex(three_clusters, epsilon=1.5, max_dimension=2)
    assert betti_numbers(complex_, 0)[0] == 3


def test_from_distance_matrix_equivalent():
    points = np.random.default_rng(2).random((6, 3))
    from repro.tda.distances import pairwise_distances

    direct = RipsComplex.from_points(points, 0.8).complex()
    via_matrix = RipsComplex.from_distance_matrix(pairwise_distances(points), 0.8).complex()
    assert direct == via_matrix


def test_validation():
    with pytest.raises(ValueError):
        RipsComplex(np.zeros((2, 3)), 1.0)
    with pytest.raises(ValueError):
        RipsComplex(np.array([[0.0, 1.0], [2.0, 0.0]]), 1.0)  # asymmetric
    with pytest.raises(ValueError):
        RipsComplex(np.zeros((2, 2)), -1.0)


def test_complex_is_cached():
    rc = RipsComplex.from_points(np.random.default_rng(3).random((5, 2)), 0.5)
    assert rc.complex() is rc.complex()


def test_num_simplices_and_repr():
    rc = RipsComplex.from_points(np.array([[0.0], [0.5]]), 1.0)
    assert rc.num_points == 2
    assert rc.num_simplices(1) == 1
    assert "RipsComplex" in repr(rc)


@pytest.mark.parametrize("epsilon", [0.2, 0.5, 0.9])
def test_simplices_are_the_cliques_within_epsilon(epsilon):
    """A simplex is in the complex exactly when its diameter is at most ε."""
    from itertools import combinations

    from repro.tda.distances import pairwise_distances

    points = np.random.default_rng(4).random((8, 2))
    dist = pairwise_distances(points)
    expected = {
        subset
        for size in (1, 2, 3)
        for subset in combinations(range(len(points)), size)
        if all(dist[i, j] <= epsilon for i, j in combinations(subset, 2))
    }
    complex_ = rips_complex(points, epsilon=epsilon, max_dimension=2)
    assert {s.vertices for s in complex_.simplices()} == expected


@pytest.mark.parametrize(
    "epsilon, f_vector",
    [(0.99, (3,)), (1.0, (3, 1)), (2.0, (3, 2)), (np.sqrt(5.0), (3, 3, 1))],
)
def test_simplex_enters_at_its_diameter(epsilon, f_vector):
    """Edges of lengths 1, 2 and √5: each simplex enters once ε reaches its diameter."""
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    assert rips_complex(points, epsilon=epsilon, max_dimension=2).f_vector() == f_vector
