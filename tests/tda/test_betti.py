"""Tests for classical Betti numbers."""

import pytest

from repro.datasets.point_clouds import clusters_cloud
from repro.tda.betti import betti_number, betti_numbers, betti_summary, euler_characteristic
from repro.tda.complexes import SimplicialComplex
from repro.tda.homology import betti_numbers_gf2
from repro.tda.rips import rips_complex


def test_appendix_betti_numbers(appendix_k):
    """The worked example: one component, one loop (the hollow triangle 3-4-5)."""
    assert betti_numbers(appendix_k) == [1, 1, 0]


def test_rank_and_laplacian_methods_agree(appendix_k, hollow_triangle, filled_triangle, two_components):
    for complex_ in (appendix_k, hollow_triangle, filled_triangle, two_components):
        for k in range(complex_.dimension + 1):
            assert betti_number(complex_, k, method="rank") == betti_number(complex_, k, method="laplacian")


def test_unknown_method_rejected(appendix_k):
    with pytest.raises(ValueError):
        betti_number(appendix_k, 0, method="magic")


def test_hollow_vs_filled_triangle(hollow_triangle, filled_triangle):
    assert betti_numbers(hollow_triangle) == [1, 1]
    assert betti_numbers(filled_triangle) == [1, 0, 0]


def test_disconnected_components(two_components):
    assert betti_number(two_components, 0) == 2


def test_sphere_boundary_of_tetrahedron():
    """The boundary of a 3-simplex is a topological 2-sphere: β = (1, 0, 1)."""
    tetra = SimplicialComplex.from_maximal_simplices([(0, 1, 2, 3)])
    sphere = tetra.skeleton(2)
    assert betti_numbers(sphere) == [1, 0, 1]


def test_full_tetrahedron_is_contractible():
    tetra = SimplicialComplex.from_maximal_simplices([(0, 1, 2, 3)])
    assert betti_numbers(tetra) == [1, 0, 0, 0]


def test_empty_dimension_is_zero(hollow_triangle):
    assert betti_number(hollow_triangle, 5) == 0


def test_euler_characteristic_equals_alternating_betti_sum(appendix_k, hollow_triangle, two_components):
    for complex_ in (appendix_k, hollow_triangle, two_components):
        numbers = betti_numbers(complex_)
        assert euler_characteristic(complex_) == sum((-1) ** k * b for k, b in enumerate(numbers))


def test_circle_cloud_betti(circle_points):
    complex_ = rips_complex(circle_points, epsilon=0.7, max_dimension=2)
    assert betti_numbers(complex_, 1) == [1, 1]


def test_figure_eight_has_two_loops(figure_eight_points):
    complex_ = rips_complex(figure_eight_points, epsilon=0.6, max_dimension=2)
    assert betti_number(complex_, 1) == 2


def test_betti_summary(appendix_k):
    summary = betti_summary(appendix_k)
    assert summary["betti_numbers"] == [1, 1, 0]
    assert summary["euler_characteristic"] == 0
    assert summary["alternating_betti_sum"] == 0


@pytest.mark.parametrize("epsilon, components", [(2.0, 3), (100.0, 1)])
def test_clusters_merge_above_their_separation(epsilon, components):
    points = clusters_cloud(num_clusters=3, points_per_cluster=5, separation=10.0, spread=0.1, seed=1)
    complex_ = rips_complex(points, epsilon=epsilon, max_dimension=1)
    assert betti_numbers(complex_, 0) == [components]


@pytest.mark.parametrize("epsilon", [0.3, 0.7, 1.2])
def test_rips_betti_numbers_match_the_gf2_reference(circle_points, epsilon):
    complex_ = rips_complex(circle_points, epsilon=epsilon, max_dimension=2)
    assert betti_numbers(complex_, 1) == betti_numbers_gf2(complex_, 1)
