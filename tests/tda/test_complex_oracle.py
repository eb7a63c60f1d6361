"""The array builders against an independent per-simplex oracle (``tests/complex_oracle.py``).

Every boundary matrix and Laplacian in the program comes from one array
builder, whichever way the complex was given.  These pins compare that
builder with the textbook construction on explicit complexes (labels that
are neither contiguous nor in order), on random point clouds, and on the
benchmark's own geometries: the ``noisy-ptm`` noisy circles and a
``sweep-exact`` gearbox window over its ε grid.
"""

import numpy as np
import pytest
from scipy import sparse

from complex_oracle import clique_levels, oracle_boundary, oracle_laplacian, oracle_levels
from perfbench.workloads import CLOUD_SIZES, SweepExact, cloud_for_qubits
from repro.datasets.gearbox import generate_gearbox_signal
from repro.experiments.worked_example import APPENDIX_SIMPLICES
from repro.tda.boundary import boundary_matrix
from repro.tda.complexes import SimplicialComplex
from repro.tda.distances import pairwise_distances
from repro.tda.laplacian import combinatorial_laplacian
from repro.tda.rips import flag_complex_arrays
from repro.tda.takens import TakensEmbedding


def assert_matches_oracle(complex_, levels, max_k):
    """Simplex order, ``∂_k`` and ``Δ_k`` in both formats, and ``∂_k∂_{k+1} = 0``."""
    arrays = complex_.arrays
    labels = np.asarray(getattr(complex_, "vertices", range(arrays.num_vertices)), dtype=np.int64)
    for k in range(max_k + 1):
        assert [tuple(row) for row in labels[arrays.simplices(k)].tolist()] == levels.get(k, [])
    for k in range(max_k + 2):
        expected = oracle_boundary(levels, k).toarray().astype(float)
        dense = boundary_matrix(complex_, k)
        csr = boundary_matrix(complex_, k, sparse_format=True)
        assert sparse.isspmatrix_csr(csr)
        assert dense.shape == csr.shape == expected.shape
        assert np.array_equal(dense, expected) and np.array_equal(csr.toarray(), expected)
        if k >= 1:
            upper = boundary_matrix(complex_, k + 1)
            assert not np.any(dense @ upper)
        expected = oracle_laplacian(levels, k)
        dense = combinatorial_laplacian(complex_, k)
        csr = combinatorial_laplacian(complex_, k, sparse_format=True)
        assert sparse.isspmatrix_csr(csr)
        assert dense.shape == csr.shape == expected.shape
        assert dense.tobytes() == expected.tobytes()
        assert np.array_equal(csr.toarray(), expected)


def random_flag_simplices(rng, n, p, max_dimension):
    """Cliques of a ``G(n, p)`` graph as vertex tuples, by brute force."""
    adjacency = np.triu(rng.random((n, n)) < p, 1)
    adjacency = adjacency | adjacency.T
    found = [(v,) for v in range(n)]
    frontier = found
    for _ in range(max_dimension):
        frontier = [s + (v,) for s in frontier for v in range(s[-1] + 1, n) if all(adjacency[u, v] for u in s)]
        found = found + frontier
    return found


@pytest.mark.parametrize("max_dimension", [1, 2, 3, 4])
def test_explicit_complexes_with_scattered_labels(max_dimension):
    """Labels ``3v + 7``, simplices shuffled and each given in a shuffled vertex order."""
    rng = np.random.default_rng(100 + max_dimension)
    for _ in range(12):
        n = int(rng.integers(2, 10))
        simplices = random_flag_simplices(rng, n, float(rng.uniform(0.3, 0.9)), max_dimension)
        relabelled = [tuple(rng.permutation([3 * v + 7 for v in s]).tolist()) for s in simplices]
        relabelled = [relabelled[i] for i in rng.permutation(len(relabelled))]
        levels = oracle_levels(relabelled)
        assert_matches_oracle(SimplicialComplex(relabelled), levels, max_dimension)


def test_closure_adds_the_faces_the_oracle_lists():
    rng = np.random.default_rng(9)
    for _ in range(10):
        maximal = [tuple(rng.choice(40, size=int(rng.integers(1, 6)), replace=False).tolist()) for _ in range(4)]
        complex_ = SimplicialComplex.from_maximal_simplices(maximal)
        faces = [
            tuple(v for bit, v in enumerate(s) if mask >> bit & 1)
            for s in maximal
            for mask in range(1, 2 ** len(s))
        ]
        assert_matches_oracle(complex_, oracle_levels(faces), complex_.dimension)


@pytest.mark.parametrize(
    "simplices",
    [
        APPENDIX_SIMPLICES,
        [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)],
        [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)],
        [(5,), (2**62,), (5, 2**62)],
    ],
    ids=["appendix", "hollow-triangle", "filled-triangle", "huge-label"],
)
def test_small_explicit_complexes(simplices):
    levels = oracle_levels(simplices)
    assert_matches_oracle(SimplicialComplex(simplices), levels, max(levels))


@pytest.mark.parametrize("max_dimension", [1, 2, 3, 4])
def test_point_cloud_arrays(max_dimension):
    rng = np.random.default_rng(200 + max_dimension)
    for _ in range(10):
        points = rng.normal(size=(int(rng.integers(2, 14)), 3))
        epsilon = float(rng.uniform(0.3, 2.5))
        dist = pairwise_distances(points)
        levels = clique_levels(dist, epsilon, max_dimension)
        assert_matches_oracle(flag_complex_arrays(dist, epsilon, max_dimension), levels, max_dimension)


@pytest.mark.parametrize("q", sorted(CLOUD_SIZES))
def test_noisy_ptm_circles(q):
    """The ``noisy-ptm`` clouds at ``max_dimension`` 2, one per seed."""
    for seed in range(3):
        cloud, epsilon = cloud_for_qubits(q, np.random.default_rng(seed))
        dist = pairwise_distances(cloud)
        arrays = flag_complex_arrays(dist, epsilon, 2)
        assert arrays.num_simplices(1) == CLOUD_SIZES[q][1]
        assert_matches_oracle(arrays, clique_levels(dist, epsilon, 2), 2)


def test_sweep_exact_gearbox_window():
    """One ``sweep-exact`` Takens window at each ε of the workload's grid."""
    pipeline = SweepExact.PIPELINE
    window = generate_gearbox_signal(500, faulty=True, seed=np.random.default_rng(4))
    cloud = TakensEmbedding(
        dimension=pipeline.takens_dimension, delay=pipeline.takens_delay, stride=pipeline.takens_stride
    ).transform(window)
    dist = pairwise_distances(cloud)
    max_dimension = pipeline.max_complex_dimension
    for epsilon in SweepExact.EPSILONS:
        arrays = flag_complex_arrays(dist, epsilon, max_dimension)
        assert_matches_oracle(arrays, clique_levels(dist, epsilon, max_dimension), max_dimension)
