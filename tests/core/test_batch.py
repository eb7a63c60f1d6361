"""Tests for the batched feature engine, the spectrum cache and the fast paths."""

from contextlib import contextmanager

import numpy as np
import pytest
from scipy import sparse

from complex_oracle import clique_levels, oracle_laplacian, oracle_laplacian_int
from repro.core.backends import get_backend, temporary_backend
from repro.core.batch import BATCH_BACKENDS, BatchConfig, BatchFeatureEngine
from repro.core.config import QTDAConfig
from repro.core.estimator import QTDABettiEstimator
from repro.core.hamiltonian import SpectrumCache, build_hamiltonian, padded_spectrum
from repro.core.pipeline import PipelineConfig, QTDAPipeline
from repro.datasets.point_clouds import circle_cloud, clusters_cloud
from repro.tda.betti import betti_number
from repro.tda.laplacian import combinatorial_laplacian
from repro.tda.rips import RipsComplex, rips_complex


@pytest.fixture()
def clouds():
    return [circle_cloud(12), clusters_cloud(3, 5, seed=2), circle_cloud(8), clusters_cloud(2, 4, seed=5)]


@pytest.fixture()
def quantum_config():
    return PipelineConfig(
        epsilon=0.7,
        use_quantum=True,
        estimator=QTDAConfig(precision_qubits=4, shots=200, seed=42),
    )


# -- backend equivalence ---------------------------------------------------------

@pytest.mark.parametrize("backend", BATCH_BACKENDS)
def test_backends_bit_identical_under_fixed_seed(clouds, quantum_config, backend):
    """Same seed ⇒ identical feature matrices, regardless of execution backend."""
    reference = BatchFeatureEngine(quantum_config).transform_point_clouds(clouds)
    engine = BatchFeatureEngine(
        quantum_config, batch=BatchConfig(backend=backend, max_workers=2, chunk_size=1)
    )
    assert np.array_equal(reference, engine.transform_point_clouds(clouds))


def test_pipeline_batch_methods_match_engine(clouds, quantum_config):
    pipeline = QTDAPipeline(quantum_config)
    engine = BatchFeatureEngine(quantum_config)
    assert np.array_equal(
        pipeline.transform_point_clouds(clouds), engine.transform_point_clouds(clouds)
    )


def test_chunking_does_not_change_results(clouds, quantum_config):
    whole = BatchFeatureEngine(
        quantum_config, batch=BatchConfig(backend="threads", chunk_size=len(clouds))
    ).transform_point_clouds(clouds)
    split = BatchFeatureEngine(
        quantum_config, batch=BatchConfig(backend="threads", chunk_size=1)
    ).transform_point_clouds(clouds)
    assert np.array_equal(whole, split)


def test_transform_time_series_matches_pipeline():
    series = np.vstack([np.sin(np.linspace(0, 4 * np.pi, 60) + phase) for phase in (0.0, 0.5, 1.0)])
    config = PipelineConfig(
        epsilon=0.8, use_quantum=False, takens_dimension=2, takens_delay=5, takens_stride=3
    )
    engine_matrix = BatchFeatureEngine(config).transform_time_series(series)
    pipeline_matrix = QTDAPipeline(config).transform_time_series(series)
    assert np.array_equal(engine_matrix, pipeline_matrix)
    with pytest.raises(ValueError):
        BatchFeatureEngine(config).transform_time_series(series[0])


def test_empty_batch(quantum_config):
    engine = BatchFeatureEngine(quantum_config)
    assert engine.transform_point_clouds([]).shape == (0, 2)
    assert engine.sweep([], [0.5, 1.0]).shape == (2, 0, 2)


# -- sweep fast path -------------------------------------------------------------

def test_sweep_matches_per_epsilon_transforms(clouds):
    engine = BatchFeatureEngine(PipelineConfig(use_quantum=False))
    epsilons = [0.4, 0.7, 1.2]
    swept = engine.sweep(clouds, epsilons)
    assert swept.shape == (3, len(clouds), 2)
    for index, epsilon in enumerate(epsilons):
        assert np.array_equal(swept[index], engine.transform_point_clouds(clouds, epsilon=epsilon))


def test_features_and_exact_against_classical_betti(clouds, quantum_config):
    estimated, exact = BatchFeatureEngine(quantum_config).features_and_exact(clouds, epsilon=0.7)
    assert estimated.shape == exact.shape == (len(clouds), 2)
    for row, cloud in enumerate(clouds):
        complex_ = rips_complex(np.asarray(cloud, dtype=float), 0.7, 2)
        for col, k in enumerate((0, 1)):
            assert exact[row, col] == betti_number(complex_, k)


def test_fallback_path_above_dimension_two(clouds):
    """max_complex_dimension > 2 takes the same flag-array path, pinned to the object oracle."""
    config = PipelineConfig(epsilon=0.7, use_quantum=False, homology_dimensions=(0, 1, 2))
    assert config.max_complex_dimension == 3
    features = BatchFeatureEngine(config).transform_point_clouds(clouds[:2])
    assert features.shape == (2, 3)
    for row, cloud in enumerate(clouds[:2]):
        complex_ = rips_complex(np.asarray(cloud, dtype=float), 0.7, 3)
        assert features[row].tolist() == [betti_number(complex_, k) for k in (0, 1, 2)]


# -- flag-complex arrays ---------------------------------------------------------

def test_flag_arrays_match_clique_complex_and_laplacians():
    rng = np.random.default_rng(3)
    for max_dimension in (1, 2, 3, 4):
        for _ in range(15):
            points = rng.normal(size=(int(rng.integers(2, 16)), 3))
            epsilon = float(rng.uniform(0.3, 2.5))
            rips = RipsComplex.from_points(points, epsilon, max_dimension=max_dimension)
            arrays = rips.flag_arrays()
            levels = clique_levels(rips.distance_matrix, epsilon, max_dimension)
            assert arrays == rips.complex().arrays
            assert arrays.f_vector() == tuple(len(levels[k]) for k in sorted(levels))
            for k in range(max_dimension + 2):
                expected = oracle_laplacian(levels, k)
                got = combinatorial_laplacian(arrays, k)
                assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def test_flag_sparse_laplacians_match_dense_and_clique_complex():
    """The CSR build equals the dense scatter and the per-simplex oracle, as matrices."""
    rng = np.random.default_rng(3)
    for max_dimension in (1, 2, 3, 4):
        for _ in range(15):
            points = rng.normal(size=(int(rng.integers(2, 16)), 3))
            epsilon = float(rng.uniform(0.3, 2.5))
            rips = RipsComplex.from_points(points, epsilon, max_dimension=max_dimension)
            arrays = rips.flag_arrays()
            levels = clique_levels(rips.distance_matrix, epsilon, max_dimension)
            for k in range(max_dimension + 2):
                got = combinatorial_laplacian(arrays, k, sparse_format=True)
                assert sparse.isspmatrix_csr(got)
                dense = combinatorial_laplacian(arrays, k)
                oracle = oracle_laplacian(levels, k)
                assert got.shape == dense.shape == oracle.shape
                assert np.array_equal(got.toarray(), dense)
                assert np.array_equal(got.toarray(), oracle)


def test_flag_laplacian_scatter_on_isolated_vertices_and_empty_cofaces():
    """Isolated vertices (zero rows at k = 0) and an empty ``(k+1)``-level (no up part)."""
    rng = np.random.default_rng(5)
    far = 100.0 * np.eye(3)  # three points no edge reaches
    for max_dimension in (1, 2, 3):
        for _ in range(10):
            points = np.vstack([rng.normal(size=(int(rng.integers(3, 10)), 3)), far])
            rips = RipsComplex.from_points(points, float(rng.uniform(0.5, 2.0)), max_dimension=max_dimension)
            arrays = rips.flag_arrays()
            levels = clique_levels(rips.distance_matrix, rips.epsilon, max_dimension)
            assert arrays.num_simplices(max_dimension + 1) == 0
            for k in range(max_dimension + 1):
                expected = oracle_laplacian(levels, k)
                assert combinatorial_laplacian(arrays, k).tobytes() == expected.tobytes()
    # A 4-cycle has edges but no triangle: Δ_1 is the down part alone.
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    rips = RipsComplex.from_points(square, 1.01, max_dimension=2)
    assert rips.flag_arrays().num_simplices(2) == 0
    expected = oracle_laplacian(clique_levels(rips.distance_matrix, 1.01, 2), 1)
    assert combinatorial_laplacian(rips.flag_arrays(), 1).tobytes() == expected.tobytes()


def test_flag_laplacian_scatter_on_large_annulus():
    """The 450-point annulus at six neighbours: |S_1| = 2700, |S_2| = 6750."""
    n = 450
    epsilon = 2.0 * np.sin(6 * np.pi / n) + 1e-9
    rips = RipsComplex.from_points(circle_cloud(n), epsilon, max_dimension=3)
    arrays = rips.flag_arrays()
    levels = clique_levels(rips.distance_matrix, epsilon, 3)
    assert arrays.f_vector()[:3] == (450, 2700, 6750)
    got = combinatorial_laplacian(arrays, 1)
    assert got.tobytes() == oracle_laplacian(levels, 1).tobytes()
    # Δ_2 is a 364 MB dense matrix: the oracle's exact integer CSR is
    # compared with it one block of rows at a time.
    got = combinatorial_laplacian(arrays, 2)
    oracle = oracle_laplacian_int(levels, 2)
    assert got.shape == oracle.shape
    for start in range(0, got.shape[0], 500):
        block = oracle[start:start + 500].toarray().astype(float)
        assert got[start:start + 500].tobytes() == block.tobytes()


def test_flag_face_lookup_is_exact_past_int64_codes():
    """A 9-point cluster in a 1000-point cloud at dimension 8: ``n^k`` exceeds 2^63."""
    rng = np.random.default_rng(11)
    points = rng.uniform(0.0, 1000.0, size=(1000, 2))
    points[:9] = rng.uniform(0.0, 0.01, size=(9, 2))
    rips = RipsComplex.from_points(points, 0.1, max_dimension=8)
    arrays = rips.flag_arrays()
    assert 1000**8 > 2**63
    assert arrays.num_simplices(8) == 1
    assert arrays == rips.complex().arrays
    levels = clique_levels(rips.distance_matrix, 0.1, 8)
    for k in range(9):
        expected = oracle_laplacian(levels, k)
        assert combinatorial_laplacian(arrays, k).tobytes() == expected.tobytes()


# -- spectrum cache --------------------------------------------------------------

def test_padded_spectrum_matches_dense_padded_eigendecomposition():
    """The satellite criterion: analytic phases vs np.linalg.eigvalsh of the dense padded matrix."""
    rng = np.random.default_rng(11)
    cache = SpectrumCache()
    for _ in range(10):
        points = rng.normal(size=(int(rng.integers(3, 14)), 3))
        complex_ = rips_complex(points, float(rng.uniform(0.5, 2.0)), 2)
        for k in (0, 1):
            if complex_.num_simplices(k) == 0:
                continue
            laplacian = combinatorial_laplacian(complex_, k)
            for padding in ("identity", "zero"):
                spectrum = padded_spectrum(laplacian, delta=6.0, padding=padding, cache=cache)
                hamiltonian = build_hamiltonian(laplacian, delta=6.0, padding=padding)
                assert spectrum.num_qubits == hamiltonian.num_qubits
                assert spectrum.lambda_max == hamiltonian.padded.lambda_max
                dense_eigenvalues = np.linalg.eigvalsh(hamiltonian.matrix)
                np.testing.assert_allclose(
                    np.sort(spectrum.hamiltonian_eigenvalues()), dense_eigenvalues, atol=1e-9
                )
                np.testing.assert_allclose(
                    np.sort(spectrum.eigenphases()), np.sort(hamiltonian.eigenphases()), atol=1e-10
                )


def test_spectrum_cache_hits_are_bit_identical():
    laplacian = combinatorial_laplacian(rips_complex(circle_cloud(10), 0.7, 2), 1)
    cache = SpectrumCache(maxsize=4)
    first, lam_first = cache.spectrum(laplacian)
    second, lam_second = cache.spectrum(laplacian)
    assert cache.hits == 1 and cache.misses == 1
    assert lam_first == lam_second
    assert np.array_equal(first, second)


def test_spectrum_cache_sparse_hits_never_densify(monkeypatch):
    """Satellite regression: a cached sparse lookup must not materialise a
    dense matrix — the key comes from the CSR arrays (operator fingerprint),
    not from dense bytes."""
    from repro.core.operators import SparseOperator

    laplacian = combinatorial_laplacian(
        rips_complex(circle_cloud(10), 0.7, 2), 1, sparse_format=True
    )
    cache = SpectrumCache(maxsize=4)
    first = cache.spectrum(laplacian)  # miss — the eigendecomposition densifies
    assert cache.misses == 1

    def forbidden_to_dense(self):
        raise AssertionError("cached sparse lookup densified the Laplacian")

    monkeypatch.setattr(SparseOperator, "to_dense", forbidden_to_dense)
    second = cache.spectrum(laplacian)            # same object
    third = cache.spectrum(laplacian.copy())      # same content, fresh arrays
    assert cache.hits == 2
    assert np.array_equal(first[0], second[0]) and first[1] == second[1]
    assert np.array_equal(first[0], third[0]) and first[1] == third[1]


def test_cached_spectrum_cannot_be_corrupted_in_place():
    """Every lookup shares the cached eigenvalue array, so it is read-only."""
    path_laplacian = np.array([[1.0, -1.0], [-1.0, 1.0]])
    cache = SpectrumCache(maxsize=4)
    original = padded_spectrum(path_laplacian, cache=cache).eigenvalues.copy()
    with pytest.raises(ValueError, match="read-only"):
        padded_spectrum(path_laplacian, cache=cache).eigenvalues[:] = 7.0
    assert np.array_equal(padded_spectrum(path_laplacian, cache=cache).eigenvalues, original)


def test_spectrum_cache_lru_eviction():
    cache = SpectrumCache(maxsize=2)
    matrices = [np.diag([float(i), float(i + 1)]) for i in range(3)]
    for matrix in matrices:
        cache.spectrum(matrix)
    assert len(cache) == 2
    cache.spectrum(matrices[0])  # evicted above -> miss again
    assert cache.misses == 4


def test_cache_reuse_across_precision_sweep(clouds):
    """Table 1 pattern: same complexes under several precision settings hit the cache."""
    cache = SpectrumCache()
    for precision in (1, 3, 5):
        config = PipelineConfig(
            epsilon=0.7,
            use_quantum=True,
            estimator=QTDAConfig(precision_qubits=precision, shots=None),
        )
        BatchFeatureEngine(config, spectrum_cache=cache).transform_point_clouds(clouds)
    assert cache.hits >= 2 * cache.misses  # two of three sweeps fully served from cache


# -- operator formats (DESIGN.md §9) ---------------------------------------------

@contextmanager
def _declaring(backend: str, fmt: str):
    """Register ``backend``'s ``run`` under a new name that reads ``fmt``."""
    inner = get_backend(backend)

    class _Declaring:
        name = f"{backend}-as-{fmt}"
        description = f"{backend} handed {fmt} Laplacians"
        operator_format = fmt

        def run(self, problem, config, rng):
            return inner.run(problem, config, rng)

    with temporary_backend(_Declaring.name, _Declaring()):
        yield _Declaring.name


def test_engine_negotiates_format_from_estimator_backend(monkeypatch, clouds):
    """Flag-array Laplacians are built in the estimator backend's format;
    classical rows, which have no estimator, are built dense."""
    import repro.core.batch as batch_module

    built = []
    original = batch_module.laplacian_operator_from_flag_arrays

    def recording(arrays, k, sparse_format):
        built.append(sparse_format)
        return original(arrays, k, sparse_format=sparse_format)

    monkeypatch.setattr(batch_module, "laplacian_operator_from_flag_arrays", recording)
    cases = [
        (PipelineConfig(use_quantum=True), False),
        (PipelineConfig(use_quantum=True, estimator=QTDAConfig(backend="sparse-exact")), True),
        (PipelineConfig(use_quantum=True, estimator=QTDAConfig(backend="stochastic-trace")), True),
        (PipelineConfig(use_quantum=False, estimator=QTDAConfig(backend="sparse-exact")), False),
    ]
    for config, sparse_format in cases:
        built.clear()
        BatchFeatureEngine(config).transform_point_clouds(clouds[:1])
        assert built and set(built) == {sparse_format}


@pytest.mark.parametrize("backend", ["exact", "sparse-exact"])
def test_sparse_and_dense_handoff_are_bit_identical(clouds, backend):
    """Handing a backend either operator format changes cost only, never features."""
    def features(name):
        config = PipelineConfig(
            epsilon=0.7,
            use_quantum=True,
            estimator=QTDAConfig(precision_qubits=4, shots=None, backend=name),
        )
        return BatchFeatureEngine(config).transform_point_clouds(clouds)

    native = features(backend)
    for operator_format in ("dense", "sparse"):
        with _declaring(backend, operator_format) as name:
            assert np.array_equal(native, features(name))


def test_sparse_handoff_on_generic_clique_route(clouds):
    """Above dimension 2 the sparse handoff matches a dense one and the object oracle."""
    def config(name):
        return PipelineConfig(
            epsilon=0.7,
            use_quantum=True,
            homology_dimensions=(0, 1, 2),
            estimator=QTDAConfig(precision_qubits=3, shots=None, backend=name),
        )

    features = BatchFeatureEngine(config("sparse-exact")).transform_point_clouds(clouds[:2])
    with _declaring("sparse-exact", "dense") as name:
        dense = BatchFeatureEngine(config(name)).transform_point_clouds(clouds[:2])
    assert np.array_equal(features, dense)
    estimator = QTDABettiEstimator(config("sparse-exact").estimator)
    for row, cloud in enumerate(clouds[:2]):
        complex_ = rips_complex(np.asarray(cloud, dtype=float), 0.7, 3)
        for col, k in enumerate((0, 1, 2)):
            assert features[row, col] == estimator.estimate(complex_, k).betti_estimate


# -- configuration ---------------------------------------------------------------

def test_batch_config_validation():
    with pytest.raises(ValueError):
        BatchConfig(backend="fibers")
    with pytest.raises(ValueError):
        BatchConfig(max_workers=0)
    with pytest.raises(ValueError):
        BatchConfig(chunk_size=0)
    with pytest.raises(TypeError, match="operator_format"):
        BatchConfig(operator_format="dense")
    assert BatchConfig(spectrum_cache_size=0).spectrum_cache_size == 0


def test_cache_disabled_still_correct(clouds, quantum_config):
    cached = BatchFeatureEngine(quantum_config).transform_point_clouds(clouds)
    uncached = BatchFeatureEngine(
        quantum_config, batch=BatchConfig(spectrum_cache_size=0)
    ).transform_point_clouds(clouds)
    assert np.array_equal(cached, uncached)


# -- incremental sweeps (iter_sweep) ---------------------------------------------

def test_iter_sweep_bit_identical_to_sweep(clouds, quantum_config):
    """The streaming ε-major path reproduces the sample-major sweep exactly."""
    epsilons = (0.4, 0.7, 1.0)
    materialised = BatchFeatureEngine(quantum_config).sweep(clouds, epsilons)
    streamed = list(BatchFeatureEngine(quantum_config).iter_sweep(clouds, epsilons))
    assert [eps for eps, _ in streamed] == list(epsilons)
    assert np.array_equal(np.stack([block for _, block in streamed]), materialised)


def test_iter_sweep_bit_identical_with_stochastic_backend(clouds):
    """Per-sample estimator RNG state persists across yields (finite-shot +
    probe-heavy backend is the hardest case for ε-major reordering)."""
    config = PipelineConfig(
        epsilon=0.7,
        use_quantum=True,
        estimator=QTDAConfig(precision_qubits=3, shots=50, seed=11, backend="stochastic-trace"),
    )
    epsilons = (0.5, 0.9)
    materialised = BatchFeatureEngine(config).sweep(clouds, epsilons)
    streamed = np.stack([block for _, block in BatchFeatureEngine(config).iter_sweep(clouds, epsilons)])
    assert np.array_equal(streamed, materialised)


@pytest.mark.parametrize("backend", ["threads", "processes"])
def test_iter_sweep_parallel_backends_match_serial(clouds, quantum_config, backend):
    epsilons = (0.4, 0.8)
    serial = np.stack([b for _, b in BatchFeatureEngine(quantum_config).iter_sweep(clouds, epsilons)])
    engine = BatchFeatureEngine(quantum_config, batch=BatchConfig(backend=backend, max_workers=2))
    parallel = np.stack([b for _, b in engine.iter_sweep(clouds, epsilons)])
    assert np.array_equal(serial, parallel)


def test_iter_sweep_empty_clouds(quantum_config):
    blocks = list(BatchFeatureEngine(quantum_config).iter_sweep([], (0.5, 0.9)))
    assert [eps for eps, _ in blocks] == [0.5, 0.9]
    assert all(block.shape == (0, 2) for _, block in blocks)


def test_iter_sweep_early_exit_is_cheap(clouds, quantum_config):
    """Consuming only the first scale must not compute the rest."""
    calls = []

    class CountingCache(SpectrumCache):
        def spectrum(self, laplacian):
            calls.append(1)
            return super().spectrum(laplacian)

    engine = BatchFeatureEngine(quantum_config, spectrum_cache=CountingCache())
    iterator = engine.iter_sweep(clouds, (0.4, 0.7, 1.0))
    next(iterator)
    first_scale_calls = len(calls)
    iterator.close()
    assert len(calls) == first_scale_calls  # nothing ran past the first yield
