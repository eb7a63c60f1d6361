"""Batched Betti-feature extraction (the Section 5 experiments' hot path).

The paper's experiments extract ``{β̃_0, β̃_1}`` features from hundreds of
windows/rows; :class:`BatchFeatureEngine` fans those samples across a
``concurrent.futures`` worker pool and funnels every exact-backend estimate
through three reuse layers (DESIGN.md §7):

1. *distance reuse* — each sample's distance matrix is computed once and
   shared across every grouping scale ε of a sweep;
2. *vectorised complexes* — every Rips complex is built as integer arrays,
   one per dimension (:func:`repro.tda.rips.flag_complex_arrays`), and its
   Laplacians straight from them, with no per-simplex Python objects;
3. *spectrum cache* — Laplacian eigendecompositions are cached
   (:class:`repro.core.hamiltonian.SpectrumCache`), so revisiting a Laplacian
   across ε values, precision settings or repeated windows is free.

Determinism: sample ``i`` always runs with the derived seed
``derive_seed(config.estimator.seed, i)``, so the ``serial``, ``threads`` and
``processes`` backends return bit-identical feature matrices for a fixed
seed, regardless of worker count or chunking.

Estimator backends are orthogonal to these *execution* backends: the engine
builds a :class:`QTDABettiEstimator` per sample from ``config.estimator``, so
any backend registered in :mod:`repro.core.backends` (``exact``,
``sparse-exact``, ``stochastic-trace``, ``statevector``, ...) passes
through unchanged.  Each Laplacian is built from the flag arrays in the
format the estimator's backend reads (:attr:`QTDABettiEstimator.
operator_format`, DESIGN.md §9): ``sparse-exact`` and ``stochastic-trace``
get CSR matrices end to end, with no dense detour.  Classical rows, which
have no estimator, are built dense.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.estimator import QTDABettiEstimator, kernel_dimension
from repro.core.hamiltonian import SpectrumCache
from repro.core.pipeline import PipelineConfig, apply_pipeline_overrides
from repro.tda.betti import betti_number  # noqa: F401 - perfbench/tracing.py traces this name
from repro.tda.complexes import ComplexArrays
from repro.tda.distances import pairwise_distances
from repro.tda.laplacian import laplacian_operator_from_flag_arrays
from repro.tda.rips import flag_complex_arrays
from repro.tda.takens import TakensEmbedding
from repro.utils.rng import derive_seed
from repro.utils.validation import check_integer

#: Allowed execution backends of the batch engine.
BATCH_BACKENDS = ("serial", "threads", "processes")


@dataclass
class BatchConfig:
    """Execution knobs of :class:`BatchFeatureEngine`.

    Attributes
    ----------
    backend:
        ``"serial"`` (in-process loop, the reference), ``"threads"``
        (``ThreadPoolExecutor`` — NumPy/LAPACK release the GIL on the
        eigendecompositions, so threads already scale) or ``"processes"``
        (``ProcessPoolExecutor`` — full parallelism at pickling cost).
    max_workers:
        Pool size for the parallel backends (default: ``os.cpu_count()``).
    chunk_size:
        Samples per submitted task.  Defaults to ``ceil(n / (4 * workers))``
        so each worker sees a few chunks (load balancing) without per-sample
        dispatch overhead.
    spectrum_cache_size:
        LRU capacity of the per-engine (serial/threads) or per-worker
        (processes) spectrum cache; ``0`` disables caching.
    """

    backend: str = "serial"
    max_workers: Optional[int] = None
    chunk_size: Optional[int] = None
    spectrum_cache_size: int = 1024

    def __post_init__(self):
        if self.backend not in BATCH_BACKENDS:
            raise ValueError(f"backend must be one of {BATCH_BACKENDS}, got {self.backend!r}")
        if self.max_workers is not None:
            self.max_workers = check_integer(self.max_workers, "max_workers", minimum=1)
        if self.chunk_size is not None:
            self.chunk_size = check_integer(self.chunk_size, "chunk_size", minimum=1)
        self.spectrum_cache_size = check_integer(
            self.spectrum_cache_size, "spectrum_cache_size", minimum=0
        )

    def as_dict(self) -> dict:
        """Plain-dictionary view, round-trippable through :meth:`from_dict`."""
        from dataclasses import asdict

        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "BatchConfig":
        """Inverse of :meth:`as_dict` (re-runs all field validation)."""
        return cls(**dict(data))


@dataclass(frozen=True)
class _SampleTask:
    """One point cloud (as a distance matrix) × all requested grouping scales."""

    index: int
    distances: np.ndarray
    epsilons: Tuple[float, ...]
    seed: Optional[int]


def _flag_features(
    arrays: ComplexArrays,
    config: PipelineConfig,
    cache: Optional[SpectrumCache],
    estimator: Optional[QTDABettiEstimator],
    compute_exact: bool,
    operators: Optional[Dict[int, object]] = None,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Feature rows from prepared flag-complex arrays (the per-dimension loop).

    Shared by the per-sample sweep (:class:`_SampleSweeper`) and the
    streaming window engine (:class:`StreamingFeatureEngine`), so both
    routes run literally the same per-dimension code and stay bit-identical.
    Laplacians are built in the estimator's :attr:`~QTDABettiEstimator.
    operator_format`; without an estimator (classical rows) they are dense.

    ``operators`` is the streaming engine's reuse hook: a mutable mapping
    ``k -> LaplacianOperator`` whose existing entries are handed to the
    estimator verbatim (their memoised fingerprints keep
    :class:`SpectrumCache` keys stable across windows, so an unchanged
    complex skips both the Laplacian rebuild and the rehash), and whose
    missing entries are built here and stored back.
    """
    dims = config.homology_dimensions
    estimated = np.empty(len(dims))
    exact = np.empty(len(dims)) if compute_exact else None
    sparse = estimator is not None and estimator.operator_format == "sparse"
    for f_idx, k in enumerate(dims):
        if arrays.num_simplices(k) == 0:
            estimated[f_idx] = 0.0
            if exact is not None:
                exact[f_idx] = 0.0
            continue
        laplacian = operators.get(k) if operators is not None else None
        if laplacian is None:
            laplacian = laplacian_operator_from_flag_arrays(arrays, k, sparse_format=sparse)
            if operators is not None:
                operators[k] = laplacian
        exact_value: Optional[float] = None
        if exact is not None:
            atol = config.estimator.zero_eigenvalue_atol
            exact[f_idx] = exact_value = float(kernel_dimension(laplacian, atol, cache))
        if estimator is not None:
            estimate = estimator.estimate_from_laplacian(laplacian)
            estimated[f_idx] = float(estimate.betti_estimate)
        else:
            estimated[f_idx] = exact_value if exact_value is not None else 0.0
    return estimated, exact


class _SampleSweeper:
    """Stateful per-sample feature computer: one distance matrix, many ε.

    Holds exactly the state the per-sample ε loop threads through its
    iterations — the sample's estimator, whose RNG advances across calls, so
    finite-shot draws are identical whether the grouping scales arrive in one
    batch or one at a time.  Because the state lives here instead of in loop
    locals, the engine can evaluate a sweep *sample-major*
    (:func:`_sample_features`, the worker-pool unit) or *ε-major*
    (:meth:`BatchFeatureEngine.iter_sweep`, the streaming path) and produce
    bit-identical features either way.
    """

    def __init__(
        self,
        task: _SampleTask,
        config: PipelineConfig,
        cache: Optional[SpectrumCache],
        want_exact: bool,
    ):
        self.task = task
        self.config = config
        self.cache = cache
        self.compute_exact = want_exact or not config.use_quantum
        self.estimator: Optional[QTDABettiEstimator] = None
        if config.use_quantum:
            self.estimator = QTDABettiEstimator(
                config.estimator.replace(seed=task.seed), spectrum_cache=cache
            )

    def features_at(self, epsilon: float) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Feature rows ``(estimated (F,), exact (F,) or None)`` at one ε."""
        config = self.config
        arrays = flag_complex_arrays(self.task.distances, epsilon, config.max_complex_dimension)
        return _flag_features(arrays, config, self.cache, self.estimator, self.compute_exact)


def _sample_features(
    task: _SampleTask,
    config: PipelineConfig,
    cache: Optional[SpectrumCache],
    want_exact: bool,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Feature rows of one sample: ``(estimated (E, F), exact (E, F) or None)``.

    ``E`` indexes the grouping scales of the task, ``F`` the homology
    dimensions.  Pure given ``(task, config)`` — the execution backends rely
    on that for bit-identical results.
    """
    sweeper = _SampleSweeper(task, config, cache, want_exact)
    dims = config.homology_dimensions
    estimated = np.empty((len(task.epsilons), len(dims)))
    exact = np.empty_like(estimated) if sweeper.compute_exact else None
    for e_idx, epsilon in enumerate(task.epsilons):
        estimated_row, exact_row = sweeper.features_at(epsilon)
        estimated[e_idx] = estimated_row
        if exact is not None:
            exact[e_idx] = exact_row
    return estimated, exact


# -- process-pool plumbing ------------------------------------------------------

_PROCESS_CACHE: Optional[SpectrumCache] = None


def _process_cache(size: int) -> Optional[SpectrumCache]:
    """Per-worker-process spectrum cache, reused across chunks of one run."""
    global _PROCESS_CACHE
    if size <= 0:
        return None
    if _PROCESS_CACHE is None or _PROCESS_CACHE.maxsize != size:
        _PROCESS_CACHE = SpectrumCache(size)
    return _PROCESS_CACHE


def _run_chunk(payload) -> List[Tuple[int, Tuple[np.ndarray, Optional[np.ndarray]]]]:
    """Top-level (picklable) chunk runner for the ``processes`` backend."""
    config, cache_size, tasks, want_exact = payload
    cache = _process_cache(cache_size)
    return [(task.index, _sample_features(task, config, cache, want_exact)) for task in tasks]


class BatchFeatureEngine:
    """Batched, cached Betti-feature extraction over many samples.

    Semantically a vectorised :class:`repro.core.pipeline.QTDAPipeline`: the
    same :class:`PipelineConfig` describes *what* to compute, while
    :class:`BatchConfig` describes *how* (worker pool, chunking, cache).

    Examples
    --------
    >>> from repro.core.pipeline import PipelineConfig
    >>> from repro.datasets.point_clouds import circle_cloud
    >>> engine = BatchFeatureEngine(PipelineConfig(epsilon=0.7, use_quantum=False))
    >>> engine.transform_point_clouds([circle_cloud(10), circle_cloud(12)]).shape
    (2, 2)
    """

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        batch: Optional[BatchConfig] = None,
        spectrum_cache: Optional[SpectrumCache] = None,
        **overrides,
    ):
        base = config if config is not None else PipelineConfig()
        self.config = apply_pipeline_overrides(base, overrides)
        self.batch = batch if batch is not None else BatchConfig()
        if spectrum_cache is not None:
            self._cache: Optional[SpectrumCache] = spectrum_cache
        elif self.batch.spectrum_cache_size > 0:
            self._cache = SpectrumCache(self.batch.spectrum_cache_size)
        else:
            self._cache = None
        self._takens = TakensEmbedding(
            dimension=self.config.takens_dimension,
            delay=self.config.takens_delay,
            stride=self.config.takens_stride,
        )

    # -- public API -----------------------------------------------------------
    @property
    def spectrum_cache(self) -> Optional[SpectrumCache]:
        """The engine's spectrum cache, used by the serial/threads backends.

        The ``processes`` backend cannot see this object: worker processes
        keep their own per-process caches, built fresh for each transform
        call (a pool is created per call).  Cross-call cache reuse therefore
        requires the serial or threads backend.
        """
        return self._cache

    @property
    def feature_names(self) -> Tuple[str, ...]:
        return tuple(f"betti_{k}" for k in self.config.homology_dimensions)

    def transform_point_clouds(
        self, clouds: Sequence[np.ndarray], epsilon: Optional[float] = None
    ) -> np.ndarray:
        """Feature matrix ``(num_clouds, num_features)`` — one row per cloud."""
        distances = [pairwise_distances(np.asarray(c, dtype=float)) for c in clouds]
        return self.transform_distance_matrices(distances, epsilon=epsilon)

    def transform_distance_matrices(
        self, matrices: Sequence[np.ndarray], epsilon: Optional[float] = None
    ) -> np.ndarray:
        """Like :meth:`transform_point_clouds` for precomputed distance matrices."""
        eps = self.config.epsilon if epsilon is None else float(epsilon)
        results = self._execute(self._tasks(matrices, (eps,)), want_exact=False)
        if not results:
            return np.zeros((0, len(self.config.homology_dimensions)))
        return np.vstack([estimated[0] for estimated, _ in results])

    def transform_time_series(self, batch: np.ndarray, epsilon: Optional[float] = None) -> np.ndarray:
        """Delay-embed each row of ``batch`` and extract its Betti features."""
        arr = np.asarray(batch, dtype=float)
        if arr.ndim != 2:
            raise ValueError("batch must be 2-D: one time series per row")
        clouds = [self._takens.transform(row) for row in arr]
        return self.transform_point_clouds(clouds, epsilon=epsilon)

    def sweep(
        self, clouds: Sequence[np.ndarray], epsilons: Iterable[float]
    ) -> np.ndarray:
        """ε-sweep fast path: features of every cloud at every grouping scale.

        Each cloud's distance matrix is computed once; only the neighbourhood
        graph/complex is rebuilt per ε.  Returns an array of shape
        ``(num_epsilons, num_clouds, num_features)``.
        """
        scales = tuple(float(e) for e in epsilons)
        distances = [pairwise_distances(np.asarray(c, dtype=float)) for c in clouds]
        results = self._execute(self._tasks(distances, scales), want_exact=False)
        if not results:
            return np.zeros((len(scales), 0, len(self.config.homology_dimensions)))
        return np.stack([estimated for estimated, _ in results], axis=1)

    def iter_sweep(
        self, clouds: Sequence[np.ndarray], epsilons: Iterable[float]
    ) -> Iterator[Tuple[float, np.ndarray]]:
        """Incremental ε-sweep: yield ``(ε, features (num_clouds, F))`` per scale.

        Streaming counterpart of :meth:`sweep`, bit-identical to it for the
        same configuration: the per-sample estimator RNG the sweep threads
        through its ε loop lives in :class:`_SampleSweeper` objects that
        persist across yields, so evaluating ε-major instead of sample-major
        changes only *when* results become available, never their values.  Consumers that stop
        early pay only for the scales they consumed.

        The ``threads`` and ``processes`` batch backends both fan the
        per-ε sample loop across a thread pool here (per-sweeper RNG state
        cannot migrate between processes mid-sweep); each sweeper is touched
        by exactly one task per scale, so the features stay bit-identical to
        the serial order.
        """
        scales = tuple(float(e) for e in epsilons)
        distances = [pairwise_distances(np.asarray(c, dtype=float)) for c in clouds]
        tasks = self._tasks(distances, scales)
        num_features = len(self.config.homology_dimensions)
        if not tasks:
            for eps in scales:
                yield eps, np.zeros((0, num_features))
            return
        sweepers = [_SampleSweeper(task, self.config, self._cache, False) for task in tasks]
        if self.batch.backend == "serial":
            for eps in scales:
                yield eps, np.vstack([s.features_at(eps)[0] for s in sweepers])
            return
        workers = self.batch.max_workers or (os.cpu_count() or 1)
        workers = max(1, min(workers, len(sweepers)))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for eps in scales:
                rows = list(pool.map(lambda s: s.features_at(eps)[0], sweepers))
                yield eps, np.vstack(rows)

    def iter_windows(
        self,
        series: np.ndarray,
        window_length: int,
        stride: int = 1,
        epsilons: Optional[Iterable[float]] = None,
    ) -> Iterator["WindowFeatures"]:
        """Slide a window over one raw series through the streaming engine.

        Streaming counterpart of embedding every window and calling
        :meth:`sweep` / :meth:`iter_sweep` on the resulting clouds — and
        bit-identical to them (window ``i`` plays the role of sample ``i``,
        including its derived estimator seed).  A
        :class:`StreamingFeatureEngine` sharing this engine's spectrum cache
        reuses each window's complexes, operators and classical rows when
        they equal the previous window's.  ``series`` is copied on entry;
        yields one :class:`WindowFeatures` per window, lazily.
        """
        engine = StreamingFeatureEngine(
            self.config,
            window_length=window_length,
            stride=stride,
            epsilons=epsilons,
            spectrum_cache=self._cache,
            spectrum_cache_size=self.batch.spectrum_cache_size,
        )
        arr = np.array(series, dtype=float).reshape(-1)
        return (
            window
            for pos in range(0, arr.size, engine.stride)
            for window in engine.extend(arr[pos : pos + engine.stride])
        )

    def features_and_exact(
        self, clouds: Sequence[np.ndarray], epsilon: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(estimated, exact)`` feature matrices, one row per cloud.

        The exact classical Betti numbers ride along at marginal cost: they
        are kernel counts of spectra the estimator already needed (Eq. 6),
        served from the same cache.  When ``use_quantum`` is false both
        matrices are equal.
        """
        eps = self.config.epsilon if epsilon is None else float(epsilon)
        distances = [pairwise_distances(np.asarray(c, dtype=float)) for c in clouds]
        results = self._execute(self._tasks(distances, (eps,)), want_exact=True)
        if not results:
            empty = np.zeros((0, len(self.config.homology_dimensions)))
            return empty, empty.copy()
        estimated = np.vstack([est[0] for est, _ in results])
        exact = np.vstack([exact_rows[0] for _, exact_rows in results])
        return estimated, exact

    # -- execution ------------------------------------------------------------
    def _tasks(
        self, distances: Sequence[np.ndarray], epsilons: Tuple[float, ...]
    ) -> List[_SampleTask]:
        base_seed = self.config.estimator.seed
        return [
            _SampleTask(
                index=i,
                distances=np.asarray(d, dtype=float),
                epsilons=epsilons,
                seed=derive_seed(base_seed, i),
            )
            for i, d in enumerate(distances)
        ]

    def _execute(
        self, tasks: List[_SampleTask], want_exact: bool
    ) -> List[Tuple[np.ndarray, Optional[np.ndarray]]]:
        if not tasks:
            return []
        if self.batch.backend == "serial":
            return [_sample_features(t, self.config, self._cache, want_exact) for t in tasks]
        workers = self.batch.max_workers or (os.cpu_count() or 1)
        workers = max(1, min(workers, len(tasks)))
        chunk = self.batch.chunk_size or max(1, math.ceil(len(tasks) / (4 * workers)))
        chunks = [tasks[i : i + chunk] for i in range(0, len(tasks), chunk)]
        results: List[Optional[Tuple[np.ndarray, Optional[np.ndarray]]]] = [None] * len(tasks)
        if self.batch.backend == "threads":
            def run(chunk_tasks):
                return [
                    (t.index, _sample_features(t, self.config, self._cache, want_exact))
                    for t in chunk_tasks
                ]

            with ThreadPoolExecutor(max_workers=workers) as pool:
                for chunk_result in pool.map(run, chunks):
                    for index, value in chunk_result:
                        results[index] = value
        else:  # processes
            payloads = [
                (self.config, self.batch.spectrum_cache_size, chunk_tasks, want_exact)
                for chunk_tasks in chunks
            ]
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for chunk_result in pool.map(_run_chunk, payloads):
                    for index, value in chunk_result:
                        results[index] = value
        return results  # type: ignore[return-value]


# -- streaming ------------------------------------------------------------------


@dataclass(frozen=True)
class WindowFeatures:
    """One emitted window of a streaming sweep (see :class:`StreamingFeatureEngine`).

    ``index`` doubles as the estimator-seed derivation index, so window ``i``
    of a stream gets exactly the per-sample seed that cloud ``i`` of the
    equivalent batched sweep would (``derive_seed(config.estimator.seed, i)``)
    — the anchor of the bit-identity guarantee.
    """

    index: int                    #: window number, 0-based (= seed derivation index)
    start: int                    #: absolute raw-sample index of the window start
    epsilons: Tuple[float, ...]   #: grouping scales, in evaluation order
    features: np.ndarray          #: (num_epsilons, num_features) estimated Betti features
    unchanged: bool               #: every ε complex bit-identical to the previous window's


class _EpsilonState:
    """Per-ε streaming state: the window's flag complex plus reusable artefacts."""

    __slots__ = ("arrays", "operators", "row")

    def __init__(self, arrays: ComplexArrays):
        self.arrays = arrays
        #: k -> LaplacianOperator built from ``arrays``; kept while the arrays
        #: are, so their memoised fingerprints survive across windows.
        self.operators: Dict[int, object] = {}
        #: cached classical feature row (pure function of the arrays); never
        #: used in quantum mode, where per-window seeds must differ.
        self.row: Optional[np.ndarray] = None


class StreamingFeatureEngine:
    """Online sliding-window Betti features, bit-identical to the batch sweep.

    Feed raw time-series samples one at a time (:meth:`observe`) or in chunks
    (:meth:`extend`); every time a full window of ``window_length`` samples is
    available the engine emits its Betti features and advances the window by
    ``stride``.  Each window is built the way the batch sweep builds a cloud
    (DESIGN.md §13) — Takens embedding, :func:`pairwise_distances`, then
    :func:`flag_complex_arrays` per ε — so the features are **bit-identical**
    to :meth:`BatchFeatureEngine.sweep` over the same windows (window index =
    sample index).  What the engine adds is reuse between windows:

    - a distance matrix bitwise equal to the previous window's carries every
      ε state over;
    - otherwise an ε whose flag complex is content-equal to the previous
      window's keeps its state: its Laplacian operators, whose memoised
      fingerprints make :class:`SpectrumCache` lookups O(1), and in
      classical mode (``use_quantum=False``) its feature row, reused
      outright.  Quantum rows are never reused: per-window seeds differ.
    """

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        *,
        window_length: int,
        stride: int = 1,
        epsilons: Optional[Iterable[float]] = None,
        spectrum_cache: Optional[SpectrumCache] = None,
        spectrum_cache_size: int = 1024,
        **overrides,
    ):
        base = config if config is not None else PipelineConfig()
        self.config = apply_pipeline_overrides(base, overrides)
        self.window_length = check_integer(window_length, "window_length", minimum=1)
        self.stride = check_integer(stride, "stride", minimum=1)
        scales = tuple(
            float(e) for e in (epsilons if epsilons is not None else (self.config.epsilon,))
        )
        if not scales:
            raise ValueError("epsilons must contain at least one grouping scale")
        self.epsilons = scales
        if spectrum_cache is not None:
            self._cache: Optional[SpectrumCache] = spectrum_cache
        elif spectrum_cache_size > 0:
            self._cache = SpectrumCache(spectrum_cache_size)
        else:
            self._cache = None
        self._takens = TakensEmbedding(
            dimension=self.config.takens_dimension,
            delay=self.config.takens_delay,
            stride=self.config.takens_stride,
        )
        span = self._takens.window_size
        if self.window_length < span:
            raise ValueError(
                f"window_length={self.window_length} is shorter than the Takens span {span}"
            )
        self._points_per_window = (self.window_length - span) // self._takens.stride + 1
        self._buffer = np.zeros(0, dtype=float)
        self._buffer_start = 0  # absolute raw index of buffer[0]
        self._next_start = 0    # absolute raw index of the next window to emit
        self._window_index = 0
        self._distances: Optional[np.ndarray] = None
        self._states: Dict[float, _EpsilonState] = {}
        #: Observability counters (cumulative; surfaced by the observe endpoint).
        self.stats: Dict[str, int] = {
            "windows": 0,
            "unchanged_windows": 0,
            "feature_rows_reused": 0,
        }

    # -- public API -----------------------------------------------------------
    @property
    def feature_names(self) -> Tuple[str, ...]:
        return tuple(f"betti_{k}" for k in self.config.homology_dimensions)

    @property
    def points_per_window(self) -> int:
        """Embedded points per window under the configured Takens embedding."""
        return self._points_per_window

    @property
    def windows_emitted(self) -> int:
        return self._window_index

    @property
    def samples_seen(self) -> int:
        return self._buffer_start + int(self._buffer.size)

    def observe(self, sample: float) -> Optional["WindowFeatures"]:
        """Feed one raw sample; the completed window's features, or ``None``.

        A single sample completes at most one window (``stride >= 1``), so
        the return value is scalar — the live-serving call shape.
        """
        emitted = self.extend((float(sample),))
        return emitted[-1] if emitted else None

    def extend(self, samples: Iterable[float]) -> List["WindowFeatures"]:
        """Feed a chunk of raw samples; every window they complete, in order.

        The samples are copied, so the caller may reuse its array afterwards.
        """
        arr = np.array(samples, dtype=float).reshape(-1)
        if arr.size:
            self._buffer = np.concatenate([self._buffer, arr]) if self._buffer.size else arr
        emitted: List[WindowFeatures] = []
        while self._buffer_start + self._buffer.size - self._next_start >= self.window_length:
            emitted.append(self._emit())
        return emitted

    def process(self, series: np.ndarray) -> np.ndarray:
        """Feed a whole series; features stacked ``(num_epsilons, windows, F)``.

        Shape- and bit-compatible with :meth:`BatchFeatureEngine.sweep` over
        the same (embedded) sliding windows.
        """
        emitted = self.extend(series)
        if not emitted:
            return np.zeros((len(self.epsilons), 0, len(self.config.homology_dimensions)))
        return np.stack([window.features for window in emitted], axis=1)

    # -- window build -----------------------------------------------------------
    def _emit(self) -> "WindowFeatures":
        start = self._next_start
        unchanged = self._build_geometry(start)
        features = self._window_features()
        window = WindowFeatures(
            index=self._window_index,
            start=start,
            epsilons=self.epsilons,
            features=features,
            unchanged=unchanged,
        )
        self._window_index += 1
        self.stats["windows"] += 1
        self._next_start = start + self.stride
        drop = self._next_start - self._buffer_start
        if drop > 0:
            # Samples before the next window start can never be read again.
            self._buffer = self._buffer[drop:]
            self._buffer_start = self._next_start
        return window

    def _build_geometry(self, start: int) -> bool:
        """Build the per-ε complexes of the window at ``start``; ``True`` if unchanged."""
        offset = start - self._buffer_start
        window = self._buffer[offset : offset + self.window_length]
        distances = pairwise_distances(self._takens.transform(window))
        if self._distances is not None and np.array_equal(self._distances, distances):
            # Identical geometry: every ε state (arrays, operators,
            # fingerprints, classical feature rows) carries over untouched.
            self.stats["unchanged_windows"] += 1
            return True
        unchanged = True  # until an ε complex differs (or has no predecessor)
        self._distances = distances
        for eps in self.epsilons:
            arrays = flag_complex_arrays(distances, eps, self.config.max_complex_dimension)
            state = self._states.get(eps)
            if state is None or state.arrays != arrays:
                self._states[eps] = _EpsilonState(arrays)
                unchanged = False
        if unchanged:
            self.stats["unchanged_windows"] += 1
        return unchanged

    def _window_features(self) -> np.ndarray:
        """Features of the current window — same loop order as the batch sweep."""
        estimator: Optional[QTDABettiEstimator] = None
        if self.config.use_quantum:
            estimator = QTDABettiEstimator(
                self.config.estimator.replace(
                    seed=derive_seed(self.config.estimator.seed, self._window_index)
                ),
                spectrum_cache=self._cache,
            )
        compute_exact = not self.config.use_quantum
        features = np.empty((len(self.epsilons), len(self.config.homology_dimensions)))
        for e_idx, eps in enumerate(self.epsilons):
            state = self._states[eps]
            if estimator is None and state.row is not None:
                # Classical features are a pure function of the (unchanged)
                # arrays; quantum estimates are not (per-window seeds differ
                # by design), so the row cache never applies there.
                features[e_idx] = state.row
                self.stats["feature_rows_reused"] += 1
                continue
            row, _ = _flag_features(
                state.arrays,
                self.config,
                self._cache,
                estimator,
                compute_exact,
                operators=state.operators,
            )
            features[e_idx] = row
            if estimator is None:
                state.row = row
        return features
