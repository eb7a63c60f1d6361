"""End-to-end feature-extraction pipeline (Section 5).

The paper's machine-learning experiments turn raw data into Betti-number
features in two flavours:

* *time-series route*: a 500-sample window is delay-embedded (Takens) into a
  point cloud, a Rips complex is built at grouping scale ``ε`` and
  ``{β̃_0, β̃_1}`` are estimated with the quantum algorithm;
* *tabular route*: each six-dimensional feature row is turned into a tiny
  four-point 3-D cloud (three features at a time), from which the same Betti
  features are extracted.

:class:`QTDAPipeline` implements both, with the estimator backend and all QPE
parameters configurable through :class:`repro.core.config.QTDAConfig`.  The
pipeline never inspects the backend name: any backend registered with
:func:`repro.core.backends.register_backend` (including ``sparse-exact`` and
the noisy circuit routes of ``statevector``) flows through unchanged via the
estimator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import QTDAConfig
from repro.core.estimator import BettiEstimate, QTDABettiEstimator, kernel_dimension
from repro.tda.complexes import ComplexArrays
from repro.tda.laplacian import combinatorial_laplacian
from repro.tda.rips import RipsComplex
from repro.tda.takens import TakensEmbedding


@dataclass
class PipelineConfig:
    """Configuration of the point-cloud-to-features pipeline.

    Attributes
    ----------
    epsilon:
        Grouping scale ``ε`` for the Rips complex.
    homology_dimensions:
        Which Betti numbers to extract (the paper uses ``(0, 1)``).
    max_complex_dimension:
        Largest simplex dimension in the Rips complex; must be at least
        ``max(homology_dimensions) + 1`` so that the relevant Laplacians see
        the "up" boundary term.
    takens_dimension, takens_delay, takens_stride:
        Delay-embedding parameters for the time-series route.
    use_quantum:
        When false, the exact classical Betti numbers are used as features —
        the "actual Betti numbers" rows/curves of Table 1 and Fig. 4.
    estimator:
        QPE estimator configuration (precision qubits, shots, backend, ...).
    """

    epsilon: float = 1.0
    homology_dimensions: Tuple[int, ...] = (0, 1)
    max_complex_dimension: Optional[int] = None
    takens_dimension: int = 3
    takens_delay: int = 2
    takens_stride: int = 1
    use_quantum: bool = True
    estimator: QTDAConfig = field(default_factory=QTDAConfig)

    def __post_init__(self):
        self.epsilon = float(self.epsilon)
        if not self.epsilon >= 0:
            raise ValueError("epsilon must be non-negative")
        self.homology_dimensions = tuple(int(k) for k in self.homology_dimensions)
        if not self.homology_dimensions:
            raise ValueError("homology_dimensions must not be empty")
        if any(k < 0 for k in self.homology_dimensions):
            raise ValueError("homology dimensions must be non-negative")
        if self.max_complex_dimension is None:
            self.max_complex_dimension = max(self.homology_dimensions) + 1
        if self.max_complex_dimension < max(self.homology_dimensions) + 1:
            raise ValueError(
                "max_complex_dimension must be at least max(homology_dimensions) + 1"
            )

    def as_dict(self) -> dict:
        """Plain-dictionary view, round-trippable through :meth:`from_dict`.

        The nested estimator config serialises through
        :meth:`repro.core.config.QTDAConfig.as_dict`.
        """
        from dataclasses import fields as dc_fields

        data = {f.name: getattr(self, f.name) for f in dc_fields(self) if f.name != "estimator"}
        data["estimator"] = self.estimator.as_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        """Inverse of :meth:`as_dict` (re-runs all field validation)."""
        data = dict(data)
        estimator = data.pop("estimator", None)
        if estimator is not None and not isinstance(estimator, QTDAConfig):
            estimator = QTDAConfig.from_dict(dict(estimator))
        if estimator is not None:
            data["estimator"] = estimator
        return cls(**data)


def apply_pipeline_overrides(base: PipelineConfig, overrides: dict) -> PipelineConfig:
    """``dataclasses.replace`` with one wrinkle: ``max_complex_dimension`` is
    re-derived when only ``homology_dimensions`` is overridden.

    The base config's ``__post_init__`` has already resolved
    ``max_complex_dimension`` to a concrete integer, so carrying it through a
    plain ``replace`` would pin the override to the *old* homology dimensions
    (e.g. ``homology_dimensions=(0, 1, 2)`` against a resolved
    ``max_complex_dimension=2`` raises).
    """
    if not overrides:
        return base
    from dataclasses import replace

    if "homology_dimensions" in overrides and "max_complex_dimension" not in overrides:
        overrides = dict(overrides, max_complex_dimension=None)
    return replace(base, **overrides)


class QTDAPipeline:
    """Extract (estimated) Betti-number features from point clouds or time series."""

    def __init__(self, config: Optional[PipelineConfig] = None, **overrides):
        base = config if config is not None else PipelineConfig()
        base = apply_pipeline_overrides(base, overrides)
        self.config = base
        self._estimator = QTDABettiEstimator(base.estimator)
        self._takens = TakensEmbedding(
            dimension=base.takens_dimension,
            delay=base.takens_delay,
            stride=base.takens_stride,
        )
        self._engine = None  # lazily built QTDAService (see _service)

    # -- single-sample features -------------------------------------------------
    def features_from_point_cloud(self, points: np.ndarray, epsilon: Optional[float] = None) -> np.ndarray:
        """Betti-feature vector of one point cloud (one value per homology dimension).

        The estimates ``β̃_k``, or with ``use_quantum=False`` the exact ``β_k``.
        """
        arrays = self._flag_arrays(points, epsilon)
        dims = self.config.homology_dimensions
        if self.config.use_quantum:
            estimates = self._estimator.estimate_betti_numbers(arrays, dims, compute_exact=False)
            return np.asarray([estimate.betti_estimate for estimate in estimates], dtype=float)
        atol = self.config.estimator.zero_eigenvalue_atol
        exact = [kernel_dimension(combinatorial_laplacian(arrays, k), atol) for k in dims]
        return np.asarray(exact, dtype=float)

    def estimates_from_point_cloud(self, points: np.ndarray, epsilon: Optional[float] = None) -> List[BettiEstimate]:
        """Full :class:`BettiEstimate` objects (with exact values) for one cloud."""
        arrays = self._flag_arrays(points, epsilon)
        return self._estimator.estimate_betti_numbers(arrays, self.config.homology_dimensions)

    def _flag_arrays(self, points: np.ndarray, epsilon: Optional[float]) -> ComplexArrays:
        eps = self.config.epsilon if epsilon is None else float(epsilon)
        return RipsComplex.from_points(
            np.asarray(points, dtype=float), eps, max_dimension=self.config.max_complex_dimension
        ).flag_arrays()

    def features_from_time_series(self, series: np.ndarray, epsilon: Optional[float] = None) -> np.ndarray:
        """Delay-embed a scalar time series, then extract the Betti features."""
        cloud = self._takens.transform(np.asarray(series, dtype=float))
        return self.features_from_point_cloud(cloud, epsilon=epsilon)

    # -- batch features -----------------------------------------------------------
    def _service(self):
        """The lazily built :class:`repro.core.api.QTDAService` behind the batch methods.

        Built on first use (the import is deferred to avoid a module cycle)
        and kept for the pipeline's lifetime so the service's spectrum and
        result caches persist across calls — the same lifetime the
        pre-service batch engine had.
        """
        if self._engine is None:
            from repro.core.api import QTDAService

            # result_cache_size=0: the pre-service engine recomputed every
            # call, and caching here would pin full input datasets (requests
            # carry the clouds) for the pipeline's lifetime.  The spectrum
            # cache — which stores only small eigendecompositions — is the
            # reuse layer that matters, exactly as before.  The typed
            # boundary costs one O(dataset) tuple round trip per call; hot
            # loops that cannot afford it should use BatchFeatureEngine
            # directly.
            self._engine = QTDAService(result_cache_size=0)
        return self._engine

    def transform_point_clouds(self, clouds: Sequence[np.ndarray], epsilon: Optional[float] = None) -> np.ndarray:
        """Feature matrix (one row per cloud).

        Thin shim over the service API: builds a
        :class:`repro.core.api.PipelineRequest` and returns the result
        payload's feature matrix, bit-identical to the pre-service engine
        path (pinned by regression tests).  Sample ``i`` runs with the
        derived seed ``derive_seed(estimator.seed, i)``, so the result is
        reproducible per sample and identical to what the parallel engine
        backends produce for the same configuration.
        """
        from repro.core.api import PipelineRequest

        request = PipelineRequest(
            point_clouds=tuple(np.asarray(c, dtype=float) for c in clouds),
            epsilon=epsilon,
            pipeline=self.config,
        )
        return self._service().run(request).payload["features"]

    def transform_time_series(self, batch: np.ndarray, epsilon: Optional[float] = None) -> np.ndarray:
        """Feature matrix for a batch of time series (one series per row).

        Shim over the service API, like :meth:`transform_point_clouds`.
        """
        from repro.core.api import PipelineRequest

        request = PipelineRequest(
            time_series=np.asarray(batch, dtype=float),
            epsilon=epsilon,
            pipeline=self.config,
        )
        return self._service().run(request).payload["features"]

    @property
    def feature_names(self) -> Tuple[str, ...]:
        """Names of the emitted feature columns (``betti_0``, ``betti_1``, ...)."""
        return tuple(f"betti_{k}" for k in self.config.homology_dimensions)


def betti_feature_vector(
    points: np.ndarray,
    epsilon: float,
    homology_dimensions: Sequence[int] = (0, 1),
    use_quantum: bool = True,
    estimator_config: Optional[QTDAConfig] = None,
) -> np.ndarray:
    """One-call convenience wrapper around :class:`QTDAPipeline` for a single cloud."""
    config = PipelineConfig(
        epsilon=epsilon,
        homology_dimensions=tuple(homology_dimensions),
        use_quantum=use_quantum,
        estimator=estimator_config if estimator_config is not None else QTDAConfig(),
    )
    return QTDAPipeline(config).features_from_point_cloud(points)
