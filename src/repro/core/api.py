"""``repro.api`` — the unified, service-grade front door (DESIGN.md §10).

The repo grew four parallel entry points — ``QTDABettiEstimator.estimate``,
``QTDAPipeline.transform_*``, ``BatchFeatureEngine.run/sweep`` and the
per-figure experiment drivers — each with its own argument conventions,
seeding and result shape.  This module puts one typed request/response layer
over all of them:

* **Requests** are frozen, validated, hashable dataclasses with a versioned
  wire format (``as_dict``/``from_dict``, ``schema_version``):
  :class:`EstimationRequest` (one Betti estimate),
  :class:`PipelineRequest` (a batch of clouds/series/distance matrices to
  Betti features), :class:`SweepRequest` (a batch × ε-grid sweep),
  :class:`ExperimentRequest` (a named paper experiment) and
  :class:`ObserveRequest` (raw samples fed to a named online streaming
  session, served by the incremental sweep engine — DESIGN.md §13).
* **Results** always arrive in the same :class:`EstimationResult` envelope:
  a payload (the numbers a legacy entry point would have returned) plus
  :class:`Provenance` — backend name, negotiated operator format,
  spectrum-cache hit/miss deltas, wall time, seed and ``betti_std`` when the
  backend reports one.
* :class:`QTDAService` is the long-lived executor: it owns the shared
  :class:`~repro.core.hamiltonian.SpectrumCache`, a result cache and a worker
  pool.  ``run()`` is the sync path, ``submit()`` returns a future,
  ``map()`` fans a batch of requests across the pool, and ``stream_sweep()``
  yields per-ε results incrementally instead of materialising whole sweeps.

Numerics are bit-identical to the legacy entry points — the service routes
into exactly the same estimator/engine/driver code paths, and the regression
tests in ``tests/core/test_api.py`` pin that equivalence.
"""

from __future__ import annotations

import atexit
import copy
import hashlib
import json
import threading
import time
import weakref
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, ClassVar, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.core.backends import backend_capabilities, get_backend, preferred_format
from repro.core.batch import BatchConfig, BatchFeatureEngine, StreamingFeatureEngine
from repro.core.config import QTDAConfig
from repro.core.estimator import QTDABettiEstimator
from repro.core.hamiltonian import SpectrumCache
from repro.core.pipeline import PipelineConfig
from repro.tda.complexes import SimplicialComplex
from repro.tda.rips import RipsComplex
from repro.tda.takens import TakensEmbedding
from repro.utils.validation import check_bool, check_integer

#: Version of the request/result wire format.  Bump on any incompatible
#: change to the dictionaries emitted by ``as_dict`` (consumers validate it
#: through :meth:`EstimationResult.validate_dict`).
#: History: 4 — provenance gained required ``shards``/``shard_backend``/
#: ``device`` fields and ``QTDAConfig`` gained ``shards``/``shard_backend``/
#: ``devices`` (request fingerprints changed); 3 — provenance gained required
#: ``n_trajectories``/``noise_spec`` fields and ``QTDAConfig`` gained the
#: :class:`repro.quantum.channels.NoiseSpec` fields plus
#: ``n_trajectories``/``fuse_purified`` (request fingerprints changed); 2 —
#: provenance gained required ``engine_route``/``fused_gates`` fields and
#: ``QTDAConfig`` gained ``circuit_engine`` (request fingerprints changed);
#: 1 — initial service wire format.
SCHEMA_VERSION = 4

#: The request kinds the service understands, in dispatch order.
#: ``observe`` (added within schema version 3 — purely additive) feeds raw
#: time-series samples into a named streaming session and returns the windows
#: they completed (DESIGN.md §13).
REQUEST_KINDS = ("estimate", "pipeline", "sweep", "experiment", "observe")

#: Experiments addressable through :class:`ExperimentRequest` (the CLI
#: subcommand names).
EXPERIMENT_NAMES = ("fig3", "table1", "fig4", "appendix", "timeseries")


# ---------------------------------------------------------------------------
# Canonicalisation helpers
# ---------------------------------------------------------------------------


def _json_safe(value: Any) -> Any:
    """Recursively convert ``value`` into plain JSON-serialisable data."""
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Mapping):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_json_safe(v) for v in value]
    raise TypeError(f"value of type {type(value).__name__} is not JSON-serialisable: {value!r}")


def canonical_json(data: Mapping[str, Any]) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace) of ``data``."""
    return json.dumps(_json_safe(data), sort_keys=True, separators=(",", ":"))


def _freeze(value: Any) -> Any:
    """Recursively convert sequences/arrays/mappings to tuples (hashable).

    Mappings become ``tuple(sorted((key, value), ...))`` pairs; consumers
    that need the mapping back call ``dict(...)`` on them (the experiment
    runners do this for nested ``batch`` configs).
    """
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, Mapping):
        return tuple(sorted((str(k), _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def _freeze_clouds(clouds: Any, name: str) -> Tuple[Tuple[Tuple[float, ...], ...], ...]:
    """Normalise a sequence of point clouds to nested float tuples."""
    frozen = []
    for i, cloud in enumerate(clouds):
        arr = np.asarray(cloud, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"{name}[{i}] must be a 2-D point cloud, got shape {arr.shape}")
        frozen.append(tuple(tuple(float(x) for x in row) for row in arr))
    return tuple(frozen)


def _freeze_matrix(matrix: Any, name: str) -> Tuple[Tuple[float, ...], ...]:
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    return tuple(tuple(float(x) for x in row) for row in arr)


def _request_hash(self) -> int:
    """Content hash shared by every request class (see :meth:`fingerprint`).

    Requests whose config cannot serialise (an explicit ``noise_model``
    object) fall back to a per-type constant: they all collide in one hash
    bucket, but set/dict membership stays correct through ``__eq__``.
    """
    try:
        return hash((type(self).__name__, self.fingerprint()))
    except (TypeError, ValueError):
        return hash(type(self).__name__)


class _RequestBase:
    """Shared wire-format machinery of the request dataclasses."""

    kind: ClassVar[str]
    schema_version: ClassVar[int] = SCHEMA_VERSION

    def as_dict(self) -> Dict[str, Any]:  # pragma: no cover - overridden
        raise NotImplementedError

    def fingerprint(self) -> str:
        """Stable content hash of the request (the service's cache key).

        Computed once per instance (requests are frozen, so the digest is
        memoised) — repeated hashing/cache lookups do not re-serialise the
        geometry.
        """
        cached = getattr(self, "_fingerprint_cache", None)
        if cached is None:
            cached = hashlib.sha256(canonical_json(self.as_dict()).encode("utf-8")).hexdigest()
            object.__setattr__(self, "_fingerprint_cache", cached)
        return cached

    def replace(self, **overrides) -> "Request":
        """Copy with selected fields overridden (re-runs all validation)."""
        from dataclasses import replace as dc_replace

        return dc_replace(self, **overrides)

    def _envelope(self, body: Dict[str, Any]) -> Dict[str, Any]:
        return {"schema_version": self.schema_version, "kind": self.kind, **body}

    @staticmethod
    def _check_dict(data: Mapping[str, Any], expected_kind: str) -> Dict[str, Any]:
        data = dict(data)
        if "schema_version" not in data:
            # Unversioned documents are rejected rather than assumed current:
            # a future schema change must not silently misread old payloads.
            raise ValueError("request dict is missing 'schema_version'")
        version = data.pop("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported schema_version {version!r}; this build speaks version {SCHEMA_VERSION}"
            )
        kind = data.pop("kind", expected_kind)
        if kind != expected_kind:
            raise ValueError(f"expected a {expected_kind!r} request, got kind={kind!r}")
        return data


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimationRequest(_RequestBase):
    """One Betti-number estimation (the ``QTDABettiEstimator.estimate`` shape).

    Exactly one of ``simplices`` (an explicit simplicial complex) or
    ``points`` (a point cloud turned into a Rips complex at grouping scale
    ``epsilon``) must be given.  All geometry is normalised to nested tuples
    in ``__post_init__`` so requests are immutable and hashable; the nested
    :class:`~repro.core.config.QTDAConfig` carries every estimator knob.
    """

    kind: ClassVar[str] = "estimate"

    k: int = 1
    simplices: Optional[Tuple[Tuple[int, ...], ...]] = None
    points: Optional[Tuple[Tuple[float, ...], ...]] = None
    epsilon: Optional[float] = None
    max_dimension: Optional[int] = None
    compute_exact: bool = True
    config: QTDAConfig = field(default_factory=QTDAConfig)

    __hash__ = _request_hash

    def __post_init__(self):
        object.__setattr__(self, "k", check_integer(self.k, "k", minimum=0))
        object.__setattr__(self, "compute_exact", check_bool(self.compute_exact, "compute_exact"))
        if (self.simplices is None) == (self.points is None):
            raise ValueError("exactly one of 'simplices' and 'points' must be provided")
        if self.simplices is not None:
            if self.epsilon is not None or self.max_dimension is not None:
                raise ValueError("'epsilon'/'max_dimension' only apply to point-cloud requests")
            simplices = tuple(tuple(int(v) for v in s) for s in self.simplices)
            if not simplices:
                raise ValueError("'simplices' must not be empty")
            object.__setattr__(self, "simplices", simplices)
        else:
            if self.epsilon is None:
                raise ValueError("point-cloud requests require 'epsilon'")
            epsilon = float(self.epsilon)
            if epsilon < 0:
                raise ValueError("epsilon must be non-negative")
            object.__setattr__(self, "epsilon", epsilon)
            max_dim = self.max_dimension if self.max_dimension is not None else self.k + 1
            object.__setattr__(
                self, "max_dimension", check_integer(max_dim, "max_dimension", minimum=self.k + 1)
            )
            cloud = np.asarray(self.points, dtype=float)
            if cloud.ndim != 2 or cloud.shape[0] == 0:
                raise ValueError(f"'points' must be a non-empty 2-D cloud, got shape {cloud.shape}")
            object.__setattr__(
                self, "points", tuple(tuple(float(x) for x in row) for row in cloud)
            )
        if isinstance(self.config, Mapping):
            object.__setattr__(self, "config", QTDAConfig.from_dict(dict(self.config)))
        elif isinstance(self.config, QTDAConfig):
            # Private copy: QTDAConfig is a plain mutable dataclass, and the
            # caller may keep mutating their object after building requests.
            object.__setattr__(self, "config", copy.deepcopy(self.config))
        else:
            raise TypeError("config must be a QTDAConfig (or a QTDAConfig.as_dict mapping)")

    @property
    def seed(self) -> Optional[int]:
        return self.config.seed if isinstance(self.config.seed, (int, np.integer)) else None

    def build_complex(self) -> SimplicialComplex:
        """Materialise the simplicial complex this request describes."""
        if self.simplices is not None:
            return SimplicialComplex(self.simplices)
        return RipsComplex.from_points(
            np.asarray(self.points, dtype=float), self.epsilon, max_dimension=self.max_dimension
        ).complex()

    def geometry_fingerprint(self) -> str:
        """Stable hash of the *geometry only* (complex/cloud, not the config).

        Two requests share a geometry fingerprint exactly when they build the
        same simplicial complex and hence the same Laplacians — the serving
        layer groups such requests so one execution warms the shared
        :class:`~repro.core.hamiltonian.SpectrumCache` for the others.
        Memoised like :meth:`fingerprint` (requests are frozen).
        """
        cached = getattr(self, "_geometry_fingerprint_cache", None)
        if cached is None:
            document = {
                "simplices": self.simplices,
                "points": self.points,
                "epsilon": self.epsilon,
                "max_dimension": self.max_dimension,
            }
            cached = hashlib.sha256(canonical_json(document).encode("utf-8")).hexdigest()
            object.__setattr__(self, "_geometry_fingerprint_cache", cached)
        return cached

    def as_dict(self) -> Dict[str, Any]:
        return self._envelope(
            {
                "k": self.k,
                "simplices": self.simplices,
                "points": self.points,
                "epsilon": self.epsilon,
                "max_dimension": self.max_dimension,
                "compute_exact": self.compute_exact,
                "config": self.config.as_dict(),
            }
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EstimationRequest":
        body = cls._check_dict(data, cls.kind)
        if body.get("config") is not None:
            body["config"] = QTDAConfig.from_dict(
                {k: _freeze(v) for k, v in dict(body["config"]).items()}
            )
        for key in ("simplices", "points"):
            if body.get(key) is not None:
                body[key] = _freeze(body[key])
        return cls(**body)


def _freeze_pipeline_inputs(self) -> None:
    """Shared input normalisation of PipelineRequest/SweepRequest."""
    given = [
        name
        for name in ("point_clouds", "time_series", "distance_matrices")
        if getattr(self, name, None) is not None
    ]
    allowed = self._input_fields
    if len(given) != 1 or given[0] not in allowed:
        raise ValueError(f"exactly one of {allowed} must be provided, got {given or 'none'}")
    if getattr(self, "point_clouds", None) is not None:
        object.__setattr__(self, "point_clouds", _freeze_clouds(self.point_clouds, "point_clouds"))
    if getattr(self, "time_series", None) is not None:
        arr = np.asarray(self.time_series, dtype=float)
        if arr.ndim != 2:
            raise ValueError("time_series must be 2-D: one series per row")
        object.__setattr__(self, "time_series", tuple(tuple(float(x) for x in row) for row in arr))
    if getattr(self, "distance_matrices", None) is not None:
        object.__setattr__(
            self,
            "distance_matrices",
            tuple(_freeze_matrix(m, f"distance_matrices[{i}]") for i, m in enumerate(self.distance_matrices)),
        )
    if isinstance(self.pipeline, Mapping):
        object.__setattr__(self, "pipeline", PipelineConfig.from_dict(dict(self.pipeline)))
    elif isinstance(self.pipeline, PipelineConfig):
        # Private copies: the config dataclasses are mutable and the caller
        # may keep mutating their objects after building requests.
        object.__setattr__(self, "pipeline", copy.deepcopy(self.pipeline))
    else:
        raise TypeError("pipeline must be a PipelineConfig (or its as_dict mapping)")
    if isinstance(self.batch, Mapping):
        object.__setattr__(self, "batch", BatchConfig.from_dict(dict(self.batch)))
    elif isinstance(self.batch, BatchConfig):
        object.__setattr__(self, "batch", copy.deepcopy(self.batch))
    else:
        raise TypeError("batch must be a BatchConfig (or its as_dict mapping)")


@dataclass(frozen=True)
class PipelineRequest(_RequestBase):
    """A batch of samples to Betti-feature rows (the ``transform_*`` shape).

    Exactly one of ``point_clouds``, ``time_series`` (delay-embedded through
    the pipeline's Takens settings) or ``distance_matrices`` must be given.
    ``include_exact`` additionally returns the exact classical features
    (only meaningful for point clouds, mirroring
    :meth:`BatchFeatureEngine.features_and_exact`).
    """

    kind: ClassVar[str] = "pipeline"
    _input_fields: ClassVar[Tuple[str, ...]] = ("point_clouds", "time_series", "distance_matrices")

    point_clouds: Optional[Tuple[Tuple[Tuple[float, ...], ...], ...]] = None
    time_series: Optional[Tuple[Tuple[float, ...], ...]] = None
    distance_matrices: Optional[Tuple[Tuple[Tuple[float, ...], ...], ...]] = None
    epsilon: Optional[float] = None
    include_exact: bool = False
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    batch: BatchConfig = field(default_factory=BatchConfig)

    __hash__ = _request_hash

    def __post_init__(self):
        _freeze_pipeline_inputs(self)
        if self.epsilon is not None:
            epsilon = float(self.epsilon)
            if epsilon < 0:
                raise ValueError("epsilon must be non-negative")
            object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "include_exact", check_bool(self.include_exact, "include_exact"))
        if self.include_exact and self.point_clouds is None:
            raise ValueError("include_exact=True requires point_clouds input")

    @property
    def seed(self) -> Optional[int]:
        seed = self.pipeline.estimator.seed
        return seed if isinstance(seed, (int, np.integer)) else None

    @property
    def deterministic(self) -> bool:
        """Whether re-running this request is guaranteed to reproduce results."""
        return not self.pipeline.use_quantum or self.seed is not None

    def as_dict(self) -> Dict[str, Any]:
        return self._envelope(
            {
                "point_clouds": self.point_clouds,
                "time_series": self.time_series,
                "distance_matrices": self.distance_matrices,
                "epsilon": self.epsilon,
                "include_exact": self.include_exact,
                "pipeline": self.pipeline.as_dict(),
                "batch": self.batch.as_dict(),
            }
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PipelineRequest":
        body = cls._check_dict(data, cls.kind)
        if body.get("pipeline") is not None:
            body["pipeline"] = PipelineConfig.from_dict(_freeze_config_dict(body["pipeline"]))
        if body.get("batch") is not None:
            body["batch"] = BatchConfig.from_dict(dict(body["batch"]))
        return cls(**body)


@dataclass(frozen=True)
class SweepRequest(_RequestBase):
    """A batch of samples × an ε-grid (the ``BatchFeatureEngine.sweep`` shape).

    ``QTDAService.run`` materialises the full ``(E, N, F)`` feature tensor;
    ``QTDAService.stream_sweep`` yields one per-ε result at a time instead —
    same numbers, incremental delivery.
    """

    kind: ClassVar[str] = "sweep"
    _input_fields: ClassVar[Tuple[str, ...]] = ("point_clouds", "time_series")

    epsilons: Tuple[float, ...] = ()
    point_clouds: Optional[Tuple[Tuple[Tuple[float, ...], ...], ...]] = None
    time_series: Optional[Tuple[Tuple[float, ...], ...]] = None
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    batch: BatchConfig = field(default_factory=BatchConfig)

    __hash__ = _request_hash

    def __post_init__(self):
        _freeze_pipeline_inputs(self)
        epsilons = tuple(float(e) for e in self.epsilons)
        if not epsilons:
            raise ValueError("epsilons must not be empty")
        if any(e < 0 for e in epsilons):
            raise ValueError("epsilons must be non-negative")
        object.__setattr__(self, "epsilons", epsilons)

    @property
    def seed(self) -> Optional[int]:
        seed = self.pipeline.estimator.seed
        return seed if isinstance(seed, (int, np.integer)) else None

    @property
    def deterministic(self) -> bool:
        return not self.pipeline.use_quantum or self.seed is not None

    def clouds(self) -> List[np.ndarray]:
        """The point clouds to sweep (delay-embedding time series if needed)."""
        if self.point_clouds is not None:
            return [np.asarray(c, dtype=float) for c in self.point_clouds]
        embedder = TakensEmbedding(
            dimension=self.pipeline.takens_dimension,
            delay=self.pipeline.takens_delay,
            stride=self.pipeline.takens_stride,
        )
        return [embedder.transform(np.asarray(row, dtype=float)) for row in self.time_series]

    def as_dict(self) -> Dict[str, Any]:
        return self._envelope(
            {
                "epsilons": self.epsilons,
                "point_clouds": self.point_clouds,
                "time_series": self.time_series,
                "pipeline": self.pipeline.as_dict(),
                "batch": self.batch.as_dict(),
            }
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepRequest":
        body = cls._check_dict(data, cls.kind)
        if body.get("pipeline") is not None:
            body["pipeline"] = PipelineConfig.from_dict(_freeze_config_dict(body["pipeline"]))
        if body.get("batch") is not None:
            body["batch"] = BatchConfig.from_dict(dict(body["batch"]))
        return cls(**body)


def _freeze_config_dict(data: Mapping[str, Any]) -> Dict[str, Any]:
    """Tuple-ify the sequence-valued fields of a config mapping (JSON round trip)."""
    return {k: _freeze(v) if isinstance(v, (list, tuple)) else v for k, v in dict(data).items()}


@dataclass(frozen=True)
class ExperimentRequest(_RequestBase):
    """One named paper experiment (the experiment-driver shape).

    ``experiment`` names a driver (:data:`EXPERIMENT_NAMES`); ``params`` are
    its keyword arguments, stored as a sorted tuple of ``(name, value)``
    pairs so the request stays hashable — pass a plain dict, it is normalised
    in ``__post_init__``.  The payload carries the driver result's
    ``as_dict()`` view plus the rendered text ``report`` the CLI prints.
    """

    kind: ClassVar[str] = "experiment"

    experiment: str = ""
    params: Tuple[Tuple[str, Any], ...] = ()

    __hash__ = _request_hash

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_NAMES:
            raise ValueError(
                f"experiment must be one of {EXPERIMENT_NAMES}, got {self.experiment!r}"
            )
        params = self.params
        if isinstance(params, Mapping):
            items = params.items()
        else:
            items = list(params)
        normalised = tuple(sorted((str(k), _freeze(v)) for k, v in items))
        names = [k for k, _ in normalised]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names in {names}")
        object.__setattr__(self, "params", normalised)

    @property
    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    @property
    def seed(self) -> Optional[int]:
        seed = self.param_dict.get("seed")
        return seed if isinstance(seed, (int, np.integer)) else None

    def as_dict(self) -> Dict[str, Any]:
        return self._envelope({"experiment": self.experiment, "params": self.param_dict})

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentRequest":
        body = cls._check_dict(data, cls.kind)
        return cls(experiment=body.get("experiment", ""), params=dict(body.get("params", {})))


@dataclass(frozen=True)
class ObserveRequest(_RequestBase):
    """A chunk of raw time-series samples for an online streaming session.

    The live-serving shape (DESIGN.md §13): samples are appended to the
    named ``session``'s buffer, and every sliding window they complete is
    Takens-embedded and advanced *incrementally* through
    :class:`repro.core.batch.StreamingFeatureEngine` — bit-identical features
    to a from-scratch sweep over the same windows, at delta cost.  The first
    request for a session creates it; later requests must carry the same
    window/stride/epsilons/pipeline configuration (each request is
    self-contained on the wire, so any replica holding the session state can
    validate it).  ``samples`` may be empty (a priming request that just
    opens the session).

    Observe requests are *stateful* — the same request legitimately returns
    different windows depending on what the session saw before — so they are
    never result-cached and carry an empty ``request_fingerprint``.
    """

    kind: ClassVar[str] = "observe"

    samples: Tuple[float, ...] = ()
    session: str = "default"
    window_length: int = 0
    stride: int = 1
    epsilons: Tuple[float, ...] = ()
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)

    __hash__ = _request_hash

    def __post_init__(self):
        if not isinstance(self.session, str) or not self.session:
            raise ValueError("session must be a non-empty string")
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 1:
            raise ValueError("samples must be a 1-D sequence of raw time-series values")
        object.__setattr__(self, "samples", tuple(float(x) for x in arr))
        object.__setattr__(
            self, "window_length", check_integer(self.window_length, "window_length", minimum=1)
        )
        object.__setattr__(self, "stride", check_integer(self.stride, "stride", minimum=1))
        epsilons = tuple(float(e) for e in self.epsilons)
        if not epsilons:
            raise ValueError("epsilons must not be empty")
        if any(e < 0 for e in epsilons):
            raise ValueError("epsilons must be non-negative")
        object.__setattr__(self, "epsilons", epsilons)
        if isinstance(self.pipeline, Mapping):
            object.__setattr__(self, "pipeline", PipelineConfig.from_dict(dict(self.pipeline)))
        elif isinstance(self.pipeline, PipelineConfig):
            object.__setattr__(self, "pipeline", copy.deepcopy(self.pipeline))
        else:
            raise TypeError("pipeline must be a PipelineConfig (or its as_dict mapping)")

    @property
    def seed(self) -> Optional[int]:
        seed = self.pipeline.estimator.seed
        return seed if isinstance(seed, (int, np.integer)) else None

    @property
    def deterministic(self) -> bool:
        """Always false: the response depends on the session's prior samples."""
        return False

    def session_config(self) -> Dict[str, Any]:
        """The session-defining configuration (must match across a session)."""
        return {
            "window_length": self.window_length,
            "stride": self.stride,
            "epsilons": list(self.epsilons),
            "pipeline": self.pipeline.as_dict(),
        }

    def as_dict(self) -> Dict[str, Any]:
        return self._envelope(
            {
                "samples": self.samples,
                "session": self.session,
                "window_length": self.window_length,
                "stride": self.stride,
                "epsilons": self.epsilons,
                "pipeline": self.pipeline.as_dict(),
            }
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ObserveRequest":
        body = cls._check_dict(data, cls.kind)
        if body.get("pipeline") is not None:
            body["pipeline"] = PipelineConfig.from_dict(_freeze_config_dict(body["pipeline"]))
        for key in ("samples", "epsilons"):
            if body.get(key) is not None:
                body[key] = _freeze(body[key])
        return cls(**body)


#: Any request the service accepts.
Request = Union[
    EstimationRequest, PipelineRequest, SweepRequest, ExperimentRequest, ObserveRequest
]

_REQUEST_CLASSES: Dict[str, type] = {
    cls.kind: cls
    for cls in (
        EstimationRequest,
        PipelineRequest,
        SweepRequest,
        ExperimentRequest,
        ObserveRequest,
    )
}


def request_from_dict(data: Mapping[str, Any]) -> Request:
    """Rebuild any request from its ``as_dict`` form (dispatch on ``kind``)."""
    kind = dict(data).get("kind")
    try:
        cls = _REQUEST_CLASSES[kind]
    except KeyError:
        raise ValueError(f"unknown request kind {kind!r}; valid kinds: {REQUEST_KINDS}") from None
    return cls.from_dict(data)


def deterministic_request(request: Request) -> bool:
    """Whether two runs of ``request`` are guaranteed to produce equal results.

    This is the shared reuse predicate: the service result cache and the
    serving layer's in-flight coalescer (:mod:`repro.serve.coalescer`) both
    refuse to substitute one execution's result for another unless it holds.

    * ``observe`` requests are stateful by design — the response depends on
      the session's buffered samples — so they are never deterministic here.
    * Pipeline/sweep requests expose their own :attr:`~PipelineRequest.
      deterministic` (classical-only, or quantum with a fixed seed).
    * Experiment driver seeds all default to fixed integers; only an
      explicit ``None`` (or generator) seed makes a run non-reproducible.
    * Single estimations are deterministic exactly when seeded.
    """
    if isinstance(request, ObserveRequest):
        return False
    if isinstance(request, (PipelineRequest, SweepRequest)):
        return request.deterministic
    if isinstance(request, ExperimentRequest):
        return request.param_dict.get("seed", 0) is not None
    return request.seed is not None


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Provenance:
    """How a result was produced (stamped on every :class:`EstimationResult`).

    ``cache_hits``/``cache_misses`` are the service spectrum-cache deltas
    observed while the request ran; under concurrent execution they are a
    best-effort attribution (the counters are shared), while totals remain
    exact through :attr:`QTDAService.stats`.  ``engine_route``/``fused_gates``
    record, for single-estimate requests on circuit backends, the concrete
    circuit-execution route taken (``ensemble``/``ptm``/``trajectory``/
    ``purified``/``density``, DESIGN.md §11–12, §16) and the post-fusion
    block count (fused gates on the ensemble engine, fused superoperators on
    the PTM route); ``n_trajectories``/``noise_spec`` record the trajectory-route
    repetition count and the resolved noise description the run executed
    under (``None`` for noiseless runs); ``shards``/``shard_backend``/
    ``device`` record how the engine's batch/trajectory axis was sharded and
    where the shards ran (:mod:`repro.quantum.sharding`; ``None`` for
    unsharded runs).
    """

    request_kind: str
    request_fingerprint: str
    backend: str
    operator_format: str
    seed: Optional[int]
    wall_time_s: float
    cache_hits: int = 0
    cache_misses: int = 0
    betti_std: Optional[float] = None
    result_cache_hit: bool = False
    engine_route: Optional[str] = None
    fused_gates: Optional[int] = None
    n_trajectories: Optional[int] = None
    noise_spec: Optional[Dict[str, Any]] = None
    shards: Optional[int] = None
    shard_backend: Optional[str] = None
    device: Optional[str] = None
    schema_version: int = SCHEMA_VERSION

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "request_kind": self.request_kind,
            "request_fingerprint": self.request_fingerprint,
            "backend": self.backend,
            "operator_format": self.operator_format,
            "seed": self.seed,
            "wall_time_s": self.wall_time_s,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "betti_std": self.betti_std,
            "result_cache_hit": self.result_cache_hit,
            "engine_route": self.engine_route,
            "fused_gates": self.fused_gates,
            "n_trajectories": self.n_trajectories,
            "noise_spec": self.noise_spec,
            "shards": self.shards,
            "shard_backend": self.shard_backend,
            "device": self.device,
        }


#: Fields every serialised provenance record must carry (the documented schema).
_PROVENANCE_FIELDS = (
    "schema_version",
    "request_kind",
    "request_fingerprint",
    "backend",
    "operator_format",
    "seed",
    "wall_time_s",
    "cache_hits",
    "cache_misses",
    "betti_std",
    "result_cache_hit",
    "engine_route",
    "fused_gates",
    "n_trajectories",
    "noise_spec",
    "shards",
    "shard_backend",
    "device",
)


@dataclass(frozen=True)
class EstimationResult:
    """The single response envelope of the service API.

    ``payload`` holds exactly what the corresponding legacy entry point
    returns (``BettiEstimate.as_dict()``, feature matrices, an experiment
    result's ``as_dict()``); ``provenance`` records how it was produced.
    ``as_dict``/``to_json`` emit the versioned wire format that
    :meth:`validate_dict` checks (the CI api-smoke gate).
    """

    request: Request
    payload: Dict[str, Any]
    provenance: Provenance
    schema_version: ClassVar[int] = SCHEMA_VERSION

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "kind": self.request.kind,
            "request": _json_safe(self.request.as_dict()),
            "payload": _json_safe(self.payload),
            "provenance": _json_safe(self.provenance.as_dict()),
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """The envelope as a JSON document (the CLI ``--json`` output)."""
        return json.dumps(self.as_dict(), indent=indent, sort_keys=indent is None)

    @staticmethod
    def validate_dict(data: Mapping[str, Any]) -> None:
        """Raise ``ValueError`` unless ``data`` matches the documented schema.

        Checks the envelope shape (DESIGN.md §10): versioned top level, a
        known request kind, a request body whose kind/version agree, a dict
        payload and a complete provenance record.  Used by the tests and the
        CI api-smoke job to keep emitted JSON honest.
        """
        if not isinstance(data, Mapping):
            raise ValueError(f"result must be a mapping, got {type(data).__name__}")
        if data.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"schema_version must be {SCHEMA_VERSION}, got {data.get('schema_version')!r}")
        kind = data.get("kind")
        if kind not in REQUEST_KINDS:
            raise ValueError(f"kind must be one of {REQUEST_KINDS}, got {kind!r}")
        request = data.get("request")
        if not isinstance(request, Mapping):
            raise ValueError("request must be a mapping")
        if request.get("kind") != kind:
            raise ValueError(f"request.kind {request.get('kind')!r} does not match envelope kind {kind!r}")
        if request.get("schema_version") != SCHEMA_VERSION:
            raise ValueError("request.schema_version missing or mismatched")
        if not isinstance(data.get("payload"), Mapping):
            raise ValueError("payload must be a mapping")
        provenance = data.get("provenance")
        if not isinstance(provenance, Mapping):
            raise ValueError("provenance must be a mapping")
        missing = [name for name in _PROVENANCE_FIELDS if name not in provenance]
        if missing:
            raise ValueError(f"provenance is missing fields: {missing}")
        if provenance.get("request_kind") != kind:
            raise ValueError("provenance.request_kind does not match envelope kind")
        if not isinstance(provenance.get("wall_time_s"), (int, float)):
            raise ValueError("provenance.wall_time_s must be a number")
        # The request body must round-trip through the typed layer.  An empty
        # fingerprint means the service never computed one (uncacheable run);
        # a present fingerprint must match the body.
        rebuilt = request_from_dict(request)
        fingerprint = provenance.get("request_fingerprint")
        if fingerprint and rebuilt.fingerprint() != fingerprint:
            raise ValueError("provenance.request_fingerprint does not match the request body")


# ---------------------------------------------------------------------------
# Experiment dispatch
# ---------------------------------------------------------------------------


def _run_fig3(params: Dict[str, Any]) -> Tuple[Dict[str, Any], str, Optional[int]]:
    from repro.experiments.shots_precision import (
        ShotsPrecisionConfig,
        error_trend_summary,
        render_shots_precision_results,
        run_shots_precision_experiment,
    )

    params = dict(params)
    if params.pop("paper_scale", False):
        config = ShotsPrecisionConfig.paper_scale()
        backend = params.pop("backend", None)
        if backend is not None:
            config.backend = backend
        if params:
            raise TypeError(
                f"paper-scale fig3 only accepts a 'backend' override, got {sorted(params)}"
            )
    else:
        config = ShotsPrecisionConfig(**params)
    result = run_shots_precision_experiment(config)
    report = (
        render_shots_precision_results(result)
        + f"\n\nTrend summary: {error_trend_summary(result)}"
    )
    payload = result.as_dict()
    payload["report"] = report
    return payload, config.backend, config.seed if isinstance(config.seed, int) else None


def _run_table1(params: Dict[str, Any]) -> Tuple[Dict[str, Any], str, Optional[int]]:
    from repro.experiments.gearbox_table1 import (
        GearboxExperimentConfig,
        render_table1,
        run_gearbox_table1,
    )

    params = dict(params)
    paper_scale = params.pop("paper_scale", False)
    if params.get("batch") is not None:
        params["batch"] = BatchConfig.from_dict(dict(params["batch"]))
    else:
        params.pop("batch", None)
    if paper_scale:
        # Everything else stays at the paper-scale defaults (which ARE the
        # dataclass defaults for table1); reject typo'd overrides instead of
        # silently ignoring them.
        allowed = {
            "batch",
            "backend",
            "noise_channel",
            "noise_strength",
            "circuit_engine",
            "n_trajectories",
            "readout_error",
            "shards",
            "shard_backend",
        }
        unknown = set(params) - allowed
        if unknown:
            raise TypeError(
                f"paper-scale table1 only accepts {sorted(allowed)} overrides, got {sorted(unknown)}"
            )
    config = GearboxExperimentConfig(**params)
    result = run_gearbox_table1(config)
    payload = result.as_dict()
    payload["report"] = render_table1(result)
    return payload, config.backend, config.seed if isinstance(config.seed, int) else None


def _run_fig4(params: Dict[str, Any]) -> Tuple[Dict[str, Any], str, Optional[int]]:
    from repro.experiments.grouping_scale import (
        GroupingScaleConfig,
        render_grouping_scale_results,
        run_grouping_scale_experiment,
    )

    params = dict(params)
    paper_scale = params.pop("paper_scale", False)
    if params.get("batch") is not None:
        params["batch"] = BatchConfig.from_dict(dict(params["batch"]))
    else:
        params.pop("batch", None)
    if paper_scale:
        config = GroupingScaleConfig.paper_scale()
        batch = params.pop("batch", None)
        if batch is not None:
            config.batch = batch
        if params:
            raise TypeError(
                f"paper-scale fig4 only accepts a 'batch' override, got {sorted(params)}"
            )
    else:
        config = GroupingScaleConfig(**params)
    result = run_grouping_scale_experiment(config)
    payload = result.as_dict()
    payload["report"] = render_grouping_scale_results(result)
    # Fig. 4 sweeps exact classical features only — same convention as
    # _pipeline_backend for use_quantum=False.
    return payload, "classical-exact", config.seed if isinstance(config.seed, int) else None


def _run_appendix(params: Dict[str, Any]) -> Tuple[Dict[str, Any], str, Optional[int]]:
    from repro.experiments.worked_example import render_worked_example, run_worked_example

    params = dict(params)
    result = run_worked_example(**params)
    payload = result.as_dict()
    payload["report"] = render_worked_example(result)
    seed = params.get("seed", 1)
    return payload, result.estimate.backend, seed if isinstance(seed, int) else None


def _run_timeseries(params: Dict[str, Any]) -> Tuple[Dict[str, Any], str, Optional[int]]:
    from repro.experiments.gearbox_table1 import run_timeseries_classification

    params = dict(params)
    if "batch" in params and params["batch"] is not None:
        params["batch"] = BatchConfig.from_dict(dict(params["batch"]))
    result = run_timeseries_classification(**params)
    payload = result.as_dict()
    windowing = (
        f", window stride = {result.window_stride}" if result.window_stride is not None else ""
    )
    payload["report"] = (
        f"Section 5 time-series classification ({result.num_windows} windows, "
        f"eps = {result.epsilon:.3f}{windowing})\n"
        f"training accuracy   = {result.training_accuracy:.3f}\n"
        f"validation accuracy = {result.validation_accuracy:.3f}"
    )
    if result.streaming:
        advances = sum(s.get("incremental_advances", 0) for s in result.streaming_stats.values())
        rebuilds = sum(s.get("full_builds", 0) for s in result.streaming_stats.values())
        payload["report"] += (
            f"\nstreaming engine    : {advances} incremental advances, {rebuilds} full builds"
        )
    if params.get("use_quantum", True):
        backend = params.get("backend", "exact")
    else:
        # Same convention as _pipeline_backend: no quantum backend ran.
        backend = "classical-exact"
    seed = params.get("seed", 7)
    return payload, backend, seed if isinstance(seed, int) else None


_EXPERIMENT_RUNNERS = {
    "fig3": _run_fig3,
    "table1": _run_table1,
    "fig4": _run_fig4,
    "appendix": _run_appendix,
    "timeseries": _run_timeseries,
}


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------

#: Live (not yet closed) services, tracked weakly so tracking never extends a
#: service's lifetime.  The interpreter-exit hook closes whatever is left —
#: a service abandoned without ``close()`` must not leave shard worker
#: processes behind — then tears down the process-wide shard pools.
_LIVE_SERVICES: "weakref.WeakSet[QTDAService]" = weakref.WeakSet()
_ATEXIT_LOCK = threading.Lock()
_ATEXIT_REGISTERED = False


def _close_live_services() -> None:
    """Interpreter-exit hook: close leaked services, then the shard pools."""
    for service in list(_LIVE_SERVICES):
        try:
            service.close()
        except Exception:  # pragma: no cover - nothing to do at exit
            pass
    from repro.quantum.sharding import shutdown_shard_pools

    shutdown_shard_pools()


def _track_service(service: "QTDAService") -> None:
    global _ATEXIT_REGISTERED
    with _ATEXIT_LOCK:
        # Lazy registration keeps import side-effect free: the hook exists
        # only once the first service does.
        if not _ATEXIT_REGISTERED:
            atexit.register(_close_live_services)
            _ATEXIT_REGISTERED = True
        _LIVE_SERVICES.add(service)


class _ObserveSession:
    """Server-side state of one named streaming session.

    ``key`` is the canonical JSON of the creating request's
    :meth:`ObserveRequest.session_config` — later requests for the same
    session name must reproduce it exactly.  ``lock`` serialises sample
    feeds: the engine's buffer is stateful, so two concurrent ``observe``
    calls for one session must not interleave.
    """

    __slots__ = ("engine", "key", "lock")

    def __init__(self, engine: StreamingFeatureEngine, key: Optional[str]):
        self.engine = engine
        self.key = key
        self.lock = threading.Lock()


class QTDAService:
    """Long-lived executor behind the request/response API.

    Owns the shared resources every execution path reuses:

    * one thread-safe :class:`SpectrumCache` handed to every estimator and
      batch engine (identical Laplacians are diagonalised once per service,
      not once per request);
    * an LRU result cache keyed by request fingerprint — repeating a
      *deterministic* request (seeded, or classical-only) is served without
      recomputation, flagged via ``provenance.result_cache_hit``;
    * a lazily started worker pool for :meth:`submit`/:meth:`map`.

    Per-request seeds live inside the requests themselves, so results are
    reproducible regardless of submission or completion order; the service
    adds no RNG state of its own.  Use as a context manager (or call
    :meth:`close`) to shut the pool down deterministically.

    Examples
    --------
    >>> from repro.core.api import EstimationRequest, QTDAService
    >>> request = EstimationRequest(
    ...     simplices=((0,), (1,), (2,), (0, 1), (0, 2), (1, 2)), k=1,
    ...     config={"precision_qubits": 4, "shots": None, "seed": 7},
    ... )
    >>> with QTDAService() as service:
    ...     service.run(request).payload["betti_rounded"]   # the hollow triangle
    1
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        spectrum_cache_size: int = 1024,
        result_cache_size: int = 256,
    ):
        if max_workers is not None:
            max_workers = check_integer(max_workers, "max_workers", minimum=1)
        self.max_workers = max_workers
        self.spectrum_cache: Optional[SpectrumCache] = (
            SpectrumCache(spectrum_cache_size) if spectrum_cache_size > 0 else None
        )
        self.result_cache_size = check_integer(result_cache_size, "result_cache_size", minimum=0)
        self._results: "OrderedDict[str, EstimationResult]" = OrderedDict()
        self._lock = threading.Lock()
        self._sessions: Dict[str, _ObserveSession] = {}
        self._sessions_lock = threading.Lock()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._closed = False
        self.result_cache_hits = 0
        self._executors: Dict[str, Any] = {}
        self._executors_lock = threading.Lock()
        _track_service(self)

    # -- lifecycle ------------------------------------------------------------
    def close(self) -> None:
        """Shut the worker pool down; pending futures finish first.

        Idempotent — the second and later calls return immediately, so the
        interpreter-exit hook (every service is registered with ``atexit``
        on construction) can close a service the caller already closed.
        Registered shard executors are closed too, and the process-wide
        shard pools are torn down once no executors remain registered
        anywhere obvious — closing a service is the "I'm done with sharding"
        signal (pools recreate on demand, so this is always safe).
        """
        with self._pool_lock:
            if self._closed:
                return
            pool, self._pool = self._pool, None
            self._closed = True
        _LIVE_SERVICES.discard(self)
        if pool is not None:
            pool.shutdown(wait=True)
        with self._sessions_lock:
            self._sessions.clear()
        with self._executors_lock:
            executors, self._executors = dict(self._executors), {}
        for executor in executors.values():
            executor.close()
        if executors:
            from repro.quantum.sharding import shutdown_shard_pools

            shutdown_shard_pools()

    def __enter__(self) -> "QTDAService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def stats(self) -> Dict[str, Any]:
        """Counters of the shared caches (exact totals, unlike per-request deltas)."""
        with self._lock:
            cached = len(self._results)
            result_hits = self.result_cache_hits
        spectrum = (
            {
                "hits": self.spectrum_cache.hits,
                "misses": self.spectrum_cache.misses,
                "entries": len(self.spectrum_cache),
            }
            if self.spectrum_cache is not None
            else None
        )
        with self._sessions_lock:
            sessions = len(self._sessions)
        return {
            "result_cache_entries": cached,
            "result_cache_hits": result_hits,
            "spectrum_cache": spectrum,
            "open_sessions": sessions,
        }

    def cache_stats(self) -> Dict[str, Any]:
        """Flat, JSON-safe cumulative cache counters (for CLI envelopes).

        Unlike per-request :class:`Provenance` deltas these are service-lifetime
        totals; ``spectrum_hit_rate`` is ``None`` until the first lookup.
        """
        with self._lock:
            entries = len(self._results)
            result_hits = self.result_cache_hits
        if self.spectrum_cache is not None:
            hits = self.spectrum_cache.hits
            misses = self.spectrum_cache.misses
            total = hits + misses
            spectrum = {
                "spectrum_hits": hits,
                "spectrum_misses": misses,
                "spectrum_entries": len(self.spectrum_cache),
                "spectrum_hit_rate": (hits / total) if total else None,
            }
        else:
            spectrum = {
                "spectrum_hits": 0,
                "spectrum_misses": 0,
                "spectrum_entries": 0,
                "spectrum_hit_rate": None,
            }
        return {
            "result_cache_entries": entries,
            "result_cache_hits": result_hits,
            **spectrum,
        }

    # -- executor registry ----------------------------------------------------
    def register_executor(self, name: str, executor: Any) -> None:
        """Register a shard-executor profile under ``name``.

        ``executor`` is a :class:`~repro.quantum.sharding.ShardedExecutor`
        (or anything exposing ``num_shards``/``backend``/``devices`` and
        ``close()``).  :meth:`submit`/:meth:`map` can then schedule
        estimation requests onto it by name: the request's config is
        rewritten to the executor's shard settings before execution, so one
        service can spread a stream of requests across, say, a CPU process
        pool and one profile per GPU.  Registered executors are closed by
        :meth:`close`.
        """
        if not name:
            raise ValueError("executor name must be non-empty")
        with self._executors_lock:
            if name in self._executors:
                raise ValueError(f"executor {name!r} is already registered")
            self._executors[name] = executor

    @property
    def executors(self) -> Tuple[str, ...]:
        """Names of the registered shard executors (sorted)."""
        with self._executors_lock:
            return tuple(sorted(self._executors))

    def _resolve_executor(self, name: str) -> Any:
        with self._executors_lock:
            try:
                return self._executors[name]
            except KeyError:
                raise ValueError(
                    f"unknown executor {name!r}; registered: {sorted(self._executors)}"
                ) from None

    @staticmethod
    def _request_on_executor(request: Request, executor: Any) -> Request:
        """The request rewritten to run on ``executor``'s shard settings.

        Only estimation requests carry a circuit-engine config; other kinds
        pass through unchanged (their work has no shardable batch axis yet).
        """
        if not isinstance(request, EstimationRequest):
            return request
        config = request.config.replace(
            shards=int(executor.num_shards),
            shard_backend=str(executor.backend),
            devices=getattr(executor, "devices", None),
        )
        return replace(request, config=config)

    # -- public API -----------------------------------------------------------
    def run(self, request: Request) -> EstimationResult:
        """Execute one request synchronously and return its result envelope.

        The request fingerprint (an O(dataset) canonical-JSON hash) is only
        computed when the request is result-cacheable; uncacheable runs —
        including every call from the :class:`~repro.core.pipeline.
        QTDAPipeline` shim, whose private service disables the result cache —
        skip it and carry an empty ``provenance.request_fingerprint``.
        Requests whose config cannot serialise (an explicit ``noise_model``
        object) execute fine; they are simply uncacheable and their envelope
        cannot be emitted as JSON.
        """
        self._check_request(request)
        fingerprint = self._fingerprint_or_none(request) if self._cacheable(request) else None
        if fingerprint is not None:
            cached = self._cached_result(fingerprint)
            if cached is not None:
                return cached
        hits0, misses0 = self._cache_counters()
        start = time.perf_counter()
        payload, backend_name, operator_format, seed, extras = self._execute(request)
        wall = time.perf_counter() - start
        hits1, misses1 = self._cache_counters()
        provenance = Provenance(
            request_kind=request.kind,
            request_fingerprint=fingerprint if fingerprint is not None else "",
            backend=backend_name,
            operator_format=operator_format,
            seed=seed,
            wall_time_s=wall,
            cache_hits=hits1 - hits0,
            cache_misses=misses1 - misses0,
            **extras,
        )
        result = EstimationResult(request=request, payload=payload, provenance=provenance)
        if fingerprint is not None:
            self._store_result(fingerprint, result)
        return result

    def submit(
        self, request: Request, executor: Optional[str] = None
    ) -> "Future[EstimationResult]":
        """Schedule a request on the worker pool; returns a future.

        Results are identical to :meth:`run` — per-request seeds make them
        independent of scheduling order — and land in the shared result
        cache, so repeating a request after a prior completion is served
        without recomputation.  In-flight duplicates are *not* merged at
        this layer; deploy behind :class:`repro.serve.RequestCoalescer`
        (what the HTTP server does) to deduplicate identical concurrent
        deterministic requests.

        ``executor`` names a registered shard executor
        (:meth:`register_executor`): the request is rewritten to that
        executor's ``shards``/``shard_backend``/``devices`` before running,
        so heavy estimations shard across its worker pool.  Sharding never
        changes numbers (bit-identical to unsharded), so the rewrite only
        affects provenance and throughput.
        """
        self._check_request(request)
        if executor is not None:
            request = self._request_on_executor(request, self._resolve_executor(executor))
        # The pool submission happens under the pool lock so a concurrent
        # close() either waits for it or makes this raise the service's own
        # closed error — never the executor's shutdown exception.
        with self._pool_lock:
            if self._closed:
                raise RuntimeError("QTDAService is closed")
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers, thread_name_prefix="qtda-service"
                )
            return self._pool.submit(self.run, request)

    def map(
        self, requests: Iterable[Request], executor: Optional[str] = None
    ) -> List[EstimationResult]:
        """Fan a batch of requests across the pool; results in request order.

        ``executor`` routes every request onto a registered shard executor,
        as in :meth:`submit`.
        """
        futures = [self.submit(request, executor=executor) for request in requests]
        return [future.result() for future in futures]

    def run_dict(self, data: Mapping[str, Any]) -> EstimationResult:
        """Wire-format entry point: ``request_from_dict`` then :meth:`run`."""
        return self.run(request_from_dict(data))

    def observe(self, request: ObserveRequest) -> EstimationResult:
        """Feed samples into a streaming session; returns the completed windows.

        Sugar over :meth:`run` with an explicit type check — the online
        endpoint of the incremental sweep engine (DESIGN.md §13).  The
        payload lists one record per *newly completed* window, each with the
        per-ε feature matrix and the delta statistics (incremental vs full
        rebuild, simplices destroyed/created); features are bit-identical to
        a from-scratch batch sweep over the same windows.
        """
        if not isinstance(request, ObserveRequest):
            raise TypeError(f"observe expects an ObserveRequest, got {type(request).__name__}")
        return self.run(request)

    def close_session(self, session: str = "default") -> bool:
        """Drop a streaming session's state; ``True`` if it existed."""
        with self._sessions_lock:
            return self._sessions.pop(session, None) is not None

    @property
    def open_sessions(self) -> Tuple[str, ...]:
        """Names of the currently open streaming sessions (sorted)."""
        with self._sessions_lock:
            return tuple(sorted(self._sessions))

    def stream_sweep(self, request: SweepRequest) -> Iterator[EstimationResult]:
        """Yield one per-ε :class:`EstimationResult` at a time for a sweep.

        Features are bit-identical to ``run(request)``'s stacked tensor (and
        to the legacy ``BatchFeatureEngine.sweep``) — only delivery changes:
        each grouping scale's ``(num_samples, num_features)`` block is
        yielded as soon as it is computed, with provenance (wall time and
        cache deltas covering that scale) populated on every envelope.
        Streaming results bypass the result cache.

        Execution note: streaming keeps per-sample estimator state alive
        across scales, which cannot migrate between processes, so a
        ``BatchConfig(backend="processes")`` request is executed on a
        *thread* pool here (see :meth:`BatchFeatureEngine.iter_sweep`).
        CPU-bound sweeps that need true process parallelism more than
        incremental delivery should use :meth:`run` instead.
        """
        if not isinstance(request, SweepRequest):
            raise TypeError(f"stream_sweep expects a SweepRequest, got {type(request).__name__}")
        # Validation and setup happen eagerly, at the call site; only the
        # per-ε execution lives in the returned generator.
        # Same fingerprint policy as run(): only computed for cacheable
        # requests (streams bypass the result cache, but the stamp lets
        # consumers correlate per-ε envelopes with the run() envelope).
        fingerprint = (
            (self._fingerprint_or_none(request) or "") if self._cacheable(request) else ""
        )
        engine = self._engine(request)
        return self._stream_sweep(request, engine, fingerprint)

    def _stream_sweep(
        self, request: SweepRequest, engine: BatchFeatureEngine, fingerprint: str
    ) -> Iterator[EstimationResult]:
        operator_format = engine.negotiated_operator_format()
        backend_name = self._pipeline_backend(request.pipeline)
        clouds = request.clouds()
        num_epsilons = len(request.epsilons)
        hits0, misses0 = self._cache_counters()
        start = time.perf_counter()
        for index, (epsilon, features) in enumerate(engine.iter_sweep(clouds, request.epsilons)):
            wall = time.perf_counter() - start
            hits1, misses1 = self._cache_counters()
            payload = {
                "epsilon": epsilon,
                "epsilon_index": index,
                "num_epsilons": num_epsilons,
                "features": features,
                "feature_names": list(engine.feature_names),
            }
            yield EstimationResult(
                request=request,
                payload=payload,
                provenance=Provenance(
                    request_kind=request.kind,
                    request_fingerprint=fingerprint,
                    backend=backend_name,
                    operator_format=operator_format,
                    seed=request.seed,
                    wall_time_s=wall,
                    cache_hits=hits1 - hits0,
                    cache_misses=misses1 - misses0,
                ),
            )
            hits0, misses0 = hits1, misses1
            start = time.perf_counter()

    # -- execution ------------------------------------------------------------
    def _check_request(self, request: Request) -> None:
        if not isinstance(request, tuple(_REQUEST_CLASSES.values())):
            raise TypeError(
                f"expected one of {[c.__name__ for c in _REQUEST_CLASSES.values()]}, "
                f"got {type(request).__name__}"
            )

    def _cache_counters(self) -> Tuple[int, int]:
        if self.spectrum_cache is None:
            return 0, 0
        return self.spectrum_cache.hits, self.spectrum_cache.misses

    def _cacheable(self, request: Request) -> bool:
        return self.result_cache_size > 0 and deterministic_request(request)

    @staticmethod
    def _fingerprint_or_none(request: Request) -> Optional[str]:
        """The request fingerprint, or ``None`` for unserialisable requests."""
        try:
            return request.fingerprint()
        except (TypeError, ValueError):
            return None

    def _cached_result(self, fingerprint: str) -> Optional[EstimationResult]:
        with self._lock:
            cached = self._results.get(fingerprint)
            if cached is None:
                return None
            self._results.move_to_end(fingerprint)
            self.result_cache_hits += 1
        # Deep-copied payload: callers may mutate returned feature arrays
        # in place (feature scaling etc.) without corrupting the cache.
        return replace(
            cached,
            payload=copy.deepcopy(cached.payload),
            provenance=replace(cached.provenance, result_cache_hit=True),
        )

    def _store_result(self, fingerprint: str, result: EstimationResult) -> None:
        # Store a private deep copy — the first caller's returned payload
        # must not alias the cache entry either.
        entry = replace(result, payload=copy.deepcopy(result.payload))
        with self._lock:
            self._results[fingerprint] = entry
            self._results.move_to_end(fingerprint)
            while len(self._results) > self.result_cache_size:
                self._results.popitem(last=False)

    def _engine(self, request: "PipelineRequest | SweepRequest") -> BatchFeatureEngine:
        return BatchFeatureEngine(
            request.pipeline, batch=request.batch, spectrum_cache=self.spectrum_cache
        )

    @staticmethod
    def _pipeline_backend(pipeline: PipelineConfig) -> str:
        return pipeline.estimator.backend if pipeline.use_quantum else "classical-exact"

    def _execute(
        self, request: Request
    ) -> Tuple[Dict[str, Any], str, str, Optional[int], Dict[str, Any]]:
        """Dispatch to the legacy execution paths.

        Returns ``(payload, backend, operator_format, seed, extras)`` where
        ``extras`` holds whatever optional :class:`Provenance` fields the
        execution produced (``betti_std``, ``engine_route``,
        ``shards``/``shard_backend``/``device``, ...) — ``run()`` splats it
        into the provenance record, so new execution-side provenance only
        needs to appear here.
        """
        if isinstance(request, EstimationRequest):
            estimator = QTDABettiEstimator(request.config, spectrum_cache=self.spectrum_cache)
            estimate = estimator.estimate(
                request.build_complex(), request.k, compute_exact=request.compute_exact
            )
            return (
                estimate.as_dict(),
                request.config.backend,
                estimator.operator_format,
                request.seed,
                {
                    "betti_std": estimate.betti_std,
                    "engine_route": estimate.engine_route,
                    "fused_gates": estimate.fused_gates,
                    "n_trajectories": estimate.n_trajectories,
                    "noise_spec": estimate.noise_spec,
                    "shards": estimate.shards,
                    "shard_backend": estimate.shard_backend,
                    "device": estimate.device,
                },
            )
        if isinstance(request, PipelineRequest):
            engine = self._engine(request)
            exact: Optional[np.ndarray] = None
            if request.point_clouds is not None:
                clouds = [np.asarray(c, dtype=float) for c in request.point_clouds]
                if request.include_exact:
                    features, exact = engine.features_and_exact(clouds, epsilon=request.epsilon)
                else:
                    features = engine.transform_point_clouds(clouds, epsilon=request.epsilon)
            elif request.time_series is not None:
                features = engine.transform_time_series(
                    np.asarray(request.time_series, dtype=float), epsilon=request.epsilon
                )
            else:
                matrices = [np.asarray(m, dtype=float) for m in request.distance_matrices]
                features = engine.transform_distance_matrices(matrices, epsilon=request.epsilon)
            payload: Dict[str, Any] = {
                "features": features,
                "feature_names": list(engine.feature_names),
                "num_samples": int(features.shape[0]),
                "epsilon": float(
                    request.epsilon if request.epsilon is not None else request.pipeline.epsilon
                ),
            }
            if exact is not None:
                payload["exact"] = exact
            return (
                payload,
                self._pipeline_backend(request.pipeline),
                engine.negotiated_operator_format(),
                request.seed,
                {},
            )
        if isinstance(request, SweepRequest):
            engine = self._engine(request)
            features = engine.sweep(request.clouds(), request.epsilons)
            payload = {
                "epsilons": list(request.epsilons),
                "features": features,
                "feature_names": list(engine.feature_names),
                "num_samples": int(features.shape[1]),
            }
            return (
                payload,
                self._pipeline_backend(request.pipeline),
                engine.negotiated_operator_format(),
                request.seed,
                {},
            )
        if isinstance(request, ObserveRequest):
            return self._execute_observe(request)
        # ExperimentRequest
        runner = _EXPERIMENT_RUNNERS[request.experiment]
        payload, backend_name, seed = runner(request.param_dict)
        try:
            operator_format = preferred_format(get_backend(backend_name))
        except ValueError:
            operator_format = "dense"
        return payload, backend_name, operator_format, seed, {}

    def _session_for(self, request: ObserveRequest) -> _ObserveSession:
        """Get or create the named session; validate the configuration key."""
        try:
            key: Optional[str] = canonical_json(request.session_config())
        except (TypeError, ValueError):
            # Unserialisable pipeline (explicit noise_model object): the
            # session still works, but config matching degrades to trusting
            # the caller (both sides carry a None key).
            key = None
        with self._sessions_lock:
            session = self._sessions.get(request.session)
            if session is None:
                engine = StreamingFeatureEngine(
                    request.pipeline,
                    window_length=request.window_length,
                    stride=request.stride,
                    epsilons=request.epsilons,
                    spectrum_cache=self.spectrum_cache,
                )
                session = _ObserveSession(engine, key)
                self._sessions[request.session] = session
        if session.key != key:
            raise ValueError(
                f"observe request for session {request.session!r} does not match the "
                "session's window_length/stride/epsilons/pipeline configuration; "
                "close_session() first to reconfigure"
            )
        return session

    def _execute_observe(
        self, request: ObserveRequest
    ) -> Tuple[Dict[str, Any], str, str, Optional[int], Dict[str, Any]]:
        session = self._session_for(request)
        with session.lock:
            engine = session.engine
            windows = engine.extend(request.samples)
            payload: Dict[str, Any] = {
                "session": request.session,
                "samples_seen": engine.samples_seen,
                "windows_emitted": engine.windows_emitted,
                "new_windows": len(windows),
                "epsilons": list(request.epsilons),
                "feature_names": list(engine.feature_names),
                "windows": [
                    {
                        "index": w.index,
                        "start": w.start,
                        "features": w.features,
                        "incremental": w.incremental,
                        "unchanged": w.unchanged,
                        "simplices_destroyed": w.simplices_destroyed,
                        "simplices_created": w.simplices_created,
                    }
                    for w in windows
                ],
                "engine_stats": dict(engine.stats),
            }
            operator_format = engine.negotiated_operator_format()
        return (
            payload,
            self._pipeline_backend(request.pipeline),
            operator_format,
            request.seed,
            {},
        )


def describe_backends() -> List[Dict[str, Any]]:
    """Capability records of every registered backend (JSON-safe)."""
    from repro.core.backends import available_backends

    return [_json_safe(backend_capabilities(get_backend(name))) for name in available_backends()]


__all__ = [
    "SCHEMA_VERSION",
    "REQUEST_KINDS",
    "EXPERIMENT_NAMES",
    "EstimationRequest",
    "PipelineRequest",
    "SweepRequest",
    "ExperimentRequest",
    "ObserveRequest",
    "Request",
    "request_from_dict",
    "deterministic_request",
    "Provenance",
    "EstimationResult",
    "QTDAService",
    "describe_backends",
    "canonical_json",
]
