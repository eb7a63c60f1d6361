"""Table 1 and the Section 5 time-series experiment — gearbox classification.

Two experiments share this module:

* :func:`run_timeseries_classification` — the first Section 5 experiment:
  500-sample windows of raw (synthetic) vibration signals are delay-embedded,
  Rips complexes are built and ``{β̃_0, β̃_1}`` features feed a classifier.
  The paper reports 100 % validation accuracy for this route.
* :func:`run_gearbox_table1` — the Table 1 experiment: 255 six-feature rows
  (51 healthy) are each turned into a four-point 3-D cloud, Betti features
  are estimated for 1–5 precision qubits at 100 shots, and logistic
  regression is trained on a 20 %/80 % train/validation split.  The table
  reports training accuracy, validation accuracy and the mean absolute error
  between estimated and exact Betti numbers per precision setting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch import BatchConfig, BatchFeatureEngine
from repro.core.config import QTDAConfig
from repro.core.hamiltonian import SpectrumCache
from repro.core.pipeline import PipelineConfig
from repro.datasets.features import feature_rows_to_point_clouds
from repro.datasets.gearbox import (
    GearboxDatasetConfig,
    generate_gearbox_dataset,
    generate_processed_gearbox_dataset,
)
from repro.ml.linear_model import LogisticRegression
from repro.ml.metrics import accuracy_score, mean_absolute_error
from repro.ml.model_selection import train_test_split
from repro.ml.preprocessing import StandardScaler
from repro.tda.takens import TakensEmbedding
from repro.utils.ascii_plots import render_table
from repro.utils.rng import SeedLike, derive_seed


@dataclass
class GearboxExperimentConfig:
    """Parameters of the Table 1 reproduction.

    The defaults use the paper's numbers where the paper states them
    (255 rows, 51 healthy, 100 shots, precision 1–5, 20 %/80 % train/val
    split) and a reduced row count can be requested for quick benchmark runs
    via ``num_rows`` / ``num_healthy``.
    """

    num_rows: int = 255
    num_healthy: int = 51
    precision_grid: Tuple[int, ...] = (1, 2, 3, 4, 5)
    shots: int = 100
    train_fraction: float = 0.2
    epsilon: Optional[float] = None
    homology_dimensions: Tuple[int, ...] = (0, 1)
    window_length: int = 500
    seed: SeedLike = 2023
    #: Any registered estimator backend (repro.core.backends); the paper's
    #: sweep uses the analytical ``exact`` path.
    backend: str = "exact"
    #: Noise parametrisation forwarded to QTDAConfig (used by the noisy
    #: circuit routes of the statevector and trotter backends).
    noise_channel: Optional[str] = None
    noise_strength: float = 0.0
    #: Circuit-execution route and trajectory-route knobs (QTDAConfig fields).
    circuit_engine: str = "auto"
    n_trajectories: int = 8
    readout_error: float = 0.0
    gearbox: GearboxDatasetConfig = field(default_factory=GearboxDatasetConfig)
    batch: BatchConfig = field(default_factory=BatchConfig)

    @classmethod
    def quick(cls) -> "GearboxExperimentConfig":
        """A reduced configuration for fast benchmark runs."""
        return cls(num_rows=60, num_healthy=20, window_length=400)


@dataclass
class Table1Row:
    """One row of Table 1."""

    precision_qubits: int
    training_accuracy: float
    validation_accuracy: float
    mean_absolute_error: float


@dataclass
class Table1Result:
    """All rows plus the classical-feature reference accuracies."""

    rows: List[Table1Row]
    reference_training_accuracy: float
    reference_validation_accuracy: float
    epsilon: float
    config: GearboxExperimentConfig

    def as_dict(self) -> Dict[str, object]:
        """Machine-readable view (the service API's experiment payload)."""
        cfg = self.config
        return {
            "rows": [
                {
                    "precision_qubits": row.precision_qubits,
                    "training_accuracy": row.training_accuracy,
                    "validation_accuracy": row.validation_accuracy,
                    "mean_absolute_error": row.mean_absolute_error,
                }
                for row in self.rows
            ],
            "reference_training_accuracy": self.reference_training_accuracy,
            "reference_validation_accuracy": self.reference_validation_accuracy,
            "epsilon": self.epsilon,
            "config": {
                "num_rows": cfg.num_rows,
                "num_healthy": cfg.num_healthy,
                "precision_grid": list(cfg.precision_grid),
                "shots": cfg.shots,
                "train_fraction": cfg.train_fraction,
                "seed": cfg.seed,
                "backend": cfg.backend,
                "noise_channel": cfg.noise_channel,
                "noise_strength": cfg.noise_strength,
                "circuit_engine": cfg.circuit_engine,
                "n_trajectories": cfg.n_trajectories,
                "readout_error": cfg.readout_error,
            },
        }


def _default_epsilon(clouds: Sequence[np.ndarray], percentile: float = 50.0) -> float:
    """Pick a grouping scale from the data: a percentile of pairwise distances.

    The paper fixes ε "using trial and error"; a percentile of the pooled
    inter-point distances is a robust, deterministic stand-in that keeps the
    complexes away from the empty/complete extremes.  The tabular (Table 1)
    route uses the median; the time-series route uses a lower percentile so
    the healthy attractor stays connected while the impulsive faulty clouds
    fragment — that contrast is what the Betti features pick up.
    """
    from repro.tda.distances import pairwise_distances

    samples = []
    for cloud in clouds:
        dist = pairwise_distances(cloud)
        n = dist.shape[0]
        if n > 1:
            iu, ju = np.triu_indices(n, k=1)
            samples.append(dist[iu, ju])
    pooled = np.concatenate(samples) if samples else np.array([1.0])
    return float(np.percentile(pooled, percentile))


def _betti_features(
    clouds: Sequence[np.ndarray],
    epsilon: float,
    homology_dimensions: Sequence[int],
    estimator_config: Optional[QTDAConfig],
    batch: Optional[BatchConfig] = None,
    spectrum_cache: Optional[SpectrumCache] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """(estimated features, exact features) for each cloud, via the batch engine.

    When ``estimator_config`` is ``None`` only exact (classical) features are
    produced and both returned matrices are equal.  Passing the same
    ``spectrum_cache`` across calls lets a precision sweep over identical
    complexes reuse every Laplacian eigendecomposition.
    """
    engine = BatchFeatureEngine(
        PipelineConfig(
            epsilon=float(epsilon),
            homology_dimensions=tuple(homology_dimensions),
            use_quantum=estimator_config is not None,
            estimator=estimator_config if estimator_config is not None else QTDAConfig(),
        ),
        batch=batch,
        spectrum_cache=spectrum_cache,
    )
    return engine.features_and_exact(clouds, epsilon=float(epsilon))


def _fit_and_score(
    features: np.ndarray, labels: np.ndarray, train_fraction: float, seed
) -> Tuple[float, float]:
    """Train/validation accuracy of logistic regression on the given features."""
    x_train, x_val, y_train, y_val = train_test_split(
        features, labels, test_size=1.0 - train_fraction, seed=seed, stratify=True
    )
    scaler = StandardScaler()
    x_train_s = scaler.fit_transform(x_train)
    x_val_s = scaler.transform(x_val)
    model = LogisticRegression()
    model.fit(x_train_s, y_train)
    return (
        accuracy_score(y_train, model.predict(x_train_s)),
        accuracy_score(y_val, model.predict(x_val_s)),
    )


def run_gearbox_table1(config: GearboxExperimentConfig | None = None) -> Table1Result:
    """Reproduce Table 1 on the synthetic gearbox feature dataset."""
    cfg = config if config is not None else GearboxExperimentConfig()
    features, labels = generate_processed_gearbox_dataset(
        num_rows=cfg.num_rows,
        num_healthy=cfg.num_healthy,
        config=cfg.gearbox,
        window_length=cfg.window_length,
        seed=cfg.seed,
    )
    clouds = feature_rows_to_point_clouds(features)
    epsilon = cfg.epsilon if cfg.epsilon is not None else _default_epsilon(clouds)
    split_seed = derive_seed(cfg.seed, 77)
    # One spectrum cache for the whole sweep: the complexes are identical
    # across the reference pass and every precision setting, so with the
    # serial/threads backends each Laplacian is diagonalised exactly once.
    # (The processes backend cannot share it — workers keep per-process
    # caches whose lifetime is one _betti_features call; see DESIGN.md §7.)
    cache = SpectrumCache()

    # Reference: actual (classical) Betti numbers as features.
    exact_features, _ = _betti_features(
        clouds, epsilon, cfg.homology_dimensions, None, batch=cfg.batch, spectrum_cache=cache
    )
    ref_train, ref_val = _fit_and_score(exact_features, labels, cfg.train_fraction, split_seed)

    rows: List[Table1Row] = []
    for precision in cfg.precision_grid:
        estimator_config = QTDAConfig(
            precision_qubits=precision,
            shots=cfg.shots,
            backend=cfg.backend,
            noise_channel=cfg.noise_channel,
            noise_strength=cfg.noise_strength,
            circuit_engine=cfg.circuit_engine,
            n_trajectories=cfg.n_trajectories,
            readout_error=cfg.readout_error,
            seed=derive_seed(cfg.seed, precision),
        )
        estimated, exact = _betti_features(
            clouds,
            epsilon,
            cfg.homology_dimensions,
            estimator_config,
            batch=cfg.batch,
            spectrum_cache=cache,
        )
        train_acc, val_acc = _fit_and_score(estimated, labels, cfg.train_fraction, split_seed)
        mae = mean_absolute_error(exact.reshape(-1), estimated.reshape(-1))
        rows.append(
            Table1Row(
                precision_qubits=precision,
                training_accuracy=train_acc,
                validation_accuracy=val_acc,
                mean_absolute_error=mae,
            )
        )
    return Table1Result(
        rows=rows,
        reference_training_accuracy=ref_train,
        reference_validation_accuracy=ref_val,
        epsilon=epsilon,
        config=cfg,
    )


def render_table1(result: Table1Result) -> str:
    """Format the result the way Table 1 is printed in the paper."""
    rows = [
        [row.precision_qubits, f"{row.training_accuracy:.3f}", f"{row.validation_accuracy:.3f}", f"{row.mean_absolute_error:.3f}"]
        for row in result.rows
    ]
    table = render_table(
        ["Precision qubits", "Training accuracy", "Validation accuracy", "Mean absolute error"],
        rows,
        title="Table 1 analogue — gearbox features dataset (synthetic substitute)",
    )
    reference = (
        f"Reference (actual Betti numbers): training {result.reference_training_accuracy:.3f}, "
        f"validation {result.reference_validation_accuracy:.3f}  [epsilon = {result.epsilon:.3f}]"
    )
    return table + "\n" + reference


@dataclass
class TimeseriesClassificationResult:
    """Result of the raw time-series classification experiment (Sec. 5, ¶1)."""

    training_accuracy: float
    validation_accuracy: float
    num_windows: int
    epsilon: float
    feature_names: Tuple[str, ...]
    #: Step between window starts when windows overlap (``None`` reproduces
    #: the paper's independent windows).
    window_stride: Optional[int] = None
    #: Whether features came through the streaming sweep engine.
    streaming: bool = False
    #: Engine window counters per class label when ``streaming`` (else empty).
    streaming_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Which synthetic workload produced the windows (``"gearbox"``/``"drift"``).
    signal: str = "gearbox"

    def as_dict(self) -> Dict[str, object]:
        """Machine-readable view (the service API's experiment payload)."""
        return {
            "training_accuracy": self.training_accuracy,
            "validation_accuracy": self.validation_accuracy,
            "num_windows": self.num_windows,
            "epsilon": self.epsilon,
            "feature_names": list(self.feature_names),
            "window_stride": self.window_stride,
            "streaming": self.streaming,
            "streaming_stats": {k: dict(v) for k, v in self.streaming_stats.items()},
            "signal": self.signal,
        }


def run_timeseries_classification(
    num_samples_per_class: int = 30,
    window_length: int = 500,
    precision_qubits: int = 4,
    shots: int = 100,
    takens_dimension: int = 3,
    takens_delay: int = 4,
    takens_stride: int = 16,
    epsilon: Optional[float] = None,
    epsilon_percentile: float = 15.0,
    train_fraction: float = 0.5,
    seed: SeedLike = 7,
    use_quantum: bool = True,
    batch: Optional[BatchConfig] = None,
    backend: str = "exact",
    noise_channel: Optional[str] = None,
    noise_strength: float = 0.0,
    circuit_engine: str = "auto",
    n_trajectories: int = 8,
    readout_error: float = 0.0,
    window_stride: Optional[int] = None,
    streaming: bool = False,
    signal: str = "gearbox",
) -> TimeseriesClassificationResult:
    """Classify healthy vs faulty gearbox windows from Betti-number features.

    Mirrors the first Section 5 experiment: Takens embedding of each window,
    Rips complex, ``{β̃_0, β̃_1}`` features, then a logistic-regression
    classifier.  The stride of the Takens embedding subsamples the embedded
    cloud so the Rips complexes stay small enough for the simulator.

    ``window_stride`` switches from the paper's independent windows to
    *overlapping* windows cut from one continuous vibration signal per class
    (step ``window_stride`` between window starts) — the condition-monitoring
    shape where consecutive windows share most of their samples.
    ``streaming`` additionally feeds each class's signal through one
    :class:`~repro.core.batch.StreamingFeatureEngine` (DESIGN.md §13), which
    builds every window as the batch sweep does and reuses the state of
    windows equal to their predecessor; the features are bit-identical to
    the batch route.  It requires ``window_stride``.

    ``signal`` selects the workload: ``"gearbox"`` (the paper's healthy vs
    surface-fault vibration), ``"drift"`` (the
    :mod:`repro.datasets.synthetic` drift/anomaly stream — regime switch in
    both classes, injected transients in class 1) or ``"adversarial"`` (the
    drift stream pushed through the heavy-tailed-impulse + sensor-occlusion
    corruption wrapper — the robustness stress test).
    """
    if streaming and window_stride is None:
        raise ValueError("streaming=True requires window_stride (overlapping windows)")
    if signal not in ("gearbox", "drift", "adversarial"):
        raise ValueError(
            f"signal must be 'gearbox', 'drift' or 'adversarial', got {signal!r}"
        )
    signals: Optional[Dict[int, np.ndarray]] = None
    if window_stride is None:
        if signal == "drift":
            from repro.datasets.synthetic import generate_drift_dataset

            windows, labels = generate_drift_dataset(
                num_samples_per_class=num_samples_per_class,
                window_length=window_length,
                seed=seed,
            )
        elif signal == "adversarial":
            from repro.datasets.synthetic import generate_adversarial_dataset

            windows, labels = generate_adversarial_dataset(
                num_samples_per_class=num_samples_per_class,
                window_length=window_length,
                seed=seed,
            )
        else:
            windows, labels = generate_gearbox_dataset(
                num_samples_per_class=num_samples_per_class,
                window_length=window_length,
                seed=seed,
            )
    else:
        from repro.datasets.gearbox import generate_gearbox_signal
        from repro.datasets.synthetic import generate_adversarial_signal, generate_drift_signal
        from repro.datasets.windows import sliding_windows

        generate_signal = {
            "gearbox": generate_gearbox_signal,
            "drift": generate_drift_signal,
            "adversarial": generate_adversarial_signal,
        }[signal]
        # One continuous signal per class, long enough for exactly
        # num_samples_per_class overlapping windows at the requested stride.
        series_length = window_length + int(window_stride) * (num_samples_per_class - 1)
        signals = {
            label: generate_signal(
                series_length, bool(label), seed=derive_seed(seed, label + 1)
            )
            for label in (0, 1)
        }
        windows = np.vstack(
            [sliding_windows(signals[label], window_length, window_stride) for label in (0, 1)]
        )
        labels = np.repeat([0, 1], num_samples_per_class)
    embedder = TakensEmbedding(dimension=takens_dimension, delay=takens_delay, stride=takens_stride)
    clouds = [embedder.transform(window) for window in windows]
    eps = epsilon if epsilon is not None else _default_epsilon(clouds, percentile=epsilon_percentile)
    estimator_config = (
        QTDAConfig(
            precision_qubits=precision_qubits,
            shots=shots,
            backend=backend,
            noise_channel=noise_channel,
            noise_strength=noise_strength,
            circuit_engine=circuit_engine,
            n_trajectories=n_trajectories,
            readout_error=readout_error,
            seed=derive_seed(seed, 3),
        )
        if use_quantum
        else None
    )
    streaming_stats: Dict[str, Dict[str, int]] = {}
    if streaming:
        assert signals is not None
        from repro.core.batch import StreamingFeatureEngine

        pipeline = PipelineConfig(
            epsilon=float(eps),
            homology_dimensions=(0, 1),
            use_quantum=estimator_config is not None,
            estimator=estimator_config if estimator_config is not None else QTDAConfig(),
            takens_dimension=takens_dimension,
            takens_delay=takens_delay,
            takens_stride=takens_stride,
        )
        per_class = []
        for label in (0, 1):
            engine = StreamingFeatureEngine(
                pipeline, window_length=window_length, stride=int(window_stride), epsilons=(eps,)
            )
            per_class.append(engine.process(signals[label])[0])  # (W, F) at the single ε
            streaming_stats[str(label)] = {k: int(v) for k, v in engine.stats.items()}
        features = np.vstack(per_class)
    else:
        features, _ = _betti_features(clouds, eps, (0, 1), estimator_config, batch=batch)
    train_acc, val_acc = _fit_and_score(features, labels, train_fraction, derive_seed(seed, 99))
    return TimeseriesClassificationResult(
        training_accuracy=train_acc,
        validation_accuracy=val_acc,
        num_windows=len(clouds),
        epsilon=eps,
        feature_names=("betti_0", "betti_1"),
        window_stride=None if window_stride is None else int(window_stride),
        streaming=bool(streaming),
        streaming_stats=streaming_stats,
        signal=signal,
    )
