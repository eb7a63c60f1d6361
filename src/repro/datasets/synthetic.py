"""Synthetic drift/anomaly streams for the streaming (sliding-window) path.

The gearbox generator (:mod:`repro.datasets.gearbox`) models a *stationary*
machine in one of two health states.  Streaming topological monitoring is
most interesting on signals whose statistics change mid-stream, so this
module synthesises a second workload:

* a slow **concept drift** — the carrier frequency wobbles sinusoidally
  around its base value, so consecutive windows are similar but never
  identical (the streaming engine reuses nothing between them);
* a hard **regime switch** partway through the stream — the carrier jumps to
  a new frequency and amplitude, the "new operating point" scenario where a
  window-by-window monitor should see its features move;
* an optional **injected transient** class — short decaying resonance bursts
  at random positions, the anomaly signature (a local scatter of the
  delay-embedded attractor, topologically analogous to the gearbox fault
  impulses).

``anomalous=False`` streams carry the drift + regime switch only;
``anomalous=True`` adds the transients, giving a two-class problem that
plugs into the existing timeseries experiment
(``repro-experiments timeseries --signal drift``).

An **adversarial corruption wrapper** (:class:`AdversarialStreamConfig`,
:func:`corrupt_signal`) layers heavy-tailed Student-t impulses and sensor
occlusions (stuck-at-hold or dropped-to-zero runs) on top of any signal;
:func:`generate_adversarial_signal` / :func:`generate_adversarial_dataset`
apply it to the drift stream, giving the ``--signal adversarial`` workload —
the same two-class task seen through a misbehaving sensor.

The module also provides a **higher-dimensional point-cloud stream**
(:func:`generate_highdim_cloud_stream`): a known low-dimensional shape
(circle, sphere or torus — reference Betti numbers in hand) embedded in a
random subspace of :math:`\\mathbb{R}^d` and slowly rotated through a random
plane frame by frame, plus ambient Gaussian noise.  Topology is invariant
under the rotation, so every frame should report the same Betti numbers
while the raw coordinates differ — the service load tests use these frames
as a realistic "streaming telemetry" request class whose geometry never
repeats exactly (defeats caches, exercises the real compute path).
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import field as dataclass_field
from typing import Tuple

import numpy as np

from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_integer, check_positive_integer


@dataclass
class DriftStreamConfig:
    """Parameters of the synthetic drift/anomaly stream generator.

    Defaults match the gearbox rig's sampling rate so windowing parameters
    carry over; the carrier is slower than the gear mesh (a rotor-speed
    scale) because the interesting structure here is the drift, not the
    harmonics.
    """

    sampling_rate: float = 5000.0
    base_frequency: float = 40.0
    shifted_frequency: float = 62.0
    regime_switch_fraction: float = 0.5
    amplitude_step: float = 0.5
    drift_depth: float = 0.08
    drift_frequency: float = 0.5
    transient_amplitude: float = 2.5
    transient_decay: float = 90.0
    transient_resonance_frequency: float = 700.0
    transients_per_signal: int = 3
    noise_std: float = 0.2

    def __post_init__(self):
        if self.sampling_rate <= 0 or self.base_frequency <= 0 or self.shifted_frequency <= 0:
            raise ValueError("frequencies and sampling rate must be positive")
        if not 0.0 < self.regime_switch_fraction < 1.0:
            raise ValueError("regime_switch_fraction must lie in (0, 1)")
        if not 0.0 <= self.drift_depth < 1.0:
            raise ValueError("drift_depth must lie in [0, 1)")
        self.transients_per_signal = check_integer(
            self.transients_per_signal, "transients_per_signal", minimum=0
        )


def generate_drift_signal(
    num_samples: int,
    anomalous: bool,
    config: DriftStreamConfig | None = None,
    seed: SeedLike = None,
) -> np.ndarray:
    """One drift/regime-switch stream of ``num_samples`` samples.

    The instantaneous carrier frequency is integrated into a phase (so the
    waveform is continuous through both the drift and the switch):
    ``f(t) = f_base·(1 + depth·sin(2π f_drift t))`` before the switch, the
    same wobble around ``shifted_frequency`` after it, with the amplitude
    stepping up by ``amplitude_step``.  ``anomalous`` injects
    ``transients_per_signal`` decaying resonance bursts at random positions.

    Signature mirrors :func:`repro.datasets.gearbox.generate_gearbox_signal`
    (length, class flag, config, seed) so experiment drivers can switch
    generators uniformly.
    """
    n = check_positive_integer(num_samples, "num_samples")
    cfg = config if config is not None else DriftStreamConfig()
    rng = as_rng(seed)
    t = np.arange(n) / cfg.sampling_rate
    switch = int(n * cfg.regime_switch_fraction)

    carrier_frequency = np.where(np.arange(n) < switch, cfg.base_frequency, cfg.shifted_frequency)
    wobble = 1.0 + cfg.drift_depth * np.sin(
        2.0 * np.pi * cfg.drift_frequency * t + rng.uniform(0.0, 2.0 * np.pi)
    )
    instantaneous = carrier_frequency * wobble
    phase = 2.0 * np.pi * np.cumsum(instantaneous) / cfg.sampling_rate
    amplitude = np.where(np.arange(n) < switch, 1.0, 1.0 + cfg.amplitude_step)
    signal = amplitude * np.sin(phase + rng.uniform(0.0, 2.0 * np.pi))

    if anomalous and cfg.transients_per_signal > 0:
        # Bursts land anywhere in the stream (drawn first so the draw count
        # is independent of burst placement), each a decaying resonance.
        starts = np.sort(rng.integers(0, max(n - 1, 1), size=cfg.transients_per_signal))
        for start_idx in starts:
            length = min(n - int(start_idx), int(cfg.sampling_rate / cfg.drift_frequency) // 50 + 1)
            local_t = np.arange(length) / cfg.sampling_rate
            burst = (
                cfg.transient_amplitude
                * np.exp(-cfg.transient_decay * local_t)
                * np.sin(2.0 * np.pi * cfg.transient_resonance_frequency * local_t)
            )
            signal[int(start_idx) : int(start_idx) + length] += burst

    signal += rng.normal(scale=cfg.noise_std, size=n)
    return signal


def generate_drift_dataset(
    num_samples_per_class: int = 60,
    window_length: int = 500,
    config: DriftStreamConfig | None = None,
    seed: SeedLike = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Windowed two-class drift dataset (clean vs transient-injected).

    Mirrors :func:`repro.datasets.gearbox.generate_gearbox_dataset`: each
    window is an independently seeded stream, classes are balanced and rows
    are shuffled.  Label 0 = drift + regime switch only; label 1 = the same
    plus injected transients.
    """
    per_class = check_positive_integer(num_samples_per_class, "num_samples_per_class")
    length = check_positive_integer(window_length, "window_length")
    rng = as_rng(seed)
    windows = np.empty((2 * per_class, length))
    labels = np.empty(2 * per_class, dtype=int)
    row = 0
    for label, anomalous in ((0, False), (1, True)):
        for _ in range(per_class):
            windows[row] = generate_drift_signal(length, anomalous=anomalous, config=config, seed=rng)
            labels[row] = label
            row += 1
    permutation = rng.permutation(2 * per_class)
    return windows[permutation], labels[permutation]


# ---------------------------------------------------------------------------
# Adversarially noisy streams: heavy-tailed impulses + sensor occlusion
# ---------------------------------------------------------------------------


@dataclass
class AdversarialStreamConfig:
    """Corruption parameters layered on top of the drift stream.

    Two failure modes that Gaussian-noise robustness says nothing about:

    * **heavy-tailed impulses** — a random ``impulse_fraction`` of samples
      receives additive Student-t shocks with ``impulse_df`` degrees of
      freedom (``df < 2`` has infinite variance, so single samples can dwarf
      the carrier) scaled by ``impulse_scale``;
    * **occlusion** — ``occlusions_per_signal`` contiguous runs of
      ``occlusion_length`` samples are blanked, either frozen at the last
      pre-occlusion value (``"hold"``, a stuck sensor) or zeroed
      (``"zero"``, a dropped feed).

    ``base`` is the underlying :class:`DriftStreamConfig`; the class-1
    transients are injected *before* corruption, so the classification task
    is "find the anomaly signature through the corruption".
    """

    base: DriftStreamConfig = dataclass_field(default_factory=lambda: DriftStreamConfig())
    impulse_fraction: float = 0.02
    impulse_df: float = 1.5
    impulse_scale: float = 0.8
    occlusions_per_signal: int = 2
    occlusion_length: int = 40
    occlusion_mode: str = "hold"

    def __post_init__(self):
        if not 0.0 <= self.impulse_fraction <= 1.0:
            raise ValueError("impulse_fraction must lie in [0, 1]")
        if self.impulse_df <= 0:
            raise ValueError("impulse_df must be positive")
        if self.impulse_scale < 0:
            raise ValueError("impulse_scale must be non-negative")
        self.occlusions_per_signal = check_integer(
            self.occlusions_per_signal, "occlusions_per_signal", minimum=0
        )
        self.occlusion_length = check_positive_integer(
            self.occlusion_length, "occlusion_length"
        )
        if self.occlusion_mode not in ("hold", "zero"):
            raise ValueError(
                f"occlusion_mode must be 'hold' or 'zero', got {self.occlusion_mode!r}"
            )


def corrupt_signal(
    signal: np.ndarray,
    config: AdversarialStreamConfig | None = None,
    seed: SeedLike = None,
) -> np.ndarray:
    """A corrupted copy of ``signal`` (impulses then occlusions; input unchanged)."""
    cfg = config if config is not None else AdversarialStreamConfig()
    rng = as_rng(seed)
    out = np.array(signal, dtype=float, copy=True)
    n = out.size

    num_impulses = int(round(cfg.impulse_fraction * n))
    if num_impulses > 0 and cfg.impulse_scale > 0:
        positions = rng.choice(n, size=min(num_impulses, n), replace=False)
        out[positions] += cfg.impulse_scale * rng.standard_t(cfg.impulse_df, size=positions.size)

    for _ in range(cfg.occlusions_per_signal):
        length = min(cfg.occlusion_length, n)
        start = int(rng.integers(0, max(n - length, 0) + 1))
        if cfg.occlusion_mode == "hold":
            held = out[start - 1] if start > 0 else out[start]
            out[start : start + length] = held
        else:
            out[start : start + length] = 0.0
    return out


def generate_adversarial_signal(
    num_samples: int,
    anomalous: bool,
    config: AdversarialStreamConfig | None = None,
    seed: SeedLike = None,
) -> np.ndarray:
    """One drift stream pushed through the adversarial corruption wrapper.

    Signature mirrors :func:`generate_drift_signal` (length, class flag,
    config, seed) so the experiment drivers swap generators uniformly; one
    seeded RNG covers both the clean stream and its corruption.
    """
    cfg = config if config is not None else AdversarialStreamConfig()
    rng = as_rng(seed)
    clean = generate_drift_signal(num_samples, anomalous, config=cfg.base, seed=rng)
    return corrupt_signal(clean, config=cfg, seed=rng)


def generate_adversarial_dataset(
    num_samples_per_class: int = 60,
    window_length: int = 500,
    config: AdversarialStreamConfig | None = None,
    seed: SeedLike = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Windowed two-class adversarial dataset (both classes corrupted).

    Label 0 = corrupted drift stream; label 1 = the same plus injected
    transients (also corrupted) — :func:`generate_drift_dataset` behind
    :func:`corrupt_signal`, with balanced classes and shuffled rows.
    """
    per_class = check_positive_integer(num_samples_per_class, "num_samples_per_class")
    length = check_positive_integer(window_length, "window_length")
    rng = as_rng(seed)
    windows = np.empty((2 * per_class, length))
    labels = np.empty(2 * per_class, dtype=int)
    row = 0
    for label, anomalous in ((0, False), (1, True)):
        for _ in range(per_class):
            windows[row] = generate_adversarial_signal(
                length, anomalous=anomalous, config=config, seed=rng
            )
            labels[row] = label
            row += 1
    permutation = rng.permutation(2 * per_class)
    return windows[permutation], labels[permutation]


#: Intrinsic embedding dimension of each supported stream shape.
_SHAPE_DIMS = {"circle": 2, "sphere": 3, "torus": 3}


@dataclass
class HighDimStreamConfig:
    """Parameters of the rotating high-dimensional point-cloud stream.

    A ``shape`` with known topology (circle: β₀=1, β₁=1; sphere: β₂=1;
    torus: β₁=2) is embedded into a random ``ambient_dim``-dimensional
    subspace and rotated by ``rotation_per_frame`` radians per frame through
    a random 2-plane of the ambient space; ``noise_std`` Gaussian noise is
    re-drawn every frame.
    """

    ambient_dim: int = 8
    num_points: int = 24
    shape: str = "circle"
    radius: float = 1.0
    tube_radius: float = 0.35
    rotation_per_frame: float = 0.15
    noise_std: float = 0.02

    def __post_init__(self):
        if self.shape not in _SHAPE_DIMS:
            raise ValueError(
                f"shape must be one of {sorted(_SHAPE_DIMS)}, got {self.shape!r}"
            )
        self.num_points = check_positive_integer(self.num_points, "num_points")
        self.ambient_dim = check_integer(
            self.ambient_dim, "ambient_dim", minimum=_SHAPE_DIMS[self.shape]
        )
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.shape == "torus" and not 0.0 < self.tube_radius < self.radius:
            raise ValueError("torus requires 0 < tube_radius < radius")
        if self.noise_std < 0:
            raise ValueError("noise_std must be non-negative")


def _intrinsic_cloud(cfg: HighDimStreamConfig) -> np.ndarray:
    """The noiseless shape in its intrinsic 2-D/3-D coordinates.

    Points are placed deterministically (even angles / Fibonacci lattice /
    golden-ratio torus winding) so the sampled topology is as clean as the
    point budget allows — randomness enters only through the embedding,
    rotation and noise.
    """
    n = cfg.num_points
    index = np.arange(n)
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    if cfg.shape == "circle":
        angle = 2.0 * np.pi * index / n
        return cfg.radius * np.column_stack([np.cos(angle), np.sin(angle)])
    if cfg.shape == "sphere":
        # Fibonacci sphere: near-uniform without clustering at the poles.
        z = 1.0 - 2.0 * (index + 0.5) / n
        ring = np.sqrt(np.maximum(0.0, 1.0 - z**2))
        angle = 2.0 * np.pi * index / golden
        return cfg.radius * np.column_stack([ring * np.cos(angle), ring * np.sin(angle), z])
    # Torus: a single golden-ratio winding covers both cycles evenly.
    major = 2.0 * np.pi * index / n
    minor = 2.0 * np.pi * index / golden
    ring = cfg.radius + cfg.tube_radius * np.cos(minor)
    return np.column_stack(
        [ring * np.cos(major), ring * np.sin(major), cfg.tube_radius * np.sin(minor)]
    )


def generate_highdim_cloud_stream(
    num_frames: int,
    config: HighDimStreamConfig | None = None,
    seed: SeedLike = None,
) -> np.ndarray:
    """Stream of rotating high-dimensional clouds, shape ``(frames, points, d)``.

    Frame ``f`` is the intrinsic shape embedded into a random orthonormal
    subspace of :math:`\\mathbb{R}^d`, rotated by ``f·rotation_per_frame``
    radians in a random 2-plane, with fresh Gaussian noise.  Every frame has
    the same topology (rotations are isometries; the noise is small), so a
    streaming monitor should see constant Betti numbers over coordinates
    that never repeat — the service load tests rely on exactly that.
    """
    frames = check_positive_integer(num_frames, "num_frames")
    cfg = config if config is not None else HighDimStreamConfig()
    rng = as_rng(seed)
    d = cfg.ambient_dim
    intrinsic = _intrinsic_cloud(cfg)
    m = intrinsic.shape[1]

    # One QR draw gives the embedding basis (first m columns) and the
    # rotation plane.  The plane must intersect the embedding subspace —
    # a plane fully orthogonal to it would rotate nothing the points span,
    # leaving every frame identical — so one axis comes from inside the
    # embedding (u) and the other is a fresh direction when one exists (v).
    basis = np.linalg.qr(rng.normal(size=(d, d)))[0]
    embedding = basis[:, :m]
    u = basis[:, 0]
    v = basis[:, m] if d > m else basis[:, 1]

    stream = np.empty((frames, cfg.num_points, d))
    for frame in range(frames):
        theta = frame * cfg.rotation_per_frame
        # Rodrigues-style plane rotation: identity outside span(u, v).
        rotation = (
            np.eye(d)
            + (np.cos(theta) - 1.0) * (np.outer(u, u) + np.outer(v, v))
            + np.sin(theta) * (np.outer(u, v) - np.outer(v, u))
        )
        embedded = intrinsic @ (rotation @ embedding).T
        if cfg.noise_std > 0:
            embedded = embedded + rng.normal(scale=cfg.noise_std, size=embedded.shape)
        stream[frame] = embedded
    return stream
