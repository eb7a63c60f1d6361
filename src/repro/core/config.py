"""Configuration object for the QTDA estimator.

Collects the knobs the paper varies in its experiments — number of precision
qubits, number of shots, the spectral-scaling constant ``δ`` — plus the
implementation choices this library adds (simulation backend, padding mode,
Trotter parameters, optional noise).

The ``backend`` field is validated against the pluggable backend registry
(:mod:`repro.core.backends`), so any backend registered with
:func:`repro.core.backends.register_backend` — built-in or third-party —
is immediately usable from a config.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Optional

import numpy as np

from repro.core.backends import available_backends
from repro.core.backends.statevector import CIRCUIT_ROUTES, PTM_AUTO_QUBIT_THRESHOLD
from repro.quantum.channels import (
    NOISE_CHANNELS,
    TWO_QUBIT_NOISE_CHANNELS,
    NoiseSpec,
    _normalise_gate_strengths,
)
from repro.utils.validation import (
    check_integer,
    check_positive_integer,
    check_probability,
)

#: Allowed padding modes (Eq. 7 identity padding vs the naive zero padding).
PADDING_MODES = ("identity", "zero")

#: Largest accepted ``precision_qubits``.  Every backend's work and memory
#: grow as ``2^t``, so an unbounded value lets one small request ask for an
#: allocation the host cannot make; the paper's Fig. 3 grid stops at 10.
MAX_PRECISION_QUBITS = 16

#: Circuit-execution engine choices for the faithful Fig. 6 backends
#: (``statevector``/``trotter``): ``"auto"`` plus the
#: concrete routes, derived from the route module's single source of truth
#: (:data:`repro.core.backends.statevector.CIRCUIT_ROUTES`); see
#: :func:`repro.core.backends.statevector.resolve_circuit_route` and
#: DESIGN.md §11.
CIRCUIT_ENGINES = ("auto",) + CIRCUIT_ROUTES


@dataclass
class QTDAConfig:
    """All tunables of the QPE Betti-number estimator.

    Attributes
    ----------
    precision_qubits:
        Number of QPE precision qubits ``t`` (the paper sweeps 1–10); at
        most :data:`MAX_PRECISION_QUBITS`.
    shots:
        Number of circuit repetitions ``α``.  ``None`` means "infinite shots":
        the exact outcome probability ``p(0)`` is used directly.
    delta:
        The spectral scaling constant ``δ`` of Eq. 9, "slightly less than
        2π".  The default keeps a 10 % margin (δ = 0.9·2π ≈ 5.65, comparable
        to the worked example's δ = 6): if δ is pushed too close to 2π, the
        largest eigenvalue maps to a phase just below 1, which QPE cannot
        distinguish from phase 0 (phases are periodic), and the top of the
        spectrum leaks into the Betti count.
    backend:
        Name of a registered estimation backend (see
        :func:`repro.core.backends.available_backends`; the built-ins are
        ``"exact"``, ``"sparse-exact"``, ``"stochastic-trace"``,
        ``"statevector"`` and ``"trotter"``).
    padding:
        ``"identity"`` for the paper's λ̃_max/2-identity padding (Eq. 7) or
        ``"zero"`` for the naive zero padding it argues against.
    trotter_steps, trotter_order:
        Product-formula parameters for the ``"trotter"`` backend.
    circuit_engine:
        How the circuit backends execute the mixed-state Fig. 6 circuit
        (DESIGN.md §11):

        * ``"ensemble"`` — batched statevector route: evolve the ``2^q``
          basis states as one ``(2^(t+q), B)`` array (chunked to a memory
          budget, gates fused) and average the readout; no auxiliary qubits,
          no density matrix.
        * ``"ptm"`` — the *exact* noise route (DESIGN.md §16): gates and
          their attached channels are lowered to Liouville superoperators
          and fused, and one complex density tensor evolves through the
          fused program, holding each qubit only from its first op to its
          last.  Deterministic; agrees with the density-matrix oracle to
          floating point at gate-fusion speed.  Runs at most
          :data:`repro.core.backends.statevector.PTM_AUTO_QUBIT_THRESHOLD`
          qubits ``t + q``; a larger circuit raises ``ValueError``, and so
          does the config itself once ``t`` alone reaches the threshold
          (every Laplacian adds ``q >= 1``).
        * ``"trajectory"`` — the noisy counterpart of ``ensemble``:
          stochastic Kraus-branch trajectories on the same ``(2^(t+q), B)``
          array, one sampled branch per ensemble member after each gate,
          repeated ``n_trajectories`` times (mean converges to the density
          result; spread becomes ``p_zero_std``).
        * ``"auto"`` (default) — for gate noise, ``ptm`` while ``t + q``
          stays within
          :data:`repro.core.backends.statevector.PTM_AUTO_QUBIT_THRESHOLD`
          and ``trajectory`` above it; ``ensemble`` otherwise.

        All noise-free routes agree to better than ``1e-10``.
    noise_channel, noise_strength:
        Declarative noise parametrisation honoured by the circuit backends
        (``statevector``/``trotter``): a channel name from
        :data:`repro.quantum.channels.NOISE_CHANNELS` and its per-gate error
        probability.  Together with the fields below they make up the
        config's :class:`~repro.quantum.channels.NoiseSpec`
        (:meth:`resolved_noise_spec`).
    noise_gate_strengths:
        Optional per-gate-class strength overrides for ``noise_channel``,
        keyed by gate name (``"H"``, ``"CNOT"``, ``"CU"``, ...).  Accepts a
        mapping or a tuple of ``(name, strength)`` pairs (the wire layer
        freezes mappings into the latter); normalised to a plain dict.
    noise_two_qubit_channel, noise_two_qubit_strength:
        Optional correlated two-qubit channel (one of
        :data:`repro.quantum.channels.TWO_QUBIT_NOISE_CHANNELS`) injected
        after every two-qubit gate, modelling the dominant entangling-gate
        errors of real devices.
    readout_error:
        Symmetric measurement bit-flip probability applied to the readout
        marginal.  Honoured by every circuit route (it is a classical
        post-processing of the distribution), so it composes with the
        noise-free ``ensemble`` route too.
    n_trajectories:
        Number of stochastic Kraus-trajectory repetitions for the
        ``trajectory`` route; their spread surfaces as
        ``p_zero_std``/``betti_std``.
    trace_deflation_rank:
        Hutch++-style variance reduction for the ``stochastic-trace``
        backend: when positive, a rank-``r`` near-kernel subspace is resolved
        by Lanczos first and handled *exactly*, and the Hutchinson probes
        only estimate the deflated remainder — shrinking ``betti_std`` at an
        equal matvec budget (the deflation steps are paid for by shortening
        the per-probe Lanczos runs).  ``0`` (default) keeps plain Hutchinson
        probing.  Ignored by deterministic backends.
    seed:
        RNG seed for shot sampling.
    """

    precision_qubits: int = 3
    shots: Optional[int] = 1000
    delta: float = 2.0 * np.pi * 0.9
    backend: str = "exact"
    padding: str = "identity"
    trotter_steps: int = 4
    trotter_order: int = 1
    circuit_engine: str = "auto"
    noise_channel: Optional[str] = None
    noise_strength: float = 0.0
    noise_gate_strengths: Optional[object] = None
    noise_two_qubit_channel: Optional[str] = None
    noise_two_qubit_strength: float = 0.0
    readout_error: float = 0.0
    n_trajectories: int = 8
    trace_deflation_rank: int = 0
    seed: Optional[int] = None
    zero_eigenvalue_atol: float = 1e-8

    def __post_init__(self):
        self.precision_qubits = check_integer(
            self.precision_qubits, "precision_qubits", minimum=1, maximum=MAX_PRECISION_QUBITS
        )
        if self.shots is not None:
            self.shots = check_positive_integer(self.shots, "shots")
        self.delta = float(self.delta)
        if not 0.0 < self.delta < 2.0 * np.pi:
            raise ValueError(f"delta must lie in (0, 2π), got {self.delta}")
        if self.backend not in available_backends():
            raise ValueError(
                f"backend must be one of {available_backends()}, got {self.backend!r}"
            )
        if self.padding not in PADDING_MODES:
            raise ValueError(f"padding must be one of {PADDING_MODES}, got {self.padding!r}")
        self.trotter_steps = check_positive_integer(self.trotter_steps, "trotter_steps")
        self.trotter_order = check_integer(self.trotter_order, "trotter_order", minimum=1, maximum=2)
        if self.circuit_engine not in CIRCUIT_ENGINES:
            raise ValueError(
                f"circuit_engine must be one of {CIRCUIT_ENGINES}, got {self.circuit_engine!r}"
            )
        if self.noise_channel is not None and self.noise_channel not in NOISE_CHANNELS:
            raise ValueError(
                f"noise_channel must be one of {NOISE_CHANNELS}, got {self.noise_channel!r}"
            )
        self.trace_deflation_rank = check_integer(
            self.trace_deflation_rank, "trace_deflation_rank", minimum=0
        )
        self.noise_strength = check_probability(self.noise_strength, "noise_strength")
        self.noise_gate_strengths = _normalise_gate_strengths(self.noise_gate_strengths)
        if (
            self.noise_two_qubit_channel is not None
            and self.noise_two_qubit_channel not in TWO_QUBIT_NOISE_CHANNELS
        ):
            raise ValueError(
                f"noise_two_qubit_channel must be one of {TWO_QUBIT_NOISE_CHANNELS}, "
                f"got {self.noise_two_qubit_channel!r}"
            )
        self.noise_two_qubit_strength = check_probability(
            self.noise_two_qubit_strength, "noise_two_qubit_strength"
        )
        self.readout_error = check_probability(self.readout_error, "readout_error")
        self.n_trajectories = check_positive_integer(self.n_trajectories, "n_trajectories")
        if self.noise_gate_strengths and self.noise_channel is None:
            raise ValueError("noise_gate_strengths requires a noise_channel")
        if self.noise_two_qubit_strength > 0 and self.noise_two_qubit_channel is None:
            raise ValueError(
                f"noise_two_qubit_strength={self.noise_two_qubit_strength} requires "
                "a noise_two_qubit_channel"
            )
        if self.seed is not None and not isinstance(
            self.seed, (np.random.Generator, np.random.SeedSequence)
        ):
            self.seed = check_integer(self.seed, "seed", minimum=0)
        self.zero_eigenvalue_atol = float(self.zero_eigenvalue_atol)
        if not (np.isfinite(self.zero_eigenvalue_atol) and self.zero_eigenvalue_atol >= 0):
            raise ValueError(
                f"zero_eigenvalue_atol must be finite and >= 0, got {self.zero_eigenvalue_atol}"
            )
        if self.noise_strength > 0 and self.noise_channel is None:
            # Without this check the strength would be silently ignored and a
            # run claiming noise would report noiseless results.
            raise ValueError(
                f"noise_strength={self.noise_strength} requires a noise_channel "
                f"(one of {NOISE_CHANNELS})"
            )
        if self.circuit_engine == "ensemble" and self.resolved_noise_spec().has_gate_noise:
            # The pure-state route cannot express Kraus channels; a config
            # claiming both would silently drop the noise.  Same predicate as
            # resolve_circuit_route: a zero-strength channel is noise-free,
            # and readout_error (classical post-processing) composes with
            # every route.
            raise ValueError(
                "circuit_engine='ensemble' cannot simulate noise channels; "
                "use circuit_engine='ptm', 'trajectory' (or 'auto')"
            )
        if self.circuit_engine == "ptm" and self.precision_qubits >= PTM_AUTO_QUBIT_THRESHOLD:
            # Every Laplacian needs q >= 1 system qubits, so t + q exceeds the
            # threshold and route resolution would refuse the run anyway;
            # refusing it here makes it a client error (400 on the wire).
            raise ValueError(
                f"circuit_engine='ptm' runs at most {PTM_AUTO_QUBIT_THRESHOLD} qubits (t + q) "
                f"and every Laplacian adds at least one, so precision_qubits must stay below "
                f"{PTM_AUTO_QUBIT_THRESHOLD}, got {self.precision_qubits}; use 'trajectory' or 'auto'"
            )

    def resolved_noise_spec(self) -> NoiseSpec:
        """The noise description of this config as a :class:`NoiseSpec`.

        The one noise object every circuit route (and the density-matrix
        oracle) reads.
        """
        return NoiseSpec(
            channel=self.noise_channel,
            strength=self.noise_strength,
            gate_strengths=self.noise_gate_strengths,
            two_qubit_channel=self.noise_two_qubit_channel,
            two_qubit_strength=self.noise_two_qubit_strength,
            readout_error=self.readout_error,
        )

    def replace(self, **overrides) -> "QTDAConfig":
        """Copy with selected fields overridden (dataclasses.replace wrapper)."""
        from dataclasses import replace as dc_replace

        return dc_replace(self, **overrides)

    def as_dict(self) -> Dict[str, object]:
        """Plain-dictionary view, round-trippable through :meth:`from_dict`."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "QTDAConfig":
        """Inverse of :meth:`as_dict` (re-runs all field validation)."""
        return cls(**data)
