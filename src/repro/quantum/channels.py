"""First-class quantum channels: the Kraus IR shared by every noise route.

The Kraus factories, the channel registry and :class:`NoiseSpec` — the one
noise description of the library — live here, consumed by:

* the ``ptm`` route (channels lowered to Liouville superoperators, see
  :mod:`repro.quantum.ptm`);
* the density-matrix simulator (exact Kraus contraction, the reference
  oracle of the routes);
* the ensemble engine's **trajectory** route (stochastic Kraus-branch
  unravelling — sample one branch per ensemble member per gate, see
  :mod:`repro.quantum.engine`);
* the classical readout stage (:func:`apply_readout_error` — measurement
  bit-flip error as an exact per-bit confusion-matrix contraction).

Two objects matter:

:class:`QuantumChannel`
    A named, validated set of Kraus operators of fixed arity.  Channels that
    are *mixed-unitary* (every ``K_k†K_k ∝ I``, e.g. the Pauli channels) get
    their branch probabilities precomputed once — trajectory sampling is then
    state-independent (one cumulative-probability table for the whole
    ensemble).  General channels (amplitude damping) fall back to per-state
    Born sampling, ``p_k(ψ) = ‖K_k ψ‖²``.

:class:`NoiseSpec`
    The serialisable generalisation of the old ``(noise_channel,
    noise_strength)`` pair: per-gate-class strength overrides, an optional
    correlated two-qubit channel injected after two-qubit gates (CNOT and
    friends), and readout error.  ``QTDAConfig`` carries its fields as plain
    data; :meth:`NoiseSpec.channels_for_gate` is the single source of noise
    *placement* shared by every consumer above (which is what makes the
    trajectory mean converge to the density result).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.quantum.operations import Gate
from repro.utils.validation import check_probability

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


# ---------------------------------------------------------------------------
# Kraus factories (single-qubit)
# ---------------------------------------------------------------------------


def bit_flip_kraus(p: float) -> List[np.ndarray]:
    """Bit-flip channel: X applied with probability ``p``."""
    p = check_probability(p, "p")
    return [np.sqrt(1 - p) * _I, np.sqrt(p) * _X]


def phase_flip_kraus(p: float) -> List[np.ndarray]:
    """Phase-flip channel: Z applied with probability ``p``."""
    p = check_probability(p, "p")
    return [np.sqrt(1 - p) * _I, np.sqrt(p) * _Z]


def depolarizing_kraus(p: float) -> List[np.ndarray]:
    """Single-qubit depolarising channel with error probability ``p``.

    With probability ``p`` the qubit is replaced by the maximally mixed state,
    implemented as the uniform Pauli twirl ``{X, Y, Z}`` each with ``p/3``.
    """
    p = check_probability(p, "p")
    return [
        np.sqrt(1 - p) * _I,
        np.sqrt(p / 3.0) * _X,
        np.sqrt(p / 3.0) * _Y,
        np.sqrt(p / 3.0) * _Z,
    ]


def amplitude_damping_kraus(gamma: float) -> List[np.ndarray]:
    """Amplitude damping (T1 decay) with damping probability ``gamma``."""
    gamma = check_probability(gamma, "gamma")
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    return [k0, k1]


# ---------------------------------------------------------------------------
# Kraus factories (two-qubit, correlated)
# ---------------------------------------------------------------------------


def two_qubit_depolarizing_kraus(p: float) -> List[np.ndarray]:
    """Two-qubit depolarising channel: uniform twirl over the 15 non-identity
    Pauli pairs, each with ``p/15`` — the standard correlated error model for
    entangling gates (CNOT error rates dominate on real devices)."""
    p = check_probability(p, "p")
    paulis = (_I, _X, _Y, _Z)
    ops = [np.sqrt(1 - p) * np.kron(_I, _I)]
    for a in range(4):
        for b in range(4):
            if a == 0 and b == 0:
                continue
            ops.append(np.sqrt(p / 15.0) * np.kron(paulis[a], paulis[b]))
    return ops


def correlated_zz_kraus(p: float) -> List[np.ndarray]:
    """Correlated dephasing: ``Z⊗Z`` applied with probability ``p``.

    Models the residual-ZZ crosstalk that entangling gates leave on their
    qubit pair — the phases of the two qubits flip *together*, which no
    product of single-qubit channels can express.
    """
    p = check_probability(p, "p")
    return [np.sqrt(1 - p) * np.kron(_I, _I), np.sqrt(p) * np.kron(_Z, _Z)]


#: Channel-name -> (factory, arity).  The single-qubit names are the legacy
#: ``NOISE_CHANNELS`` consumed by ``QTDAConfig.noise_channel``; the two-qubit
#: names are valid for ``QTDAConfig.noise_two_qubit_channel``.
_CHANNEL_FACTORIES: Dict[str, Tuple[object, int]] = {
    "depolarizing": (depolarizing_kraus, 1),
    "bit-flip": (bit_flip_kraus, 1),
    "phase-flip": (phase_flip_kraus, 1),
    "amplitude-damping": (amplitude_damping_kraus, 1),
    "two-qubit-depolarizing": (two_qubit_depolarizing_kraus, 2),
    "correlated-zz": (correlated_zz_kraus, 2),
}

#: Single-qubit channel names (the legacy ``QTDAConfig.noise_channel`` values).
NOISE_CHANNELS = tuple(sorted(n for n, (_, a) in _CHANNEL_FACTORIES.items() if a == 1))

#: Two-qubit channel names (``QTDAConfig.noise_two_qubit_channel`` values).
TWO_QUBIT_NOISE_CHANNELS = tuple(sorted(n for n, (_, a) in _CHANNEL_FACTORIES.items() if a == 2))


def is_trace_preserving(kraus_ops: Sequence[np.ndarray], atol: float = 1e-9) -> bool:
    """Check the completeness relation ``Σ_k K_k† K_k = I``."""
    dim = kraus_ops[0].shape[0]
    total = sum(k.conj().T @ k for k in kraus_ops)
    return bool(np.allclose(total, np.eye(dim), atol=atol))


# ---------------------------------------------------------------------------
# The channel IR
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuantumChannel:
    """A named, validated Kraus channel of fixed arity.

    Attributes
    ----------
    name:
        Human-readable identifier (stamped into provenance/describe output).
    kraus_ops:
        Tuple of ``2^arity x 2^arity`` complex matrices satisfying the
        completeness relation.
    arity:
        Number of qubits the channel acts on (1 or 2 for the built-ins).
    branch_probabilities, cumulative_probabilities, unitary_branches, identity_branches:
        Populated iff the channel is *mixed-unitary* (every ``K_k†K_k = p_k I``):
        ``K_k = √p_k U_k`` with precomputed ``p_k``, their cumulative sums
        and the unit-norm branch unitaries.  Trajectory sampling then draws a
        branch from one fixed categorical distribution for the whole
        ensemble; non-mixed-unitary channels (``None`` here) need per-state
        Born sampling instead (see ``repro.quantum.engine``).
    """

    name: str
    kraus_ops: Tuple[np.ndarray, ...]
    arity: int
    branch_probabilities: Optional[np.ndarray] = field(default=None, compare=False)
    cumulative_probabilities: Optional[np.ndarray] = field(default=None, compare=False)
    unitary_branches: Optional[Tuple[np.ndarray, ...]] = field(default=None, compare=False)
    identity_branches: Optional[np.ndarray] = field(default=None, compare=False)

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus_ops)
        if not ops:
            raise ValueError("QuantumChannel needs at least one Kraus operator")
        arity = int(self.arity)
        dim = 2**arity
        if any(k.shape != (dim, dim) for k in ops):
            raise ValueError(
                f"channel {self.name!r}: every Kraus operator must be {dim}x{dim} "
                f"for arity {arity}"
            )
        if not is_trace_preserving(ops):
            raise ValueError(
                f"channel {self.name!r}: Kraus operators do not satisfy the "
                "completeness relation"
            )
        object.__setattr__(self, "kraus_ops", ops)
        object.__setattr__(self, "arity", arity)
        # Mixed-unitary detection: K†K = p·I for every branch.  Pauli-type
        # channels qualify; amplitude damping does not.
        probs = []
        unitaries = []
        mixed_unitary = True
        for k in ops:
            gram = k.conj().T @ k
            p = float(gram.trace().real) / dim
            if not np.allclose(gram, p * np.eye(dim), atol=1e-12):
                mixed_unitary = False
                break
            probs.append(p)
            # Zero-probability branches (e.g. depolarizing at p=0) keep an
            # identity placeholder; the cumulative table never selects them.
            # So does a branch ``c·I`` with ``c > 0``: ``k / sqrt(p)`` can
            # land an ulp off 1 (``sqrt(1 - p)² ≠ 1 - p`` for p = 0.02).
            scalar = k[0, 0]
            if p <= 0 or (scalar.real > 0 and np.array_equal(k, scalar * np.eye(dim))):
                unitaries.append(np.eye(dim, dtype=complex))
            else:
                unitaries.append(k / np.sqrt(p))
        if mixed_unitary:
            p_arr = np.asarray(probs, dtype=float)
            eye = np.eye(dim, dtype=complex)
            object.__setattr__(self, "branch_probabilities", p_arr)
            object.__setattr__(self, "cumulative_probabilities", np.cumsum(p_arr))
            object.__setattr__(self, "unitary_branches", tuple(unitaries))
            # Exact-identity branches (the √(1−p)·I branch of the Pauli-type
            # channels, set to I above) are no-ops the trajectory
            # sampler can skip; at realistic strengths that is the sampled
            # branch for almost every ensemble member.
            object.__setattr__(
                self,
                "identity_branches",
                np.array([np.array_equal(u, eye) for u in unitaries], dtype=bool),
            )
        else:
            object.__setattr__(self, "branch_probabilities", None)
            object.__setattr__(self, "cumulative_probabilities", None)
            object.__setattr__(self, "unitary_branches", None)
            object.__setattr__(self, "identity_branches", None)

    @property
    def is_mixed_unitary(self) -> bool:
        """Whether trajectory sampling can use the precomputed branch table."""
        return self.branch_probabilities is not None

    @classmethod
    def from_name(cls, name: str, strength: float) -> "QuantumChannel":
        """Build a built-in channel by registry name (cached per (name, strength))."""
        return _channel_from_name(name, float(strength))


@lru_cache(maxsize=256)
def _channel_from_name(name: str, strength: float) -> QuantumChannel:
    try:
        factory, arity = _CHANNEL_FACTORIES[name]
    except KeyError:
        available = ", ".join(sorted(_CHANNEL_FACTORIES))
        raise ValueError(
            f"Unknown noise channel {name!r}; available channels: {available}"
        ) from None
    return QuantumChannel(name=name, kraus_ops=tuple(factory(strength)), arity=arity)


# ---------------------------------------------------------------------------
# Readout error
# ---------------------------------------------------------------------------


def apply_readout_error(distribution: np.ndarray, p: float) -> np.ndarray:
    """Symmetric per-bit readout error applied to a readout distribution.

    Each measured bit independently flips with probability ``p``; this is the
    exact expectation of that stochastic process — a ``[[1-p, p], [p, 1-p]]``
    confusion matrix contracted over every bit axis of the ``2^t``
    distribution.  Exactness (rather than sampled flips) keeps infinite-shot
    runs deterministic; finite-shot noise is still layered on top by the
    estimator's usual shot sampling.
    """
    p = check_probability(p, "readout_error")
    dist = np.asarray(distribution, dtype=float)
    if p == 0.0:
        return dist
    num_bits = int(round(np.log2(dist.size)))
    if 2**num_bits != dist.size:
        raise ValueError(f"distribution length {dist.size} is not a power of two")
    confusion = np.array([[1.0 - p, p], [p, 1.0 - p]])
    tensor = dist.reshape([2] * num_bits)
    for axis in range(num_bits):
        tensor = np.tensordot(confusion, tensor, axes=([1], [axis]))
        tensor = np.moveaxis(tensor, 0, axis)
    return np.ascontiguousarray(tensor).reshape(-1)


# ---------------------------------------------------------------------------
# NoiseSpec — the serialisable noise description
# ---------------------------------------------------------------------------


def _normalise_gate_strengths(value) -> Dict[str, float]:
    """Accept a mapping or a (frozen) tuple of ``(name, strength)`` pairs.

    The wire layer (:func:`repro.core.api._freeze`) turns mappings into
    sorted tuples of pairs on request round-trips, so both shapes must
    rebuild into the same plain dict.
    """
    if value is None:
        return {}
    if isinstance(value, Mapping):
        items = value.items()
    else:
        items = [tuple(pair) for pair in value]
    out: Dict[str, float] = {}
    for name, strength in items:
        out[str(name)] = check_probability(strength, f"gate_strengths[{name!r}]")
    # Sorted by gate name so the dict (and hence every serialisation of it)
    # is canonical: ``{"h": .., "cp": ..}`` and ``(("cp", ..), ("h", ..))``
    # normalise to byte-identical wire documents.
    return {name: out[name] for name in sorted(out)}


@dataclass(frozen=True)
class NoiseSpec:
    """Plain-data noise description consumed by every noisy execution route.

    Generalises the legacy ``(noise_channel, noise_strength)`` pair:

    Attributes
    ----------
    channel, strength:
        The baseline single-qubit channel applied to every qubit a gate
        touches, immediately after the gate (``None`` channel = no gate
        noise from this term).
    gate_strengths:
        Per-gate-class strength overrides keyed by gate *name* (``"H"``,
        ``"CNOT"``, ``"CU"``, ...): that gate class runs ``channel`` at the
        override strength instead of the baseline (``0.0`` disables noise
        for the class).  Requires ``channel``.
    two_qubit_channel, two_qubit_strength:
        Optional correlated two-qubit channel (``"two-qubit-depolarizing"``
        or ``"correlated-zz"``) injected after every gate acting on exactly
        two qubits — CNOT and the other entangling gates, whose error rates
        dominate on hardware.
    readout_error:
        Symmetric measurement bit-flip probability applied to the final
        readout marginal (:func:`apply_readout_error`).
    """

    channel: Optional[str] = None
    strength: float = 0.0
    gate_strengths: Mapping[str, float] = field(default_factory=dict)
    two_qubit_channel: Optional[str] = None
    two_qubit_strength: float = 0.0
    readout_error: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "gate_strengths", _normalise_gate_strengths(self.gate_strengths))
        object.__setattr__(self, "strength", check_probability(self.strength, "strength"))
        object.__setattr__(
            self, "two_qubit_strength", check_probability(self.two_qubit_strength, "two_qubit_strength")
        )
        object.__setattr__(self, "readout_error", check_probability(self.readout_error, "readout_error"))
        if self.channel is not None and self.channel not in NOISE_CHANNELS:
            raise ValueError(
                f"channel must be one of {NOISE_CHANNELS}, got {self.channel!r}"
            )
        if self.two_qubit_channel is not None and self.two_qubit_channel not in TWO_QUBIT_NOISE_CHANNELS:
            raise ValueError(
                f"two_qubit_channel must be one of {TWO_QUBIT_NOISE_CHANNELS}, "
                f"got {self.two_qubit_channel!r}"
            )
        if self.gate_strengths and self.channel is None:
            raise ValueError("gate_strengths requires a baseline channel")
        if self.strength > 0 and self.channel is None:
            raise ValueError(f"strength={self.strength} requires a channel")
        if self.two_qubit_strength > 0 and self.two_qubit_channel is None:
            raise ValueError(
                f"two_qubit_strength={self.two_qubit_strength} requires a two_qubit_channel"
            )

    # -- classification -------------------------------------------------------
    @property
    def has_gate_noise(self) -> bool:
        """Whether any Kraus channel is injected after gates (routes on this)."""
        if self.channel is not None and (
            self.strength > 0 or any(s > 0 for s in self.gate_strengths.values())
        ):
            return True
        return self.two_qubit_channel is not None and self.two_qubit_strength > 0

    @property
    def is_noiseless(self) -> bool:
        """No gate noise and no readout error — the identity spec."""
        return not self.has_gate_noise and self.readout_error == 0.0

    # -- placement ------------------------------------------------------------
    def strength_for_gate(self, gate_name: str) -> float:
        """The baseline channel's strength for one gate class."""
        return float(self.gate_strengths.get(gate_name, self.strength))

    def channels_for_gate(self, gate: Gate) -> List[Tuple[QuantumChannel, Tuple[int, ...]]]:
        """The ``(channel, target qubits)`` list injected after ``gate``.

        The single source of noise *placement*: the ``ptm`` route lowers each
        returned channel to a superoperator, the density simulator contracts
        it into the density tensor, the trajectory route samples one Kraus
        branch of each per ensemble member.  Order: the
        per-qubit single-qubit channel on every touched qubit, then the
        correlated two-qubit channel when the gate acts on exactly two
        qubits.
        """
        placed: List[Tuple[QuantumChannel, Tuple[int, ...]]] = []
        if self.channel is not None:
            strength = self.strength_for_gate(gate.name)
            if strength > 0:
                channel = QuantumChannel.from_name(self.channel, strength)
                for q in gate.qubits:
                    placed.append((channel, (int(q),)))
        if (
            self.two_qubit_channel is not None
            and self.two_qubit_strength > 0
            and len(gate.qubits) == 2
        ):
            channel = QuantumChannel.from_name(self.two_qubit_channel, self.two_qubit_strength)
            placed.append((channel, tuple(int(q) for q in gate.qubits)))
        return placed

    # -- serialisation --------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        """JSON-safe view, round-trippable through :meth:`from_dict`."""
        return {
            "channel": self.channel,
            "strength": self.strength,
            "gate_strengths": dict(self.gate_strengths),
            "two_qubit_channel": self.two_qubit_channel,
            "two_qubit_strength": self.two_qubit_strength,
            "readout_error": self.readout_error,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "NoiseSpec":
        """Inverse of :meth:`as_dict` (re-runs all validation)."""
        return cls(**dict(data))

    def describe(self) -> Dict[str, object]:
        """Summary dictionary (experiment reports)."""
        summary = self.as_dict()
        summary["is_noiseless"] = self.is_noiseless
        return summary
