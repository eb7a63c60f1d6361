"""Quantum phase estimation (QPE).

Two complementary views of the same algorithm are provided:

* :func:`phase_estimation_circuit` builds the explicit circuit of the paper's
  Fig. 6 — Hadamards on the precision register, controlled powers
  ``U^{2^j}`` and an inverse QFT — either from a dense unitary (exact
  controlled powers) or from a circuit realisation of ``U`` (each gate gets a
  control, powers are realised by repetition, exactly what a compiler would
  emit for hardware).
* :func:`qpe_outcome_distribution` evaluates the *analytical* outcome
  distribution of ideal QPE (the Fejér/Dirichlet kernel), given the
  eigenphases of ``U`` and the weights with which the input state populates
  the corresponding eigenvectors.  For the maximally mixed input used by the
  QTDA algorithm the weights are uniform, which makes this the fast backend
  for the paper's large parameter sweeps.

Conventions: precision qubits come first (qubit 0 = most significant bit of
the phase readout), followed by the system qubits; ``U |ψ> = e^{2πiθ} |ψ>``
with ``θ ∈ [0, 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.quantum.circuit import QuantumCircuit
from repro.quantum.gates import matrix_power_unitary
from repro.quantum.qft import inverse_qft_circuit
from repro.utils.validation import check_positive_integer


# ---------------------------------------------------------------------------
# Circuit construction (Fig. 6)
# ---------------------------------------------------------------------------


@dataclass
class SpectralUnitary:
    """``U = exp(iH)`` held as one eigendecomposition of the Hermitian ``H``.

    QPE needs all ``t`` controlled powers ``U^{2^j}`` of the same unitary.
    Powering the dense matrix independently per precision qubit repeats
    ``O(log 2^j)`` matrix products each time; in the eigenbasis every power
    is diagonal, so a *single* decomposition yields each power as one phase
    array plus two matrix products:

        ``U^p = V · diag(e^{i p λ}) · V†``.

    Build it with :meth:`from_hermitian` (one ``eigh`` of ``H`` — no ``expm``
    at all) when the Hamiltonian is at hand, or :meth:`from_unitary` (one
    Schur decomposition) from a dense unitary.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float).reshape(-1)
        self.eigenvectors = np.asarray(self.eigenvectors, dtype=complex)
        dim = self.eigenvalues.size
        if self.eigenvectors.shape != (dim, dim):
            raise ValueError(
                f"eigenvectors shape {self.eigenvectors.shape} does not match "
                f"{dim} eigenvalues"
            )

    @classmethod
    def from_hermitian(cls, hamiltonian: np.ndarray) -> "SpectralUnitary":
        """Spectral form of ``exp(iH)`` from one ``eigh`` of the Hermitian ``H``."""
        eigenvalues, eigenvectors = np.linalg.eigh(np.asarray(hamiltonian, dtype=complex))
        return cls(eigenvalues=eigenvalues, eigenvectors=eigenvectors)

    @classmethod
    def from_unitary(cls, unitary: np.ndarray) -> "SpectralUnitary":
        """Spectral form of a dense unitary via one (complex) Schur decomposition.

        Unitaries are normal, so the Schur factor is diagonal and its
        diagonal's angles are the eigenphases (an effective Hermitian
        generator with eigenvalues in ``(-π, π]``).
        """
        from scipy.linalg import schur

        triangular, vectors = schur(np.asarray(unitary, dtype=complex), output="complex")
        return cls(eigenvalues=np.angle(np.diag(triangular)), eigenvectors=vectors)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @property
    def num_qubits(self) -> int:
        q = int(np.log2(self.dim))
        if 2**q != self.dim:
            raise ValueError("dimension must be a power of two")
        return q

    def power(self, power: float) -> np.ndarray:
        """Dense ``U^power`` reconstructed from the stored eigendecomposition."""
        phases = np.exp(1j * float(power) * self.eigenvalues)
        return (self.eigenvectors * phases) @ self.eigenvectors.conj().T


def phase_estimation_circuit(
    unitary: np.ndarray | QuantumCircuit | SpectralUnitary,
    num_precision: int,
    num_system: Optional[int] = None,
    num_auxiliary: int = 0,
    name: str = "QPE",
) -> QuantumCircuit:
    """Build the QPE circuit.

    Parameters
    ----------
    unitary:
        One of: a dense ``2^q x 2^q`` unitary (each controlled power is an
        independent repeated squaring), a :class:`SpectralUnitary` (all
        powers share its one eigendecomposition), or a :class:`QuantumCircuit` implementing ``U``
        on the system register (each of its gates is individually controlled
        and the power ``2^j`` is realised by repetition — the faithful
        "implementation perspective" of the paper).
    num_precision:
        Number of precision (phase-readout) qubits ``t``.
    num_system:
        Number of system qubits ``q``; inferred from ``unitary`` if omitted.
    num_auxiliary:
        Extra qubits appended after the system register (used by the QTDA
        circuit for the mixed-state purification of Fig. 2). They are left
        untouched by QPE itself.
    name:
        Circuit name.

    Returns
    -------
    QuantumCircuit
        Circuit on ``num_precision + num_system + num_auxiliary`` qubits with
        a measurement marker on the precision register.
    """
    t = check_positive_integer(num_precision, "num_precision")
    unitary_circuit: Optional[QuantumCircuit] = None
    unitary_matrix: Optional[np.ndarray] = None
    spectral: Optional[SpectralUnitary] = None
    if isinstance(unitary, QuantumCircuit):
        q = unitary.num_qubits if num_system is None else int(num_system)
        if q != unitary.num_qubits:
            raise ValueError("num_system does not match the unitary circuit size")
        unitary_circuit = unitary
    elif isinstance(unitary, SpectralUnitary):
        q = unitary.num_qubits if num_system is None else int(num_system)
        if 2**q != unitary.dim:
            raise ValueError("num_system does not match the spectral unitary's dimension")
        spectral = unitary
    else:
        mat = np.asarray(unitary, dtype=complex)
        q = int(np.log2(mat.shape[0])) if num_system is None else int(num_system)
        if mat.shape != (2**q, 2**q):
            raise ValueError(f"unitary shape {mat.shape} does not match {q} system qubits")
        unitary_matrix = mat

    total = t + q + int(num_auxiliary)
    circ = QuantumCircuit(total, name=name)
    precision_qubits = list(range(t))
    system_qubits = list(range(t, t + q))

    # 1. Hadamards on the precision register.
    for p in precision_qubits:
        circ.h(p)
    circ.barrier(label="H layer")

    # 2. Controlled powers: precision qubit j controls U^{2^{t-1-j}} so that
    #    qubit 0 (MSB of the readout) carries the highest power.
    for j, control in enumerate(precision_qubits):
        power = 2 ** (t - 1 - j)
        if spectral is not None:
            powered = spectral.power(power)
            circ.controlled_unitary(powered, [control], system_qubits, name=f"c-U^{power}")
        elif unitary_matrix is not None:
            powered = matrix_power_unitary(unitary_matrix, power)
            circ.controlled_unitary(powered, [control], system_qubits, name=f"c-U^{power}")
        else:
            for _ in range(power):
                _append_controlled_circuit(circ, unitary_circuit, control, system_qubits)
    circ.barrier(label="controlled-U")

    # 3. Inverse QFT on the precision register.
    circ.compose(inverse_qft_circuit(t), qubits=precision_qubits)
    circ.measure(precision_qubits, label="phase")
    return circ


def _append_controlled_circuit(
    target_circuit: QuantumCircuit,
    unitary_circuit: QuantumCircuit,
    control: int,
    system_qubits: Sequence[int],
) -> None:
    """Append a controlled copy of ``unitary_circuit`` gate by gate."""
    for gate in unitary_circuit.gates:
        mapped_targets = [system_qubits[q] for q in gate.qubits]
        target_circuit.controlled_unitary(gate.matrix, [control], mapped_targets, name=f"c-{gate.name}")


# ---------------------------------------------------------------------------
# Analytical outcome distribution
# ---------------------------------------------------------------------------

def qpe_probability_kernel(theta: float | np.ndarray, num_precision: int) -> np.ndarray:
    """Probability of each QPE readout ``m`` for a state of exact phase ``theta``.

    For ``t`` precision qubits and ``M = 2^t`` the textbook result is

        P(m | θ) = |(1/M) Σ_{k=0}^{M-1} e^{2πik(θ - m/M)}|^2
                 = sin²(π M Δ) / (M² sin²(π Δ)),   Δ = θ - m/M,

    with the removable singularity ``P = 1`` when ``Δ`` is an integer.

    Parameters
    ----------
    theta:
        Scalar phase or array of phases in ``[0, 1)`` (values outside are
        wrapped).
    num_precision:
        Number of precision qubits ``t``.

    Returns
    -------
    numpy.ndarray
        Shape ``(..., 2^t)`` array of outcome probabilities (last axis sums
        to 1).
    """
    t = check_positive_integer(num_precision, "num_precision")
    M = 2**t
    theta_arr = np.atleast_1d(np.asarray(theta, dtype=float)) % 1.0
    m = np.arange(M)
    delta = theta_arr[..., None] - m / M
    # sin(pi*M*delta)^2 / (M^2 sin(pi*delta)^2), with limit 1 when delta ∈ Z.
    numerator = np.sin(np.pi * M * delta) ** 2
    denominator = (M**2) * np.sin(np.pi * delta) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        probs = np.where(denominator > 1e-300, numerator / np.where(denominator == 0, 1.0, denominator), 0.0)
    exact = np.abs(delta - np.round(delta)) <= 1e-12
    probs = np.where(exact, 1.0, probs)
    # Normalise defensively against floating-point drift.
    probs = probs / probs.sum(axis=-1, keepdims=True)
    if np.isscalar(theta) or np.ndim(theta) == 0:
        return probs[0]
    return probs.reshape(np.shape(theta) + (M,))


def qpe_outcome_distribution(
    eigenphases: Sequence[float],
    num_precision: int,
    weights: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """Outcome distribution of QPE for a mixed input over eigenvectors.

    Parameters
    ----------
    eigenphases:
        Phases ``θ_j ∈ [0, 1)`` of the unitary's eigenvalues ``e^{2πiθ_j}``.
    num_precision:
        Number of precision qubits.
    weights:
        Probability with which the input state populates each eigenvector.
        Defaults to uniform — the maximally mixed state of the QTDA
        algorithm, where each of the ``2^q`` eigenvectors carries ``1/2^q``.

    Returns
    -------
    numpy.ndarray
        Length ``2^t`` probability vector over phase readouts.
    """
    phases = np.asarray(list(eigenphases), dtype=float)
    if phases.size == 0:
        raise ValueError("eigenphases must be non-empty")
    if weights is None:
        w = np.full(phases.size, 1.0 / phases.size)
    else:
        w = np.asarray(list(weights), dtype=float)
        if w.shape != phases.shape:
            raise ValueError("weights must match eigenphases in length")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        w = w / w.sum()
    kernels = qpe_probability_kernel(phases, num_precision)
    return np.einsum("j,jm->m", w, kernels)


@dataclass
class PhaseEstimation:
    """Convenience wrapper bundling a unitary with a precision-register size.

    Used by the exact estimator backend and in tests; the heavy lifting lives
    in the module-level functions.
    """

    unitary: np.ndarray
    num_precision: int

    def __post_init__(self):
        self.unitary = np.asarray(self.unitary, dtype=complex)
        self.num_precision = check_positive_integer(self.num_precision, "num_precision")
        if self.unitary.ndim != 2 or self.unitary.shape[0] != self.unitary.shape[1]:
            raise ValueError("unitary must be square")

    @property
    def num_system_qubits(self) -> int:
        q = int(np.log2(self.unitary.shape[0]))
        if 2**q != self.unitary.shape[0]:
            raise ValueError("unitary dimension must be a power of two")
        return q

    def eigenphases(self) -> np.ndarray:
        """Phases ``θ_j ∈ [0, 1)`` of the unitary's eigenvalues."""
        eigvals = np.linalg.eigvals(self.unitary)
        return np.angle(eigvals) / (2 * np.pi) % 1.0

    def outcome_distribution(self, weights: Optional[Sequence[float]] = None) -> np.ndarray:
        """Analytical QPE readout distribution (see :func:`qpe_outcome_distribution`)."""
        return qpe_outcome_distribution(self.eigenphases(), self.num_precision, weights)

    def circuit(self, num_auxiliary: int = 0) -> QuantumCircuit:
        """The explicit QPE circuit with exact controlled powers."""
        return phase_estimation_circuit(self.unitary, self.num_precision, num_auxiliary=num_auxiliary)
