"""Dense statevector simulation.

The simulator stores the register as a rank-``n`` tensor of amplitudes
(one axis of length 2 per qubit, qubit 0 first) and applies each ``k``-qubit
gate with a single :func:`numpy.tensordot` contraction — the standard
vectorised approach, ``O(2^n · 2^k)`` per gate with no Python loops over
amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.quantum.circuit import QuantumCircuit
from repro.quantum.measurement import born_probabilities, marginal_probabilities, sample_counts
from repro.quantum.operations import Barrier, Gate, Measurement
from repro.utils.rng import SeedLike, as_rng


@dataclass
class Statevector:
    """A pure state on ``num_qubits`` qubits.

    ``amplitudes[i]`` is the amplitude of basis state ``|b_0 b_1 ... b_{n-1}>``
    where ``i = Σ_j b_j 2^{n-1-j}`` (qubit 0 is the most significant bit).
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        n = int(np.log2(amp.size))
        if 2**n != amp.size:
            raise ValueError(f"Statevector length {amp.size} is not a power of two")
        self.amplitudes = amp

    @property
    def num_qubits(self) -> int:
        return int(np.log2(self.amplitudes.size))

    @classmethod
    def zero_state(cls, num_qubits: int) -> "Statevector":
        """``|0...0>``."""
        amp = np.zeros(2**num_qubits, dtype=complex)
        amp[0] = 1.0
        return cls(amp)

    @classmethod
    def basis_state(cls, num_qubits: int, index: int) -> "Statevector":
        """Computational basis state ``|index>``."""
        amp = np.zeros(2**num_qubits, dtype=complex)
        amp[int(index)] = 1.0
        return cls(amp)

    def norm(self) -> float:
        """Euclidean norm of the amplitude vector."""
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "Statevector":
        """Unit-norm copy."""
        n = self.norm()
        if n == 0:
            raise ValueError("Cannot normalise the zero vector")
        return Statevector(self.amplitudes / n)

    def probabilities(self) -> np.ndarray:
        """Born-rule probabilities over all ``2^n`` basis states."""
        return born_probabilities(self.amplitudes)

    def marginal_probabilities(self, qubits: Sequence[int]) -> np.ndarray:
        """Probabilities of outcomes on the sub-register ``qubits``."""
        return marginal_probabilities(self.probabilities(), self.num_qubits, qubits)

    def sample(self, shots: int, qubits: Optional[Sequence[int]] = None, seed: SeedLike = None) -> Dict[str, int]:
        """Sample measurement outcomes (bitstring -> count)."""
        qubits = list(range(self.num_qubits)) if qubits is None else list(qubits)
        probs = self.marginal_probabilities(qubits)
        return sample_counts(probs, shots, num_bits=len(qubits), seed=seed)

    def expectation(self, operator: np.ndarray) -> float:
        """Real part of ``<psi|O|psi>`` for a dense Hermitian operator."""
        op = np.asarray(operator, dtype=complex)
        return float(np.real(np.vdot(self.amplitudes, op @ self.amplitudes)))

    def fidelity(self, other: "Statevector") -> float:
        """``|<self|other>|^2``."""
        return float(abs(np.vdot(self.amplitudes, other.amplitudes)) ** 2)

    def density_matrix(self) -> np.ndarray:
        """Outer product ``|psi><psi|``."""
        return np.outer(self.amplitudes, self.amplitudes.conj())


def apply_gate_to_statevector(state: np.ndarray, gate_matrix: np.ndarray, qubits: Sequence[int], num_qubits: int) -> np.ndarray:
    """Apply a ``k``-qubit gate to a flat statevector and return a new flat array.

    This is the batch-1 specialisation of :func:`repro.quantum.engine.
    apply_gate_to_ensemble` — the state is viewed as a ``(2^n, 1)`` ensemble
    and pushed through the same contraction kernel, so a batch-1 run of the
    ensemble engine is bit-identical to this simulator.

    Parameters
    ----------
    state:
        Flat complex array of length ``2^num_qubits``.
    gate_matrix:
        ``2^k x 2^k`` unitary; its first index qubit is ``qubits[0]``.
    qubits:
        Target qubits (qubit 0 = most significant bit of basis labels).
    num_qubits:
        Register size.
    """
    from repro.quantum.engine import apply_gate_to_ensemble

    psi = np.asarray(state, dtype=complex).reshape(-1, 1)
    gate = np.asarray(gate_matrix, dtype=complex)
    return apply_gate_to_ensemble(psi, gate, qubits, num_qubits).reshape(-1)


class StatevectorSimulator:
    """Executes :class:`QuantumCircuit` objects on dense statevectors.

    Parameters
    ----------
    validate_unitaries, atol:
        Optionally check every gate matrix is unitary before applying it.
    """

    def __init__(self, validate_unitaries: bool = False, atol: float = 1e-8):
        self.validate_unitaries = bool(validate_unitaries)
        self.atol = float(atol)

    def run(
        self,
        circuit: QuantumCircuit,
        initial_state: Optional[np.ndarray | Statevector] = None,
    ) -> Statevector:
        """Simulate ``circuit`` and return the final state.

        Measurement instructions are ignored here (they only matter for
        :meth:`sample`); barriers are skipped.
        """
        n = circuit.num_qubits
        if initial_state is None:
            psi = Statevector.zero_state(n).amplitudes
        else:
            init = initial_state.amplitudes if isinstance(initial_state, Statevector) else np.asarray(initial_state, dtype=complex)
            if init.size != 2**n:
                raise ValueError(
                    f"Initial state has dimension {init.size}, expected {2**n} for {n} qubits"
                )
            psi = init.reshape(-1).astype(complex)
        for op in circuit.instructions:
            if isinstance(op, Gate):
                if self.validate_unitaries:
                    op.validate_unitary(atol=self.atol)
                psi = apply_gate_to_statevector(psi, op.matrix, op.qubits, n)
            elif isinstance(op, (Measurement, Barrier)):
                continue
            else:  # pragma: no cover - defensive
                raise TypeError(f"Unsupported instruction {op!r}")
        return Statevector(psi)

    def sample(
        self,
        circuit: QuantumCircuit,
        shots: int,
        initial_state: Optional[np.ndarray | Statevector] = None,
        qubits: Optional[Sequence[int]] = None,
        seed: SeedLike = None,
    ) -> Dict[str, int]:
        """Run the circuit and sample ``shots`` outcomes on ``qubits``.

        If ``qubits`` is ``None``, the circuit's measured qubits are used (or
        all qubits when the circuit has no measurement markers).
        """
        final = self.run(circuit, initial_state=initial_state)
        if qubits is None:
            qubits = circuit.measured_qubits or tuple(range(circuit.num_qubits))
        return final.sample(shots, qubits=qubits, seed=as_rng(seed))

    def probabilities(
        self,
        circuit: QuantumCircuit,
        initial_state: Optional[np.ndarray | Statevector] = None,
        qubits: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Exact outcome probabilities on ``qubits`` (default: measured or all)."""
        final = self.run(circuit, initial_state=initial_state)
        if qubits is None:
            qubits = circuit.measured_qubits or tuple(range(circuit.num_qubits))
        return final.marginal_probabilities(qubits)
