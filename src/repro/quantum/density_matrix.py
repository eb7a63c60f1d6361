"""Density-matrix simulation.

The QTDA algorithm's input register is the *maximally mixed state*
``I/2^q`` (Section 3 of the paper).  Two equivalent simulation routes are
supported by the library:

* purification — prepare the mixed state with auxiliary qubits and Bell pairs
  (Fig. 2) and run the statevector simulator on the enlarged register;
* direct density-matrix evolution — this module — which also supports noise
  channels (Kraus maps) for the NISQ-robustness extension discussed in the
  paper's conclusion.

States are stored as dense ``2^n x 2^n`` matrices; gates are applied as
``ρ -> U ρ U†`` with the same tensor-contraction kernel used for
statevectors, applied to the row and column indices in turn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from repro.quantum.channels import NoiseSpec
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.measurement import marginal_probabilities, sample_counts
from repro.quantum.operations import Barrier, Gate, Measurement
from repro.quantum.statevector import Statevector
from repro.utils.rng import SeedLike


@dataclass
class DensityMatrix:
    """A (generally mixed) quantum state ``ρ`` on ``num_qubits`` qubits."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("Density matrix must be square")
        n = int(np.log2(mat.shape[0]))
        if 2**n != mat.shape[0]:
            raise ValueError("Density matrix dimension must be a power of two")
        self.matrix = mat

    @property
    def num_qubits(self) -> int:
        return int(np.log2(self.matrix.shape[0]))

    # -- constructors ---------------------------------------------------------
    @classmethod
    def zero_state(cls, num_qubits: int) -> "DensityMatrix":
        """``|0...0><0...0|``."""
        dim = 2**num_qubits
        mat = np.zeros((dim, dim), dtype=complex)
        mat[0, 0] = 1.0
        return cls(mat)

    @classmethod
    def maximally_mixed(cls, num_qubits: int) -> "DensityMatrix":
        """``I / 2^n`` — the input state of the QTDA algorithm."""
        dim = 2**num_qubits
        return cls(np.eye(dim, dtype=complex) / dim)

    @classmethod
    def from_statevector(cls, state: Statevector | np.ndarray) -> "DensityMatrix":
        """Pure-state density matrix ``|psi><psi|``."""
        amp = state.amplitudes if isinstance(state, Statevector) else np.asarray(state, dtype=complex).reshape(-1)
        return cls(np.outer(amp, amp.conj()))

    # -- diagnostics ----------------------------------------------------------
    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def purity(self) -> float:
        """``Tr(ρ^2)`` — 1 for pure states, ``1/2^n`` for the maximally mixed state."""
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def is_valid(self, atol: float = 1e-8) -> bool:
        """Hermitian, unit trace, positive semi-definite (to tolerance)."""
        mat = self.matrix
        if not np.allclose(mat, mat.conj().T, atol=atol):
            return False
        if not np.isclose(np.trace(mat).real, 1.0, atol=atol):
            return False
        eigvals = np.linalg.eigvalsh(mat)
        return bool(np.all(eigvals > -atol))

    def probabilities(self) -> np.ndarray:
        """Diagonal of ``ρ`` (computational-basis outcome probabilities)."""
        probs = np.real(np.diag(self.matrix)).copy()
        probs = np.clip(probs, 0.0, None)
        return probs / probs.sum()

    def marginal_probabilities(self, qubits: Sequence[int]) -> np.ndarray:
        return marginal_probabilities(self.probabilities(), self.num_qubits, qubits)

    def sample(self, shots: int, qubits: Optional[Sequence[int]] = None, seed: SeedLike = None) -> Dict[str, int]:
        qubits = list(range(self.num_qubits)) if qubits is None else list(qubits)
        return sample_counts(self.marginal_probabilities(qubits), shots, num_bits=len(qubits), seed=seed)

    def expectation(self, operator: np.ndarray) -> float:
        """``Re Tr(ρ O)``."""
        return float(np.real(np.trace(self.matrix @ np.asarray(operator, dtype=complex))))

    def partial_trace(self, keep: Sequence[int]) -> "DensityMatrix":
        """Trace out every qubit not in ``keep`` (kept qubits stay in listed order)."""
        n = self.num_qubits
        keep = [int(q) for q in keep]
        drop = [q for q in range(n) if q not in keep]
        tensor = self.matrix.reshape([2] * (2 * n))
        # Row axis of qubit q is q; column axis is n + q.
        for q in sorted(drop, reverse=True):
            tensor = np.trace(tensor, axis1=q, axis2=tensor.ndim // 2 + q)
        k = len(keep)
        remaining = sorted(keep)
        order = [remaining.index(q) for q in keep]
        tensor = np.transpose(tensor, order + [k + o for o in order])
        dim = 2**k
        return DensityMatrix(tensor.reshape(dim, dim))


def _apply_matrix_rows(rho_tensor: np.ndarray, gate: np.ndarray, qubits: Sequence[int], num_qubits: int) -> np.ndarray:
    """Apply ``gate`` to the row indices of the density tensor."""
    k = len(qubits)
    gate_tensor = gate.reshape([2] * (2 * k))
    out = np.tensordot(gate_tensor, rho_tensor, axes=(list(range(k, 2 * k)), list(qubits)))
    return np.moveaxis(out, list(range(k)), list(qubits))


class DensityMatrixSimulator:
    """Executes circuits (optionally under a noise spec) on density matrices.

    ``noise_spec`` places its Kraus channels after each gate through
    :meth:`~repro.quantum.channels.NoiseSpec.channels_for_gate` — the same
    placement the ``ptm`` and ``trajectory`` routes use.
    """

    def __init__(self, noise_spec: Optional[NoiseSpec] = None):
        self.noise_spec = noise_spec

    def run(
        self,
        circuit: QuantumCircuit,
        initial_state: Optional[DensityMatrix | Statevector | np.ndarray] = None,
    ) -> DensityMatrix:
        """Evolve ``initial_state`` (default ``|0...0>``) through ``circuit``."""
        n = circuit.num_qubits
        rho = self._coerce_initial(initial_state, n)
        tensor = rho.matrix.reshape([2] * (2 * n))
        for op in circuit.instructions:
            if isinstance(op, Gate):
                qubits = list(op.qubits)
                col_qubits = [n + q for q in qubits]
                # U ρ U†: rows with U, columns with U* (conjugate).
                tensor = _apply_matrix_rows(tensor, op.matrix, qubits, 2 * n)
                tensor = _apply_matrix_rows(tensor, op.matrix.conj(), col_qubits, 2 * n)
                if self.noise_spec is not None:
                    for channel, targets in self.noise_spec.channels_for_gate(op):
                        tensor = apply_kraus(tensor, channel.kraus_ops, targets, n)
            elif isinstance(op, (Measurement, Barrier)):
                continue
            else:  # pragma: no cover - defensive
                raise TypeError(f"Unsupported instruction {op!r}")
        dim = 2**n
        return DensityMatrix(tensor.reshape(dim, dim))

    def sample(
        self,
        circuit: QuantumCircuit,
        shots: int,
        initial_state: Optional[DensityMatrix | Statevector | np.ndarray] = None,
        qubits: Optional[Sequence[int]] = None,
        seed: SeedLike = None,
    ) -> Dict[str, int]:
        """Run and sample shot counts on ``qubits`` (default: measured or all)."""
        final = self.run(circuit, initial_state=initial_state)
        if qubits is None:
            qubits = circuit.measured_qubits or tuple(range(circuit.num_qubits))
        return final.sample(shots, qubits=qubits, seed=seed)

    @staticmethod
    def _coerce_initial(initial_state, num_qubits: int) -> DensityMatrix:
        if initial_state is None:
            return DensityMatrix.zero_state(num_qubits)
        if isinstance(initial_state, DensityMatrix):
            rho = initial_state
        elif isinstance(initial_state, Statevector):
            rho = DensityMatrix.from_statevector(initial_state)
        else:
            arr = np.asarray(initial_state, dtype=complex)
            rho = DensityMatrix(arr) if arr.ndim == 2 else DensityMatrix.from_statevector(arr)
        if rho.num_qubits != num_qubits:
            raise ValueError(
                f"Initial state has {rho.num_qubits} qubits, circuit has {num_qubits}"
            )
        return rho


def apply_kraus(rho_tensor: np.ndarray, kraus_ops: Iterable[np.ndarray], qubits: Sequence[int], num_qubits: int) -> np.ndarray:
    """Apply a Kraus channel ``ρ -> Σ_k K_k ρ K_k†`` on ``qubits`` of a density tensor.

    ``rho_tensor`` has ``2 * num_qubits`` axes (rows then columns); the
    function returns a tensor of the same shape.
    """
    qubits = list(qubits)
    col_qubits = [num_qubits + q for q in qubits]
    out = np.zeros_like(rho_tensor)
    for kraus in kraus_ops:
        term = _apply_matrix_rows(rho_tensor, kraus, qubits, 2 * num_qubits)
        term = _apply_matrix_rows(term, kraus.conj(), col_qubits, 2 * num_qubits)
        out = out + term
    return out
