"""Gate matrices.

Every function/constant here returns a dense unitary as a complex NumPy
array.  Matrices for multi-qubit gates are given in the standard tensor
ordering where the *first* listed qubit is the most significant bit — the
same convention used throughout :mod:`repro.quantum`.  The controlled-gate
helpers also cut the ``V`` out of ``I (+) V`` (:func:`controlled_block`) and
mark it open in a compiled plan (:class:`BlockSlot`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# ---------------------------------------------------------------------------
# Fixed gates
# ---------------------------------------------------------------------------

IDENTITY = np.eye(2, dtype=complex)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)

#: Phase gate S = diag(1, i).
S_GATE = np.array([[1, 0], [0, 1j]], dtype=complex)
#: S† = diag(1, -i).
S_DAGGER = S_GATE.conj().T
#: T = diag(1, e^{iπ/4}).
T_GATE = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex)
T_DAGGER = T_GATE.conj().T

#: CNOT with qubit order (control, target).
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

#: Controlled-Z (symmetric in control/target).
CZ = np.diag([1, 1, 1, -1]).astype(complex)

#: SWAP of two qubits.
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

#: Toffoli (CCX) with qubit order (control, control, target).
TOFFOLI = np.eye(8, dtype=complex)
TOFFOLI[[6, 7], :] = TOFFOLI[[7, 6], :]


# ---------------------------------------------------------------------------
# Parametric gates
# ---------------------------------------------------------------------------

def rx(theta: float) -> np.ndarray:
    """Rotation about X: ``exp(-i θ X / 2)``."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry(theta: float) -> np.ndarray:
    """Rotation about Y: ``exp(-i θ Y / 2)``."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    """Rotation about Z: ``exp(-i θ Z / 2)``."""
    phase = np.exp(-1j * theta / 2.0)
    return np.array([[phase, 0], [0, np.conj(phase)]], dtype=complex)


def phase_shift(phi: float) -> np.ndarray:
    """Phase gate ``diag(1, e^{iφ})`` (PennyLane's ``PhaseShift``)."""
    return np.array([[1, 0], [0, np.exp(1j * phi)]], dtype=complex)


def global_phase(phi: float, num_qubits: int = 1) -> np.ndarray:
    """``e^{iφ} I`` on ``num_qubits`` qubits."""
    return np.exp(1j * phi) * np.eye(2**num_qubits, dtype=complex)


def u3(theta: float, phi: float, lam: float) -> np.ndarray:
    """General single-qubit unitary with the standard (θ, φ, λ) Euler angles."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


def controlled(unitary: np.ndarray, num_controls: int = 1) -> np.ndarray:
    """Controlled version of ``unitary`` with ``num_controls`` control qubits.

    Controls are the most significant qubits: the returned matrix acts as the
    identity unless all controls are ``|1>``, in which case it applies
    ``unitary`` to the remaining (least significant) qubits.
    """
    unitary = np.asarray(unitary, dtype=complex)
    if unitary.ndim != 2 or unitary.shape[0] != unitary.shape[1]:
        raise ValueError("unitary must be a square matrix")
    if num_controls < 1:
        raise ValueError("num_controls must be >= 1")
    dim = unitary.shape[0]
    total = dim * (2**num_controls)
    out = np.eye(total, dtype=complex)
    out[total - dim :, total - dim :] = unitary
    return out


def controlled_block(matrix: np.ndarray) -> Optional[np.ndarray]:
    """The ``V`` of ``U = I (+) V`` if ``matrix`` has exact controlled block
    structure (control = most significant qubit), else ``None``.

    The inverse of :func:`controlled` with one control: the identity half
    must be exact, so a matrix that is only close to controlled keeps its
    dense path.  The returned ``V`` is a view into ``matrix``.
    """
    matrix = np.asarray(matrix)
    half = matrix.shape[0] // 2
    if half < 1:
        return None
    if (
        np.array_equal(matrix[:half, :half], np.eye(half, dtype=matrix.dtype))
        and not matrix[:half, half:].any()
        and not matrix[half:, :half].any()
    ):
        return matrix[half:, half:]
    return None


@dataclass(frozen=True)
class BlockSlot:
    """The open ``V`` of a controlled gate ``I (+) V`` in a compiled plan.

    A plan compiled once per circuit shape leaves the block of each gate
    that changes between runs (QTDA's controlled powers ``U^{2^j}``) open;
    a run binds its ``blocks[index]`` into it.
    """

    index: int


def embed_operator(
    matrix: np.ndarray, qubits: Sequence[int], support: Sequence[int], d: int = 2
) -> np.ndarray:
    """Expand an operator on ``qubits`` to the full ``support`` register.

    ``d`` is the local dimension of one qubit: 2 for a gate, 4 for a
    superoperator.  ``matrix ⊗ I`` acts on the digits ``qubits + (the rest
    of support)``; permuting the digit axes into ``support`` order gives the
    embedding.  Only entries are copied, so the result is exact.
    """
    qubits, support = tuple(qubits), tuple(support)
    if qubits == support:
        return np.asarray(matrix, dtype=complex)
    s, k = len(support), len(qubits)
    rest = [q for q in support if q not in qubits]
    # Axes of the outer product: qubits' out, qubits' in, rest out, rest in.
    out_axis = {q: j for j, q in enumerate(qubits)}
    out_axis.update({q: 2 * k + j for j, q in enumerate(rest)})
    in_axis = {q: axis + (k if q in qubits else s - k) for q, axis in out_axis.items()}
    full = np.multiply.outer(
        np.asarray(matrix, dtype=complex).reshape((d,) * (2 * k)),
        np.eye(d ** (s - k)).reshape((d,) * (2 * (s - k))),
    )
    full = full.transpose([out_axis[q] for q in support] + [in_axis[q] for q in support])
    return full.reshape(d**s, d**s)


def crx(theta: float) -> np.ndarray:
    """Controlled-RX."""
    return controlled(rx(theta))


def cry(theta: float) -> np.ndarray:
    """Controlled-RY."""
    return controlled(ry(theta))


def crz(theta: float) -> np.ndarray:
    """Controlled-RZ."""
    return controlled(rz(theta))


def cphase(phi: float) -> np.ndarray:
    """Controlled phase gate ``diag(1, 1, 1, e^{iφ})``."""
    return controlled(phase_shift(phi))


def matrix_power_unitary(unitary: np.ndarray, power: int) -> np.ndarray:
    """``U^power`` computed by repeated squaring (power >= 0)."""
    unitary = np.asarray(unitary, dtype=complex)
    if power < 0:
        raise ValueError("power must be non-negative")
    result = np.eye(unitary.shape[0], dtype=complex)
    base = unitary.copy()
    p = power
    while p:
        if p & 1:
            result = result @ base
        base = base @ base
        p >>= 1
    return result


def is_unitary(matrix: np.ndarray, atol: float = 1e-9) -> bool:
    """Check ``M† M = I`` to tolerance ``atol``."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    eye = np.eye(matrix.shape[0])
    return bool(np.allclose(matrix.conj().T @ matrix, eye, atol=atol))


#: Name -> constant matrix, used by the circuit drawer and the gate parser.
NAMED_GATES = {
    "I": IDENTITY,
    "X": PAULI_X,
    "Y": PAULI_Y,
    "Z": PAULI_Z,
    "H": HADAMARD,
    "S": S_GATE,
    "SDG": S_DAGGER,
    "T": T_GATE,
    "TDG": T_DAGGER,
    "CNOT": CNOT,
    "CX": CNOT,
    "CZ": CZ,
    "SWAP": SWAP,
    "CCX": TOFFOLI,
    "TOFFOLI": TOFFOLI,
}
