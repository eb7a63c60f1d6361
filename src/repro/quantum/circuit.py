"""Quantum circuit container and builder API.

:class:`QuantumCircuit` stores an ordered list of instructions and offers a
small PennyLane/Qiskit-flavoured builder API (``h``, ``x``, ``cnot``,
``rz``, ``unitary``, ``controlled_unitary`` ...).  It performs no simulation
itself; see :mod:`repro.quantum.statevector` and
:mod:`repro.quantum.density_matrix` for execution backends.  Nor does it
hash itself: the fusion caches (:mod:`repro.quantum.fusion`) key on the
content of each run of gates between the wide ones, never on a whole
circuit.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.quantum import gates as glib
from repro.quantum.operations import Barrier, Gate, Measurement
from repro.utils.validation import check_integer


class QuantumCircuit:
    """An ordered sequence of gates on ``num_qubits`` qubits.

    Parameters
    ----------
    num_qubits:
        Register size.  Qubit 0 is the most significant bit of basis-state
        labels (see the package docstring for the full convention).
    name:
        Optional label used when drawing/composing.
    """

    def __init__(self, num_qubits: int, name: str = "circuit"):
        self._num_qubits = check_integer(num_qubits, "num_qubits", minimum=1)
        self.name = str(name)
        self._instructions: List[object] = []

    # -- basic accessors ----------------------------------------------------
    @property
    def num_qubits(self) -> int:
        """Register size."""
        return self._num_qubits

    @property
    def instructions(self) -> Tuple[object, ...]:
        """The instruction list (gates, measurements, barriers) in order."""
        return tuple(self._instructions)

    @property
    def gates(self) -> Tuple[Gate, ...]:
        """Only the unitary gates, in order."""
        return tuple(op for op in self._instructions if isinstance(op, Gate))

    @property
    def num_gates(self) -> int:
        """Number of unitary gates (barriers/measurements excluded)."""
        return sum(1 for op in self._instructions if isinstance(op, Gate))

    def depth(self) -> int:
        """Circuit depth counting each gate as one layer on its qubits."""
        frontier = [0] * self._num_qubits
        for op in self._instructions:
            if not isinstance(op, Gate):
                continue
            level = max(frontier[q] for q in op.qubits) + 1
            for q in op.qubits:
                frontier[q] = level
        return max(frontier) if frontier else 0

    def count_ops(self) -> dict:
        """Histogram of gate names."""
        counts: dict = {}
        for op in self._instructions:
            if isinstance(op, Gate):
                counts[op.name] = counts.get(op.name, 0) + 1
        return counts

    def _check_qubits(self, qubits: Iterable[int]) -> Tuple[int, ...]:
        qs = tuple(int(q) for q in qubits)
        for q in qs:
            if not 0 <= q < self._num_qubits:
                raise ValueError(f"Qubit {q} out of range for a {self._num_qubits}-qubit circuit")
        return qs

    # -- generic builders ----------------------------------------------------
    def append(self, instruction: object) -> "QuantumCircuit":
        """Append a pre-built Gate/Measurement/Barrier."""
        if isinstance(instruction, Gate):
            self._check_qubits(instruction.qubits)
        elif isinstance(instruction, (Measurement, Barrier)):
            self._check_qubits(instruction.qubits)
        else:
            raise TypeError(f"Unsupported instruction {instruction!r}")
        self._instructions.append(instruction)
        return self

    def unitary(
        self,
        matrix: np.ndarray,
        qubits: Sequence[int],
        name: str = "U",
        params: Sequence[float] = (),
    ) -> "QuantumCircuit":
        """Apply an arbitrary unitary ``matrix`` to ``qubits``."""
        qs = self._check_qubits(qubits)
        self._instructions.append(Gate(name=name, qubits=qs, matrix=np.asarray(matrix, dtype=complex), params=tuple(params)))
        return self

    def controlled_unitary(
        self,
        matrix: np.ndarray,
        controls: Sequence[int],
        targets: Sequence[int],
        name: str = "CU",
    ) -> "QuantumCircuit":
        """Apply ``matrix`` to ``targets`` controlled on every qubit in ``controls``."""
        controls = list(controls)
        targets = list(targets)
        full = glib.controlled(np.asarray(matrix, dtype=complex), num_controls=len(controls))
        return self.unitary(full, list(controls) + list(targets), name=name)

    def barrier(self, qubits: Optional[Sequence[int]] = None, label: Optional[str] = None) -> "QuantumCircuit":
        """Insert a barrier (drawing aid; no simulation effect)."""
        qs = self._check_qubits(qubits) if qubits is not None else tuple(range(self._num_qubits))
        self._instructions.append(Barrier(qubits=qs, label=label))
        return self

    def measure(self, qubits: Optional[Sequence[int]] = None, label: Optional[str] = None) -> "QuantumCircuit":
        """Mark ``qubits`` (default: all) for computational-basis measurement."""
        qs = self._check_qubits(qubits) if qubits is not None else tuple(range(self._num_qubits))
        self._instructions.append(Measurement(qubits=qs, label=label))
        return self

    @property
    def measured_qubits(self) -> Tuple[int, ...]:
        """Union of all measured qubits, in first-marked order."""
        seen: List[int] = []
        for op in self._instructions:
            if isinstance(op, Measurement):
                for q in op.qubits:
                    if q not in seen:
                        seen.append(q)
        return tuple(seen)

    # -- named single-qubit gates ---------------------------------------------
    def i(self, qubit: int) -> "QuantumCircuit":
        return self.unitary(glib.IDENTITY, [qubit], name="I")

    def x(self, qubit: int) -> "QuantumCircuit":
        return self.unitary(glib.PAULI_X, [qubit], name="X")

    def y(self, qubit: int) -> "QuantumCircuit":
        return self.unitary(glib.PAULI_Y, [qubit], name="Y")

    def z(self, qubit: int) -> "QuantumCircuit":
        return self.unitary(glib.PAULI_Z, [qubit], name="Z")

    def h(self, qubit: int) -> "QuantumCircuit":
        return self.unitary(glib.HADAMARD, [qubit], name="H")

    def s(self, qubit: int) -> "QuantumCircuit":
        return self.unitary(glib.S_GATE, [qubit], name="S")

    def sdg(self, qubit: int) -> "QuantumCircuit":
        return self.unitary(glib.S_DAGGER, [qubit], name="S†")

    def t(self, qubit: int) -> "QuantumCircuit":
        return self.unitary(glib.T_GATE, [qubit], name="T")

    def tdg(self, qubit: int) -> "QuantumCircuit":
        return self.unitary(glib.T_DAGGER, [qubit], name="T†")

    def rx(self, theta: float, qubit: int) -> "QuantumCircuit":
        return self.unitary(glib.rx(theta), [qubit], name="RX", params=(theta,))

    def ry(self, theta: float, qubit: int) -> "QuantumCircuit":
        return self.unitary(glib.ry(theta), [qubit], name="RY", params=(theta,))

    def rz(self, theta: float, qubit: int) -> "QuantumCircuit":
        return self.unitary(glib.rz(theta), [qubit], name="RZ", params=(theta,))

    def p(self, phi: float, qubit: int) -> "QuantumCircuit":
        return self.unitary(glib.phase_shift(phi), [qubit], name="P", params=(phi,))

    def global_phase(self, phi: float) -> "QuantumCircuit":
        """Multiply the state by ``e^{iφ}`` (implemented as a 1-qubit diagonal gate)."""
        return self.unitary(np.exp(1j * phi) * glib.IDENTITY, [0], name="GPhase", params=(phi,))

    # -- named multi-qubit gates -----------------------------------------------
    def cnot(self, control: int, target: int) -> "QuantumCircuit":
        return self.unitary(glib.CNOT, [control, target], name="CNOT")

    cx = cnot

    def cz(self, control: int, target: int) -> "QuantumCircuit":
        return self.unitary(glib.CZ, [control, target], name="CZ")

    def swap(self, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        return self.unitary(glib.SWAP, [qubit_a, qubit_b], name="SWAP")

    def ccx(self, control_a: int, control_b: int, target: int) -> "QuantumCircuit":
        return self.unitary(glib.TOFFOLI, [control_a, control_b, target], name="CCX")

    def crx(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        return self.unitary(glib.crx(theta), [control, target], name="CRX", params=(theta,))

    def cry(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        return self.unitary(glib.cry(theta), [control, target], name="CRY", params=(theta,))

    def crz(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        return self.unitary(glib.crz(theta), [control, target], name="CRZ", params=(theta,))

    def cp(self, phi: float, control: int, target: int) -> "QuantumCircuit":
        return self.unitary(glib.cphase(phi), [control, target], name="CP", params=(phi,))

    # -- composition -------------------------------------------------------------
    def compose(self, other: "QuantumCircuit", qubits: Optional[Sequence[int]] = None) -> "QuantumCircuit":
        """Append ``other``'s instructions, mapping its qubit ``i`` to ``qubits[i]``.

        Returns ``self`` (mutating compose), matching the builder style of the
        rest of the class.
        """
        if qubits is None:
            if other.num_qubits > self._num_qubits:
                raise ValueError("Composed circuit is larger than the target circuit")
            mapping = list(range(other.num_qubits))
        else:
            mapping = [int(q) for q in qubits]
            if len(mapping) != other.num_qubits:
                raise ValueError("qubit mapping length must equal the composed circuit's size")
        self._check_qubits(mapping)
        for op in other._instructions:
            if isinstance(op, Gate):
                self.append(op.remapped(mapping))
            elif isinstance(op, Measurement):
                self.append(Measurement(qubits=tuple(mapping[q] for q in op.qubits), label=op.label))
            elif isinstance(op, Barrier):
                self.append(Barrier(qubits=tuple(mapping[q] for q in op.qubits), label=op.label))
        return self

    def inverse(self) -> "QuantumCircuit":
        """The adjoint circuit (gates reversed and daggered; measurements dropped)."""
        inv = QuantumCircuit(self._num_qubits, name=f"{self.name}_dg")
        for op in reversed(self._instructions):
            if isinstance(op, Gate):
                inv.append(op.dagger())
        return inv

    def copy(self) -> "QuantumCircuit":
        """Shallow copy (instructions are immutable, so sharing them is safe)."""
        dup = QuantumCircuit(self._num_qubits, name=self.name)
        dup._instructions = list(self._instructions)
        return dup

    # -- dense realisation --------------------------------------------------------
    def to_unitary(self) -> np.ndarray:
        """Dense ``2^n x 2^n`` unitary of the whole circuit (measurements ignored).

        Only sensible for small registers; used in tests and by the exact QPE
        backend for cross-validation.
        """
        from repro.quantum.statevector import StatevectorSimulator

        sim = StatevectorSimulator()
        dim = 2**self._num_qubits
        columns = np.empty((dim, dim), dtype=complex)
        for basis in range(dim):
            state = np.zeros(dim, dtype=complex)
            state[basis] = 1.0
            columns[:, basis] = sim.run(self, initial_state=state).amplitudes
        return columns

    def __repr__(self) -> str:
        return (
            f"QuantumCircuit(name={self.name!r}, num_qubits={self._num_qubits}, "
            f"num_gates={self.num_gates}, depth={self.depth()})"
        )
