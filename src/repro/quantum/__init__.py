"""Quantum-simulation substrate (the PennyLane substitute).

The paper runs its QTDA circuits on PennyLane's ideal simulators.  This
subpackage provides everything those simulations need, implemented from
scratch on NumPy:

* a gate library (:mod:`repro.quantum.gates`) and circuit container
  (:mod:`repro.quantum.circuit`);
* a dense statevector simulator (:mod:`repro.quantum.statevector`) and a
  density-matrix simulator with noise channels
  (:mod:`repro.quantum.density_matrix`, :mod:`repro.quantum.channels`);
* a batched ("ensemble") execution engine that evolves many pure states as
  one ``(2^n, B)`` array, plus a fusion pass whose segments between wide
  gates are cached per content (:mod:`repro.quantum.engine`,
  :mod:`repro.quantum.fusion`);
* the exact noisy ``ptm`` route: circuit + noise lowered to Liouville
  superoperators (:mod:`repro.quantum.ptm`) and fused by the same pass.  Its
  fused segments and channel superoperators, like the gate-plan segments,
  are held in :class:`~repro.utils.cache.BoundedCache` instances;
* measurement / shot sampling (:mod:`repro.quantum.measurement`);
* the quantum Fourier transform and quantum phase estimation circuit
  builders (:mod:`repro.quantum.qft`, :mod:`repro.quantum.qpe`);
* Pauli-evolution (Trotter) circuit synthesis used to compile
  ``U = exp(iH)`` from a Pauli decomposition (:mod:`repro.quantum.trotter`),
  the construction drawn in Fig. 7 of the paper;
* an ASCII circuit drawer (:mod:`repro.quantum.drawer`).

Qubit ordering convention: qubit 0 is the most significant bit of a basis
state label, i.e. basis state ``|b_0 b_1 ... b_{n-1}>`` has integer index
``Σ_j b_j 2^{n-1-j}``.  This matches the tensor-product order used for Pauli
strings in :mod:`repro.paulis` ("XXI" acts with X on qubits 0 and 1).
"""

from repro.quantum.gates import (
    CNOT,
    CZ,
    HADAMARD,
    IDENTITY,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    S_GATE,
    SWAP,
    T_GATE,
    controlled,
    crx,
    cry,
    crz,
    cphase,
    rx,
    ry,
    rz,
    phase_shift,
    u3,
)
from repro.quantum.operations import Gate, Measurement, Barrier
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.statevector import StatevectorSimulator, Statevector
from repro.quantum.density_matrix import DensityMatrixSimulator, DensityMatrix
from repro.quantum.engine import (
    EnsembleExecutor,
    apply_gate_to_ensemble,
    derive_trajectory_seeds,
    sample_channel_branches,
)
from repro.quantum.channels import (
    NOISE_CHANNELS,
    TWO_QUBIT_NOISE_CHANNELS,
    NoiseSpec,
    QuantumChannel,
    amplitude_damping_kraus,
    apply_readout_error,
    bit_flip_kraus,
    correlated_zz_kraus,
    depolarizing_kraus,
    phase_flip_kraus,
    two_qubit_depolarizing_kraus,
)
from repro.quantum.fusion import fuse_circuit, fusion_cache_info
from repro.quantum.measurement import (
    born_probabilities,
    ensemble_member_marginal_probabilities,
    marginal_probabilities,
    sample_counts,
    counts_to_probabilities,
)
from repro.quantum.qft import qft_circuit, inverse_qft_circuit
from repro.quantum.qpe import (
    PhaseEstimation,
    SpectralUnitary,
    phase_estimation_circuit,
    qpe_outcome_distribution,
    qpe_probability_kernel,
)
from repro.quantum.trotter import (
    pauli_evolution_circuit,
    pauli_string_evolution_circuit,
    trotter_unitary_error,
)
from repro.quantum.drawer import draw_circuit

__all__ = [
    "CNOT",
    "CZ",
    "HADAMARD",
    "IDENTITY",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "S_GATE",
    "SWAP",
    "T_GATE",
    "controlled",
    "crx",
    "cry",
    "crz",
    "cphase",
    "rx",
    "ry",
    "rz",
    "phase_shift",
    "u3",
    "Gate",
    "Measurement",
    "Barrier",
    "QuantumCircuit",
    "StatevectorSimulator",
    "Statevector",
    "DensityMatrixSimulator",
    "DensityMatrix",
    "EnsembleExecutor",
    "apply_gate_to_ensemble",
    "derive_trajectory_seeds",
    "sample_channel_branches",
    "NOISE_CHANNELS",
    "TWO_QUBIT_NOISE_CHANNELS",
    "NoiseSpec",
    "QuantumChannel",
    "apply_readout_error",
    "correlated_zz_kraus",
    "two_qubit_depolarizing_kraus",
    "fuse_circuit",
    "fusion_cache_info",
    "born_probabilities",
    "ensemble_member_marginal_probabilities",
    "marginal_probabilities",
    "sample_counts",
    "counts_to_probabilities",
    "qft_circuit",
    "inverse_qft_circuit",
    "PhaseEstimation",
    "SpectralUnitary",
    "phase_estimation_circuit",
    "qpe_outcome_distribution",
    "qpe_probability_kernel",
    "pauli_evolution_circuit",
    "pauli_string_evolution_circuit",
    "trotter_unitary_error",
    "amplitude_damping_kraus",
    "bit_flip_kraus",
    "depolarizing_kraus",
    "phase_flip_kraus",
    "draw_circuit",
]
