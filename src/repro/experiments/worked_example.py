"""Appendix A — the worked example, reproduced end to end.

The appendix walks through the full QTDA pipeline on a five-point cloud whose
complex (Eq. 13) contains a filled triangle {1,2,3} and a hollow triangle
{3,4,5}:

* boundary operators ∂_1 and ∂_2 (Eqs. 14–15),
* the combinatorial Laplacian Δ_1 (Eq. 17),
* the padded Laplacian Δ̃_1 with λ̃_max = 6 (Eq. 18),
* its Pauli decomposition (Eq. 19),
* the 3-precision-qubit QTDA circuit (Fig. 6) run for 1000 shots,
* the resulting estimate β̃_1 ≈ 1.19 → 1.

:func:`run_worked_example` executes those steps with this library and returns
every intermediate object so the tests can compare them against the numbers
printed in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.config import QTDAConfig
from repro.core.estimator import BettiEstimate, QTDABettiEstimator
from repro.core.hamiltonian import RescaledHamiltonian, build_hamiltonian
from repro.core.padding import PaddedLaplacian, pad_laplacian
from repro.core.qtda_circuit import circuit_resource_summary, qtda_circuit
from repro.quantum.drawer import circuit_summary, draw_circuit
from repro.tda.betti import betti_number
from repro.tda.boundary import boundary_matrix
from repro.tda.complexes import SimplicialComplex
from repro.tda.laplacian import combinatorial_laplacian

#: The simplicial complex of Eq. 13 (vertex labels as printed in the paper).
APPENDIX_SIMPLICES = (
    (1,), (2,), (3,), (4,), (5,),
    (1, 2), (1, 3), (2, 3), (1, 2, 3),
    (3, 4), (3, 5), (4, 5),
)

#: The combinatorial Laplacian Δ_1 printed as Eq. 17.
EXPECTED_LAPLACIAN = np.array(
    [
        [3, 0, 0, 0, 0, 0],
        [0, 3, 0, -1, -1, 0],
        [0, 0, 3, -1, -1, 0],
        [0, -1, -1, 2, 1, -1],
        [0, -1, -1, 1, 2, 1],
        [0, 0, 0, -1, 1, 2],
    ],
    dtype=float,
)

#: A selection of the Pauli coefficients listed in Eq. 19.
EXPECTED_PAULI_COEFFICIENTS: Dict[str, float] = {
    "III": 2.625,
    "XXI": -0.5,
    "YYI": -0.5,
    "ZIX": -0.5,
    "IXI": -0.25,
    "ZZI": 0.375,
    "IZX": 0.5,
    "IIZ": 0.125,
    "ZII": 0.125,
    "IZI": -0.125,
}


@dataclass
class WorkedExampleResult:
    """Every intermediate artefact of the Appendix A walkthrough."""

    complex_: SimplicialComplex
    boundary_1: np.ndarray
    boundary_2: np.ndarray
    laplacian: np.ndarray
    padded: PaddedLaplacian
    hamiltonian: RescaledHamiltonian
    pauli_coefficients: Dict[str, float]
    exact_betti: int
    estimate: BettiEstimate
    circuit_resources: Dict[str, object]
    circuit_drawing: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        """Machine-readable view (the service API's experiment payload).

        Carries the appendix's headline numerics (Laplacian, λ̃_max, Pauli
        coefficients, the estimate) rather than every intermediate object —
        the boundary matrices are summarised by their shapes.
        """
        return {
            "f_vector": list(self.complex_.f_vector()),
            "boundary_1_shape": list(self.boundary_1.shape),
            "boundary_2_shape": list(self.boundary_2.shape),
            "laplacian": np.asarray(self.laplacian, dtype=float).tolist(),
            "lambda_max": float(self.padded.lambda_max),
            "padded_dimension": int(self.padded.padded_dimension),
            "num_qubits": int(self.padded.num_qubits),
            "pauli_coefficients": dict(self.pauli_coefficients),
            "exact_betti": int(self.exact_betti),
            "estimate": self.estimate.as_dict(),
            "circuit_resources": dict(self.circuit_resources),
            "circuit_drawing": self.circuit_drawing,
        }


def appendix_complex() -> SimplicialComplex:
    """The complex K_ε of Eq. 13."""
    return SimplicialComplex(APPENDIX_SIMPLICES)


def run_worked_example(
    shots: Optional[int] = 1000,
    precision_qubits: int = 3,
    backend: str = "statevector",
    seed: Optional[int] = 1,
    include_drawing: bool = False,
    noise_channel: Optional[str] = None,
    noise_strength: float = 0.0,
    circuit_engine: str = "auto",
    n_trajectories: int = 8,
    readout_error: float = 0.0,
) -> WorkedExampleResult:
    """Execute the Appendix A pipeline and return all intermediates.

    The defaults mirror the appendix exactly: δ = 6 (so H = Δ̃_1), three
    precision qubits, 1000 shots, the explicit Fig. 6 circuit.  ``backend``
    may be any registered estimator backend; ``noise_channel`` /
    ``noise_strength`` parametrise the noisy workloads, with
    ``circuit_engine`` / ``n_trajectories`` / ``readout_error`` selecting and
    tuning the execution route (noisy runs resolve to the trajectory route
    under ``"auto"``).
    """
    complex_ = appendix_complex()
    d1 = boundary_matrix(complex_, 1)
    d2 = boundary_matrix(complex_, 2)
    laplacian = combinatorial_laplacian(complex_, 1)
    padded = pad_laplacian(laplacian)
    hamiltonian = build_hamiltonian(laplacian, delta=6.0)
    pauli = {term.label: float(term.coefficient.real) for term in hamiltonian.pauli_decomposition()}
    exact = betti_number(complex_, 1)

    estimator = QTDABettiEstimator(
        QTDAConfig(
            precision_qubits=precision_qubits,
            shots=shots,
            backend=backend,
            delta=6.0,
            seed=seed,
            noise_channel=noise_channel,
            noise_strength=noise_strength,
            circuit_engine=circuit_engine,
            n_trajectories=n_trajectories,
            readout_error=readout_error,
        )
    )
    estimate = estimator.estimate(complex_, 1)

    circuit, spec = qtda_circuit(hamiltonian, precision_qubits=precision_qubits, use_purification=True)
    resources = circuit_resource_summary(circuit, spec)
    drawing = draw_circuit(circuit) if include_drawing else None
    return WorkedExampleResult(
        complex_=complex_,
        boundary_1=d1,
        boundary_2=d2,
        laplacian=laplacian,
        padded=padded,
        hamiltonian=hamiltonian,
        pauli_coefficients=pauli,
        exact_betti=exact,
        estimate=estimate,
        circuit_resources=resources,
        circuit_drawing=drawing,
    )


def render_worked_example(result: WorkedExampleResult) -> str:
    """Human-readable walkthrough, mirroring the structure of Appendix A."""
    lines = [
        "Appendix A worked example",
        "=========================",
        f"Complex K_eps: f-vector = {result.complex_.f_vector()}",
        f"∂_1 shape {result.boundary_1.shape}, ∂_2 shape {result.boundary_2.shape}",
        "Δ_1 =",
        np.array2string(result.laplacian, precision=0),
        f"λ̃_max (Gershgorin) = {result.padded.lambda_max:.1f}; padded to {result.padded.padded_dimension}x{result.padded.padded_dimension} (q = {result.padded.num_qubits})",
        f"Pauli decomposition: {len(result.pauli_coefficients)} terms, c_III = {result.pauli_coefficients.get('III', 0.0):+.4f}",
        f"Classical β_1 = {result.exact_betti}",
        (
            f"QTDA estimate: p(0) = {result.estimate.p_zero:.4f} → β̃_1 = {result.estimate.betti_estimate:.3f} "
            f"→ rounded {result.estimate.betti_rounded} "
            f"({result.estimate.shots} shots, {result.estimate.precision_qubits} precision qubits, backend={result.estimate.backend})"
        ),
        f"Circuit resources: {result.circuit_resources}",
    ]
    if result.circuit_drawing:
        lines.extend(["", "Circuit (Fig. 6 analogue):", result.circuit_drawing])
    return "\n".join(lines)
