"""Benchmark A2 — ablation: Trotter steps vs synthesis error and estimate quality.

Fig. 7 compiles ``U = exp(iH)`` from the Pauli decomposition; the product
formula introduces synthesis error that decreases with the number of Trotter
steps.  This ablation reports both the unitary synthesis error and the effect
on the Betti estimate for the Appendix A Hamiltonian.
"""

from __future__ import annotations

import pytest

from repro.core.estimator import QTDABettiEstimator
from repro.core.hamiltonian import build_hamiltonian
from repro.experiments.worked_example import appendix_complex
from repro.quantum.trotter import trotter_unitary_error
from repro.tda.laplacian import combinatorial_laplacian
from repro.utils.ascii_plots import render_table


def _run_trotter_ablation(steps_grid=(1, 2, 4, 8)):
    complex_ = appendix_complex()
    laplacian = combinatorial_laplacian(complex_, 1)
    hamiltonian = build_hamiltonian(laplacian, delta=6.0)
    pauli_sum = hamiltonian.pauli_decomposition()
    rows = []
    errors = []
    estimates = []
    for steps in steps_grid:
        synthesis_error = trotter_unitary_error(pauli_sum, trotter_steps=steps, order=1)
        estimator = QTDABettiEstimator(
            precision_qubits=3,
            shots=None,
            backend="trotter",
            delta=6.0,
            trotter_steps=steps,
        )
        estimate = estimator.estimate(complex_, 1)
        rows.append([steps, f"{synthesis_error:.4f}", f"{estimate.betti_estimate:.3f}", estimate.betti_rounded])
        errors.append(synthesis_error)
        estimates.append(estimate.betti_estimate)
    return rows, errors, estimates


@pytest.mark.benchmark(group="ablation-trotter")
def test_bench_ablation_trotter_steps(benchmark):
    rows, errors, estimates = benchmark.pedantic(_run_trotter_ablation, rounds=1, iterations=1)
    print()
    print(
        render_table(
            ["trotter steps", "||U_trotter - exp(iH)||", "beta_1 estimate", "rounded"],
            rows,
            title="Ablation A2 — Trotter synthesis of exp(iH) (Appendix A Hamiltonian)",
        )
    )
    # Synthesis error decreases monotonically with the number of steps.
    assert all(errors[i] >= errors[i + 1] - 1e-9 for i in range(len(errors) - 1))
    # Even the coarsest synthesis rounds to the correct Betti number here.
    assert all(row[-1] == 1 for row in rows)
