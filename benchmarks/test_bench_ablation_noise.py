"""Benchmark A3 — extension: depolarising noise vs estimation error.

The paper's conclusion asks how the algorithm behaves on noisy (NISQ)
devices.  This benchmark sweeps the per-gate depolarising probability on the
full QTDA circuit for the Appendix A complex and reports how p(0) and the
Betti estimate drift.  The expected shape: the estimate degrades smoothly
towards the fully-mixed value as noise grows.

The noisy rows run on the exact fused-PTM route (the ``auto`` resolution
for declarative noise since DESIGN.md §16) — the noise column is the true
expectation of the noisy circuit, no sampling spread — while the noiseless
row stays on the ``ensemble`` route.  The fused-superoperator count shows
gate-and-channel fusion at work on each noisy row.
"""

from __future__ import annotations

import pytest

from repro.core.estimator import QTDABettiEstimator
from repro.experiments.worked_example import appendix_complex
from repro.utils.ascii_plots import render_table

SEED = 17


def _run_noise_sweep(strengths=(0.0, 0.002, 0.01, 0.05)):
    complex_ = appendix_complex()
    rows = []
    estimates = []
    routes = []
    for p in strengths:
        noise = {} if p == 0.0 else {"noise_channel": "depolarizing", "noise_strength": p}
        estimator = QTDABettiEstimator(
            precision_qubits=3,
            shots=None,
            backend="statevector",
            delta=6.0,
            seed=SEED,
            **noise,
        )
        estimate = estimator.estimate(complex_, 1)
        rows.append(
            [
                p,
                f"{estimate.p_zero:.4f}",
                f"{estimate.betti_estimate:.3f}",
                estimate.fused_gates if estimate.fused_gates is not None else "—",
                estimate.betti_rounded,
                estimate.engine_route,
            ]
        )
        estimates.append(estimate.betti_estimate)
        routes.append(estimate.engine_route)
    return rows, estimates, routes


@pytest.mark.benchmark(group="ablation-noise")
def test_bench_ablation_depolarising_noise(benchmark):
    rows, estimates, routes = benchmark.pedantic(_run_noise_sweep, rounds=1, iterations=1)
    print()
    print(
        render_table(
            ["depolarising p", "p(0)", "beta_1 estimate", "fused superops", "rounded", "route"],
            rows,
            title="Ablation A3 — per-gate depolarising noise on the QTDA circuit (Appendix A complex)",
        )
    )
    # Noiseless run recovers the Appendix A answer on the ensemble route.
    assert rows[0][-2] == 1
    assert routes[0] == "ensemble"
    # Every noisy row resolves to the exact fused-PTM route.
    assert all(route == "ptm" for route in routes[1:])
    # Noise changes the estimate but small noise keeps it near the true value.
    assert abs(estimates[1] - estimates[0]) < 0.5
