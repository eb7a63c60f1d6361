"""Benchmark — the trajectory noise route vs the density-matrix oracle.

Noisy runs used to have exactly one faithful path: density-matrix evolution,
a ``2^(t+q) x 2^(t+q)`` matrix with every Kraus branch applied to it after
every gate.  The trajectory route (DESIGN.md §12) unravels the channel
stochastically instead: each of ``n_trajectories`` repetitions evolves the
``2^q`` ensemble members through the circuit, sampling one Kraus branch per
member after each gate, and the repetitions' spread is the error bar.  Only
the (trajectory, member) columns that draw a non-identity branch run gate by
gate; the others share one fused noise-free pass.  The share of such
*dirty* columns is recorded as ``dirty_column_share``.

The gate: at ``q = 6`` system qubits and ``t = 4`` precision qubits (the
same 48-dimensional workload Laplacian as the circuit-engine benchmark)
under depolarising noise, the trajectory route must beat the noisy
density-matrix oracle
(:func:`~repro.core.backends.statevector.density_reference_distribution`)
by at least 5× while its mean Betti estimate agrees with the oracle's
(exact) answer within three standard errors.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.backends import EstimationProblem
from repro.core.backends.statevector import (
    circuit_backend_result,
    density_reference_distribution,
    qtda_circuit,
)
from repro.core.config import QTDAConfig
from repro.quantum.engine import EnsembleExecutor, derive_trajectory_seeds
from repro.utils.rng import as_rng

PRECISION = 4  # t
DIMENSION = 48  # |S_k|, padded to 2^6 -> q = 6
DELTA = 6.0
NOISE_STRENGTH = 0.002
N_TRAJECTORIES = 8
GATE = 5.0
SEED = 2023


def _workload_laplacian(dim: int = DIMENSION) -> np.ndarray:
    """The same deterministic PSD workload as test_bench_circuit_engine.py."""
    rng = np.random.default_rng(2023)
    basis = rng.standard_normal((dim, dim - 2))
    lap = basis @ basis.T
    return (lap + lap.T) / 2.0


def _config(engine: str = "auto") -> QTDAConfig:
    return QTDAConfig(
        precision_qubits=PRECISION,
        shots=None,
        delta=DELTA,
        backend="statevector",
        circuit_engine=engine,
        noise_channel="depolarizing",
        noise_strength=NOISE_STRENGTH,
        n_trajectories=N_TRAJECTORIES,
        seed=SEED,
    )


def _route_seconds(problem: EstimationProblem, engine: str):
    config = _config(engine)
    start = time.perf_counter()
    result = circuit_backend_result(problem, config, "exact", rng=as_rng(config.seed))
    return time.perf_counter() - start, result


def _density_seconds(problem: EstimationProblem):
    """The density-matrix oracle on the same noisy config."""
    start = time.perf_counter()
    distribution = density_reference_distribution(problem, _config(), "exact")
    return time.perf_counter() - start, distribution


def _dirty_column_share(problem: EstimationProblem) -> float:
    """The share of (trajectory, member) columns the timed run stepped gate
    by gate: the same circuit, noise and seeds as :func:`_route_seconds`."""
    config = _config("trajectory")
    circuit, spec = qtda_circuit(
        problem.dense_hamiltonian(config),
        precision_qubits=PRECISION,
        use_purification=False,
        synthesis="exact",
        power_synthesis="spectral",
    )
    seeds = derive_trajectory_seeds(as_rng(config.seed), N_TRAJECTORIES)
    members = 2**spec.system_qubits
    _, dirty = EnsembleExecutor()._trajectory_rows(
        circuit,
        list(spec.precision_register),
        range(members),
        config.resolved_noise_spec(),
        seeds,
        None,
    )
    return dirty / (N_TRAJECTORIES * members)


@pytest.mark.benchmark(group="noise-trajectory")
def test_bench_trajectory_route_speedup(benchmark, paper_scale, bench_json):
    laplacian = _workload_laplacian()
    problem = EstimationProblem(laplacian=laplacian)

    trajectory_seconds, trajectory = _route_seconds(problem, "trajectory")
    density_seconds, density = _density_seconds(problem)

    warm = benchmark.pedantic(
        lambda: _route_seconds(problem, "trajectory")[0], rounds=1, iterations=1
    )
    trajectory_warm_seconds = float(warm)

    dim = 2**6
    betti_trajectory = dim * float(trajectory.distribution[0])
    betti_density = dim * float(density[0])
    betti_sem = dim * float(trajectory.p_zero_std)
    deviation_sigma = abs(betti_trajectory - betti_density) / betti_sem
    speedup = density_seconds / trajectory_seconds
    dirty_share = _dirty_column_share(problem)
    print()
    print(
        f"q=6 t={PRECISION} depolarizing p={NOISE_STRENGTH}: trajectory "
        f"{trajectory_seconds:.3f}s (warm {trajectory_warm_seconds:.3f}s, "
        f"{N_TRAJECTORIES} trajectories) | density {density_seconds:.3f}s | "
        f"speedup {speedup:.1f}x | betti {betti_trajectory:.3f}±{betti_sem:.3f} "
        f"vs density {betti_density:.3f} ({deviation_sigma:.2f}σ) | "
        f"dirty columns {dirty_share:.1%}"
    )
    bench_json(
        "noise_trajectory",
        {
            "system_qubits": 6,
            "precision_qubits": PRECISION,
            "laplacian_dimension": DIMENSION,
            "noise_channel": "depolarizing",
            "noise_strength": NOISE_STRENGTH,
            "n_trajectories": N_TRAJECTORIES,
            "trajectory_seconds": trajectory_seconds,
            "trajectory_warm_seconds": trajectory_warm_seconds,
            "density_seconds": density_seconds,
            "speedup_vs_density": speedup,
            "betti_trajectory": betti_trajectory,
            "betti_trajectory_sem": betti_sem,
            "betti_density": betti_density,
            "deviation_sigma": deviation_sigma,
            "dirty_column_share": dirty_share,
            "gate": GATE,
        },
    )

    assert trajectory.route["engine_route"] == "trajectory"
    assert trajectory.route["n_trajectories"] == N_TRAJECTORIES
    assert trajectory.route["noise_spec"] is not None
    # Same science within sampling error: the trajectory mean converges to
    # the density-matrix answer, and the recorded spread calibrates it.
    assert betti_sem > 0
    assert deviation_sigma <= 3.0, (
        f"trajectory mean {betti_trajectory:.4f} deviates {deviation_sigma:.2f}σ "
        f"from the density answer {betti_density:.4f}"
    )
    # The acceptance criterion of the trajectory-route PR.
    assert speedup >= GATE, (
        f"expected >= {GATE}x over the noisy density-matrix oracle, measured {speedup:.1f}x"
    )
