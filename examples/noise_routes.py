"""The three noisy routes compared: ptm vs density vs trajectory.

Declarative noise (``QTDAConfig.noise_channel`` & friends) can run three
ways (DESIGN.md §12, §16):

* ``ptm``        — fused superoperators: every gate and its attached
  channel become Liouville superoperators, adjacent ones fuse, and one
  density tensor evolves, holding each qubit only from its first op to its
  last.  *Exact* — the same contraction as density, fused — and the
  ``auto`` default while ``t + q <= 12``;
* ``density``    — density-matrix evolution with Kraus operators applied
  gate by gate.  Exact too, but squares the state and cannot fuse across
  channels;
* ``trajectory`` — stochastic Kraus unravelling over ``n_trajectories``
  pure-state repetitions.  Unbiased with a ±spread error bar; the ``auto``
  choice above 12 total qubits, where the ``4^n`` density tensor no
  longer fits.

This script runs the same per-gate-class depolarising workload through all
three, printing wall times, the Betti estimates, and each route's maximum
readout-distribution deviation from the density reference: ptm lands at
machine precision (~1e-15) in a fraction of the time, trajectory carries a
statistical spread that shrinks as ``n_trajectories`` grows.

Run with:  python examples/noise_routes.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.backends import EstimationProblem
from repro.core.backends.statevector import circuit_backend_result
from repro.core.config import QTDAConfig
from repro.utils.rng import as_rng

PRECISION = 4
ROUTES = ("ptm", "density", "trajectory")
NOISE_STRENGTH = 0.002
GATE_STRENGTHS = {"c-U": 0.004, "H": 0.001}
N_TRAJECTORIES = 16


def synthetic_laplacian(dim: int, seed: int = 0) -> np.ndarray:
    """Symmetric PSD matrix of rank ``dim - 2`` (a 2-dimensional kernel)."""
    rng = np.random.default_rng(seed)
    basis = rng.standard_normal((dim, dim - 2))
    lap = basis @ basis.T
    return (lap + lap.T) / 2.0


def run_route(problem: EstimationProblem, route: str):
    config = QTDAConfig(
        precision_qubits=PRECISION,
        shots=None,
        backend="statevector",
        circuit_engine=route,
        noise_channel="depolarizing",
        noise_strength=NOISE_STRENGTH,
        noise_gate_strengths=GATE_STRENGTHS,
        n_trajectories=N_TRAJECTORIES,
        seed=11,
    )
    noise_model = config.resolved_noise_model()
    start = time.perf_counter()
    result = circuit_backend_result(
        problem, config, "exact", noise_model, rng=as_rng(config.seed)
    )
    return time.perf_counter() - start, result


def main() -> None:
    print(
        f"Fig. 6 circuit, t = {PRECISION} precision qubits, depolarizing "
        f"p={NOISE_STRENGTH} with per-gate-class strengths {GATE_STRENGTHS}"
    )
    print(
        f"{'q':>3} {'dim':>5} | "
        + " | ".join(f"{route:>11}" for route in ROUTES)
        + " | ptm |Δp|  | traj |Δp|"
    )
    print("-" * 78)
    for q in (3, 4, 5, 6):
        dim = 3 * 2 ** (q - 2)  # padded to 2^q without being a power of two
        problem = EstimationProblem(laplacian=synthetic_laplacian(dim, seed=q))
        seconds, results = {}, {}
        for route in ROUTES:
            seconds[route], results[route] = run_route(problem, route)
        reference = results["density"].distribution
        ptm_diff = float(np.max(np.abs(results["ptm"].distribution - reference)))
        traj_diff = float(
            np.max(np.abs(results["trajectory"].distribution - reference))
        )
        cells = " | ".join(f"{seconds[route]:>10.3f}s" for route in ROUTES)
        print(f"{q:>3} {dim:>5} | {cells} | {ptm_diff:>9.1e} | {traj_diff:>9.1e}")

    # Estimates from the largest run: the exact routes agree to machine
    # precision; the trajectory mean carries its repetition spread.
    dim = 2**6
    betti = {route: dim * float(results[route].distribution[0]) for route in ROUTES}
    std = results["trajectory"].p_zero_std
    spread = f" ± {dim * std:.3f}" if std is not None else ""
    print()
    print(f"q=6 Betti estimates (dim · p(0)):")
    print(f"  ptm        {betti['ptm']:.9f}  ({results['ptm'].fused_gates} fused superoperators)")
    print(f"  density    {betti['density']:.9f}")
    print(
        f"  trajectory {betti['trajectory']:.9f}{spread}  "
        f"({results['trajectory'].n_trajectories} trajectories)"
    )
    print()
    print("ptm is the same linear map as density, fused into superoperators —")
    print("identical answers at a fraction of the cost (benchmarks/test_bench_ptm.py gates")
    print(">= 5x at q=6, t=4).  trajectory trades exactness for an error bar and")
    print("a pure-state memory footprint; `auto` prefers ptm up to 12 total")
    print("qubits and trajectory beyond.")


if __name__ == "__main__":
    main()
