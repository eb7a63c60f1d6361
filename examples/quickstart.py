"""Quickstart: estimate Betti numbers of a point cloud with the QTDA algorithm.

Walks the whole pipeline on a small cloud shaped like a noisy circle:

1. build the Vietoris–Rips complex at a grouping scale ε;
2. form the combinatorial Laplacian and look at its exact kernel (the
   classical Betti number);
3. run the QPE-based estimator (exact backend, finite shots) and compare;
4. run the same estimate through the service front door (`repro.api`) and
   show the provenance that rides along;
5. re-run under depolarising + readout noise on the trajectory route and
   read off the per-trajectory error bar;
6. print the Fig. 6 circuit's resource counts and an ASCII drawing of the
   Fig. 2 mixed-state preparation.

See examples/service_api.py for the full service tour (futures, batched
`map`, streaming ε-sweeps, the JSON wire format) and
examples/circuit_engine.py for the circuit-execution routes
(`QTDAConfig.circuit_engine`: batched ensemble vs purified vs density).

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.core import QTDABettiEstimator, build_hamiltonian, qtda_circuit
from repro.core.mixed_state import maximally_mixed_state_circuit
from repro.core.qtda_circuit import circuit_resource_summary
from repro.datasets.point_clouds import circle_cloud
from repro.quantum.drawer import draw_circuit
from repro.tda import RipsComplex, betti_numbers
from repro.tda.laplacian import combinatorial_laplacian


def main() -> None:
    # 1. A noisy circle: one connected component, one loop.
    points = circle_cloud(num_points=14, radius=1.0, noise=0.05, seed=3)
    epsilon = 0.75
    complex_ = RipsComplex.from_points(points, epsilon=epsilon, max_dimension=2).complex()
    print(f"Point cloud: {points.shape[0]} points, grouping scale eps = {epsilon}")
    print(f"Rips complex f-vector (vertices, edges, triangles): {complex_.f_vector()}")

    # 2. Classical ground truth.
    exact = betti_numbers(complex_, 1)
    print(f"Classical Betti numbers: beta_0 = {exact[0]}, beta_1 = {exact[1]}")

    # 3. Quantum estimate (QPE on the combinatorial Laplacian).
    #    The default `exact` backend evaluates the analytical QPE readout.
    #    The faithful circuit backends (backend="statevector"/"trotter")
    #    additionally take a `circuit_engine` knob: the default "auto" runs
    #    noise-free circuits on the batched ensemble statevector engine
    #    (DESIGN.md §11) — set "purified" or "density" to force the legacy
    #    Fig. 2 / density-matrix routes, e.g.
    #    QTDABettiEstimator(backend="statevector", circuit_engine="density").
    estimator = QTDABettiEstimator(precision_qubits=6, shots=4000, seed=11)
    for k in (0, 1):
        result = estimator.estimate(complex_, k)
        print(
            f"QTDA estimate for beta_{k}: p(0) = {result.p_zero:.4f} on {result.num_system_qubits} "
            f"system qubits -> beta~_{k} = {result.betti_estimate:.3f} (rounded {result.betti_rounded}, "
            f"exact {result.exact_betti})"
        )

    # 4. The same estimation through the service API: one request in, one
    #    provenance-stamped envelope out.  Each request runs a fresh seeded
    #    estimator, so its draw matches a fresh estimator's first estimate
    #    (step 3 reused one estimator across k=0 and k=1, advancing its RNG).
    from repro.api import EstimationRequest, QTDAService

    with QTDAService() as service:
        envelope = service.run(
            EstimationRequest(
                points=points,
                epsilon=epsilon,
                max_dimension=2,
                k=1,
                config={"precision_qubits": 6, "shots": 4000, "seed": 11},
            )
        )
    print(
        f"\nVia QTDAService: beta~_1 = {envelope.payload['betti_estimate']:.3f} "
        f"[backend={envelope.provenance.backend}, format={envelope.provenance.operator_format}, "
        f"wall={envelope.provenance.wall_time_s * 1e3:.1f} ms]"
    )

    # 5. A noisy run.  Declaring a channel on the config routes the circuit
    #    through the fused-PTM engine (DESIGN.md §16): every gate and its
    #    attached channel become one real Pauli-transfer matrix, adjacent
    #    PTMs fuse into single superoperators, and the answer is *exact* —
    #    it matches the density-matrix contraction to machine precision at
    #    gate-fusion speed, no sampling spread.  See
    #    examples/zne_extrapolation.py for recovering the noiseless answer
    #    from a strength sweep.
    noisy = QTDABettiEstimator(
        precision_qubits=6,
        shots=4000,
        backend="statevector",
        noise_channel="depolarizing",
        noise_strength=0.005,
        readout_error=0.01,
        seed=11,
    ).estimate(complex_, 1)
    print(
        f"\nNoisy estimate (depolarizing p=0.005, readout 1%): "
        f"beta~_1 = {noisy.betti_estimate:.3f} "
        f"[route={noisy.engine_route}, {noisy.fused_gates} fused superoperators]"
    )

    #    Prefer a Monte-Carlo error bar (or a register too wide for the
    #    4^n density tensor)?  `circuit_engine="trajectory"` runs stochastic
    #    Kraus unravelling over n_trajectories repetitions instead, whose
    #    spread becomes the ± bar; `auto` picks trajectory by itself above
    #    12 total qubits.  examples/circuit_engine.py compares the routes.
    sampled = QTDABettiEstimator(
        precision_qubits=6,
        shots=4000,
        backend="statevector",
        circuit_engine="trajectory",
        noise_channel="depolarizing",
        noise_strength=0.005,
        n_trajectories=8,
        readout_error=0.01,
        seed=11,
    ).estimate(complex_, 1)
    spread = f" ± {sampled.betti_std:.3f}" if sampled.betti_std is not None else ""
    print(
        f"Same channel, trajectory route: beta~_1 = {sampled.betti_estimate:.3f}{spread} "
        f"[route={sampled.engine_route}, {sampled.n_trajectories} trajectories]"
    )

    # 6. What the circuit looks like for beta_1.
    laplacian = combinatorial_laplacian(complex_, 1)
    hamiltonian = build_hamiltonian(laplacian)
    circuit, spec = qtda_circuit(hamiltonian, precision_qubits=4, use_purification=True)
    print("\nFig. 6-style circuit resources:")
    for key, value in circuit_resource_summary(circuit, spec).items():
        if key != "gate_histogram":
            print(f"  {key}: {value}")

    print("\nFig. 2-style maximally mixed state preparation (3 system qubits):")
    print(draw_circuit(maximally_mixed_state_circuit(3)))

    # 7. Serve it.  The same request/envelope wire format deploys over HTTP
    #    (DESIGN.md §15) — `python -m repro.cli serve` from a shell, or
    #    in-process as below.  Identical concurrent requests coalesce into
    #    one computation and per-caller quotas shed overload with 429s; see
    #    examples/http_client.py for the full client tour.
    from repro.serve import QTDAServer, ServeConfig, ServiceClient

    with QTDAServer(ServeConfig(port=0)) as server:
        with ServiceClient(server.host, server.port) as client:
            served = client.estimate(
                EstimationRequest(
                    points=points,
                    epsilon=epsilon,
                    max_dimension=2,
                    k=1,
                    config={"precision_qubits": 6, "shots": 4000, "seed": 11},
                )
            )
    print(
        f"\nVia HTTP ({server.base_url}): beta~_1 = {served['payload']['betti_estimate']:.3f} "
        f"[schema v{served['schema_version']}, coalesced={served['coalesced']}]"
    )


if __name__ == "__main__":
    main()
