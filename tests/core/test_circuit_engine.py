"""Regression and routing tests for the batched (``ensemble``) circuit route.

The legacy ``purified``/``density`` routes stay bit-identity-pinned in
``test_backend_regression.py``; here the new route is pinned to agree with
the density-matrix evolution of ``|0><0| ⊗ I/2^q`` within 1e-10 on the
reference complexes, and the ``circuit_engine`` knob's resolution rules are
locked down.
"""

import numpy as np
import pytest

from repro.core.backends.statevector import resolve_circuit_route
from repro.core.config import QTDAConfig
from repro.core.estimator import QTDABettiEstimator
from repro.experiments.worked_example import appendix_complex
from repro.quantum.noise import NoiseModel
from repro.tda.complexes import SimplicialComplex


def _square_tail() -> SimplicialComplex:
    return SimplicialComplex(
        [(0,), (1,), (2,), (3,), (4,), (0, 1), (1, 2), (2, 3), (0, 3), (3, 4)]
    )


_REFERENCE = {
    "appendix": (appendix_complex, 1),
    "square_tail": (_square_tail, 1),
    "square_tail_b0": (_square_tail, 0),
}


def _estimate(backend, case, circuit_engine, **overrides):
    make, k = _REFERENCE[case]
    kwargs = {
        "precision_qubits": 3,
        "shots": None,
        "backend": backend,
        "delta": 6.0,
        "trotter_steps": 4,
        "circuit_engine": circuit_engine,
    }
    kwargs.update(overrides)
    return QTDABettiEstimator(**kwargs).estimate(make(), k)


# ---------------------------------------------------------------------------
# Numerical agreement: ensemble vs the density-matrix reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["statevector", "trotter"])
@pytest.mark.parametrize("case", sorted(_REFERENCE))
def test_ensemble_route_matches_density_route_to_1e10(backend, case):
    """The PR's acceptance pin: same circuit semantics, 1e-10 agreement."""
    ensemble = _estimate(backend, case, "ensemble")
    density = _estimate(backend, case, "density")
    assert ensemble.engine_route == "ensemble"
    assert density.engine_route == "density"
    assert ensemble.p_zero == pytest.approx(density.p_zero, abs=1e-10)
    assert ensemble.betti_estimate == pytest.approx(density.betti_estimate, abs=1e-10)
    assert ensemble.betti_rounded == density.betti_rounded
    assert ensemble.num_system_qubits == density.num_system_qubits
    assert ensemble.lambda_max == density.lambda_max


def test_ensemble_route_matches_purified_route(case="appendix"):
    ensemble = _estimate("statevector", case, "ensemble")
    purified = _estimate("statevector", case, "purified")
    assert purified.engine_route == "purified"
    assert ensemble.p_zero == pytest.approx(purified.p_zero, abs=1e-10)


def test_ensemble_is_the_default_noise_free_route():
    estimate = _estimate("statevector", "appendix", "auto")
    assert estimate.engine_route == "ensemble"
    assert estimate.fused_gates is not None and estimate.fused_gates > 0
    # The fused plan is shorter than the raw gate list (the inverse QFT run
    # and the Hadamard layer fuse; the wide controlled powers pass through).
    density = _estimate("statevector", "appendix", "density")
    assert density.fused_gates is None


def test_ensemble_shots_are_sampled_from_the_same_distribution():
    """Finite-shot behaviour is the estimator's job and is seeded identically
    across routes; with distributions equal to 1e-10 the sampled counts of
    the two routes coincide for a fixed seed."""
    a = _estimate("statevector", "appendix", "ensemble", shots=2000, seed=11)
    b = _estimate("statevector", "appendix", "density", shots=2000, seed=11)
    assert a.counts == b.counts
    assert a.p_zero == b.p_zero


# ---------------------------------------------------------------------------
# Route resolution and validation
# ---------------------------------------------------------------------------


def test_resolve_circuit_route_table():
    from repro.core.backends.statevector import PTM_AUTO_QUBIT_THRESHOLD

    noiseless = QTDAConfig(backend="statevector")
    assert resolve_circuit_route(noiseless, None) == "ensemble"
    for engine in ("ensemble", "ptm", "trajectory", "purified", "density"):
        config = QTDAConfig(backend="statevector", circuit_engine=engine)
        assert resolve_circuit_route(config, None) == engine
    noise = NoiseModel.depolarizing(0.01)
    # Declarative (spec-expressible) noise resolves auto to the exact PTM
    # route while the register fits, trajectory above the threshold; explicit
    # density/trajectory/ptm requests are honoured.
    assert resolve_circuit_route(noiseless, noise) == "ptm"
    assert (
        resolve_circuit_route(noiseless, noise, total_qubits=PTM_AUTO_QUBIT_THRESHOLD)
        == "ptm"
    )
    assert (
        resolve_circuit_route(
            noiseless, noise, total_qubits=PTM_AUTO_QUBIT_THRESHOLD + 1
        )
        == "trajectory"
    )
    density = QTDAConfig(backend="statevector", circuit_engine="density")
    assert resolve_circuit_route(density, noise) == "density"
    trajectory = QTDAConfig(backend="statevector", circuit_engine="trajectory")
    assert resolve_circuit_route(trajectory, noise) == "trajectory"
    ptm = QTDAConfig(backend="statevector", circuit_engine="ptm")
    assert resolve_circuit_route(ptm, noise) == "ptm"
    # Zero-strength channels count as noise-free.
    assert resolve_circuit_route(noiseless, NoiseModel.depolarizing(0.0)) == "ensemble"
    # Hand-built Kraus lists have no NoiseSpec form: auto falls back to the
    # exact density contraction, and explicit trajectory/ptm requests raise.
    custom = NoiseModel(
        [np.sqrt(0.99) * np.eye(2), np.sqrt(0.01) * np.array([[0, 1], [1, 0]])]
    )
    assert resolve_circuit_route(noiseless, custom) == "density"
    with pytest.raises(ValueError, match="density route"):
        resolve_circuit_route(trajectory, custom)
    with pytest.raises(ValueError, match="density route"):
        resolve_circuit_route(ptm, custom)


def test_pure_state_engines_reject_noise():
    for engine in ("ensemble", "purified"):
        config = QTDAConfig(backend="statevector", circuit_engine=engine)
        with pytest.raises(ValueError, match="noise"):
            resolve_circuit_route(config, NoiseModel.depolarizing(0.01))
        with pytest.raises(ValueError, match="noise"):
            QTDAConfig(
                backend="statevector",
                circuit_engine=engine,
                noise_channel="depolarizing",
                noise_strength=0.01,
            )


def test_config_validates_circuit_engine():
    with pytest.raises(ValueError, match="circuit_engine"):
        QTDAConfig(circuit_engine="warp")
    config = QTDAConfig(circuit_engine="ensemble")
    assert QTDAConfig.from_dict(config.as_dict()).circuit_engine == "ensemble"


def test_noisy_density_backend_still_routes_density():
    estimate = QTDABettiEstimator(
        precision_qubits=3,
        shots=None,
        backend="statevector",
        circuit_engine="density",
        delta=6.0,
        noise_channel="depolarizing",
        noise_strength=0.02,
    ).estimate(appendix_complex(), 1)
    assert estimate.engine_route == "density"


# ---------------------------------------------------------------------------
# Trajectory route
# ---------------------------------------------------------------------------


def test_auto_resolves_small_noisy_config_to_ptm_route():
    """Auto + declarative noise now prefers the exact PTM route while the
    register fits under ``PTM_AUTO_QUBIT_THRESHOLD``."""
    estimate = QTDABettiEstimator(
        precision_qubits=3,
        shots=None,
        backend="statevector",
        delta=6.0,
        noise_channel="depolarizing",
        noise_strength=0.02,
        seed=7,
    ).estimate(appendix_complex(), 1)
    assert estimate.engine_route == "ptm"
    assert estimate.fused_gates is not None and estimate.fused_gates > 0
    assert estimate.n_trajectories is None
    assert estimate.noise_spec is not None
    assert estimate.noise_spec["channel"] == "depolarizing"
    assert estimate.noise_spec["strength"] == 0.02
    # The PTM route is exact: no sampling, no error bar.
    assert estimate.betti_std is None


def test_explicit_trajectory_engine_still_runs_trajectories():
    estimate = QTDABettiEstimator(
        precision_qubits=3,
        shots=None,
        backend="statevector",
        delta=6.0,
        circuit_engine="trajectory",
        noise_channel="depolarizing",
        noise_strength=0.02,
        n_trajectories=4,
        seed=7,
    ).estimate(appendix_complex(), 1)
    assert estimate.engine_route == "trajectory"
    assert estimate.n_trajectories == 4
    assert estimate.betti_std is not None and estimate.betti_std > 0


def test_trajectory_mean_matches_density_within_3_sigma():
    """Satellite acceptance: the trajectory route's mean converges to the
    exact density-matrix contraction within sampling error."""
    common = dict(
        precision_qubits=3,
        shots=None,
        backend="statevector",
        delta=6.0,
        noise_channel="depolarizing",
        noise_strength=0.03,
    )
    for case in sorted(_REFERENCE):
        make, k = _REFERENCE[case]
        density = QTDABettiEstimator(circuit_engine="density", **common).estimate(make(), k)
        trajectory = QTDABettiEstimator(
            circuit_engine="trajectory", n_trajectories=64, seed=5, **common
        ).estimate(make(), k)
        sigma = max(trajectory.betti_std or 0.0, 1e-6)
        assert abs(trajectory.betti_estimate - density.betti_estimate) < 3 * sigma, case


def test_trajectory_route_is_deterministic_given_seed():
    kwargs = dict(
        precision_qubits=3,
        shots=None,
        backend="statevector",
        delta=6.0,
        circuit_engine="trajectory",
        noise_channel="depolarizing",
        noise_strength=0.02,
        n_trajectories=4,
        seed=13,
    )
    a = QTDABettiEstimator(**kwargs).estimate(appendix_complex(), 1)
    b = QTDABettiEstimator(**kwargs).estimate(appendix_complex(), 1)
    assert a.betti_estimate == b.betti_estimate
    assert a.betti_std == b.betti_std


# ---------------------------------------------------------------------------
# PTM route (DESIGN.md §16)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", sorted(_REFERENCE))
def test_ptm_route_matches_noisy_density_to_1e8(case):
    """The PR's acceptance pin: exact agreement (≤1e-8, no statistical
    tolerance) between the fused-PTM route and the density contraction under
    declarative noise on every reference complex."""
    common = dict(
        noise_channel="depolarizing",
        noise_strength=0.02,
        noise_gate_strengths={"c-U": 0.01},
        readout_error=0.01,
    )
    ptm = _estimate("statevector", case, "ptm", **common)
    density = _estimate("statevector", case, "density", **common)
    assert ptm.engine_route == "ptm"
    assert density.engine_route == "density"
    assert ptm.p_zero == pytest.approx(density.p_zero, abs=1e-8)
    assert ptm.betti_estimate == pytest.approx(density.betti_estimate, abs=1e-8)
    assert ptm.fused_gates is not None and ptm.fused_gates > 0


def test_ptm_route_matches_ensemble_when_noise_free():
    ensemble = _estimate("statevector", "appendix", "ensemble")
    ptm = _estimate("statevector", "appendix", "ptm")
    assert ptm.engine_route == "ptm"
    assert ptm.noise_spec is None
    assert ptm.p_zero == pytest.approx(ensemble.p_zero, abs=1e-9)


def test_ptm_runs_leave_density_and_trajectory_routes_bit_identical():
    """Satellite pin: adding the PTM route must not perturb the existing
    noisy routes — identical configs produce bit-identical results whether
    or not a PTM run happened in between."""
    noise = dict(noise_channel="depolarizing", noise_strength=0.02)
    density_before = _estimate("statevector", "appendix", "density", **noise)
    trajectory_before = _estimate(
        "statevector", "appendix", "trajectory", n_trajectories=4, seed=11, **noise
    )
    _estimate("statevector", "appendix", "ptm", **noise)
    density_after = _estimate("statevector", "appendix", "density", **noise)
    trajectory_after = _estimate(
        "statevector", "appendix", "trajectory", n_trajectories=4, seed=11, **noise
    )
    assert density_after.p_zero == density_before.p_zero
    assert density_after.betti_estimate == density_before.betti_estimate
    assert trajectory_after.p_zero == trajectory_before.p_zero
    assert trajectory_after.betti_std == trajectory_before.betti_std


def test_service_provenance_records_ptm_route_and_fused_superoperators():
    """Acceptance: ``engine_route="ptm"`` plus the fused superoperator count
    round-trip through the wire format."""
    import json

    from repro.api import EstimationRequest, EstimationResult, QTDAService
    from repro.experiments.worked_example import APPENDIX_SIMPLICES

    with QTDAService(max_workers=1) as service:
        result = service.run(
            EstimationRequest(
                simplices=APPENDIX_SIMPLICES,
                k=1,
                config=QTDAConfig(
                    precision_qubits=3,
                    shots=None,
                    delta=6.0,
                    backend="statevector",
                    noise_channel="depolarizing",
                    noise_strength=0.02,
                ),
            )
        )
    assert result.provenance.engine_route == "ptm"
    assert result.provenance.fused_gates is not None
    assert result.provenance.fused_gates > 0
    assert result.provenance.noise_spec["channel"] == "depolarizing"
    assert result.payload["engine_route"] == "ptm"
    assert result.payload["fused_gates"] == result.provenance.fused_gates
    document = json.loads(result.to_json())
    EstimationResult.validate_dict(document)
    assert document["provenance"]["engine_route"] == "ptm"
    assert document["provenance"]["fused_gates"] == result.provenance.fused_gates


def test_readout_error_composes_with_the_ensemble_route():
    clean = _estimate("statevector", "appendix", "auto")
    noisy = _estimate("statevector", "appendix", "auto", readout_error=0.05)
    assert noisy.engine_route == "ensemble"
    assert noisy.noise_spec is not None
    assert noisy.noise_spec["readout_error"] == 0.05
    # With bit-flip probability p on each of the t precision bits the
    # all-zero outcome keeps (1-p)^t of its own weight plus leakage from
    # every other outcome, so p(0) moves away from the clean value.
    assert noisy.p_zero != pytest.approx(clean.p_zero, abs=1e-6)


# ---------------------------------------------------------------------------
# Service provenance
# ---------------------------------------------------------------------------


def test_service_provenance_records_engine_route_and_fusion():
    import json

    from repro.api import EstimationRequest, EstimationResult, QTDAService
    from repro.experiments.worked_example import APPENDIX_SIMPLICES

    with QTDAService(max_workers=1) as service:
        result = service.run(
            EstimationRequest(
                simplices=APPENDIX_SIMPLICES,
                k=1,
                config=QTDAConfig(
                    precision_qubits=3, shots=None, delta=6.0, backend="statevector"
                ),
            )
        )
    assert result.provenance.engine_route == "ensemble"
    assert result.provenance.fused_gates == result.payload["fused_gates"]
    assert result.payload["engine_route"] == "ensemble"
    document = json.loads(result.to_json())
    EstimationResult.validate_dict(document)
    assert document["provenance"]["engine_route"] == "ensemble"


def test_service_provenance_records_trajectory_route_and_noise_spec():
    """Wire schema v3: route, trajectory count and resolved noise spec flow
    BackendResult -> BettiEstimate -> Provenance and validate end to end; a
    noise-free trajectory run reports no noise spec, like every other route."""
    import json

    from repro.api import EstimationRequest, EstimationResult, QTDAService
    from repro.experiments.worked_example import APPENDIX_SIMPLICES

    with QTDAService(max_workers=1) as service:
        result = service.run(
            EstimationRequest(
                simplices=APPENDIX_SIMPLICES,
                k=1,
                config=QTDAConfig(
                    precision_qubits=3,
                    shots=None,
                    delta=6.0,
                    backend="statevector",
                    circuit_engine="trajectory",
                    noise_channel="depolarizing",
                    noise_strength=0.02,
                    n_trajectories=4,
                    seed=3,
                ),
            )
        )
    assert result.provenance.engine_route == "trajectory"
    assert result.provenance.n_trajectories == 4
    assert result.provenance.noise_spec["channel"] == "depolarizing"
    assert result.payload["engine_route"] == "trajectory"
    assert result.payload["n_trajectories"] == 4
    document = json.loads(result.to_json())
    EstimationResult.validate_dict(document)
    assert document["provenance"]["engine_route"] == "trajectory"
    assert document["provenance"]["n_trajectories"] == 4
    assert document["provenance"]["noise_spec"]["strength"] == 0.02

    with QTDAService(max_workers=1) as service:
        noise_free = service.run(
            EstimationRequest(
                simplices=APPENDIX_SIMPLICES,
                k=1,
                config=QTDAConfig(
                    precision_qubits=3,
                    shots=None,
                    delta=6.0,
                    backend="statevector",
                    circuit_engine="trajectory",
                    n_trajectories=4,
                    seed=3,
                ),
            )
        )
    assert noise_free.provenance.engine_route == "trajectory"
    assert noise_free.provenance.noise_spec is None
    document = json.loads(noise_free.to_json())
    EstimationResult.validate_dict(document)
    assert document["provenance"]["noise_spec"] is None


def test_config_rejects_removed_shard_fields():
    """Sharding was removed (wire schema 5): its config fields are unknown."""
    for removed in ({"shards": 2}, {"shard_backend": "process"}, {"devices": (0,)}):
        with pytest.raises(TypeError, match=next(iter(removed))):
            QTDAConfig(**removed)
        with pytest.raises(TypeError):
            QTDAConfig.from_dict({**QTDAConfig().as_dict(), **removed})
