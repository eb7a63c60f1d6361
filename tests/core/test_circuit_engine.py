"""Regression and routing tests for the circuit routes.

The density-matrix and purified simulations of the circuit are oracles, not
routes, and stay bit-identity-pinned in ``test_backend_regression.py``; here
the routes are pinned to agree with the density-matrix evolution of
``|0><0| ⊗ I/2^q`` (within 1e-10 noise-free, 1e-8 under noise, 3σ for
trajectories) on the reference complexes, and the ``circuit_engine`` knob's
resolution rules are locked down.
"""

import numpy as np
import pytest

from repro.core.backends import EstimationProblem
from repro.core.backends.statevector import (
    density_reference_distribution,
    purified_reference_distribution,
    resolve_circuit_route,
)
from repro.core.config import QTDAConfig
from repro.core.estimator import QTDABettiEstimator
from repro.experiments.worked_example import appendix_complex
from repro.quantum.measurement import sample_counts
from repro.tda.complexes import SimplicialComplex
from repro.tda.laplacian import combinatorial_laplacian
from repro.utils.rng import as_rng


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


def _oracle(backend, case, oracle=density_reference_distribution, **overrides):
    """The oracle's readout distribution for the config :func:`_estimate` builds."""
    make, k = _REFERENCE[case]
    kwargs = {"precision_qubits": 3, "shots": None, "backend": backend, "delta": 6.0,
              "trotter_steps": 4}
    kwargs.update(overrides)
    problem = EstimationProblem(laplacian=combinatorial_laplacian(make(), k))
    synthesis = "trotter" if backend == "trotter" else "exact"
    return oracle(problem, QTDAConfig(**kwargs), synthesis)


# ---------------------------------------------------------------------------
# Numerical agreement: ensemble vs the density-matrix reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["statevector", "trotter"])
@pytest.mark.parametrize("case", sorted(_REFERENCE))
def test_ensemble_route_matches_density_route_to_1e10(backend, case):
    """The PR's acceptance pin: same circuit semantics, 1e-10 agreement."""
    ensemble = _estimate(backend, case, "ensemble")
    density = _oracle(backend, case)
    assert ensemble.engine_route == "ensemble"
    assert ensemble.p_zero == pytest.approx(density[0], abs=1e-10)
    assert ensemble.betti_estimate == pytest.approx(
        2**ensemble.num_system_qubits * density[0], abs=1e-10
    )
    assert ensemble.betti_rounded == round(2**ensemble.num_system_qubits * density[0])


def test_ensemble_route_matches_purified_route(case="appendix"):
    ensemble = _estimate("statevector", case, "ensemble")
    purified = _oracle("statevector", case, purified_reference_distribution)
    assert ensemble.p_zero == pytest.approx(purified[0], abs=1e-10)


def test_ensemble_is_the_default_noise_free_route():
    estimate = _estimate("statevector", "appendix", "auto")
    assert estimate.engine_route == "ensemble"
    assert estimate.fused_gates is not None and estimate.fused_gates > 0


def test_ensemble_shots_are_sampled_from_the_same_distribution():
    """Finite-shot behaviour is the estimator's job and is seeded identically
    across routes; with distributions equal to 1e-10 the counts sampled from
    the route and from the density oracle coincide for a fixed seed."""
    a = _estimate("statevector", "appendix", "ensemble", shots=2000, seed=11)
    density = _oracle("statevector", "appendix")
    counts = sample_counts(density, 2000, num_bits=3, seed=as_rng(11))
    assert a.counts == counts
    assert a.p_zero == counts.get("000", 0) / 2000


# ---------------------------------------------------------------------------
# Route resolution and validation
# ---------------------------------------------------------------------------


def test_resolve_circuit_route_table():
    from repro.core.backends.statevector import PTM_AUTO_QUBIT_THRESHOLD

    noiseless = QTDAConfig(backend="statevector")
    assert resolve_circuit_route(noiseless) == "ensemble"
    for engine in ("ensemble", "ptm", "trajectory"):
        config = QTDAConfig(backend="statevector", circuit_engine=engine)
        assert resolve_circuit_route(config) == engine
    noise = dict(noise_channel="depolarizing", noise_strength=0.01)
    noisy = QTDAConfig(backend="statevector", **noise)
    # Noise resolves auto to the exact PTM route while the register fits,
    # trajectory above the threshold; explicit trajectory requests are
    # honoured at any size, explicit ptm ones up to the threshold (see
    # test_explicit_ptm_above_the_threshold_is_refused_before_allocating).
    assert resolve_circuit_route(noisy) == "ptm"
    assert resolve_circuit_route(noisy, total_qubits=PTM_AUTO_QUBIT_THRESHOLD) == "ptm"
    assert (
        resolve_circuit_route(noisy, total_qubits=PTM_AUTO_QUBIT_THRESHOLD + 1)
        == "trajectory"
    )
    for engine in ("trajectory", "ptm"):
        config = QTDAConfig(backend="statevector", circuit_engine=engine, **noise)
        assert resolve_circuit_route(config, total_qubits=PTM_AUTO_QUBIT_THRESHOLD) == engine
    config = QTDAConfig(backend="statevector", circuit_engine="trajectory", **noise)
    assert resolve_circuit_route(config, total_qubits=PTM_AUTO_QUBIT_THRESHOLD + 1) == "trajectory"
    # Zero-strength channels count as noise-free.
    zero = QTDAConfig(backend="statevector", noise_channel="depolarizing", noise_strength=0.0)
    assert resolve_circuit_route(zero) == "ensemble"
    # A gate-class override alone is gate noise.
    gate_only = QTDAConfig(
        backend="statevector",
        noise_channel="depolarizing",
        noise_strength=0.0,
        noise_gate_strengths={"CNOT": 0.05},
    )
    assert resolve_circuit_route(gate_only) == "ptm"


def test_explicit_ptm_above_the_threshold_is_refused_before_allocating(monkeypatch):
    """An explicit ``ptm`` over ``PTM_AUTO_QUBIT_THRESHOLD`` qubits raises
    ``ValueError`` at route resolution, with or without noise, before the
    circuit is built; ``auto`` still falls back to trajectories there."""
    import repro.core.backends.statevector as statevector
    from repro.core.backends.statevector import PTM_AUTO_QUBIT_THRESHOLD, circuit_backend_result

    noise = dict(noise_channel="depolarizing", noise_strength=0.01)
    for extra in (noise, {}):
        config = QTDAConfig(backend="statevector", circuit_engine="ptm", **extra)
        with pytest.raises(ValueError, match="at most 12 qubits"):
            resolve_circuit_route(config, total_qubits=PTM_AUTO_QUBIT_THRESHOLD + 1)
    auto = QTDAConfig(backend="statevector", **noise)
    assert resolve_circuit_route(auto, total_qubits=PTM_AUTO_QUBIT_THRESHOLD + 1) == "trajectory"

    def no_build(*args, **kwargs):
        raise AssertionError("the circuit was built for a refused ptm request")

    monkeypatch.setattr(statevector, "qtda_circuit", no_build)
    # t = 11 precision qubits on the 2-qubit appendix Laplacian: 13 qubits.
    # The config admits t = 11; t >= 12 is refused by QTDAConfig itself.
    config = QTDAConfig(
        backend="statevector", circuit_engine="ptm", precision_qubits=11, delta=6.0, **noise
    )
    problem = EstimationProblem(laplacian=combinatorial_laplacian(appendix_complex(), 1))
    with pytest.raises(ValueError, match="circuit_engine='ptm'"):
        circuit_backend_result(problem, config, "exact", rng=as_rng(0))


def test_pure_state_engines_reject_noise():
    config = QTDAConfig(backend="statevector", circuit_engine="ensemble")
    # A config mutated after validation is still caught at route resolution.
    config.noise_channel, config.noise_strength = "depolarizing", 0.01
    with pytest.raises(ValueError, match="noise"):
        resolve_circuit_route(config)
    with pytest.raises(ValueError, match="noise"):
        QTDAConfig(
            backend="statevector",
            circuit_engine="ensemble",
            noise_channel="depolarizing",
            noise_strength=0.01,
        )
    with pytest.raises(ValueError, match="noise"):
        _oracle("statevector", "appendix", purified_reference_distribution,
                noise_channel="depolarizing", noise_strength=0.01)


def test_ensemble_accepts_a_zero_strength_channel():
    """Config validation and route resolution share one predicate
    (``has_gate_noise``): a zero-strength channel is noise-free, so an explicit
    ``ensemble`` config builds and reads the same bits as one with no channel."""
    zero = _estimate(
        "statevector", "appendix", "ensemble", noise_channel="depolarizing", noise_strength=0.0
    )
    clean = _estimate("statevector", "appendix", "ensemble")
    assert zero.engine_route == "ensemble"
    assert zero.noise_spec is None
    assert zero.p_zero == clean.p_zero


def test_config_validates_circuit_engine():
    with pytest.raises(ValueError, match="circuit_engine"):
        QTDAConfig(circuit_engine="warp")
    # The density-matrix and purified simulations are oracles, not routes.
    for removed in ("density", "purified"):
        with pytest.raises(ValueError, match="circuit_engine"):
            QTDAConfig(circuit_engine=removed)
    config = QTDAConfig(circuit_engine="ensemble")
    assert QTDAConfig.from_dict(config.as_dict()).circuit_engine == "ensemble"


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
        density = _oracle("statevector", case, noise_channel="depolarizing", noise_strength=0.03)
        trajectory = QTDABettiEstimator(
            circuit_engine="trajectory", n_trajectories=64, seed=5, **common
        ).estimate(make(), k)
        density_betti = 2**trajectory.num_system_qubits * density[0]
        sigma = max(trajectory.betti_std or 0.0, 1e-6)
        assert abs(trajectory.betti_estimate - density_betti) < 3 * sigma, case


def test_trajectory_mean_matches_density_within_3_sigma_under_amplitude_damping():
    """A general (not mixed-unitary) channel samples every column on its own
    Born weights; its mean must converge to the density answer as well."""
    common = dict(
        precision_qubits=3,
        shots=None,
        backend="statevector",
        delta=6.0,
        noise_channel="amplitude-damping",
        noise_strength=0.03,
    )
    for case in sorted(_REFERENCE):
        make, k = _REFERENCE[case]
        density = _oracle(
            "statevector", case, noise_channel="amplitude-damping", noise_strength=0.03
        )
        trajectory = QTDABettiEstimator(
            circuit_engine="trajectory", n_trajectories=64, seed=5, **common
        ).estimate(make(), k)
        assert trajectory.engine_route == "trajectory"
        density_betti = 2**trajectory.num_system_qubits * density[0]
        sigma = max(trajectory.betti_std or 0.0, 1e-6)
        assert abs(trajectory.betti_estimate - density_betti) < 3 * sigma, case


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
    density = _oracle("statevector", case, **common)
    assert ptm.engine_route == "ptm"
    assert ptm.p_zero == pytest.approx(density[0], abs=1e-8)
    assert ptm.betti_estimate == pytest.approx(
        2**ptm.num_system_qubits * density[0], abs=1e-8
    )
    assert ptm.fused_gates is not None and ptm.fused_gates > 0


def test_ptm_route_matches_ensemble_when_noise_free():
    ensemble = _estimate("statevector", "appendix", "ensemble")
    ptm = _estimate("statevector", "appendix", "ptm")
    assert ptm.engine_route == "ptm"
    assert ptm.noise_spec is None
    assert ptm.p_zero == pytest.approx(ensemble.p_zero, abs=1e-9)


def test_ptm_runs_leave_density_and_trajectory_routes_bit_identical():
    """Satellite pin: a PTM run must not perturb the density oracle or the
    trajectory route — identical configs produce bit-identical results
    whether or not a PTM run happened in between."""
    noise = dict(noise_channel="depolarizing", noise_strength=0.02)
    density_before = _oracle("statevector", "appendix", **noise)
    trajectory_before = _estimate(
        "statevector", "appendix", "trajectory", n_trajectories=4, seed=11, **noise
    )
    _estimate("statevector", "appendix", "ptm", **noise)
    density_after = _oracle("statevector", "appendix", **noise)
    trajectory_after = _estimate(
        "statevector", "appendix", "trajectory", n_trajectories=4, seed=11, **noise
    )
    assert np.array_equal(density_after, density_before)
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
