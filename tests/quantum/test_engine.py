"""Property tests for the batched execution engine and the fusion pass.

The contract under test (DESIGN.md §11): evolving an ensemble column by
column through the single-state :class:`StatevectorSimulator` and evolving
it as one ``(2^n, B)`` array through the :class:`EnsembleExecutor` are the
same computation — batched, fused, chunked or not.
"""

import numpy as np
import pytest

from repro.quantum.circuit import QuantumCircuit
from repro.quantum.engine import (
    DEFAULT_MEMORY_BUDGET_BYTES,
    EnsembleExecutor,
    apply_gate_to_ensemble,
    array_module,
    set_array_module,
    to_host,
)
from repro.quantum.fusion import clear_fusion_cache, fuse_circuit, fusion_cache_info
from repro.quantum.gates import is_unitary, matrix_power_unitary
from repro.quantum.measurement import (
    born_probabilities,
    ensemble_marginal_probabilities,
    marginal_probabilities,
)
from repro.quantum.qpe import SpectralUnitary, phase_estimation_circuit
from repro.quantum.statevector import StatevectorSimulator


def _random_unitary(rng, k):
    m = rng.standard_normal((2**k, 2**k)) + 1j * rng.standard_normal((2**k, 2**k))
    q, _ = np.linalg.qr(m)
    return q


def _random_circuit(rng, num_qubits, num_gates, max_gate_qubits=2):
    circ = QuantumCircuit(num_qubits)
    for _ in range(num_gates):
        k = int(rng.integers(1, max_gate_qubits + 1))
        qubits = list(rng.choice(num_qubits, size=k, replace=False))
        circ.unitary(_random_unitary(rng, k), qubits)
    return circ


def _random_states(rng, num_qubits, batch):
    states = rng.standard_normal((2**num_qubits, batch)) + 1j * rng.standard_normal(
        (2**num_qubits, batch)
    )
    return states / np.linalg.norm(states, axis=0, keepdims=True)


# ---------------------------------------------------------------------------
# Batched kernel vs the per-state simulator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_batched_engine_matches_per_state_simulator(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    circuit = _random_circuit(rng, n, num_gates=10)
    states = _random_states(rng, n, batch=6)
    batched = EnsembleExecutor(fuse=False).run(circuit, states)
    sim = StatevectorSimulator()
    per_state = np.stack(
        [sim.run(circuit, initial_state=states[:, b]).amplitudes for b in range(6)],
        axis=1,
    )
    np.testing.assert_allclose(batched, per_state, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_fused_execution_matches_unfused(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(2, 5))
    circuit = _random_circuit(rng, n, num_gates=14)
    states = _random_states(rng, n, batch=4)
    unfused = EnsembleExecutor(fuse=False).run(circuit, states)
    fused = EnsembleExecutor(fuse=True, max_fuse_qubits=3).run(circuit, states)
    np.testing.assert_allclose(fused, unfused, atol=1e-11)


def test_statevector_simulator_fuse_option():
    """The simulator's opt-in fusion matches its default unfused execution."""
    rng = np.random.default_rng(15)
    circuit = _random_circuit(rng, 4, num_gates=12)
    psi = _random_states(rng, 4, batch=1)[:, 0]
    plain = StatevectorSimulator().run(circuit, initial_state=psi).amplitudes
    fused = StatevectorSimulator(fuse=True, max_fuse_qubits=3).run(
        circuit, initial_state=psi
    ).amplitudes
    np.testing.assert_allclose(fused, plain, atol=1e-11)
    # Fusion actually engaged (same plan source as the executor).
    assert len(fuse_circuit(circuit, 3)) < circuit.num_gates


def test_batch_one_is_bit_identical_to_simulator():
    """The simulator *is* the batch-1 path — not approximately, bitwise."""
    rng = np.random.default_rng(7)
    circuit = _random_circuit(rng, 4, num_gates=12)
    psi = _random_states(rng, 4, batch=1)
    via_engine = EnsembleExecutor(fuse=False).run(circuit, psi)[:, 0]
    via_simulator = StatevectorSimulator().run(circuit, initial_state=psi[:, 0]).amplitudes
    assert np.array_equal(via_engine, via_simulator)


def test_apply_gate_to_ensemble_rejects_nothing_it_should_not():
    """The kernel handles non-adjacent, permuted target qubits."""
    rng = np.random.default_rng(11)
    gate = _random_unitary(rng, 2)
    states = _random_states(rng, 3, batch=2)
    out = apply_gate_to_ensemble(states, gate, [2, 0], 3)
    sim_gate = QuantumCircuit(3).unitary(gate, [2, 0])
    expected = np.stack(
        [StatevectorSimulator().run(sim_gate, initial_state=states[:, b]).amplitudes for b in range(2)],
        axis=1,
    )
    np.testing.assert_allclose(out, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# Fusion pass
# ---------------------------------------------------------------------------


def test_fusion_collapses_repetition_chains():
    """A repeated fixed-support run (the QPE power-by-repetition shape)
    collapses to a single gate per support block."""
    rng = np.random.default_rng(3)
    circ = QuantumCircuit(3)
    u = _random_unitary(rng, 2)
    for _ in range(16):
        circ.unitary(u, [0, 1])
    fused = fuse_circuit(circ, max_fuse_qubits=2)
    assert len(fused) == 1
    np.testing.assert_allclose(fused[0].matrix, matrix_power_unitary(u, 16), atol=1e-10)


def test_fusion_respects_the_window_and_order():
    rng = np.random.default_rng(4)
    circ = _random_circuit(rng, 5, num_gates=20, max_gate_qubits=2)
    for window in (1, 2, 3):
        fused = fuse_circuit(circ, max_fuse_qubits=window)
        assert all(gate.num_qubits <= max(window, 2) for gate in fused)
        for gate in fused:
            assert is_unitary(gate.matrix, atol=1e-9)
        # Semantics preserved: same final state.
        states = _random_states(rng, 5, batch=2)
        reference = EnsembleExecutor(fuse=False).run(circ, states)
        via_window = EnsembleExecutor(fuse=True, max_fuse_qubits=window).run(circ, states)
        np.testing.assert_allclose(via_window, reference, atol=1e-11)


def test_wide_gates_pass_through_and_split_blocks():
    rng = np.random.default_rng(5)
    circ = QuantumCircuit(4)
    a, big, b = _random_unitary(rng, 1), _random_unitary(rng, 3), _random_unitary(rng, 1)
    circ.unitary(a, [0]).unitary(big, [0, 1, 2]).unitary(b, [0])
    fused = fuse_circuit(circ, max_fuse_qubits=2)
    # The 3-qubit gate is an order barrier: nothing may commute across it.
    assert len(fused) == 3
    assert fused[1].matrix is big or np.array_equal(fused[1].matrix, big)


def test_fusion_cache_is_keyed_by_circuit_fingerprint():
    clear_fusion_cache()
    rng = np.random.default_rng(6)
    circ = _random_circuit(rng, 3, num_gates=8)
    fuse_circuit(circ, max_fuse_qubits=2)
    info = fusion_cache_info()
    assert (info["hits"], info["misses"], info["entries"]) == (0, 1, 1)
    assert info["bytes"] > 0
    # A structurally identical copy hits the cache; a different window misses.
    fuse_circuit(circ.copy(), max_fuse_qubits=2)
    assert fusion_cache_info()["hits"] == 1
    fuse_circuit(circ, max_fuse_qubits=3)
    assert fusion_cache_info()["misses"] == 2
    clear_fusion_cache()
    assert fusion_cache_info() == {"hits": 0, "misses": 0, "entries": 0, "bytes": 0}


def test_fusion_cache_byte_budget_evicts_and_skips_oversize(monkeypatch):
    import repro.quantum.fusion as fusion

    clear_fusion_cache()
    rng = np.random.default_rng(14)
    circuits = [_random_circuit(np.random.default_rng(s), 3, num_gates=6) for s in range(3)]
    plan_sizes = [fusion._plan_bytes(fuse_circuit(c, 2)) for c in circuits]
    clear_fusion_cache()
    # Budget holds roughly one plan: inserting three must evict, never grow
    # past the budget, and an oversize plan must not be cached at all.
    monkeypatch.setattr(fusion, "FUSION_CACHE_MAX_BYTES", max(plan_sizes) + 1)
    for c in circuits:
        fuse_circuit(c, 2)
        assert fusion_cache_info()["bytes"] <= max(plan_sizes) + 1
    assert fusion_cache_info()["entries"] < 3
    monkeypatch.setattr(fusion, "FUSION_CACHE_MAX_BYTES", 1)
    clear_fusion_cache()
    plan = fuse_circuit(circuits[0], 2)
    assert len(plan) > 0  # caller still gets the plan
    assert fusion_cache_info()["entries"] == 0  # but nothing was pinned


def test_paper_scale_qtda_plan_is_cached_under_the_budget():
    """A q=6, t=4 QTDA circuit (the ensemble route's circuit) fits the byte
    budget, so a warm run at that size re-plans nothing."""
    import repro.quantum.fusion as fusion
    from repro.core.hamiltonian import build_hamiltonian
    from repro.core.qtda_circuit import qtda_circuit

    basis = np.random.default_rng(2023).standard_normal((48, 46))
    laplacian = basis @ basis.T  # 48 simplices, padded to 2^6
    hamiltonian = build_hamiltonian((laplacian + laplacian.T) / 2.0, delta=6.0)
    circuit, spec = qtda_circuit(
        hamiltonian, precision_qubits=4, use_purification=False, power_synthesis="spectral"
    )
    assert (spec.system_qubits, circuit.num_qubits) == (6, 10)
    clear_fusion_cache()
    plan = fuse_circuit(circuit)
    assert fusion._plan_bytes(plan) <= fusion.FUSION_CACHE_MAX_BYTES
    assert fuse_circuit(circuit) is plan  # the second call is a cache hit
    info = fusion_cache_info()
    assert (info["hits"], info["misses"], info["entries"]) == (1, 1, 1)
    clear_fusion_cache()


def test_circuit_fingerprint_tracks_content_not_identity():
    rng = np.random.default_rng(8)
    u = _random_unitary(rng, 1)
    a = QuantumCircuit(2).unitary(u, [0]).unitary(u, [1])
    b = QuantumCircuit(2).unitary(u.copy(), [0]).unitary(u.copy(), [1])
    c = QuantumCircuit(2).unitary(u, [1]).unitary(u, [0])
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()


# ---------------------------------------------------------------------------
# Ensemble readout
# ---------------------------------------------------------------------------


def test_ensemble_marginal_matches_per_member_average():
    rng = np.random.default_rng(9)
    n, batch = 4, 5
    states = _random_states(rng, n, batch)
    weights = rng.random(batch)
    weights = weights / weights.sum()
    for qubits in ([0, 1], [3, 1], [2]):
        batched = ensemble_marginal_probabilities(states, n, qubits, weights=weights)
        looped = sum(
            w * marginal_probabilities(born_probabilities(states[:, b]), n, qubits)
            for b, w in enumerate(weights)
        )
        np.testing.assert_allclose(batched, looped, atol=1e-12)


def test_basis_ensemble_distribution_is_chunking_invariant():
    rng = np.random.default_rng(10)
    n = 4
    circuit = _random_circuit(rng, n, num_gates=10)
    wide = EnsembleExecutor(fuse=True)
    assert wide.max_batch(n) >= 2**n  # the default budget holds the whole ensemble
    narrow = EnsembleExecutor(fuse=True, memory_budget_bytes=(2**n) * 16 * 3)
    assert narrow.max_batch(n) == 3  # forces ceil(16/3) = 6 chunks
    full = wide.basis_ensemble_distribution(circuit, [0, 1], range(2**n))
    chunked = narrow.basis_ensemble_distribution(circuit, [0, 1], range(2**n))
    np.testing.assert_allclose(chunked, full, atol=1e-13)
    assert full.shape == (4,)
    assert full.sum() == pytest.approx(1.0)


def test_basis_ensemble_distribution_validates_input():
    circuit = QuantumCircuit(2).h(0)
    executor = EnsembleExecutor()
    with pytest.raises(ValueError):
        executor.basis_ensemble_distribution(circuit, [0], [])
    with pytest.raises(ValueError):
        executor.basis_ensemble_distribution(circuit, [0], [4])
    with pytest.raises(ValueError):
        executor.basis_ensemble_distribution(circuit, [0], [0, 1], weights=[1.0])
    with pytest.raises(ValueError, match="positive sum"):
        executor.basis_ensemble_distribution(circuit, [0], [0, 1], weights=[0.0, 0.0])


# ---------------------------------------------------------------------------
# Array-module seam
# ---------------------------------------------------------------------------


def test_array_module_seam_defaults_and_overrides():
    xp = array_module()
    assert hasattr(xp, "tensordot")  # numpy here; cupy when a GPU is present

    class FakeModule:
        pass

    try:
        set_array_module(FakeModule)
        assert array_module() is FakeModule
    finally:
        set_array_module(None)
    assert array_module() is xp
    assert isinstance(to_host(np.arange(3)), np.ndarray)


# ---------------------------------------------------------------------------
# Spectral controlled powers (the one-eigendecomposition QPE satellite)
# ---------------------------------------------------------------------------


def test_spectral_unitary_powers_match_matrix_powers():
    rng = np.random.default_rng(12)
    h = rng.standard_normal((8, 8))
    h = (h + h.T) / 2.0
    from scipy.linalg import expm

    u = expm(1j * h)
    spectral_h = SpectralUnitary.from_hermitian(h)
    spectral_u = SpectralUnitary.from_unitary(u)
    for power in (1, 2, 4, 8):
        expected = matrix_power_unitary(u, power)
        np.testing.assert_allclose(spectral_h.power(power), expected, atol=1e-10)
        np.testing.assert_allclose(spectral_u.power(power), expected, atol=1e-10)


def test_phase_estimation_spectral_synthesis_matches_chain():
    rng = np.random.default_rng(13)
    u = _random_unitary(rng, 2)
    chain = phase_estimation_circuit(u, num_precision=3)
    spectral = phase_estimation_circuit(u, num_precision=3, power_synthesis="spectral")
    sim = StatevectorSimulator()
    init = np.zeros(2**5, dtype=complex)
    init[3] = 1.0
    p_chain = sim.probabilities(chain, initial_state=init, qubits=[0, 1, 2])
    p_spectral = sim.probabilities(spectral, initial_state=init, qubits=[0, 1, 2])
    np.testing.assert_allclose(p_spectral, p_chain, atol=1e-10)
    with pytest.raises(ValueError):
        phase_estimation_circuit(u, num_precision=3, power_synthesis="bogus")
