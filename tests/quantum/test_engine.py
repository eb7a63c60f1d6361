"""Property tests for the batched execution engine and the fusion pass.

The contract under test (DESIGN.md §11): evolving an ensemble column by
column through the single-state :class:`StatevectorSimulator` and evolving
it as one ``(2^n, B)`` array through the :class:`EnsembleExecutor` are the
same computation — batched, fused, chunked or not.
"""

import numpy as np
import pytest

from repro.quantum.channels import NoiseSpec
from repro.quantum.circuit import QuantumCircuit
import repro.quantum.engine as engine
from repro.quantum.engine import (
    DEFAULT_MEMORY_BUDGET_BYTES,
    EnsembleExecutor,
    apply_controlled_block_to_ensemble,
    apply_gate_to_ensemble,
)
import repro.quantum.fusion as fusion
from repro.quantum.fusion import (
    clear_fusion_cache,
    clear_ptm_cache,
    fuse_circuit,
    fuse_ptm_program,
    fusion_cache_info,
    ptm_cache_info,
)
from repro.quantum.gates import controlled, controlled_block, is_unitary, matrix_power_unitary
from repro.quantum.measurement import (
    born_probabilities,
    ensemble_member_marginal_probabilities,
    marginal_probabilities,
)
from repro.quantum.ptm import WideUnitaryOp
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
# Controlled-block kernel: U = I (+) V acts on the control's |1> half only
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", [4, 5, 6])
@pytest.mark.parametrize("where", ["control-first", "control-mid"])
def test_controlled_block_kernel_matches_the_dense_kernel(q, where):
    rng = np.random.default_rng(40 + q)
    n = q + 2
    v = _random_unitary(rng, q)
    u = controlled(v)
    if where == "control-first":
        qubits = [0] + list(range(2, q + 2))
    else:
        # Control mid-register, targets on both sides of it and permuted.
        others = [i for i in range(n) if i != 3]
        qubits = [3] + list(rng.permutation(others)[:q])
    states = _random_states(rng, n, batch=5)
    block = controlled_block(u)
    assert block is not None and np.array_equal(block, v)
    fast = apply_controlled_block_to_ensemble(states, block, qubits, n)
    dense = apply_gate_to_ensemble(states, u, qubits, n)
    np.testing.assert_allclose(fast, dense, rtol=0, atol=1e-12)
    # The control's |0> half is copied, not recomputed.
    control_zero = (np.arange(2**n) >> (n - 1 - qubits[0]) & 1) == 0
    assert np.array_equal(fast[control_zero], states[control_zero])


def test_only_wide_gates_with_controlled_structure_take_the_block_path(monkeypatch):
    rng = np.random.default_rng(5)
    n = 6
    circuit = QuantumCircuit(n)
    circuit.h(0)
    circuit.unitary(controlled(_random_unitary(rng, 4)), [1, 2, 3, 4, 5], name="c-U")
    circuit.unitary(_random_unitary(rng, 5), [0, 2, 3, 4, 5], name="W")
    circuit.unitary(controlled(_random_unitary(rng, 1)), [0, 1], name="c-small")
    executor = EnsembleExecutor(fuse=False)
    blocks = [block is not None for _, _, block in executor._prepare(circuit.gates)]
    # Only the wide controlled power has a block; a wide gate without the
    # structure and a controlled gate inside the fusion window stay dense.
    assert blocks == [False, True, False, False]
    calls = {"block": 0, "dense": 0}
    block_kernel = engine.apply_controlled_block_to_ensemble
    dense_kernel = engine.apply_gate_to_ensemble

    def count_block(*args):
        calls["block"] += 1
        return block_kernel(*args)

    def count_dense(*args):
        calls["dense"] += 1
        return dense_kernel(*args)

    monkeypatch.setattr(engine, "apply_controlled_block_to_ensemble", count_block)
    monkeypatch.setattr(engine, "apply_gate_to_ensemble", count_dense)
    states = _random_states(rng, n, batch=3)
    out = executor.run(circuit, states)
    assert calls == {"block": 1, "dense": 3}
    monkeypatch.undo()
    expected = states
    for gate in circuit.gates:
        expected = apply_gate_to_ensemble(expected, gate.matrix, gate.qubits, n)
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)


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


def test_fusion_cache_is_keyed_by_segment_content():
    """Gates wider than the window cut the plan into segments, each cached
    per content: a circuit that differs only in its wide gate hits every
    segment and gets its own wide gate back; a different window misses."""
    clear_fusion_cache()
    rng = np.random.default_rng(6)
    a, b = _random_unitary(rng, 2), _random_unitary(rng, 2)

    def circuit(wide):
        circ = QuantumCircuit(4)
        circ.unitary(a, [0, 1]).unitary(b, [1, 2]).unitary(wide, [0, 1, 2])
        return circ.unitary(b, [2, 3]).unitary(a, [3, 1])

    first = fuse_circuit(circuit(_random_unitary(rng, 3)), max_fuse_qubits=2)
    info = fusion_cache_info()
    assert (info["hits"], info["misses"], info["entries"]) == (0, 2, 2)
    assert info["bytes"] == sum(gate.matrix.nbytes for gate in first if gate.num_qubits <= 2)
    wide = _random_unitary(rng, 3)
    second = fuse_circuit(circuit(wide), max_fuse_qubits=2)
    assert fusion_cache_info()["hits"] == 2
    (passed,) = [gate.matrix for gate in second if gate.num_qubits == 3]
    assert passed is wide
    assert all(x is y for x, y in zip(first, second) if x.num_qubits <= 2)
    # With a window of 3 nothing is wide: one new segment.
    fuse_circuit(circuit(wide), max_fuse_qubits=3)
    assert fusion_cache_info()["misses"] == 3
    clear_fusion_cache()
    assert fusion_cache_info() == {"hits": 0, "misses": 0, "entries": 0, "bytes": 0}


def _fuse_plan(circuit):
    return fuse_circuit(circuit, 2)


def _fuse_noisy_program(circuit):
    return fuse_ptm_program(circuit, NoiseSpec(channel="depolarizing", strength=0.01), 2)


@pytest.mark.parametrize(
    "fuse, cache, size_of, info",
    [
        (
            _fuse_plan,
            fusion._PLAN_CACHE,
            lambda plan: sum(gate.matrix.nbytes for gate in plan),
            fusion_cache_info,
        ),
        (_fuse_noisy_program, fusion._PTM_CACHE, lambda program: program.nbytes(), ptm_cache_info),
    ],
    ids=["plan", "ptm"],
)
def test_fusion_cache_byte_budget_evicts_and_skips_oversize(monkeypatch, fuse, cache, size_of, info):
    cache.clear()
    circuits = [_random_circuit(np.random.default_rng(s), 3, num_gates=6) for s in range(3)]
    sizes = [size_of(fuse(c)) for c in circuits]
    cache.clear()
    # Budget holds roughly one entry: inserting three must evict, never grow
    # past the budget, and an oversize entry must not be cached at all.
    monkeypatch.setattr(cache, "max_bytes", max(sizes) + 1)
    for c in circuits:
        fuse(c)
        assert info()["bytes"] <= max(sizes) + 1
    assert info()["entries"] < 3
    monkeypatch.setattr(cache, "max_bytes", 1)
    cache.clear()
    assert size_of(fuse(circuits[0])) > 1  # caller still gets the result
    assert info()["entries"] == 0  # but nothing was pinned


def test_new_paper_scale_cloud_hits_every_laplacian_independent_segment():
    """At q=6, t=4 every controlled power is wider than the window, so each
    small gate and channel is the same for every cloud: a second cloud hits
    every segment of both caches, and neither cache holds a wide matrix."""
    from repro.core.hamiltonian import build_hamiltonian
    from repro.core.qtda_circuit import qtda_circuit

    def paper_scale_circuit(seed):
        basis = np.random.default_rng(seed).standard_normal((48, 46))
        laplacian = basis @ basis.T  # 48 simplices, padded to 2^6
        hamiltonian = build_hamiltonian((laplacian + laplacian.T) / 2.0, delta=6.0)
        circuit, spec = qtda_circuit(
            hamiltonian, precision_qubits=4, use_purification=False, power_synthesis="spectral"
        )
        assert (spec.system_qubits, circuit.num_qubits) == (6, 10)
        return circuit

    spec = NoiseSpec(channel="depolarizing", strength=0.01)
    first, second = paper_scale_circuit(2023), paper_scale_circuit(2024)
    clear_fusion_cache()
    clear_ptm_cache()
    fuse_circuit(first)
    fuse_ptm_program(first, spec)
    plan_lookups, ptm_lookups = fusion_cache_info()["misses"], ptm_cache_info()["misses"]
    plan = fuse_circuit(second)
    program = fuse_ptm_program(second, spec)
    assert fusion_cache_info()["misses"] == plan_lookups
    assert fusion_cache_info()["hits"] == plan_lookups
    assert ptm_cache_info()["misses"] == ptm_lookups
    assert ptm_cache_info()["hits"] == ptm_lookups
    # The wide gates are the second circuit's own.
    wide = [gate.matrix for gate in second.gates if gate.num_qubits > 3]
    assert len(wide) == 4
    plan_wide = [gate.matrix for gate in plan if gate.num_qubits > 3]
    program_wide = [op.matrix for op in program.ops if isinstance(op, WideUnitaryOp)]
    assert all(x is y for x, y in zip(plan_wide, wide)) and len(plan_wide) == 4
    assert all(x is y for x, y in zip(program_wide, wide)) and len(program_wide) == 4
    for cache, dimension in ((fusion._PLAN_CACHE, 2**3), (fusion._PTM_CACHE, 4**3)):
        for ops, _ in cache._store.values():
            assert all(op.matrix.shape[0] <= dimension for op in ops)
    clear_fusion_cache()
    clear_ptm_cache()


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
        batched = ensemble_member_marginal_probabilities(states, n, qubits) @ weights
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
    spec = NoiseSpec(channel="depolarizing", strength=0.01)
    with pytest.raises(ValueError, match="match basis_states"):
        executor.trajectory_basis_distribution(
            circuit, [0], [0, 1], spec, np.random.default_rng(0), weights=[1.0]
        )


def test_weighted_trajectory_run_is_reproducible_and_honours_weights():
    n = 3
    circuit = _random_circuit(np.random.default_rng(2), n, num_gates=6)
    basis = list(range(2**n))
    weights = list(np.random.default_rng(3).random(len(basis)))
    executor = EnsembleExecutor(fuse=False)
    spec = NoiseSpec(channel="bit-flip", strength=0.05)
    runs = [
        executor.trajectory_basis_distribution(
            circuit, [0, 2], basis, spec, np.random.default_rng(21), n_trajectories=5,
            weights=weights,
        )
        for _ in range(2)
    ]
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])
    # Without noise every trajectory is the weighted ensemble readout.
    mean, sem = executor.trajectory_basis_distribution(
        circuit, [0, 2], basis, NoiseSpec(), np.random.default_rng(21), n_trajectories=3,
        weights=weights,
    )
    expected = executor.basis_ensemble_distribution(circuit, [0, 2], basis, weights=weights)
    np.testing.assert_allclose(mean, expected, atol=1e-12)
    np.testing.assert_allclose(sem, 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Host independence
# ---------------------------------------------------------------------------


def _route_distributions():
    """Readouts of the appendix example on the ensemble, trajectory and ptm routes."""
    from repro.core.backends import EstimationProblem
    from repro.core.backends.statevector import circuit_backend_result
    from repro.core.config import QTDAConfig
    from repro.experiments.worked_example import appendix_complex
    from repro.tda.laplacian import combinatorial_laplacian

    problem = EstimationProblem(laplacian=combinatorial_laplacian(appendix_complex(), 1))
    noisy = dict(noise_channel="depolarizing", noise_strength=0.03, n_trajectories=3, seed=5)
    configs = {
        "ensemble": QTDAConfig(precision_qubits=3, circuit_engine="ensemble"),
        "trajectory": QTDAConfig(precision_qubits=3, circuit_engine="trajectory", **noisy),
        "ptm": QTDAConfig(precision_qubits=3, circuit_engine="ptm", **noisy),
    }
    results = {
        route: circuit_backend_result(problem, config, "exact") for route, config in configs.items()
    }
    assert {route: r.route["engine_route"] for route, r in results.items()} == {r: r for r in configs}
    return {route: r.distribution for route, r in results.items()}


@pytest.mark.parametrize("value", ["cupy", "torch"])
def test_host_environment_cannot_change_an_answer(monkeypatch, value):
    """Every route runs on NumPy: an array-module request in the environment
    is ignored, and each readout keeps its bytes."""
    monkeypatch.delenv("REPRO_ARRAY_MODULE", raising=False)
    expected = _route_distributions()
    monkeypatch.setenv("REPRO_ARRAY_MODULE", value)
    got = _route_distributions()
    for route, distribution in expected.items():
        assert np.array_equal(got[route], distribution), route


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
    spectral = phase_estimation_circuit(SpectralUnitary.from_unitary(u), num_precision=3)
    sim = StatevectorSimulator()
    init = np.zeros(2**5, dtype=complex)
    init[3] = 1.0
    p_chain = sim.probabilities(chain, initial_state=init, qubits=[0, 1, 2])
    p_spectral = sim.probabilities(spectral, initial_state=init, qubits=[0, 1, 2])
    np.testing.assert_allclose(p_spectral, p_chain, atol=1e-10)
