"""Property tests for the Liouville superoperator layer (DESIGN.md §16).

Three algebraic laws pin the superoperator construction itself:

* every CPTP channel's superoperator is trace-preserving,
  ``vec(I)ᵀ S = vec(I)ᵀ``;
* every unitary gate's superoperator ``U ⊗ Ū`` is unitary;
* superoperators compose by matrix product — ``S(A ∘ B) = S(A) @ S(B)`` on
  random circuits, also after embedding into a larger register.

The rest locks down the execution machinery against the density oracle: the
wide-unitary conjugation (controlled fast path included), the embedding,
program fusion against the density route's gate-then-Kraus walk, the exact
join / trace-out / light-cone skip rules of the evolution, per-channel
memoisation and the program cache.
"""

import numpy as np
import pytest

import repro.quantum.ptm as ptm_module
from repro.quantum.channels import (
    NOISE_CHANNELS,
    TWO_QUBIT_NOISE_CHANNELS,
    NoiseSpec,
    QuantumChannel,
)
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.density_matrix import DensityMatrix, DensityMatrixSimulator
from repro.quantum.fusion import (
    _embed_ptm,
    clear_ptm_cache,
    fuse_ptm_program,
    ptm_cache_info,
)
from repro.quantum.noise import NoiseModel
from repro.quantum.ptm import (
    PTMExecutor,
    apply_superop,
    apply_unitary_to_pauli_ensemble,
    channel_content_key,
    channel_superop,
    clear_ptm_memo,
    controlled_block,
    gate_superop,
    ptm_memo_info,
    superop_from_kraus,
)

#: ``vec(I)`` in the per-qubit ``2 r + c`` digit order.
_VEC_IDENTITY_1Q = np.array([1.0, 0.0, 0.0, 1.0])


def _vec_identity(k):
    out = np.ones(1)
    for _ in range(k):
        out = np.kron(out, _VEC_IDENTITY_1Q)
    return out


def _random_unitary(rng, k):
    m = rng.standard_normal((2**k, 2**k)) + 1j * rng.standard_normal((2**k, 2**k))
    q, _ = np.linalg.qr(m)
    return q


def _random_density(rng, n):
    a = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def _to_tensor(rho, n):
    """Density matrix -> Liouville tensor (row bit, col bit per qubit)."""
    tensor = rho.reshape((2,) * (2 * n))
    return tensor.transpose([axis for q in range(n) for axis in (q, n + q)])


def _from_tensor(tensor, n):
    order = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return np.asarray(tensor).transpose(order).reshape(2**n, 2**n)


def _product(states):
    out = np.ones((1, 1), dtype=complex)
    for state in states:
        out = np.kron(out, state)
    return out


def _assert_matches_oracle(circ, spec, keep, states, max_fuse_qubits=3):
    """The reduced state over ``keep`` equals the density oracle's to 1e-12."""
    program = fuse_ptm_program(circ, noise_spec=spec, max_fuse_qubits=max_fuse_qubits)
    got = PTMExecutor(max_fuse_qubits=max_fuse_qubits).reduced_state(program, states, keep)
    noise_model = None if spec is None else NoiseModel.from_spec(spec)
    final = DensityMatrixSimulator(noise_model).run(circ, initial_state=_product(states))
    want = final.partial_trace(keep).matrix
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.max(np.abs(np.diagonal(got).real - final.marginal_probabilities(keep))) <= 1e-12
    return program


# ---------------------------------------------------------------------------
# Algebraic laws of the superoperator construction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", NOISE_CHANNELS + TWO_QUBIT_NOISE_CHANNELS)
@pytest.mark.parametrize("strength", [0.0, 0.05, 0.7, 1.0])
def test_cptp_channel_ptm_is_trace_preserving(name, strength):
    """Trace preservation == ``vec(I)ᵀ S = vec(I)ᵀ``."""
    channel = QuantumChannel.from_name(name, strength)
    superop = superop_from_kraus(channel.kraus_ops)
    dim = 4**channel.arity
    assert superop.shape == (dim, dim)
    trace_row = _vec_identity(channel.arity)
    assert np.allclose(trace_row @ superop, trace_row, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("k", [1, 2])
def test_unitary_gate_ptm_is_orthogonal(seed, k):
    """A unitary gate's superoperator ``U ⊗ Ū`` is unitary (the Liouville
    counterpart of an orthogonal PTM)."""
    u = _random_unitary(np.random.default_rng(seed), k)
    superop = gate_superop(u)
    dim = 4**k
    assert np.allclose(superop @ superop.conj().T, np.eye(dim), atol=1e-12)
    assert np.allclose(superop.conj().T @ superop, np.eye(dim), atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_ptm_composition_is_matrix_product(seed):
    """``S(A ∘ B) = S(A) @ S(B)`` on random same-support pairs."""
    rng = np.random.default_rng(seed)
    for k in (1, 2):
        a = _random_unitary(rng, k)
        b = _random_unitary(rng, k)
        assert np.allclose(gate_superop(a @ b), gate_superop(a) @ gate_superop(b), atol=1e-12)
    # ...and with a channel in the middle: S(E_a ∘ N ∘ E_b).
    noise = QuantumChannel.from_name("amplitude-damping", 0.1)
    a, b = _random_unitary(rng, 1), _random_unitary(rng, 1)
    composed = [a @ k @ b for k in noise.kraus_ops]
    assert np.allclose(
        superop_from_kraus(composed),
        gate_superop(a) @ superop_from_kraus(noise.kraus_ops) @ gate_superop(b),
        atol=1e-12,
    )


def test_superop_acts_as_the_channel_on_a_density_matrix():
    rng = np.random.default_rng(4)
    rho = _random_density(rng, 2)
    channel = QuantumChannel.from_name("correlated-zz", 0.3)
    want = sum(k @ rho @ k.conj().T for k in channel.kraus_ops)
    got = apply_superop(_to_tensor(rho, 2), channel_superop(channel), [0, 1])
    assert np.allclose(_from_tensor(got, 2), want, atol=1e-14)


@pytest.mark.parametrize("seed", [0, 1])
def test_random_circuit_ptm_homomorphism(seed):
    """The product of embedded gate superoperators equals the superoperator
    of the circuit unitary — composition survives embedding."""
    rng = np.random.default_rng(seed)
    n = 3
    circ = QuantumCircuit(n)
    program = np.eye(4**n, dtype=complex)
    for _ in range(4):
        k = int(rng.integers(1, 3))
        qubits = tuple(int(q) for q in rng.choice(n, size=k, replace=False))
        u = _random_unitary(rng, k)
        circ.unitary(u, list(qubits))
        program = _embed_ptm(gate_superop(u), qubits, tuple(range(n))) @ program
    total = np.eye(2**n, dtype=complex)
    # Reference: the circuit unitary, each gate embedded by direct summation.
    for gate in circ.gates:
        total = _embed_unitary(gate.matrix, gate.qubits, n) @ total
    assert np.allclose(program, gate_superop(total), atol=1e-10)


def _embed_unitary(matrix, qubits, n):
    """Embed a gate by direct summation over basis states (order-agnostic)."""
    k = len(qubits)
    full = np.zeros((2**n, 2**n), dtype=complex)
    for col in range(2**n):
        bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        local_col = 0
        for q in qubits:
            local_col = (local_col << 1) | bits[q]
        for local_row in range(2**k):
            amp = matrix[local_row, local_col]
            if amp == 0:
                continue
            new_bits = list(bits)
            for j, q in enumerate(qubits):
                new_bits[q] = (local_row >> (k - 1 - j)) & 1
            row = sum(b << (n - 1 - q) for q, b in enumerate(new_bits))
            full[row, col] += amp
    return full


def _embed_by_identity_application(matrix, qubits, support):
    """The earlier embedding: apply the superoperator to the ``4^s``
    identity viewed as an ensemble of basis vectors."""
    positions = [support.index(q) for q in qubits]
    k, s = len(qubits), len(support)
    tensor = np.eye(4**s, dtype=complex).reshape([4] * s + [4**s])
    op = np.asarray(matrix, dtype=complex).reshape([4] * (2 * k))
    tensor = np.tensordot(op, tensor, axes=(list(range(k, 2 * k)), positions))
    tensor = np.moveaxis(tensor, list(range(k)), positions)
    return np.ascontiguousarray(tensor).reshape(4**s, 4**s)


@pytest.mark.parametrize("seed", range(6))
def test_embedding_is_bit_identical_to_identity_application(seed):
    rng = np.random.default_rng(seed)
    s = int(rng.integers(2, 4))
    support = tuple(sorted(int(q) for q in rng.choice(6, size=s, replace=False)))
    k = int(rng.integers(1, s))
    qubits = tuple(int(q) for q in rng.choice(support, size=k, replace=False))
    matrix = rng.standard_normal((4**k, 4**k)) + 1j * rng.standard_normal((4**k, 4**k))
    got = _embed_ptm(matrix, qubits, support)
    assert np.array_equal(got, _embed_by_identity_application(matrix, qubits, support))


# ---------------------------------------------------------------------------
# Wide-unitary conjugation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1])
def test_wide_unitary_application_matches_density_conjugation(seed):
    rng = np.random.default_rng(seed)
    n = 3
    rho = _random_density(rng, n)
    u = _random_unitary(rng, 2)
    # The unitary on qubits (2, 0), qubit 1 a spectator.
    out = apply_unitary_to_pauli_ensemble(_to_tensor(rho, n), u, [2, 0])
    full = _embed_unitary(u, (2, 0), n)
    assert np.allclose(_from_tensor(out, n), full @ rho @ full.conj().T, atol=1e-12)


def test_controlled_fast_path_matches_generic_path():
    rng = np.random.default_rng(7)
    n = 3
    v = _random_unitary(rng, 2)
    u = np.eye(8, dtype=complex)
    u[4:, 4:] = v
    block = controlled_block(u)
    assert block is not None and np.array_equal(block, v)
    tensor = _to_tensor(_random_density(rng, n), n)
    generic = apply_unitary_to_pauli_ensemble(tensor, u, [0, 1, 2])
    fast = apply_unitary_to_pauli_ensemble(tensor, u, [0, 1, 2], block=block)
    assert np.allclose(generic, fast, atol=1e-14)
    # A generic unitary has no controlled block.
    assert controlled_block(_random_unitary(rng, 3)) is None


# ---------------------------------------------------------------------------
# Channel superoperator memoisation (per content, not identity)
# ---------------------------------------------------------------------------


def test_channel_ptm_is_memoised_per_content():
    clear_ptm_memo()
    a = QuantumChannel.from_name("depolarizing", 0.1)
    b = QuantumChannel.from_name("depolarizing", 0.1)  # distinct object, same content
    c = QuantumChannel.from_name("depolarizing", 0.2)
    assert channel_content_key(a) == channel_content_key(b)
    assert channel_content_key(a) != channel_content_key(c)
    first = channel_superop(a)
    second = channel_superop(b)
    third = channel_superop(c)
    assert first is second  # the memo returns the same array object
    assert not np.allclose(first, third)
    assert not first.flags.writeable
    info = ptm_memo_info()
    assert info["hits"] == 1
    assert info["misses"] == 2
    assert info["entries"] == 2


# ---------------------------------------------------------------------------
# Program fusion and execution vs the density oracle
# ---------------------------------------------------------------------------


def _random_states(rng, n):
    return [_random_density(rng, 1) for _ in range(n)]


def _random_circuit(rng, n, gates, qubits=None):
    pool = list(range(n)) if qubits is None else list(qubits)
    circ = QuantumCircuit(n)
    for _ in range(gates):
        k = int(rng.integers(1, 3))
        targets = [int(q) for q in rng.choice(pool, size=k, replace=False)]
        circ.unitary(_random_unitary(rng, k), targets, name="U" if k == 1 else "CU")
    return circ


_MIXED_SPEC = NoiseSpec(
    channel="depolarizing",
    strength=0.02,
    gate_strengths={"CU": 0.05},
    two_qubit_channel="correlated-zz",
    two_qubit_strength=0.01,
)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fused_program_matches_density_walk_on_random_circuits(seed):
    rng = np.random.default_rng(seed)
    n = 4
    circ = _random_circuit(rng, n, 6)
    clear_ptm_cache()
    program = _assert_matches_oracle(circ, _MIXED_SPEC, list(range(n)), _random_states(rng, n))
    assert program.num_superops > 0
    # Fusion compresses: fewer superoperators than (gates + channels).
    assert program.num_superops < program.source_ops


def test_fused_program_handles_wide_gates_and_noise_free_circuits():
    rng = np.random.default_rng(5)
    n = 4
    circ = QuantumCircuit(n)
    circ.unitary(_random_unitary(rng, 1), [0])
    wide = np.eye(16, dtype=complex)
    wide[8:, 8:] = _random_unitary(rng, 3)
    circ.unitary(wide, [0, 1, 2, 3], name="c-U^1")
    circ.unitary(_random_unitary(rng, 2), [2, 3])
    spec = NoiseSpec(channel="amplitude-damping", strength=0.03)
    states = _random_states(rng, n)
    program = _assert_matches_oracle(circ, spec, list(range(n)), states)
    assert program.num_wide == 1
    # Noise-free program works too (spec=None), and on a sub-register.
    _assert_matches_oracle(circ, None, list(range(n)), states)
    _assert_matches_oracle(circ, spec, [3, 1], states)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("keep", [[0, 2], [4, 1], [2]])
def test_untouched_qubit_is_exact(seed, keep):
    """Qubit 4 is touched by no op: it never joins unless measured, and then
    reads out its input state."""
    rng = np.random.default_rng(seed)
    n = 5
    circ = _random_circuit(rng, n, 6, qubits=range(4))
    _assert_matches_oracle(circ, _MIXED_SPEC, keep, _random_states(rng, n))


@pytest.mark.parametrize("max_fuse_qubits", [1, 2, 3])
def test_unmeasured_qubit_ending_in_amplitude_damping_is_exact(max_fuse_qubits, monkeypatch):
    """Qubit 2 is unmeasured and its last ops are the non-unital (but
    trace-preserving) amplitude-damping channel: the light-cone skip and the
    trace-out stay exact."""
    rng = np.random.default_rng(21)
    n = 3
    circ = QuantumCircuit(n)
    circ.unitary(_random_unitary(rng, 2), [0, 1], name="U2")
    circ.unitary(_random_unitary(rng, 2), [1, 2], name="CU")
    circ.unitary(_random_unitary(rng, 2), [0, 1], name="U2")
    spec = NoiseSpec(channel="amplitude-damping", strength=0.0, gate_strengths={"CU": 0.3})
    states = _random_states(rng, n)
    calls = []
    original = ptm_module.apply_superop

    def counting(tensor, superop, positions, xp=np):
        calls.append(tuple(positions))
        return original(tensor, superop, positions, xp=xp)

    monkeypatch.setattr(ptm_module, "apply_superop", counting)
    program = _assert_matches_oracle(circ, spec, [0, 1], states, max_fuse_qubits=max_fuse_qubits)
    if max_fuse_qubits == 1:
        # Both two-qubit gates are wide; the damping on qubit 2 stands alone
        # after qubit 2 interacts with nothing measured again: skipped.
        assert [op.qubits for op in program.ops if not hasattr(op, "block")] == [(1,), (2,)]
        assert len(calls) == 1


def test_measured_qubit_touched_only_at_the_start_is_exact():
    rng = np.random.default_rng(8)
    n = 4
    circ = QuantumCircuit(n)
    circ.unitary(_random_unitary(rng, 1), [0], name="U")
    circ.unitary(_random_unitary(rng, 2), [0, 1], name="CU")
    for _ in range(5):
        targets = [int(q) for q in rng.choice([1, 2, 3], size=2, replace=False)]
        circ.unitary(_random_unitary(rng, 2), targets, name="CU")
    spec = NoiseSpec(channel="phase-flip", strength=0.04)
    states = _random_states(rng, n)
    _assert_matches_oracle(circ, spec, [0, 3], states)
    _assert_matches_oracle(circ, spec, [0], states, max_fuse_qubits=2)


@pytest.mark.parametrize("two_qubit_channel", TWO_QUBIT_NOISE_CHANNELS)
@pytest.mark.parametrize("seed", [0, 1])
def test_two_qubit_correlated_channel_is_exact(two_qubit_channel, seed):
    rng = np.random.default_rng(seed)
    n = 4
    circ = _random_circuit(rng, n, 8)
    spec = NoiseSpec(
        channel="bit-flip",
        strength=0.01,
        two_qubit_channel=two_qubit_channel,
        two_qubit_strength=0.05,
    )
    states = _random_states(rng, n)
    _assert_matches_oracle(circ, spec, [1, 3], states)
    _assert_matches_oracle(circ, spec, [0, 1, 2, 3], states, max_fuse_qubits=2)


def test_reduced_state_readout_matches_density_marginals():
    """The ``qtda_distribution`` readout is the diagonal of the reduced
    state, in request order."""
    rng = np.random.default_rng(3)
    n = 3
    circ = _random_circuit(rng, n, 5)
    states = _random_states(rng, n)
    for keep in ([0], [2], [0, 1], [2, 1], [1, 2, 0]):
        _assert_matches_oracle(circ, _MIXED_SPEC, keep, states)


def test_qtda_distribution_matches_density_on_the_mixed_input():
    """``|0><0|^t (x) I/2^q`` input, precision readout, against the density
    route on the same circuit and spec."""
    rng = np.random.default_rng(17)
    t, q = 2, 2
    n = t + q
    circ = QuantumCircuit(n)
    circ.h(0).h(1)
    wide = np.eye(8, dtype=complex)
    wide[4:, 4:] = _random_unitary(rng, 2)
    circ.unitary(wide, [0, 2, 3], name="c-U^1")
    circ.unitary(wide @ wide, [1, 2, 3], name="c-U^2")
    circ.unitary(_random_unitary(rng, 2), [0, 1], name="CU")
    spec = NoiseSpec(channel="depolarizing", strength=0.03)
    got = PTMExecutor(max_fuse_qubits=2).qtda_distribution(
        circ, precision_qubits=[0, 1], precision_count=t, system_count=q, noise_spec=spec
    )
    rho = np.kron(DensityMatrix.zero_state(t).matrix, DensityMatrix.maximally_mixed(q).matrix)
    final = DensityMatrixSimulator(NoiseModel.from_spec(spec)).run(circ, initial_state=rho)
    assert np.max(np.abs(got - final.marginal_probabilities([0, 1]))) <= 1e-12
    with pytest.raises(ValueError, match="do not match"):
        PTMExecutor().qtda_distribution(circ, [0, 1], precision_count=t, system_count=1)


def test_reduced_state_validates_its_arguments():
    program = fuse_ptm_program(_random_circuit(np.random.default_rng(0), 2, 2))
    states = [np.eye(2) / 2] * 2
    with pytest.raises(ValueError, match="readout qubits"):
        PTMExecutor().reduced_state(program, states, [0, 0])
    with pytest.raises(ValueError, match="readout qubits"):
        PTMExecutor().reduced_state(program, states, [2])
    with pytest.raises(ValueError, match="initial states"):
        PTMExecutor().reduced_state(program, states[:1], [0])


def test_ptm_program_cache_hits_on_same_circuit_and_spec():
    clear_ptm_cache()
    rng = np.random.default_rng(9)
    circ = QuantumCircuit(2)
    circ.unitary(_random_unitary(rng, 2), [0, 1])
    spec = NoiseSpec(channel="depolarizing", strength=0.01)
    first = fuse_ptm_program(circ, noise_spec=spec)
    second = fuse_ptm_program(circ, noise_spec=spec)
    assert first is second
    info = ptm_cache_info()
    assert info["hits"] == 1 and info["misses"] == 1
    # A different fusion window or spec is a different program.
    fuse_ptm_program(circ, noise_spec=spec, max_fuse_qubits=1)
    fuse_ptm_program(circ, noise_spec=NoiseSpec(channel="depolarizing", strength=0.02))
    assert ptm_cache_info()["misses"] == 3
    # Readout error does not enter the program key (applied post-readout).
    with_readout = fuse_ptm_program(
        circ, noise_spec=NoiseSpec(channel="depolarizing", strength=0.01, readout_error=0.1)
    )
    assert with_readout is first


def test_fuse_ptm_program_validates_window():
    circ = QuantumCircuit(1)
    with pytest.raises(ValueError, match="max_fuse_qubits"):
        fuse_ptm_program(circ, max_fuse_qubits=0)
