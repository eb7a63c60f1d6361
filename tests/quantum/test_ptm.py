"""Property tests for the Liouville superoperator layer (DESIGN.md §16).

Three algebraic laws pin the superoperator construction itself:

* every CPTP channel's superoperator is trace-preserving,
  ``vec(I)ᵀ S = vec(I)ᵀ``;
* every unitary gate's superoperator ``U ⊗ Ū`` is unitary;
* superoperators compose by matrix product — ``S(A ∘ B) = S(A) @ S(B)`` on
  random circuits, also after embedding into a larger register.

The rest locks down the execution machinery against the density oracle: the
wide-unitary conjugation (controlled fast path included), the embedding,
program fusion against the density route's gate-then-Kraus walk, the
schedule that holds each single-qubit item until its qubit's next coupling
item (and the tensor width it leaves at each wide unitary), the exact join /
trace-out / light-cone skip rules of the evolution, per-channel memoisation
and the program cache.  The last section pins the five identities that keep
the tensor small: a prefix applied to the input factor, a program cut to a
readout's light cone before fusion, a controlled power that traces out its
targets, a controlled power that acts on its control's input factor, and
target-only superoperators folded into a traced power as adjoints.
"""

import itertools

import numpy as np
import pytest

import repro.quantum.ptm as ptm_module
from repro.core.backends import EstimationProblem
from repro.core.backends.statevector import circuit_backend_result
from repro.core.config import QTDAConfig
from repro.quantum.channels import (
    NOISE_CHANNELS,
    TWO_QUBIT_NOISE_CHANNELS,
    NoiseSpec,
    QuantumChannel,
)
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.density_matrix import DensityMatrix, DensityMatrixSimulator
from repro.quantum.fusion import (
    _defer_single_qubit_runs,
    _density_walk,
    _join,
    _ptm_op_stream,
    clear_ptm_cache,
    fuse_ptm_program,
    ptm_cache_info,
)
from repro.quantum.gates import controlled_block, embed_operator
from repro.quantum.ptm import (
    PTMExecutor,
    WideUnitaryOp,
    apply_superop,
    apply_unitary_to_pauli_ensemble,
    channel_content_key,
    channel_superop,
    clear_ptm_memo,
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


def _assert_matches_oracle(circ, spec, keep, states, max_fuse_qubits=3, readout=None):
    """The reduced state over ``keep`` equals the density oracle's to 1e-12."""
    program = fuse_ptm_program(
        circ, noise_spec=spec, max_fuse_qubits=max_fuse_qubits, readout=readout
    )
    got = PTMExecutor(max_fuse_qubits=max_fuse_qubits).reduced_state(program, states, keep)
    final = DensityMatrixSimulator(spec).run(circ, initial_state=_product(states))
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
        program = embed_operator(gate_superop(u), qubits, tuple(range(n)), 4) @ program
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


def _embed_by_identity_application(matrix, qubits, support, d):
    """The reference embedding: apply the operator to the ``d^s`` identity
    viewed as an ensemble of basis vectors."""
    positions = [support.index(q) for q in qubits]
    k, s = len(qubits), len(support)
    tensor = np.eye(d**s, dtype=complex).reshape([d] * s + [d**s])
    op = np.asarray(matrix, dtype=complex).reshape([d] * (2 * k))
    tensor = np.tensordot(op, tensor, axes=(list(range(k, 2 * k)), positions))
    tensor = np.moveaxis(tensor, list(range(k)), positions)
    return np.ascontiguousarray(tensor).reshape(d**s, d**s)


@pytest.mark.parametrize("seed", range(6))
def test_embedding_is_bit_identical_to_identity_application(seed):
    """Superoperators (``d = 4``) and gates (``d = 2``) share the embedding."""
    rng = np.random.default_rng(seed)
    s = int(rng.integers(2, 4))
    support = tuple(sorted(int(q) for q in rng.choice(6, size=s, replace=False)))
    k = int(rng.integers(1, s))
    qubits = tuple(int(q) for q in rng.choice(support, size=k, replace=False))
    for d in (4, 2):
        matrix = rng.standard_normal((d**k, d**k)) + 1j * rng.standard_normal((d**k, d**k))
        got = embed_operator(matrix, qubits, support, d)
        assert np.array_equal(got, _embed_by_identity_application(matrix, qubits, support, d))


@pytest.mark.parametrize("seed", range(6))
def test_left_multiply_matches_the_embedded_product(seed):
    """Fusion contracts a superoperator straight into the block; the dense
    ``embed @ block`` product is the reference (summation order differs)."""
    rng = np.random.default_rng(seed)
    s = int(rng.integers(2, 4))
    support = tuple(sorted(int(q) for q in rng.choice(6, size=s, replace=False)))
    k = int(rng.integers(1, s + 1))
    qubits = tuple(int(q) for q in rng.choice(support, size=k, replace=False))
    superop = rng.standard_normal((4**k, 4**k)) + 1j * rng.standard_normal((4**k, 4**k))
    block = rng.standard_normal((4**s, 4**s)) + 1j * rng.standard_normal((4**s, 4**s))
    got = _join(superop, qubits, block, support, 4)
    want = embed_operator(superop, qubits, support, 4) @ block
    assert np.allclose(got, want, rtol=0, atol=1e-12)


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

    def counting(tensor, superop, positions):
        calls.append(tuple(positions))
        return original(tensor, superop, positions)

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
    final = DensityMatrixSimulator(spec).run(circ, initial_state=rho)
    assert np.max(np.abs(got - final.marginal_probabilities([0, 1]))) <= 1e-12
    with pytest.raises(ValueError, match="do not match"):
        PTMExecutor().qtda_distribution(circ, [0, 1], precision_count=t, system_count=1)


# ---------------------------------------------------------------------------
# Scheduling: each single-qubit item waits for its qubit's next coupling
# ---------------------------------------------------------------------------


def _controlled(rng, k):
    """A ``k``-qubit ``I (+) V`` unitary (control = first qubit)."""
    half = 2 ** (k - 1)
    u = np.eye(2**k, dtype=complex)
    u[half:, half:] = _random_unitary(rng, k - 1)
    return u


def _late_coupling_circuit(rng):
    """A seeded random circuit with the shapes the schedule must respect.

    Qubits 0-2 and 4 get random single-qubit prefixes whose first coupling
    op comes late (qubit 4's is a 4-qubit controlled gate, wider than any
    window used here); qubit 3 only ever sees single-qubit ops; qubit 5 is
    touched by no op.
    """
    n = 6
    circ = QuantumCircuit(n)
    for _ in range(8):
        circ.unitary(_random_unitary(rng, 1), [int(rng.choice([0, 1, 2, 3, 4]))], name="U")
    for _ in range(3):
        targets = [int(q) for q in rng.choice([0, 1, 2], size=2, replace=False)]
        circ.unitary(_random_unitary(rng, 2), targets, name="CU")
        circ.unitary(_random_unitary(rng, 1), [int(rng.choice([0, 1, 2, 3, 4]))], name="U")
    circ.unitary(_controlled(rng, 4), [1, 4, 0, 2], name="c-U^1")
    for _ in range(3):
        circ.unitary(_random_unitary(rng, 1), [int(rng.choice([3, 4]))], name="U")
        targets = [int(q) for q in rng.choice([0, 1, 2, 4], size=2, replace=False)]
        circ.unitary(_random_unitary(rng, 2), targets, name="CU")
    return circ


def _op_key(item):
    qubits, payload = item
    return tuple(qubits), id(payload)


@pytest.mark.parametrize("max_fuse_qubits", [2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_schedule_is_exact_and_keeps_each_qubits_order(seed, max_fuse_qubits):
    rng = np.random.default_rng(seed)
    circ = _late_coupling_circuit(rng)
    walk_items = list(_density_walk(circ, _MIXED_SPEC))
    walk = [_op_key(item) for item in walk_items]
    scheduled = [_op_key(item) for item in _ptm_op_stream(circ, _MIXED_SPEC)]
    assert sorted(scheduled) == sorted(walk)
    assert scheduled != walk
    for q in range(circ.num_qubits):
        assert [op for op in scheduled if q in op[0]] == [op for op in walk if q in op[0]]
    # The same schedule on walk positions, so that equal ops stay apart.
    order = [i for _, i in _defer_single_qubit_runs((q, i) for i, (q, _) in enumerate(walk_items))]
    assert [walk[i] for i in order] == scheduled
    coupling = [len(walk_items[i][0]) > 1 for i in order]
    for at, i in enumerate(order):
        if coupling[at]:
            continue
        # A single-qubit item sits right before its qubit's next coupling
        # item, or after the stream's last coupling item...
        later = [order[j] for j in range(at + 1, len(order)) if coupling[j]]
        assert not later or walk_items[i][0][0] in walk_items[later[0]][0]
        # ...and a run of single-qubit items keeps stream order.
        if at + 1 < len(order) and not coupling[at + 1]:
            assert order[at + 1] > i

    states = _random_states(rng, circ.num_qubits)
    clear_ptm_cache()
    for keep in ([0, 1, 2, 3, 4, 5], [3, 1], [5, 0], [4], [2, 5, 3]):
        program = _assert_matches_oracle(
            circ, _MIXED_SPEC, keep, states, max_fuse_qubits=max_fuse_qubits
        )
    assert program.num_wide == 1


def _workload_laplacian(dim):
    """The deterministic PSD Laplacian of benchmarks/test_bench_ptm.py."""
    rng = np.random.default_rng(2023)
    basis = rng.standard_normal((dim, dim - 2))
    lap = basis @ basis.T
    return (lap + lap.T) / 2.0


@pytest.mark.parametrize("dimension, widths", [(48, [6, 7, 8, 9]), (16, [4, 5, 6, 7])])
def test_wide_unitaries_run_on_the_qubits_joined_so_far(dimension, widths, monkeypatch):
    """At t=4 each precision qubit is still its input factor at its own
    controlled power and joins as the power's output, so the j-th wide
    unitary sees the system register plus j precision qubits (dimension 48
    pads to q=6, 16 to q=4)."""
    seen = []
    original = ptm_module.apply_unitary_to_pauli_ensemble

    def recording(tensor, *args, **kwargs):
        seen.append(tensor.ndim // 2)
        return original(tensor, *args, **kwargs)

    monkeypatch.setattr(ptm_module, "apply_unitary_to_pauli_ensemble", recording)
    config = QTDAConfig(
        precision_qubits=4,
        shots=None,
        delta=6.0,
        backend="statevector",
        circuit_engine="ptm",
        noise_channel="depolarizing",
        noise_strength=0.002,
        noise_gate_strengths={"c-U": 0.004, "H": 0.001},
        seed=2023,
    )
    problem = EstimationProblem(laplacian=_workload_laplacian(dimension))
    result = circuit_backend_result(problem, config, "exact", rng=np.random.default_rng(0))
    assert result.route["engine_route"] == "ptm"
    assert seen == widths


def test_largest_tensor_of_the_q6_t4_run_holds_nine_qubits(monkeypatch):
    """The tensor peaks at ``t + q - 1`` qubits: the last controlled power
    acts on its control's factor, so the 10-qubit product the join made is
    never formed (every kernel's input and output is recorded).  No
    superoperator runs on those 9 qubits: the system register's noise after
    the third power waits for the last power, which traces the register out
    and folds that noise in as adjoints."""
    sizes, superop_widths, folded = [], [], []

    def recorded(kernel):
        def recording(tensor, *args, **kwargs):
            out = kernel(tensor, *args, **kwargs)
            sizes.extend([tensor.ndim // 2, out.ndim // 2])
            if kernel is original_superop:
                superop_widths.append(tensor.ndim // 2)
            else:
                folded.append(len(kwargs.get("folded", ())))
            return out

        return recording

    original_superop = ptm_module.apply_superop
    for name in ("apply_superop", "apply_unitary_to_pauli_ensemble"):
        monkeypatch.setattr(ptm_module, name, recorded(getattr(ptm_module, name)))
    config = QTDAConfig(
        precision_qubits=4,
        shots=None,
        delta=6.0,
        backend="statevector",
        circuit_engine="ptm",
        noise_channel="depolarizing",
        noise_strength=0.002,
        noise_gate_strengths={"c-U": 0.004, "H": 0.001},
        seed=2023,
    )
    problem = EstimationProblem(laplacian=_workload_laplacian(48))
    circuit_backend_result(problem, config, "exact", rng=np.random.default_rng(0))
    assert max(sizes) == 9
    assert max(superop_widths) == 8
    # The blocks (4, 5, 6) and (7, 8, 9) fold into the last power.
    assert folded == [0, 0, 0, 2]


def test_reduced_state_validates_its_arguments():
    program = fuse_ptm_program(_random_circuit(np.random.default_rng(0), 2, 2))
    states = [np.eye(2) / 2] * 2
    with pytest.raises(ValueError, match="readout qubits"):
        PTMExecutor().reduced_state(program, states, [0, 0])
    with pytest.raises(ValueError, match="readout qubits"):
        PTMExecutor().reduced_state(program, states, [2])
    with pytest.raises(ValueError, match="initial states"):
        PTMExecutor().reduced_state(program, states[:1], [0])


def test_ptm_program_segments_are_cached_per_content():
    """The program is cached per segment between wide gates: a circuit that
    differs only in its wide gate hits every segment without building a
    channel superoperator; a new window or channel strength misses, and a
    readout error alone (it places no channel) hits."""
    clear_ptm_cache()
    rng = np.random.default_rng(9)
    small = _random_unitary(rng, 2)

    def circuit(wide):
        circ = QuantumCircuit(4)
        circ.h(0).unitary(small, [1, 2], name="CU")
        circ.unitary(wide, [0, 1, 2, 3], name="c-U^1")
        return circ.unitary(small, [2, 3], name="CU")

    spec = NoiseSpec(channel="depolarizing", strength=0.01)
    first = fuse_ptm_program(circuit(_controlled(rng, 4)), noise_spec=spec, max_fuse_qubits=2)
    assert (ptm_cache_info()["hits"], ptm_cache_info()["misses"]) == (0, 2)
    memo = ptm_memo_info()
    wide = _controlled(rng, 4)
    second = fuse_ptm_program(circuit(wide), noise_spec=spec, max_fuse_qubits=2)
    assert (ptm_cache_info()["hits"], ptm_cache_info()["misses"]) == (2, 2)
    assert ptm_memo_info() == memo
    (passed,) = [op.matrix for op in second.ops if isinstance(op, WideUnitaryOp)]
    assert passed is wide
    assert all(a is b for a, b in zip(first.ops, second.ops) if not isinstance(a, WideUnitaryOp))
    fuse_ptm_program(circuit(wide), noise_spec=spec, max_fuse_qubits=3)
    stronger = NoiseSpec(channel="depolarizing", strength=0.02)
    fuse_ptm_program(circuit(wide), noise_spec=stronger, max_fuse_qubits=2)
    assert ptm_cache_info()["misses"] == 6
    with_readout = fuse_ptm_program(
        circuit(wide),
        noise_spec=NoiseSpec(channel="depolarizing", strength=0.01, readout_error=0.1),
        max_fuse_qubits=2,
    )
    assert ptm_cache_info()["misses"] == 6
    assert all(
        a is b for a, b in zip(second.ops, with_readout.ops) if not isinstance(a, WideUnitaryOp)
    )


def test_ptm_program_cache_keeps_gate_name_noise_placement():
    """``gate_strengths`` places noise by gate name, so an ``H`` and an
    equal-matrix gate with another name fuse to different programs, in
    either order through one cache."""
    h = QuantumCircuit(1).h(0)
    renamed = QuantumCircuit(1).unitary(h.gates[0].matrix, [0], name="U")
    spec = NoiseSpec(channel="depolarizing", strength=0.0, gate_strengths={"H": 0.2})
    states = [np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)]
    for order in ((h, renamed), (renamed, h)):
        clear_ptm_cache()
        for circ in order:
            _assert_matches_oracle(circ, spec, [0], states)


def _root(array):
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def test_program_nbytes_counts_each_buffer_once():
    """A controlled block is a view into its wide matrix: the program's
    size is the sum of its distinct buffers, not matrix + block."""
    rng = np.random.default_rng(11)
    circ = QuantumCircuit(4)
    circ.h(0).h(1)
    wide = _controlled(rng, 3)
    circ.unitary(wide, [0, 2, 3], name="c-U^1")
    circ.unitary(wide @ wide, [1, 2, 3], name="c-U^2")
    program = fuse_ptm_program(
        circ, noise_spec=NoiseSpec(channel="depolarizing", strength=0.01), max_fuse_qubits=2
    )
    wides = [op for op in program.ops if isinstance(op, WideUnitaryOp)]
    assert len(wides) == 2 and all(op.block is not None for op in wides)
    arrays = [op.matrix for op in program.ops] + [op.block for op in wides]
    distinct = {id(_root(a)): _root(a).nbytes for a in arrays}
    assert program.nbytes() == sum(distinct.values())


def test_fuse_ptm_program_validates_window():
    circ = QuantumCircuit(1)
    with pytest.raises(ValueError, match="max_fuse_qubits"):
        fuse_ptm_program(circ, max_fuse_qubits=0)


def test_program_nbytes_counts_a_shared_channel_buffer_once():
    """At window 1 the wide gate's four channels stand alone, each block the
    one memoised depolarizing superoperator: the program and the segment
    cache count that buffer once (6144 and 2048 bytes when counted per op)."""
    rng = np.random.default_rng(12)
    circ = QuantumCircuit(4).h(0).h(3)
    circ.unitary(_controlled(rng, 4), [0, 1, 2, 3], name="c-U^1")
    circ.h(0).h(3)
    clear_ptm_cache()
    program = fuse_ptm_program(
        circ, noise_spec=NoiseSpec("depolarizing", 0.01), max_fuse_qubits=1
    )
    lone = [op.matrix for op in program.ops if getattr(op, "sources", 0) == 1]
    assert len(lone) == 4 and all(matrix is lone[0] for matrix in lone)
    assert program.nbytes() == 5376
    (wide,) = [op.matrix for op in program.ops if isinstance(op, WideUnitaryOp)]
    assert ptm_cache_info()["bytes"] == program.nbytes() - wide.nbytes == 1280


# ---------------------------------------------------------------------------
# Input factors, the light-cone cut and the traced controlled power
# ---------------------------------------------------------------------------


def _join_everything_then_apply(program, states, keep):
    """The reference evolution: every qubit joins before the first op and
    every op runs on the whole register; the readout is a partial trace."""
    n = program.num_qubits
    tensor = np.ones((), dtype=complex)
    for state in states:
        tensor = np.multiply.outer(tensor, np.asarray(state, dtype=complex))
    axes = list(range(n))
    for op in program.ops:
        positions = [axes.index(q) for q in op.qubits]
        if isinstance(op, WideUnitaryOp):
            tensor = apply_unitary_to_pauli_ensemble(tensor, op.matrix, positions)
        else:
            tensor = apply_superop(tensor, op.matrix, positions)
            axes[:] = list(op.qubits) + [q for q in axes if q not in op.qubits]
    order = ptm_module._bit_axes([axes.index(q) for q in range(n)])
    full = _from_tensor(np.transpose(tensor, order), n)
    return DensityMatrix(full).partial_trace(keep).matrix


def _prefix_blocks(program):
    """Single-qubit ops on qubits that no earlier op couples."""
    coupled, found = set(), []
    for op in program.ops:
        if len(op.qubits) == 1 and op.qubits[0] not in coupled:
            found.append(op)
        if len(op.qubits) > 1:
            coupled.update(op.qubits)
    return found


@pytest.mark.parametrize("max_fuse_qubits", [2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_prefix_on_the_input_factor_equals_joining_then_applying_it(
    seed, max_fuse_qubits, monkeypatch
):
    """Each qubit's held prefix fuses only with itself, and the executor
    applies it to the qubit's 2x2 input factor: the same state as joining
    the qubit first and applying the prefix on the tensor."""
    rng = np.random.default_rng(seed)
    # The kernel identity on one random prefix and one random tensor.
    superop = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    factor = _random_density(rng, 1)
    tensor = _to_tensor(_random_density(rng, 2), 2)
    joined = np.multiply.outer(tensor, factor)
    on_factor = np.multiply.outer(tensor, (superop @ factor.reshape(4)).reshape(2, 2))
    on_tensor = np.moveaxis(apply_superop(joined, superop, [2]), [0, 1], [4, 5])
    assert np.allclose(on_factor, on_tensor, rtol=0, atol=1e-14)

    circ = _late_coupling_circuit(rng)
    states = _random_states(rng, circ.num_qubits)
    program = fuse_ptm_program(circ, noise_spec=_MIXED_SPEC, max_fuse_qubits=max_fuse_qubits)
    prefixes = _prefix_blocks(program)
    coupled, held = set(), set()
    for gate in circ.gates:
        if gate.num_qubits == 1 and gate.qubits[0] not in coupled:
            held.add(gate.qubits[0])
        if gate.num_qubits > 1:
            coupled.update(gate.qubits)
    assert held and {op.qubits[0] for op in prefixes} == held
    calls = []
    original = ptm_module.apply_superop

    def counting(tensor, superop, positions):
        calls.append(superop)
        return original(tensor, superop, positions)

    monkeypatch.setattr(ptm_module, "apply_superop", counting)
    keep = list(range(circ.num_qubits))
    got = PTMExecutor(max_fuse_qubits).reduced_state(program, states, keep)
    assert not any(any(call is op.matrix for call in calls) for op in prefixes)
    want = _join_everything_then_apply(program, states, keep)
    assert np.max(np.abs(got - want)) <= 1e-12
    _assert_matches_oracle(circ, _MIXED_SPEC, keep, states, max_fuse_qubits=max_fuse_qubits)


@pytest.mark.parametrize("max_fuse_qubits", [2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_program_cut_for_a_readout_matches_the_oracle_on_every_subset(seed, max_fuse_qubits):
    """A program whose light cone is cut for readout M before fusion is
    exact on every readout within M (in any order) and refuses any other."""
    rng = np.random.default_rng(seed)
    circ = _late_coupling_circuit(rng)
    # A closing op outside every readout below: the cut always drops it.
    circ.unitary(_random_unitary(rng, 2), [0, 4], name="CU")
    states = _random_states(rng, circ.num_qubits)
    readout = sorted(int(q) for q in rng.choice([1, 2, 3], size=2, replace=False))
    full = fuse_ptm_program(circ, noise_spec=_MIXED_SPEC, max_fuse_qubits=max_fuse_qubits)
    program = None
    for size in (1, 2):
        for keep in itertools.permutations(readout, size):
            program = _assert_matches_oracle(
                circ, _MIXED_SPEC, list(keep), states, max_fuse_qubits, readout=readout[::-1]
            )
    assert program.readout == tuple(readout) and full.readout == tuple(range(circ.num_qubits))

    def sources(p):
        return sum(op.sources if hasattr(op, "sources") else 1 for op in p.ops)

    assert sources(program) < sources(full) == full.source_ops == program.source_ops
    outside = next(q for q in range(circ.num_qubits) if q not in readout)
    with pytest.raises(ValueError, match="outside"):
        PTMExecutor(max_fuse_qubits).reduced_state(program, states, [readout[0], outside])
    with pytest.raises(ValueError, match="out of range"):
        fuse_ptm_program(circ, noise_spec=_MIXED_SPEC, readout=[circ.num_qubits])


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("positions", [[3, 0, 4], [1, 4, 2, 0], [4, 3]])
def test_traced_controlled_power_equals_apply_then_trace_out(seed, positions):
    """``Tr_targets[U rho U†]`` from the four block traces equals the full
    conjugation followed by a trace-out, for a control anywhere in the
    layout and a non-unitary ``V`` (the (1, 1) block keeps ``V†V``)."""
    rng = np.random.default_rng(seed)
    n = 5
    k = len(positions)
    half = 2 ** (k - 1)
    v = rng.standard_normal((half, half)) + 1j * rng.standard_normal((half, half))
    u = np.eye(2**k, dtype=complex)
    u[half:, half:] = v
    rho = _random_density(rng, n)
    tensor = _to_tensor(rho, n)
    got = apply_unitary_to_pauli_ensemble(tensor, u, positions, block=v, trace_targets=True)
    conjugated = apply_unitary_to_pauli_ensemble(tensor, u, positions)
    identity = ptm_module._outer_product([np.eye(2)] * (k - 1))
    want = np.tensordot(
        conjugated, identity, axes=(ptm_module._bit_axes(positions[1:]), list(range(2 * (k - 1))))
    )
    # The traced result holds the control's pair first, then the rest.
    start = [p for p in range(n) if p not in positions[1:]].index(positions[0])
    want = np.moveaxis(want, [2 * start, 2 * start + 1], [0, 1])
    assert got.shape == (2,) * (2 * (n - k + 1))
    assert np.max(np.abs(got - want)) <= 1e-12
    with pytest.raises(ValueError, match="controlled block"):
        apply_unitary_to_pauli_ensemble(tensor, u, positions, trace_targets=True)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("targets", [[0, 3], [4, 1, 2], [2]])
def test_factored_control_equals_joining_then_applying(seed, targets):
    """A controlled power whose control is still its ``2 x 2`` input factor
    equals joining the factor and then running the controlled kernel, for a
    non-Hermitian tensor and factor, a non-unitary ``V`` and targets
    anywhere in the layout, with and without tracing the targets out."""
    rng = np.random.default_rng(seed)
    n = 5
    half = 2 ** len(targets)

    def general(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    v = general(half, half)
    u = np.eye(2 * half, dtype=complex)
    u[half:, half:] = v
    tensor = general(*(2,) * (2 * n))
    factor = general(2, 2)
    # Joined: the factor is the trailing pair, so the control sits at n.
    joined = tensor.reshape(tensor.shape + (1, 1)) * factor
    positions = [n] + targets
    for kernel in ({"block": v}, {}):
        full = apply_unitary_to_pauli_ensemble(joined, u, positions, **kernel)
        want = np.moveaxis(full, [2 * n, 2 * n + 1], [0, 1])
        got = apply_unitary_to_pauli_ensemble(tensor, u, targets, block=v, control_factor=factor)
        assert got.shape == want.shape == (2,) * (2 * n + 2)
        assert np.max(np.abs(got - want)) <= 1e-12
    want = apply_unitary_to_pauli_ensemble(joined, u, positions, block=v, trace_targets=True)
    got = apply_unitary_to_pauli_ensemble(
        tensor, u, targets, block=v, trace_targets=True, control_factor=factor
    )
    assert got.shape == want.shape == (2,) * (2 * (n - len(targets) + 1))
    assert np.max(np.abs(got - want)) <= 1e-12
    with pytest.raises(ValueError, match="controlled block"):
        apply_unitary_to_pauli_ensemble(tensor, u, targets, control_factor=factor)


def _traced_flags(monkeypatch, factored=None):
    """Record each wide unitary's ``trace_targets`` flag (and, into
    ``factored``, whether its control arrived as an input factor)."""
    flags = []
    original = ptm_module.apply_unitary_to_pauli_ensemble

    def recording(tensor, unitary, positions, block=None, trace_targets=False, **kwargs):
        flags.append(trace_targets)
        if factored is not None:
            factored.append(kwargs.get("control_factor") is not None)
        return original(
            tensor, unitary, positions, block=block, trace_targets=trace_targets, **kwargs
        )

    monkeypatch.setattr(ptm_module, "apply_unitary_to_pauli_ensemble", recording)
    return flags


@pytest.mark.parametrize("max_fuse_qubits", [2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_controlled_power_traces_its_targets_only_when_all_of_them_leave(
    seed, max_fuse_qubits, monkeypatch
):
    """Targets that all leave right after a controlled power are traced out
    by it; when one target stays (a later op or the readout), or the power
    is not controlled, the full conjugation runs and the leavers are traced
    out after it."""
    rng = np.random.default_rng(seed)
    n = 5
    spec = NoiseSpec(channel="amplitude-damping", strength=0.0, gate_strengths={"CU": 0.05})

    def circuit(later_targets, wide_matrix):
        circ = QuantumCircuit(n)
        circ.unitary(_random_unitary(rng, 1), [0], name="U")
        circ.unitary(_random_unitary(rng, 2), [1, 2], name="CU")
        circ.unitary(wide_matrix, [1, 4, 3, 0], name="c-U^1")
        circ.unitary(_random_unitary(rng, 2), [1, 2], name="CU")
        for target in later_targets:
            circ.unitary(_random_unitary(rng, 2), [1, target], name="CU")
        return circ

    states = _random_states(rng, n)
    cases = [
        (circuit([], _controlled(rng, 4)), [1, 2], [True]),
        (circuit([3], _controlled(rng, 4)), [1, 2], [False]),
        (circuit([], _controlled(rng, 4)), [1, 0], [False]),
        (circuit([], _random_unitary(rng, 4)), [2, 1], [False]),
    ]
    for circ, keep, expected in cases:
        flags = _traced_flags(monkeypatch)
        _assert_matches_oracle(circ, spec, keep, states, max_fuse_qubits, readout=keep)
        assert flags == expected
        monkeypatch.undo()


@pytest.mark.parametrize("max_fuse_qubits", [2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_controlled_powers_on_unjoined_controls_match_the_oracle(
    seed, max_fuse_qubits, monkeypatch
):
    """Both controlled powers of a two-control circuit find their control
    still an input factor (after its held prefix) and act on it; the reduced
    state matches the density oracle whether the last power traces its
    targets out or one of them stays."""
    rng = np.random.default_rng(seed)
    n = 5
    circ = QuantumCircuit(n)
    circ.unitary(_random_unitary(rng, 1), [0], name="U")
    circ.unitary(_random_unitary(rng, 1), [1], name="U")
    circ.unitary(_random_unitary(rng, 2), [2, 3], name="CU")
    circ.unitary(_controlled(rng, 4), [0, 2, 3, 4], name="c-U^1")
    circ.unitary(_random_unitary(rng, 2), [2, 4], name="CU")
    circ.unitary(_controlled(rng, 4), [1, 4, 2, 3], name="c-U^2")
    circ.unitary(_random_unitary(rng, 2), [0, 1], name="CU")
    states = _random_states(rng, n)
    for keep, traced in (([0, 1], [False, True]), ([1, 0, 2], [False, False])):
        factored = []
        flags = _traced_flags(monkeypatch, factored)
        _assert_matches_oracle(circ, _MIXED_SPEC, keep, states, max_fuse_qubits, readout=keep)
        assert flags == traced
        assert factored == [True, True]
        monkeypatch.undo()


def _random_cptp_superop(rng, k, rank=3):
    """A random ``k``-qubit CPTP superoperator: ``rank`` Kraus blocks of a
    random isometry."""
    dim = 2**k
    isometry, _ = np.linalg.qr(
        rng.standard_normal((rank * dim, dim)) + 1j * rng.standard_normal((rank * dim, dim))
    )
    return superop_from_kraus([isometry[r * dim : (r + 1) * dim] for r in range(rank)])


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("indices", [[0], [3, 1], [2, 0, 3], [1, 2]])
def test_adjoint_superoperator_moves_across_the_trace(seed, indices):
    """``Tr(S*(M) X) == Tr(M S(X))`` for a random CPTP ``S`` on any subset
    of the qubits (in any order), non-Hermitian ``M`` and ``X``, and a
    stack of ``M``; ``S*(I) = I``, which is trace preservation."""
    rng = np.random.default_rng(seed)
    m = 4
    dim = 2**m
    superop = _random_cptp_superop(rng, len(indices))
    matrices = rng.standard_normal((3, dim, dim)) + 1j * rng.standard_normal((3, dim, dim))
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    embedded = embed_operator(superop, tuple(indices), tuple(range(m)), 4)
    s_x = _from_tensor((embedded @ _to_tensor(x, m).reshape(-1)).reshape((2,) * (2 * m)), m)
    # The kernel maps each Mᵀ to S*(M)ᵀ.
    adjoint = ptm_module._adjoint_apply(matrices.transpose(0, 2, 1), superop, indices)
    for matrix, moved in zip(matrices, adjoint):
        assert abs(np.trace(moved.T @ x) - np.trace(matrix @ s_x)) <= 1e-12
    identity = ptm_module._adjoint_apply(np.eye(dim)[None], superop, indices)[0]
    assert np.max(np.abs(identity - np.eye(dim))) <= 1e-12


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("control_factor", [False, True])
def test_traced_power_with_folded_superoperators_equals_applying_them_first(
    seed, control_factor
):
    """Folding target-only CPTP superoperators into a traced power equals
    applying them to the tensor first, with a non-unitary ``V``, the control
    joined or still its input factor, and overlapping folds in order."""
    rng = np.random.default_rng(seed)
    n = 5
    targets = [3, 0, 4] if not control_factor else [3, 0, 4, 1]
    half = 2 ** len(targets)
    v = rng.standard_normal((half, half)) + 1j * rng.standard_normal((half, half))
    u = np.eye(2 * half, dtype=complex)
    u[half:, half:] = v
    tensor = _to_tensor(_random_density(rng, n), n)
    folds = [
        (_random_cptp_superop(rng, 2), [4, 3]),
        (_random_cptp_superop(rng, 1), [3]),
        (_random_cptp_superop(rng, 3), [0, 3, 4]),
    ]
    applied = tensor
    for superop, positions in folds:
        # apply_superop leads with the targets' pairs; move them back.
        moved = ptm_module._bit_axes(positions)
        rest = [axis for axis in range(2 * n) if axis not in moved]
        applied = np.moveaxis(
            apply_superop(applied, superop, positions), list(range(2 * n)), moved + rest
        )
    if control_factor:
        kernel = {"control_factor": _random_density(rng, 1)}
        positions = targets
    else:
        kernel = {}
        positions = [2] + targets
    want = apply_unitary_to_pauli_ensemble(
        applied, u, positions, block=v, trace_targets=True, **kernel
    )
    got = apply_unitary_to_pauli_ensemble(
        tensor, u, positions, block=v, trace_targets=True, folded=folds, **kernel
    )
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12
    with pytest.raises(ValueError, match="trace_targets"):
        apply_unitary_to_pauli_ensemble(tensor, u, positions, block=v, folded=folds, **kernel)


@pytest.mark.parametrize("max_fuse_qubits", [2, 3])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("control_factor", [False, True])
def test_target_only_ops_before_a_traced_power_fold_and_match_the_oracle(
    seed, control_factor, max_fuse_qubits, monkeypatch
):
    """Gates and channels on the targets only, between the targets' last
    coupling to the rest and a controlled power that traces them out, fold
    into that power; the reduced state matches the density oracle with the
    control joined (it coupled before) or still its input factor."""
    rng = np.random.default_rng(seed)
    n = 5
    circ = QuantumCircuit(n)
    circ.unitary(_random_unitary(rng, 1), [0], name="U")
    if not control_factor:
        circ.unitary(_random_unitary(rng, 2), [0, 1], name="CU")
    circ.unitary(_random_unitary(rng, 2), [1, 2], name="CU")
    circ.unitary(_random_unitary(rng, 2), [3, 4], name="CU")
    circ.unitary(_random_unitary(rng, 1), [2], name="U")
    circ.unitary(_controlled(rng, 4), [0, 2, 3, 4], name="c-U^1")
    circ.unitary(_random_unitary(rng, 2), [0, 1], name="CU")
    states = _random_states(rng, n)
    calls = []
    original = ptm_module.apply_unitary_to_pauli_ensemble

    def recording(tensor, *args, **kwargs):
        calls.append((kwargs.get("trace_targets", False), len(kwargs.get("folded", ()))))
        return original(tensor, *args, **kwargs)

    monkeypatch.setattr(ptm_module, "apply_unitary_to_pauli_ensemble", recording)
    _assert_matches_oracle(circ, _MIXED_SPEC, [0, 1], states, max_fuse_qubits, readout=[0, 1])
    ((traced, folded),) = calls
    assert traced and folded >= 1


def test_qtda_route_cuts_the_program_to_the_precision_register(monkeypatch):
    """The circuit route fuses the program for the precision register; the
    system register's trailing channels are cut and the last controlled
    power traces the system register out."""
    programs = []
    original = PTMExecutor.reduced_state

    def recording(self, program, *args, **kwargs):
        programs.append(program)
        return original(self, program, *args, **kwargs)

    monkeypatch.setattr(PTMExecutor, "reduced_state", recording)
    factored = []
    flags = _traced_flags(monkeypatch, factored)
    config = QTDAConfig(
        precision_qubits=3,
        shots=None,
        delta=6.0,
        backend="statevector",
        circuit_engine="ptm",
        noise_channel="depolarizing",
        noise_strength=0.01,
        seed=1,
    )
    problem = EstimationProblem(laplacian=_workload_laplacian(8))
    circuit_backend_result(problem, config, "exact", rng=np.random.default_rng(0))
    (program,) = programs
    assert program.readout == (0, 1, 2)
    assert flags == [False, False, True]
    # Every precision qubit is still its input factor at its own power.
    assert factored == [True, True, True]
    last_wide = [op for op in program.ops if isinstance(op, WideUnitaryOp)][-1]
    after = program.ops[program.ops.index(last_wide) + 1 :]
    assert all(set(op.qubits) <= {0, 1, 2} for op in after)
