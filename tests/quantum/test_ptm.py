"""Property tests for the Pauli-transfer-matrix layer (DESIGN.md §16).

Three algebraic laws pin the PTM construction itself:

* every CPTP channel's PTM is trace-preserving, i.e. its first row is
  ``e_0`` (the identity component never leaks);
* every unitary gate's PTM is real orthogonal;
* PTMs compose by matrix product — ``ptm(A ∘ B) = ptm(A) @ ptm(B)`` on
  random circuits.

The rest locks down the execution machinery: the wide-unitary conjugation
against a brute-force density-matrix reference (controlled fast path
included), program fusion against the density route's gate-then-Kraus walk,
per-channel PTM memoisation, the program cache, and chunking invariance of
the executor.
"""

import numpy as np
import pytest

from repro.quantum.channels import (
    NOISE_CHANNELS,
    TWO_QUBIT_NOISE_CHANNELS,
    NoiseSpec,
    QuantumChannel,
)
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.density_matrix import DensityMatrixSimulator
from repro.quantum.fusion import (
    clear_ptm_cache,
    fuse_ptm_program,
    ptm_cache_info,
)
from repro.quantum.noise import NoiseModel
from repro.quantum.ptm import (
    PTMExecutor,
    apply_ptm_to_ensemble,
    apply_unitary_to_pauli_ensemble,
    channel_content_key,
    channel_ptm,
    clear_ptm_memo,
    controlled_block,
    gate_ptm,
    pauli_basis,
    pauli_vector_marginals,
    ptm_from_kraus,
    ptm_memo_info,
    qtda_initial_pauli_vector,
)


def _random_unitary(rng, k):
    m = rng.standard_normal((2**k, 2**k)) + 1j * rng.standard_normal((2**k, 2**k))
    q, _ = np.linalg.qr(m)
    return q


def _random_density(rng, n):
    a = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def _to_pauli_vector(rho, n):
    """``v_i = Tr[P~_i rho]`` — density matrix to normalized-Pauli components."""
    basis = pauli_basis(n)
    return np.einsum("iab,ba->i", basis, rho).real.reshape(-1, 1)


def _from_pauli_vector(vec, n):
    """``rho = sum_i v_i P~_i`` — inverse of :func:`_to_pauli_vector`."""
    basis = pauli_basis(n)
    return np.einsum("i,iab->ab", vec.ravel(), basis)


# ---------------------------------------------------------------------------
# Algebraic laws of the PTM construction
# ---------------------------------------------------------------------------


def test_pauli_basis_is_orthonormal():
    for n in (1, 2):
        basis = pauli_basis(n)
        grams = np.einsum("iab,jba->ij", basis, basis)
        assert np.allclose(grams, np.eye(4**n), atol=1e-12)
        assert not basis.flags.writeable


@pytest.mark.parametrize("name", NOISE_CHANNELS + TWO_QUBIT_NOISE_CHANNELS)
@pytest.mark.parametrize("strength", [0.0, 0.05, 0.7, 1.0])
def test_cptp_channel_ptm_is_trace_preserving(name, strength):
    """Trace preservation == the PTM's first row is exactly ``e_0``."""
    channel = QuantumChannel.from_name(name, strength)
    ptm = ptm_from_kraus(channel.kraus_ops)
    dim = 4**channel.arity
    assert ptm.shape == (dim, dim)
    assert np.isrealobj(ptm)
    expected_first_row = np.zeros(dim)
    expected_first_row[0] = 1.0
    assert np.allclose(ptm[0], expected_first_row, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("k", [1, 2])
def test_unitary_gate_ptm_is_orthogonal(seed, k):
    u = _random_unitary(np.random.default_rng(seed), k)
    ptm = gate_ptm(u)
    dim = 4**k
    assert np.allclose(ptm @ ptm.T, np.eye(dim), atol=1e-12)
    assert np.allclose(ptm.T @ ptm, np.eye(dim), atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_ptm_composition_is_matrix_product(seed):
    """``ptm(A ∘ B) = ptm(A) @ ptm(B)`` on random same-support pairs."""
    rng = np.random.default_rng(seed)
    for k in (1, 2):
        a = _random_unitary(rng, k)
        b = _random_unitary(rng, k)
        assert np.allclose(gate_ptm(a @ b), gate_ptm(a) @ gate_ptm(b), atol=1e-12)
    # ...and with a channel in the middle: ptm(E_a ∘ N ∘ E_b).
    noise = QuantumChannel.from_name("amplitude-damping", 0.1)
    a, b = _random_unitary(rng, 1), _random_unitary(rng, 1)
    composed = [k @ b for k in noise.kraus_ops]
    composed = [a @ k for k in composed]
    assert np.allclose(
        ptm_from_kraus(composed),
        gate_ptm(a) @ ptm_from_kraus(noise.kraus_ops) @ gate_ptm(b),
        atol=1e-12,
    )


@pytest.mark.parametrize("seed", [0, 1])
def test_random_circuit_ptm_homomorphism(seed):
    """The product of embedded gate PTMs equals the PTM of the circuit
    unitary — composition survives embedding into a larger register."""
    rng = np.random.default_rng(seed)
    n = 3
    circ = QuantumCircuit(n)
    total = np.eye(2**n, dtype=complex)
    program_ptm = np.eye(4**n)
    for _ in range(4):
        k = int(rng.integers(1, 3))
        qubits = list(rng.choice(n, size=k, replace=False))
        u = _random_unitary(rng, k)
        circ.unitary(u, qubits)
        # Embed by applying the local PTM to the identity ensemble.
        embedded = apply_ptm_to_ensemble(np.eye(4**n), gate_ptm(u), qubits, n)
        program_ptm = embedded @ program_ptm
        full = np.eye(1, dtype=complex)
        mats = {q: np.eye(2, dtype=complex) for q in range(n)}
        if k == 1:
            mats[qubits[0]] = u
            for q in range(n):
                full = np.kron(full, mats[q])
        else:
            # Build the embedded two-qubit unitary by direct summation over
            # basis states (order-agnostic reference).
            full = np.zeros((2**n, 2**n), dtype=complex)
            for col in range(2**n):
                bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
                local_col = (bits[qubits[0]] << 1) | bits[qubits[1]]
                for local_row in range(4):
                    amp = u[local_row, local_col]
                    if amp == 0:
                        continue
                    new_bits = list(bits)
                    new_bits[qubits[0]] = (local_row >> 1) & 1
                    new_bits[qubits[1]] = local_row & 1
                    row = sum(b << (n - 1 - q) for q, b in enumerate(new_bits))
                    full[row, col] += amp
        total = full @ total
    assert np.allclose(program_ptm, gate_ptm(total), atol=1e-10)


# ---------------------------------------------------------------------------
# Wide-unitary conjugation and marginals
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1])
def test_wide_unitary_application_matches_density_conjugation(seed):
    rng = np.random.default_rng(seed)
    n = 3
    rho = _random_density(rng, n)
    u = _random_unitary(rng, n)
    vec = _to_pauli_vector(rho, n)
    out = apply_unitary_to_pauli_ensemble(vec, u, list(range(n)), n)
    expected = _to_pauli_vector(u @ rho @ u.conj().T, n)
    assert np.allclose(out, expected, atol=1e-12)


def test_controlled_fast_path_matches_generic_path():
    rng = np.random.default_rng(7)
    n = 3
    v = _random_unitary(rng, 2)
    u = np.eye(8, dtype=complex)
    u[4:, 4:] = v
    block = controlled_block(u)
    assert block is not None and np.array_equal(block, v)
    vec = _to_pauli_vector(_random_density(rng, n), n)
    generic = apply_unitary_to_pauli_ensemble(vec, u, [0, 1, 2], n)
    fast = apply_unitary_to_pauli_ensemble(vec, u, [0, 1, 2], n, block=block)
    assert np.array_equal(generic, fast) or np.allclose(generic, fast, atol=1e-14)
    # A generic unitary has no controlled block.
    assert controlled_block(_random_unitary(rng, 3)) is None


def test_pauli_vector_marginals_match_density_marginals():
    rng = np.random.default_rng(3)
    n = 3
    rho = _random_density(rng, n)
    from repro.quantum.density_matrix import DensityMatrix

    vec = _to_pauli_vector(rho, n)
    for qubits in ([0], [2], [0, 1], [1, 2], [0, 1, 2]):
        got = pauli_vector_marginals(vec, n, qubits)[:, 0]
        want = DensityMatrix(rho).marginal_probabilities(qubits)
        assert np.allclose(got, want, atol=1e-12), qubits


def test_qtda_initial_pauli_vector_is_the_mixed_input_state():
    t, q = 2, 1
    vec = qtda_initial_pauli_vector(t, q)
    rho = _from_pauli_vector(vec, t + q)
    zero = np.zeros((4, 4))
    zero[0, 0] = 1.0
    expected = np.kron(zero, np.eye(2) / 2.0)
    assert np.allclose(rho, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# Channel-PTM memoisation (per content, not identity)
# ---------------------------------------------------------------------------


def test_channel_ptm_is_memoised_per_content():
    clear_ptm_memo()
    a = QuantumChannel.from_name("depolarizing", 0.1)
    b = QuantumChannel.from_name("depolarizing", 0.1)  # distinct object, same content
    c = QuantumChannel.from_name("depolarizing", 0.2)
    assert channel_content_key(a) == channel_content_key(b)
    assert channel_content_key(a) != channel_content_key(c)
    first = channel_ptm(a)
    second = channel_ptm(b)
    third = channel_ptm(c)
    assert first is second  # the memo returns the same array object
    assert not np.allclose(first, third)
    assert not first.flags.writeable
    info = ptm_memo_info()
    assert info["hits"] == 1
    assert info["misses"] == 2
    assert info["entries"] == 2


# ---------------------------------------------------------------------------
# Program fusion vs the density route's gate-then-Kraus walk
# ---------------------------------------------------------------------------


def _assert_program_matches_density(circ, spec, max_fuse_qubits=3):
    rng = np.random.default_rng(11)
    n = circ.num_qubits
    rho = _random_density(rng, n)
    program = fuse_ptm_program(circ, noise_spec=spec, max_fuse_qubits=max_fuse_qubits)
    executor = PTMExecutor(max_fuse_qubits=max_fuse_qubits)
    final = executor.run(program, _to_pauli_vector(rho, n))
    noise_model = None if spec is None else NoiseModel.from_spec(spec)
    reference = DensityMatrixSimulator(noise_model).run(circ, initial_state=rho)
    assert np.allclose(
        _from_pauli_vector(final, n), reference.matrix, atol=1e-10
    )
    return program


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fused_program_matches_density_walk_on_random_circuits(seed):
    rng = np.random.default_rng(seed)
    n = 4
    circ = QuantumCircuit(n)
    for _ in range(6):
        k = int(rng.integers(1, 3))
        qubits = list(rng.choice(n, size=k, replace=False))
        circ.unitary(_random_unitary(rng, k), qubits, name="U" if k == 1 else "CU")
    spec = NoiseSpec(
        channel="depolarizing",
        strength=0.02,
        gate_strengths={"CU": 0.05},
        two_qubit_channel="correlated-zz",
        two_qubit_strength=0.01,
    )
    clear_ptm_cache()
    program = _assert_program_matches_density(circ, spec)
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
    program = _assert_program_matches_density(circ, spec)
    assert program.num_wide == 1
    # Noise-free program works too (spec=None).
    _assert_program_matches_density(circ, None)


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


# ---------------------------------------------------------------------------
# Executor chunking
# ---------------------------------------------------------------------------


def test_executor_batch_splits_at_block_boundaries_are_bit_identical():
    """The answer does not depend on how the batch is chunked: splitting
    the batch axis at pinned block boundaries and concatenating equals the
    whole-batch run bit-for-bit (each pinned column block is evolved by the
    identical kernel calls)."""
    rng = np.random.default_rng(13)
    n = 3
    circ = QuantumCircuit(n)
    for _ in range(4):
        circ.unitary(_random_unitary(rng, 2), list(rng.choice(n, size=2, replace=False)))
    spec = NoiseSpec(channel="depolarizing", strength=0.05)
    program = fuse_ptm_program(circ, noise_spec=spec)
    batch = np.stack(
        [_to_pauli_vector(_random_density(rng, n), n)[:, 0] for _ in range(6)], axis=1
    )
    executor = PTMExecutor(column_block=2)
    whole = executor.run(program, batch)
    split = np.concatenate(
        [executor.run(program, batch[:, s : s + 2]) for s in range(0, 6, 2)], axis=1
    )
    assert np.array_equal(whole, split)
    # Different block widths change gemm shapes, so only numerical (not
    # bitwise) agreement is promised across widths.
    assert np.allclose(whole, PTMExecutor().run(program, batch), atol=1e-12)
