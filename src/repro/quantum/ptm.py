"""Pauli-transfer-matrix (PTM) representation and execution of noisy circuits.

The density route contracts every gate *and* every Kraus operator against a
``2^n x 2^n`` density matrix — exact, but each noise channel is a Python-level
loop of per-qubit Kraus conjugations, and nothing fuses across the
gate/channel boundary.  This module represents the same evolution in the
*Pauli basis* (in the spirit of quantumsim's ``ptm.py``):

* the state is a real length-``4^n`` vector ``r`` with
  ``rho = sum_i r_i P~_i`` over the normalised Pauli basis
  ``P~_i = P_i / sqrt(2)`` per qubit (``Tr[P~_i P~_j] = delta_ij``);
* every ``k``-qubit gate or channel becomes its PTM — a **real**
  ``4^k x 4^k`` matrix ``R_ij = Tr[P~_i E(P~_j)]`` — and composition is plain
  matrix product, so noise channels fuse with gates exactly like gates fuse
  with gates (:func:`repro.quantum.fusion.fuse_ptm_program`);
* executing the circuit is a chain of batched ``tensordot`` contractions over
  a ``(4^n, B)`` array behind the same ``xp = numpy|cupy`` seam the ensemble
  engine uses, with the same memory-budget column chunking.

Exactness is the point: unlike the trajectory route there is no sampling —
the final Pauli vector *is* the density matrix, so the readout matches the
density route to floating-point accuracy while the per-gate noise rides
inside fused superoperators instead of per-qubit Kraus loops.

Conventions (shared with the rest of the module):

* Pauli index digits are base-4 (``0..3 = I, X, Y, Z``); the first qubit of
  a support tuple is the most significant digit, matching the
  :class:`~repro.quantum.operations.Gate` bit convention.
* A trace-preserving channel has first PTM row ``e_0`` (``Tr`` of the
  normalised identity is preserved); a unitary channel has an orthogonal
  PTM.  Both are pinned by the property tests.

Controlled powers of ``U`` are too wide for an explicit PTM (``4^k`` with
``k = 1 + q``), so they are applied by a basis round-trip: each support axis
is rotated from the Pauli basis to the matrix-unit basis (a single-qubit
unitary ``T``), the row/col bit groups are conjugated by the unitary (with a
fast path exploiting the ``I (+) V`` controlled block structure), and the
axes are rotated back — the Pauli-basis analogue of the density route's
two-sided contraction, at the same leading cost but without giving up fusion
for everything else.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.quantum.channels import QuantumChannel
from repro.quantum.engine import (
    DEFAULT_COLUMN_BLOCK,
    DEFAULT_MAX_FUSE_QUBITS,
    DEFAULT_MEMORY_BUDGET_BYTES,
    array_module,
    to_host,
)

#: Single-qubit Pauli matrices in index order I, X, Y, Z (unnormalised).
PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


@lru_cache(maxsize=8)
def pauli_basis(num_qubits: int) -> np.ndarray:
    """The normalised ``num_qubits``-qubit Pauli basis, shape ``(4^k, 2^k, 2^k)``.

    ``basis[i]`` is the tensor product of single-qubit ``P~ = P / sqrt(2)``
    selected by the base-4 digits of ``i`` (first qubit = most significant
    digit), so ``Tr[basis[i].conj().T @ basis[j]] = delta_ij``.
    """
    k = int(num_qubits)
    if k < 1:
        raise ValueError(f"num_qubits must be >= 1, got {num_qubits}")
    single = np.stack(PAULIS) / np.sqrt(2.0)
    out = single
    for _ in range(k - 1):
        dim_p, dim_m = out.shape[0], out.shape[1]
        out = np.einsum("iab,jcd->ijacbd", out, single).reshape(
            4 * dim_p, 2 * dim_m, 2 * dim_m
        )
    out.setflags(write=False)
    return out


def ptm_from_kraus(kraus_ops: Sequence[np.ndarray]) -> np.ndarray:
    """The PTM of the channel ``rho -> sum_m K_m rho K_m†``.

    Returns the real ``(4^k, 4^k)`` matrix ``R_ij = Tr[P~_i sum_m K_m P~_j
    K_m†]``; any Hermiticity-preserving map has a real PTM, so the imaginary
    part (floating-point dust) is dropped.
    """
    ops = [np.asarray(op, dtype=complex) for op in kraus_ops]
    if not ops:
        raise ValueError("at least one Kraus operator is required")
    dim = ops[0].shape[0]
    k = int(round(np.log2(dim)))
    if 2**k != dim or any(op.shape != (dim, dim) for op in ops):
        raise ValueError("Kraus operators must be square with power-of-two dimension")
    basis = pauli_basis(k)
    ptm = np.zeros((4**k, 4**k))
    for op in ops:
        conjugated = np.einsum("ab,jbc,dc->jad", op, basis, op.conj())
        ptm += np.einsum("iab,jba->ij", basis, conjugated).real
    return ptm


def gate_ptm(matrix: np.ndarray) -> np.ndarray:
    """The (orthogonal) PTM of a unitary gate — a one-Kraus channel."""
    return ptm_from_kraus([matrix])


# --- per-channel-content PTM memo -----------------------------------------
#
# `QuantumChannel` is frozen and `from_name` is lru-cached, but sweeps over
# noise strengths build fresh channel objects per strength; keying the PTM by
# the channel's *content* lets every circuit sharing a channel (and every
# repeat of a sweep point) reuse one 4^k x 4^k construction.

_PTM_MEMO_MAXSIZE = 256
_PTM_MEMO: "OrderedDict[str, np.ndarray]" = OrderedDict()
_PTM_MEMO_LOCK = threading.Lock()
_PTM_MEMO_HITS = 0
_PTM_MEMO_MISSES = 0


def channel_content_key(channel: QuantumChannel) -> str:
    """A digest of the channel's mathematical content (name + Kraus bytes)."""
    digest = hashlib.sha256()
    digest.update(channel.name.encode())
    digest.update(str(int(channel.arity)).encode())
    for op in channel.kraus_ops:
        digest.update(np.ascontiguousarray(op, dtype=complex).tobytes())
    return digest.hexdigest()


def channel_ptm(channel: QuantumChannel) -> np.ndarray:
    """The channel's PTM, memoised per channel content (read-only array)."""
    global _PTM_MEMO_HITS, _PTM_MEMO_MISSES
    key = channel_content_key(channel)
    with _PTM_MEMO_LOCK:
        cached = _PTM_MEMO.get(key)
        if cached is not None:
            _PTM_MEMO.move_to_end(key)
            _PTM_MEMO_HITS += 1
            return cached
    ptm = ptm_from_kraus(channel.kraus_ops)
    ptm.setflags(write=False)
    with _PTM_MEMO_LOCK:
        _PTM_MEMO_MISSES += 1
        if key not in _PTM_MEMO:
            _PTM_MEMO[key] = ptm
            while len(_PTM_MEMO) > _PTM_MEMO_MAXSIZE:
                _PTM_MEMO.popitem(last=False)
        else:
            ptm = _PTM_MEMO[key]
    return ptm


def ptm_memo_info() -> Dict[str, int]:
    """Hit/miss/size counters of the per-channel PTM memo."""
    with _PTM_MEMO_LOCK:
        return {
            "hits": _PTM_MEMO_HITS,
            "misses": _PTM_MEMO_MISSES,
            "entries": len(_PTM_MEMO),
        }


def clear_ptm_memo() -> None:
    """Drop the channel-PTM memo and reset its counters (tests)."""
    global _PTM_MEMO_HITS, _PTM_MEMO_MISSES
    with _PTM_MEMO_LOCK:
        _PTM_MEMO.clear()
        _PTM_MEMO_HITS = 0
        _PTM_MEMO_MISSES = 0


# --- Pauli-vector states and readout ---------------------------------------

#: Pauli coefficients of |0><0| = (I + Z)/2 in the normalised basis.
_ZERO_FACTOR = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
#: Pauli coefficients of the maximally mixed single-qubit state I/2.
_MIXED_FACTOR = np.array([1.0, 0.0, 0.0, 0.0]) / np.sqrt(2.0)


def qtda_initial_pauli_vector(precision_qubits: int, system_qubits: int) -> np.ndarray:
    """Pauli vector of ``|0><0|^t (x) I/2^q`` — the QTDA mixed input state.

    Shape ``(4^(t+q),)``; a Kronecker product of per-qubit factors, so no
    density matrix is ever materialised.
    """
    t, q = int(precision_qubits), int(system_qubits)
    if t < 0 or q < 0 or t + q < 1:
        raise ValueError("need at least one qubit")
    factors = [_ZERO_FACTOR] * t + [_MIXED_FACTOR] * q
    return reduce(np.kron, factors)


def apply_ptm_to_ensemble(vectors, ptm, qubits: Sequence[int], num_qubits: int, xp=np):
    """Apply a ``k``-qubit PTM to every column of a ``(4^n, B)`` Pauli array.

    The Pauli-basis twin of :func:`repro.quantum.engine.
    apply_gate_to_ensemble`: one ``tensordot`` of the superoperator's column
    digits against the target qubit axes of the rank-``n+1`` tensor (batch
    axis last), so a fused noise+gate block costs one sweep of the array.
    """
    qubits = [int(q) for q in qubits]
    k = len(qubits)
    batch = vectors.shape[-1]
    tensor = vectors.reshape([4] * num_qubits + [batch])
    op = ptm.reshape([4] * (2 * k))
    tensor = xp.tensordot(op, tensor, axes=(list(range(k, 2 * k)), qubits))
    tensor = xp.moveaxis(tensor, list(range(k)), qubits)
    return xp.ascontiguousarray(tensor).reshape(4**num_qubits, batch)


@lru_cache(maxsize=1)
def _pauli_to_matrix_unit() -> np.ndarray:
    """Unitary ``T`` with ``T[2r + c, i] = P~_i[r, c]`` (Pauli -> matrix unit)."""
    t = pauli_basis(1).reshape(4, 4).T.copy()
    t.setflags(write=False)
    return t


#: Axes converted per pass in the wide-gate basis round-trip.  Each pass
#: sweeps the whole tensor, so grouping (a ``4^g x 4^g`` Kronecker power of
#: ``T`` per pass) trades tiny-matrix passes for fewer full-array sweeps.
_CONVERT_GROUP = 3


@lru_cache(maxsize=8)
def _convert_kron(group: int, inverse: bool) -> np.ndarray:
    """``T`` (or ``T†``) Kronecker-powered over ``group`` qubits."""
    single = _pauli_to_matrix_unit()
    if inverse:
        single = single.conj().T
    out = single
    for _ in range(group - 1):
        out = np.kron(out, single)
    out = np.ascontiguousarray(out)
    out.setflags(write=False)
    return out


def _convert_leading_axes(tensor, k: int, xp, inverse: bool):
    """Rotate the ``k`` leading size-4 axes between Pauli and matrix-unit
    bases, ``_CONVERT_GROUP`` axes per full-tensor pass."""
    start = 0
    while start < k:
        group = min(_CONVERT_GROUP, k - start)
        conv = xp.asarray(_convert_kron(group, inverse)).reshape([4] * (2 * group))
        tensor = xp.moveaxis(
            xp.tensordot(
                conv,
                tensor,
                axes=(list(range(group, 2 * group)), list(range(start, start + group))),
            ),
            list(range(group)),
            list(range(start, start + group)),
        )
        start += group
    return tensor


def controlled_block(matrix: np.ndarray) -> Optional[np.ndarray]:
    """The ``V`` of ``U = I (+) V`` if ``matrix`` has exact controlled block
    structure (control = most significant qubit), else ``None``."""
    matrix = np.asarray(matrix)
    half = matrix.shape[0] // 2
    if half < 1:
        return None
    if (
        np.array_equal(matrix[:half, :half], np.eye(half, dtype=matrix.dtype))
        and not matrix[:half, half:].any()
        and not matrix[half:, :half].any()
    ):
        return matrix[half:, half:]
    return None


def apply_unitary_to_pauli_ensemble(
    vectors,
    unitary,
    qubits: Sequence[int],
    num_qubits: int,
    xp=np,
    block: Optional[np.ndarray] = None,
):
    """Conjugate a ``(4^n, B)`` Pauli array by a unitary too wide for a PTM.

    Each support axis is rotated to the matrix-unit basis (``T``, 4x4), the
    grouped row/col bit axes are conjugated as ``U rho U†``, and the axes are
    rotated back; the result is real up to floating-point dust, which is
    dropped.  ``block`` (from :func:`controlled_block`) enables the
    controlled fast path: with ``U = I (+) V`` only the control=1 half of the
    rows/columns is touched, at a quarter of the generic contraction cost.
    """
    qubits = [int(q) for q in qubits]
    k = len(qubits)
    batch = vectors.shape[-1]
    dim = 2**k
    tensor = xp.asarray(vectors).astype(complex).reshape([4] * num_qubits + [batch])
    tensor = xp.moveaxis(tensor, qubits, list(range(k)))
    rest_shape = tensor.shape[k:]
    tensor = _convert_leading_axes(tensor, k, xp, inverse=False)
    # Split each support axis 4 -> (row bit, col bit), then group all row
    # bits and all col bits so the conjugation is two plain contractions.
    tensor = tensor.reshape((2, 2) * k + tuple(rest_shape))
    row_axes = list(range(0, 2 * k, 2))
    col_axes = list(range(1, 2 * k, 2))
    tensor = xp.moveaxis(tensor, row_axes + col_axes, list(range(2 * k)))
    tensor = xp.ascontiguousarray(tensor).reshape(dim, dim, -1)
    if block is not None:
        half = dim // 2
        v = xp.asarray(block).astype(complex)
        tensor[half:, :, :] = xp.tensordot(v, tensor[half:, :, :], axes=([1], [0]))
        tensor[:, half:, :] = xp.moveaxis(
            xp.tensordot(xp.conj(v), tensor[:, half:, :], axes=([1], [1])), 0, 1
        )
    else:
        u = xp.asarray(unitary).astype(complex)
        tensor = xp.tensordot(u, tensor, axes=([1], [0]))
        tensor = xp.moveaxis(xp.tensordot(xp.conj(u), tensor, axes=([1], [1])), 0, 1)
    tensor = tensor.reshape((2,) * (2 * k) + tuple(rest_shape))
    tensor = xp.moveaxis(tensor, list(range(2 * k)), row_axes + col_axes)
    tensor = tensor.reshape((4,) * k + tuple(rest_shape))
    tensor = _convert_leading_axes(tensor, k, xp, inverse=True)
    tensor = xp.real(tensor)
    tensor = xp.moveaxis(tensor, list(range(k)), qubits)
    return xp.ascontiguousarray(tensor).reshape(4**num_qubits, batch)


#: Trace over a qubit: ``Tr[P~_i] = sqrt(2) delta_i0``.
_TRACE_FACTOR = np.array([np.sqrt(2.0), 0.0, 0.0, 0.0])
#: Readout row ``b``: ``Tr[P~_i (I + (-1)^b Z)/2]`` — maps (I, Z) to (p0, p1).
_READOUT = np.array([[1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, -1.0]]) / np.sqrt(2.0)


def pauli_vector_marginals(vectors, num_qubits: int, qubits: Sequence[int], xp=np):
    """Measurement marginals of a ``(4^n, B)`` Pauli array over ``qubits``.

    Returns a ``(2^k, B)`` array of probabilities; ``qubits[0]`` is the most
    significant readout bit, matching :func:`repro.quantum.measurement.
    marginal_probabilities`.  Unmeasured qubits are traced out (their ``I``
    component), measured axes are projected through the (I, Z) -> (p0, p1)
    readout map.
    """
    qubits = [int(q) for q in qubits]
    batch = vectors.shape[-1]
    tensor = vectors.reshape([4] * num_qubits + [batch])
    trace = xp.asarray(_TRACE_FACTOR)
    readout = xp.asarray(_READOUT)
    for axis in sorted(set(range(num_qubits)) - set(qubits), reverse=True):
        tensor = xp.tensordot(tensor, trace, axes=([axis], [0]))
    remaining = sorted(qubits)
    for qubit in qubits:
        position = remaining.index(qubit)
        tensor = xp.tensordot(tensor, readout, axes=([position], [1]))
        remaining.pop(position)
    # Axes now: batch, then one bit per measured qubit in request order.
    tensor = xp.moveaxis(tensor, 0, -1)
    return xp.ascontiguousarray(tensor).reshape(2 ** len(qubits), batch)


# --- the PTM program IR ------------------------------------------------------


@dataclass(frozen=True)
class PTMOp:
    """One fused superoperator: a real ``4^k x 4^k`` PTM on ``qubits``."""

    qubits: Tuple[int, ...]
    matrix: np.ndarray
    #: How many source gate/channel PTMs were fused into this block.
    sources: int = 1
    name: str = "ptm"


@dataclass(frozen=True)
class WideUnitaryOp:
    """A unitary too wide for an explicit PTM, applied by basis round-trip."""

    qubits: Tuple[int, ...]
    matrix: np.ndarray
    name: str = "unitary"
    #: ``V`` of the ``I (+) V`` controlled structure, when present.
    block: Optional[np.ndarray] = None


PTMProgramOp = Union[PTMOp, WideUnitaryOp]


@dataclass(frozen=True)
class PTMProgram:
    """A noisy circuit lowered to Pauli-transfer form: ops applied in order."""

    num_qubits: int
    ops: Tuple[PTMProgramOp, ...]
    #: Gate + channel count of the source circuit before fusion.
    source_ops: int

    @property
    def num_superops(self) -> int:
        """Fused superoperator count (the provenance ``fused_gates`` value)."""
        return sum(1 for op in self.ops if isinstance(op, PTMOp))

    @property
    def num_wide(self) -> int:
        return sum(1 for op in self.ops if isinstance(op, WideUnitaryOp))

    def nbytes(self) -> int:
        """Approximate retained size (the op matrices)."""
        total = 0
        for op in self.ops:
            total += op.matrix.nbytes
            if isinstance(op, WideUnitaryOp) and op.block is not None:
                total += op.block.nbytes
        return total


class PTMExecutor:
    """Executes :class:`PTMProgram` s over batched Pauli-vector arrays.

    Mirrors :class:`~repro.quantum.engine.EnsembleExecutor`: the batch axis
    is processed in pinned column blocks (``evolution_block``) sized to a
    byte budget, so the result does not depend on how the batch is chunked;
    the array module is the ``xp`` seam
    (:func:`~repro.quantum.engine.array_module`).  The QTDA route runs a
    single column (the one mixed initial state).
    """

    def __init__(
        self,
        max_fuse_qubits: int = DEFAULT_MAX_FUSE_QUBITS,
        memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES,
        column_block: Optional[int] = None,
        xp=None,
    ):
        self.max_fuse_qubits = int(max_fuse_qubits)
        self.memory_budget_bytes = int(memory_budget_bytes)
        self.column_block = column_block
        self.xp = xp if xp is not None else array_module()

    def program(self, circuit, noise_spec=None) -> PTMProgram:
        """The circuit's fused PTM program (cached per circuit + spec)."""
        from repro.quantum.fusion import fuse_ptm_program

        return fuse_ptm_program(
            circuit, noise_spec=noise_spec, max_fuse_qubits=self.max_fuse_qubits
        )

    def max_batch(self, num_qubits: int) -> int:
        """Columns that fit the byte budget (complex wide-gate intermediates
        dominate at 16 bytes per entry)."""
        bytes_per_column = (4**num_qubits) * 16
        return max(1, self.memory_budget_bytes // bytes_per_column)

    def evolution_block(self, num_qubits: int) -> int:
        """Pinned column-block width (budget-capped), for stable chunk cuts."""
        block = self.column_block if self.column_block is not None else DEFAULT_COLUMN_BLOCK
        return max(1, min(self.max_batch(num_qubits), int(block)))

    def run(self, program: PTMProgram, vectors) -> np.ndarray:
        """Apply the program to a ``(4^n, B)`` Pauli array, returning on host."""
        n = program.num_qubits
        vectors = np.asarray(vectors, dtype=float)
        if vectors.ndim == 1:
            vectors = vectors[:, None]
        if vectors.shape[0] != 4**n:
            raise ValueError(
                f"expected leading dimension {4**n} for {n} qubits, got {vectors.shape[0]}"
            )
        xp = self.xp
        prepared = self._prepare(program)
        block = self.evolution_block(n)
        out = np.empty_like(vectors)
        for start in range(0, vectors.shape[1], block):
            chunk = xp.asarray(vectors[:, start : start + block])
            out[:, start : start + block] = to_host(self._evolve(chunk, prepared, n))
        return out

    def _prepare(self, program: PTMProgram):
        """Device-resident op matrices (one transfer per run)."""
        xp = self.xp
        prepared = []
        for op in program.ops:
            if isinstance(op, PTMOp):
                prepared.append((op, xp.asarray(op.matrix), None))
            else:
                block = xp.asarray(op.block) if op.block is not None else None
                prepared.append((op, xp.asarray(op.matrix), block))
        return prepared

    def _evolve(self, chunk, prepared, num_qubits: int):
        xp = self.xp
        for op, matrix, block in prepared:
            if isinstance(op, PTMOp):
                chunk = apply_ptm_to_ensemble(chunk, matrix, op.qubits, num_qubits, xp=xp)
            else:
                chunk = apply_unitary_to_pauli_ensemble(
                    chunk, matrix, op.qubits, num_qubits, xp=xp, block=block
                )
        return chunk

    def qtda_distribution(
        self,
        circuit,
        precision_qubits: Sequence[int],
        precision_count: int,
        system_count: int,
        noise_spec=None,
        program: Optional[PTMProgram] = None,
    ) -> np.ndarray:
        """Readout distribution of the mixed-input QTDA circuit, exactly.

        Builds (or reuses) the fused program, evolves the single
        ``|0><0|^t (x) I/2^q`` Pauli vector, and returns the host
        ``(2^t,)`` marginal over ``precision_qubits``.
        """
        if program is None:
            program = self.program(circuit, noise_spec=noise_spec)
        initial = qtda_initial_pauli_vector(precision_count, system_count)
        final = self.run(program, initial)
        marginal = pauli_vector_marginals(
            final, program.num_qubits, list(precision_qubits), xp=np
        )
        return np.ascontiguousarray(marginal[:, 0])
