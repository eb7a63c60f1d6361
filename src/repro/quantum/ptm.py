"""Exact noisy-circuit execution over a Liouville-basis density tensor.

The density-matrix simulator contracts every gate *and* every Kraus
operator against a ``2^n x 2^n`` density matrix, one channel at a time, and
nothing fuses across the gate/channel boundary.  This module runs the same evolution as a chain
of fused *superoperators* (the ``ptm`` route — the name is historical; in
the spirit of quantumsim's ``ptm.py``):

* the state is the density matrix as a complex tensor with one row axis and
  one column axis per qubit, i.e. in the matrix-unit (Liouville) basis
  ``|r><c|``; qubit ``j``'s pair is the base-4 digit ``2 r + c``;
* a ``k``-qubit unitary ``U`` becomes ``U ⊗ Ū`` and a channel becomes
  ``Σ_m K_m ⊗ K̄_m``, each a ``4^k x 4^k`` matrix with the digits of each
  qubit in (row, col) order (:func:`superop_from_kraus`).  Composition is
  matrix product, so noise channels fuse with gates exactly like gates fuse
  with gates (:func:`repro.quantum.fusion.fuse_ptm_program`);
* controlled powers of ``U`` are too wide for an explicit superoperator
  (``4^k`` with ``k = 1 + q``), so they pass through as unitaries and are
  applied as ``U ρ U†``: one contraction on the row axes, one on the column
  axes, with a fast path exploiting the ``I (+) V`` controlled block
  structure.

The input is a product state, so the tensor only ever holds the qubits that
still matter (:meth:`PTMExecutor.reduced_state`): a qubit joins at its first
op, an unmeasured qubit is traced out right after its last op, and an op
outside the backward light cone of the measured qubits is skipped.  All
three are exact because every program op is trace-preserving.  The program
builder makes the first op come late: it holds each qubit's leading
single-qubit ops back until the qubit's first coupling op (exact, since a
held op only moves past ops on other qubits), so each QTDA precision
qubit joins right before its own controlled power of ``U``.  The readout
is the diagonal over the measured qubits, so the result matches the density
route to floating-point accuracy.

Conventions: the first qubit of a support tuple is the most significant
digit, matching the :class:`~repro.quantum.operations.Gate` bit convention.
A trace-preserving superoperator satisfies ``vec(I)ᵀ S = vec(I)ᵀ``; a
unitary gate gives a unitary superoperator.  Both are pinned by the property
tests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.quantum.channels import QuantumChannel
from repro.quantum.engine import DEFAULT_MAX_FUSE_QUBITS
from repro.utils.cache import BoundedCache


def superop_from_kraus(kraus_ops: Sequence[np.ndarray]) -> np.ndarray:
    """The Liouville superoperator of ``rho -> sum_m K_m rho K_m†``.

    Returns the complex ``(4^k, 4^k)`` matrix ``Σ_m K_m ⊗ K̄_m`` with each
    qubit's (row, col) bits adjacent, so qubit ``j`` owns base-4 digit ``j``
    of both the output and the input index.
    """
    ops = [np.asarray(op, dtype=complex) for op in kraus_ops]
    if not ops:
        raise ValueError("at least one Kraus operator is required")
    dim = ops[0].shape[0]
    k = int(round(np.log2(dim)))
    if 2**k != dim or any(op.shape != (dim, dim) for op in ops):
        raise ValueError("Kraus operators must be square with power-of-two dimension")
    # Outer-product axes: out rows r, in rows r', out cols c, in cols c'
    # (k bits each); regroup as (r_1 c_1 .. r_k c_k, r'_1 c'_1 .. r'_k c'_k).
    total = sum(np.multiply.outer(op, op.conj()) for op in ops)
    perm = [axis for j in range(k) for axis in (j, 2 * k + j)]
    perm += [axis + k for axis in perm]
    return np.ascontiguousarray(total.reshape((2,) * (4 * k)).transpose(perm)).reshape(
        4**k, 4**k
    )


def gate_superop(matrix: np.ndarray) -> np.ndarray:
    """The (unitary) superoperator ``U ⊗ Ū`` of a gate — a one-Kraus channel."""
    return superop_from_kraus([matrix])


# --- per-channel-content superoperator memo ---------------------------------
#
# `QuantumChannel` is frozen and `from_name` is lru-cached, but sweeps over
# noise strengths build fresh channel objects per strength; keying the
# superoperator by the channel's *content* lets every circuit sharing a
# channel (and every repeat of a sweep point) reuse one 4^k x 4^k build.

_PTM_MEMO = BoundedCache(maxsize=256)


def channel_content_key(channel: QuantumChannel) -> str:
    """A digest of the channel's mathematical content (name + Kraus bytes)."""
    digest = hashlib.sha256()
    digest.update(channel.name.encode())
    digest.update(str(int(channel.arity)).encode())
    for op in channel.kraus_ops:
        digest.update(np.ascontiguousarray(op, dtype=complex).tobytes())
    return digest.hexdigest()


def channel_superop(channel: QuantumChannel) -> np.ndarray:
    """The channel's superoperator, memoised per channel content (read-only)."""
    key = channel_content_key(channel)
    cached = _PTM_MEMO.get(key)
    if cached is not None:
        return cached
    superop = superop_from_kraus(channel.kraus_ops)
    superop.setflags(write=False)
    return _PTM_MEMO.put(key, superop)


def ptm_memo_info() -> Dict[str, int]:
    """Hit/miss/size counters of the per-channel superoperator memo."""
    return _PTM_MEMO.info()


def clear_ptm_memo() -> None:
    """Drop the channel-superoperator memo and reset its counters (tests)."""
    _PTM_MEMO.clear()


# --- kernels on the Liouville tensor ----------------------------------------

#: Single-qubit QTDA input states: ``|0><0|`` (precision) and ``I/2`` (system).
_ZERO_STATE = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
_MIXED_STATE = np.eye(2, dtype=complex) / 2.0


def _outer_product(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """``⊗_j matrices[j]`` as a tensor with axes ``(r_1, c_1, r_2, c_2, ...)``."""
    out = np.ones((), dtype=complex)
    for matrix in matrices:
        out = np.multiply.outer(out, np.asarray(matrix, dtype=complex))
    return out


def _bit_axes(positions: Sequence[int]):
    """The (row bit, col bit) tensor axes of the qubits at ``positions``."""
    return [axis for p in positions for axis in (2 * p, 2 * p + 1)]


def apply_superop(tensor, superop, positions: Sequence[int]):
    """Apply a ``k``-qubit superoperator to the qubits at ``positions``.

    ``tensor`` holds two size-2 axes per qubit, row bit then col bit.  One
    ``tensordot`` of the superoperator's input digits against the target
    axes; the result is left as ``tensordot`` lays it out — the ``k``
    targets' axis pairs first (in ``positions`` order), then the other
    pairs in their previous order — so no copy is spent moving them back.
    """
    k = len(positions)
    op = superop.reshape((2,) * (4 * k))
    return np.tensordot(op, tensor, axes=(list(range(2 * k, 4 * k)), _bit_axes(positions)))


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
    tensor,
    unitary,
    positions: Sequence[int],
    block: Optional[np.ndarray] = None,
):
    """Conjugate the Liouville tensor by a unitary too wide for a superoperator.

    The wide-unitary kernel of the route (the name predates the Liouville
    state and is kept because the benchmark tracer wraps it).  The support
    axes split into (row bit, col bit), all row bits and all col bits are
    grouped, and ``U rho U†`` is two plain contractions.  ``block`` (from
    :func:`controlled_block`) enables the controlled fast path: with
    ``U = I (+) V`` only the control=1 half of the rows and of the columns is
    touched, at a quarter of the generic contraction cost.
    """
    positions = [int(p) for p in positions]
    k = len(positions)
    dim = 2**k
    rest = [axis for axis in range(tensor.ndim) if axis not in _bit_axes(positions)]
    perm = [2 * p for p in positions] + [2 * p + 1 for p in positions] + rest
    work = np.ascontiguousarray(np.transpose(tensor, perm)).reshape(dim, dim, -1)
    if block is not None:
        half = dim // 2
        work[half:] = np.matmul(block, work[half:].reshape(half, -1)).reshape(half, dim, -1)
        work[:, half:] = np.matmul(np.conj(block), work[:, half:])
    else:
        work = np.matmul(unitary, work.reshape(dim, -1)).reshape(dim, dim, -1)
        work = np.matmul(np.conj(unitary), work)
    return np.transpose(work.reshape((2,) * tensor.ndim), np.argsort(perm).tolist())


# --- the superoperator program IR -------------------------------------------


@dataclass(frozen=True)
class PTMOp:
    """One fused superoperator: a complex ``4^k x 4^k`` matrix on ``qubits``."""

    qubits: Tuple[int, ...]
    matrix: np.ndarray
    #: How many source gate/channel superoperators were fused into this block.
    sources: int = 1
    name: str = "ptm"


@dataclass(frozen=True)
class WideUnitaryOp:
    """A unitary too wide for an explicit superoperator, applied as ``U ρ U†``."""

    qubits: Tuple[int, ...]
    matrix: np.ndarray
    name: str = "unitary"
    #: ``V`` of the ``I (+) V`` controlled structure, when present.
    block: Optional[np.ndarray] = None


PTMProgramOp = Union[PTMOp, WideUnitaryOp]


@dataclass(frozen=True)
class PTMProgram:
    """A noisy circuit lowered to fused superoperators: ops applied in order."""

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
        """Approximate retained size (the op matrices).

        A controlled block is usually a view into its matrix
        (:func:`controlled_block`) and is then not counted again.
        """
        total = 0
        for op in self.ops:
            total += op.matrix.nbytes
            if (
                isinstance(op, WideUnitaryOp)
                and op.block is not None
                and not np.may_share_memory(op.block, op.matrix)
            ):
                total += op.block.nbytes
        return total


class PTMExecutor:
    """Evolves product-state inputs through a :class:`PTMProgram`."""

    def __init__(self, max_fuse_qubits: int = DEFAULT_MAX_FUSE_QUBITS):
        self.max_fuse_qubits = int(max_fuse_qubits)

    def program(self, circuit, noise_spec=None) -> PTMProgram:
        """The circuit's fused superoperator program (cached per segment)."""
        from repro.quantum.fusion import fuse_ptm_program

        return fuse_ptm_program(
            circuit, noise_spec=noise_spec, max_fuse_qubits=self.max_fuse_qubits
        )

    def reduced_state(
        self, program: PTMProgram, initial_states: Sequence[np.ndarray], qubits: Sequence[int]
    ) -> np.ndarray:
        """Reduced density matrix over ``qubits`` after the program.

        The input is the product ``⊗_j initial_states[j]`` of single-qubit
        density matrices.  Only ops in the backward light cone of ``qubits``
        run: an op touching none of the qubits that later ops (or the
        readout) depend on is trace-preserving on qubits that are traced out
        anyway.  A qubit joins the tensor at its first such op and, unless
        kept, leaves right after its last one.  Returns the
        ``(2^k, 2^k)`` matrix with ``qubits[0]`` as the most significant bit.
        """
        keep = [int(q) for q in qubits]
        if len(set(keep)) != len(keep) or any(not 0 <= q < program.num_qubits for q in keep):
            raise ValueError(f"invalid readout qubits {keep} for {program.num_qubits} qubits")
        if len(initial_states) != program.num_qubits:
            raise ValueError(
                f"expected {program.num_qubits} initial states, got {len(initial_states)}"
            )
        live = set(keep)
        ops = []
        for op in reversed(program.ops):
            if live.intersection(op.qubits):
                live.update(op.qubits)
                ops.append(op)
        ops.reverse()
        last = {q: index for index, op in enumerate(ops) for q in op.qubits}

        def join(tensor, new):
            """Append the input factors of qubits ``new`` as trailing axis pairs."""
            factor = _outer_product([initial_states[q] for q in new])
            axes.extend(new)
            return tensor.reshape(tensor.shape + (1,) * factor.ndim) * factor

        tensor = np.ones((), dtype=complex)
        axes = []  # qubit label of each (row bit, col bit) axis pair
        for index, op in enumerate(ops):
            new = [q for q in op.qubits if q not in axes]
            if new:
                tensor = join(tensor, new)
            positions = [axes.index(q) for q in op.qubits]
            if isinstance(op, PTMOp):
                tensor = apply_superop(tensor, op.matrix, positions)
                axes[:] = list(op.qubits) + [q for q in axes if q not in op.qubits]
            else:
                tensor = apply_unitary_to_pauli_ensemble(
                    tensor, op.matrix, positions, block=op.block
                )
            leaving = [q for q in op.qubits if last[q] == index and q not in keep]
            if leaving:
                identity = _outer_product([np.eye(2)] * len(leaving))
                targets = _bit_axes([axes.index(q) for q in leaving])
                tensor = np.tensordot(tensor, identity, axes=(targets, list(range(identity.ndim))))
                axes[:] = [q for q in axes if q not in leaving]
        missing = [q for q in keep if q not in axes]
        if missing:
            tensor = join(tensor, missing)
        order = [axes.index(q) for q in keep]
        tensor = np.transpose(tensor, [2 * p for p in order] + [2 * p + 1 for p in order])
        dim = 2 ** len(keep)
        return np.ascontiguousarray(tensor).reshape(dim, dim)

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

        Builds (or reuses) the fused program, evolves the
        ``|0><0|^t (x) I/2^q`` input, and returns the ``(2^t,)`` marginal
        over ``precision_qubits``.
        """
        if program is None:
            program = self.program(circuit, noise_spec=noise_spec)
        t, q = int(precision_count), int(system_count)
        if t < 0 or q < 0 or t + q != program.num_qubits:
            raise ValueError(
                f"precision {t} + system {q} qubits do not match the "
                f"{program.num_qubits}-qubit program"
            )
        states = [_ZERO_STATE] * t + [_MIXED_STATE] * q
        reduced = self.reduced_state(program, states, precision_qubits)
        return np.ascontiguousarray(np.diagonal(reduced).real)