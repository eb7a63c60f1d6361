"""Exact noisy-circuit execution over a Liouville-basis density tensor.

The density-matrix simulator contracts every gate *and* every Kraus
operator against a ``2^n x 2^n`` density matrix, one channel at a time, and
nothing fuses across the gate/channel boundary.  This module runs the same
evolution as a chain of fused *superoperators* (the ``ptm`` route — the name
is historical; in the spirit of quantumsim's ``ptm.py``):

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
still matter (:meth:`PTMExecutor.reduced_state`):

* a single-qubit op on a qubit that has not joined acts on its ``2 x 2``
  input factor, and the qubit joins the tensor at its first other op;
* a controlled power ``I (+) V`` whose control has not joined acts on the
  control's input factor ``f``: it never forms ``f ⊗ rho``, and the control
  joins as the leading axis pair of the result
  (:func:`apply_unitary_to_pauli_ensemble`);
* an unmeasured qubit is traced out right after its last op; when those
  are the targets of a controlled power whose control stays, the power
  returns ``Tr_targets[U ρ U†]`` from four block traces and never forms
  ``U ρ U†`` (:func:`apply_unitary_to_pauli_ensemble`);
* a superoperator on such a traced power's targets only, with nothing
  between them on its qubits, never touches the tensor: the power applies
  its adjoint to the small block-trace operands instead, because
  ``Tr(M S(X)) = Tr(S*(M) X)`` (:func:`_adjoint_apply`);
* an op outside the backward light cone of the measured qubits is skipped.

All of these are exact because every program op is trace-preserving.  The
program builder feeds them: it holds every run of a qubit's single-qubit
ops back until the qubit's next coupling op (exact, since a held op only
moves past ops on other qubits) and fuses a qubit's leading run only with
itself, so each QTDA precision qubit is still its input factor when its
own controlled power of ``U`` runs, and the noise each power leaves on the
system register waits for the next power, where the last power folds it;
and it drops the ops outside the readout's light cone before fusing, so
the system register's trailing noise neither fuses into the precision
qubits' blocks nor keeps the system register alive past the last power.
The readout is the diagonal over the measured qubits, so the result
matches the density route to floating-point accuracy.

None of these decisions reads a matrix: the walk (which ops run, where each
qubit's axis pair sits, what joins, leaves and folds when) is planned once
per program and readout (:func:`_schedule`).  A program compiled with its
controlled powers as open slots (:meth:`PTMProgram.bind`) shares that plan
with every binding, so a run of a known circuit shape only contracts.

Conventions: the first qubit of a support tuple is the most significant
digit, matching the :class:`~repro.quantum.operations.Gate` bit convention.
A trace-preserving superoperator satisfies ``vec(I)ᵀ S = vec(I)ᵀ``; a
unitary gate gives a unitary superoperator.  Both are pinned by the property
tests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.quantum.channels import QuantumChannel
from repro.quantum.engine import DEFAULT_MAX_FUSE_QUBITS
from repro.quantum.gates import BlockSlot, controlled_block
from repro.utils.cache import BoundedCache, distinct_nbytes


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


def apply_unitary_to_pauli_ensemble(
    tensor,
    unitary,
    positions: Sequence[int],
    block: Optional[np.ndarray] = None,
    trace_targets: bool = False,
    control_factor: Optional[np.ndarray] = None,
    folded: Sequence[Tuple[np.ndarray, Sequence[int]]] = (),
):
    """Conjugate the Liouville tensor by a unitary too wide for a superoperator.

    The wide-unitary kernel of the route (the name predates the Liouville
    state and is kept because the benchmark tracer wraps it).  The support
    axes split into (row bit, col bit), all row bits and all col bits are
    grouped, and ``U rho U†`` is two plain contractions on one contiguous
    copy of the tensor, returned in the input's axis order.  ``block`` (from
    :func:`controlled_block`) enables the controlled fast path: with
    ``U = I (+) V`` only the control=1 half of the rows and of the columns
    is touched, at a quarter of the generic contraction cost.

    ``trace_targets`` (controlled ``U`` only, control = ``positions[0]``)
    returns ``Tr_targets[U rho U†]`` instead, for targets that leave the
    tensor right after the op.  Per control block ``(a, b)`` that is
    ``Tr rho_00``, ``Tr(V rho_10)``, ``Tr(rho_01 V†)`` and
    ``Tr(V†V rho_11)``: a diagonal sum and one GEMM of the three small
    operands against one grouped copy of the tensor, never ``U rho U†``.  The (1, 1) block keeps
    ``V†V``, so ``V`` need not be unitary.  The result holds the control's
    (row, col) pair first, then the other non-target pairs in their
    previous order.

    ``folded`` (with ``trace_targets`` only) lists ``(superop, positions)``
    superoperators on target positions, in program order, that act on
    ``rho`` right before the op and are not applied to it.  Since
    ``Tr(M S(X)) = Tr(S*(M) X)``, each one's adjoint acts on the small
    operands ``V``, ``V†V`` and ``V†`` instead, in reverse order
    (:func:`_adjoint_apply`); ``Tr rho_00`` needs nothing, because a
    trace-preserving ``S`` keeps ``S*(I) = I``.

    ``control_factor`` (controlled ``U`` only) is the ``2 x 2`` input
    factor ``f`` of a control that has not joined the tensor; ``positions``
    then lists the targets only and the kernel returns ``U (f ⊗ rho) U†``
    without forming ``f ⊗ rho``.  Its block ``(a, b)`` is ``f_ab X_ab``
    with ``X_00 = rho``, ``X_10 = V rho``, ``X_01 = rho V†`` and
    ``X_11 = V rho V†``: three GEMMs on the un-joined tensor.  With
    ``trace_targets`` it returns the four block traces of ``rho`` itself,
    each scaled by ``f_ab``.  Neither assumes ``rho`` Hermitian or ``V``
    unitary.  The control's pair leads the result, followed by the
    tensor's (non-target, if traced) pairs in their previous order.
    """
    positions = [int(p) for p in positions]
    if (trace_targets or control_factor is not None) and block is None:
        raise ValueError(
            "trace_targets and control_factor need the controlled block V of U = I (+) V"
        )
    if folded and not trace_targets:
        raise ValueError("folded superoperators need trace_targets")
    if control_factor is not None:
        factor = np.asarray(control_factor).reshape(2, 2)
        if trace_targets:
            return _traced_controlled(tensor, np.asarray(block), None, positions, factor, folded)
        return _factored_controlled(tensor, np.asarray(block), positions, factor)
    if trace_targets:
        return _traced_controlled(
            tensor, np.asarray(block), positions[0], positions[1:], folded=folded
        )
    dim = 2 ** len(positions)
    work, perm = _grouped(tensor, positions)
    if block is not None:
        half = dim // 2
        work[half:] = np.matmul(block, work[half:].reshape(half, -1)).reshape(half, dim, -1)
        work[:, half:] = np.matmul(np.conj(block), work[:, half:])
    else:
        work = np.matmul(unitary, work.reshape(dim, -1)).reshape(dim, dim, -1)
        work = np.matmul(np.conj(unitary), work)
    return np.transpose(work.reshape((2,) * tensor.ndim), np.argsort(perm).tolist())


def _grouped(tensor, positions: Sequence[int], lead: Sequence[int] = ()):
    """A contiguous copy of ``tensor`` as ``(2^k, 2^k, rest)``: the row bits
    of the qubits at ``positions``, their col bits, the (row, col) pairs of
    the qubits at ``lead``, then the other axes in order; returned with the
    axis permutation that made it."""
    dim = 2 ** len(positions)
    front = [2 * p for p in positions] + [2 * p + 1 for p in positions] + _bit_axes(lead)
    perm = front + [axis for axis in range(tensor.ndim) if axis not in front]
    return np.ascontiguousarray(np.transpose(tensor, perm)).reshape(dim, dim, -1), perm


def _factored_controlled(tensor, block: np.ndarray, targets: Sequence[int], factor: np.ndarray):
    """``U (f ⊗ rho) U†`` for ``U = I (+) V`` on (control, ``targets``) with
    the control still its input factor ``f``, by the blocks ``f_ab X_ab`` of
    :func:`apply_unitary_to_pauli_ensemble`.  ``f_01`` and ``f_11`` scale the
    small ``V̄`` so that only ``f_10 V rho`` needs a pass of its own."""
    dim = 2 ** len(targets)
    work, perm = _grouped(tensor, targets)
    out = np.empty((2, 2) + work.shape, dtype=np.result_type(work, block, factor))
    v_conj = np.conj(block)
    np.multiply(work, factor[0, 0], out=out[0, 0])
    np.matmul(block, work.reshape(dim, -1), out=out[1, 0].reshape(dim, -1))
    np.matmul(factor[1, 1] * v_conj, out[1, 0], out=out[1, 1])
    out[1, 0] *= factor[1, 0]
    np.matmul(factor[0, 1] * v_conj, work, out=out[0, 1])
    order = [0, 1] + [2 + axis for axis in np.argsort(perm).tolist()]
    return np.transpose(out.reshape((2,) * (tensor.ndim + 2)), order)


def _adjoint_apply(transposed: np.ndarray, superop: np.ndarray, indices: Sequence[int]):
    """``S*(M)ᵀ`` for each ``Mᵀ`` of the ``(B, 2^m, 2^m)`` stack
    ``transposed`` and a superoperator ``S`` on qubits ``indices`` of the
    ``m``, where ``S*`` is the adjoint: ``Tr(S*(M) X) = Tr(M S(X))``.

    ``Tr(M Y) = vec(Mᵀ)ᵀ vec(Y)``, so ``vec(S*(M)ᵀ) = Sᵀ vec(Mᵀ)``: each
    folded qubit's (row, col) bits of ``Mᵀ`` are contracted with ``S``'s
    output digits, and ``S``'s input digits take their place.
    """
    count, dim = transposed.shape[0], transposed.shape[-1]
    m, k = dim.bit_length() - 1, len(indices)
    contracted = [1 + axis for i in indices for axis in (i, m + i)]
    out = np.tensordot(
        transposed.reshape((count,) + (2,) * (2 * m)),
        np.asarray(superop).reshape((2,) * (4 * k)),
        axes=(contracted, list(range(2 * k))),
    )
    # ``out``: the batch axis, the other bit axes in order, then S's input
    # (row, col) digits per folded qubit.
    rest = [axis for axis in range(1, 1 + 2 * m) if axis not in contracted]
    source = {axis: 1 + n for n, axis in enumerate(rest)}
    for n, i in enumerate(indices):
        source[1 + i] = len(rest) + 1 + 2 * n
        source[1 + m + i] = len(rest) + 2 + 2 * n
    order = [0] + [source[axis] for axis in range(1, 1 + 2 * m)]
    return np.ascontiguousarray(out.transpose(order)).reshape(count, dim, dim)


def _traced_controlled(
    tensor,
    block: np.ndarray,
    control: Optional[int],
    targets: Sequence[int],
    factor: Optional[np.ndarray] = None,
    folded: Sequence[Tuple[np.ndarray, Sequence[int]]] = (),
):
    """``Tr_targets[U rho U†]`` for ``U = I (+) V`` on (``control``,
    ``targets``), by the four block traces of
    :func:`apply_unitary_to_pauli_ensemble`, with the ``folded``
    superoperators' adjoints applied to the small operands.  With
    ``factor`` the control has not joined (``control`` is ``None``): every
    block trace reads ``rho`` itself and is scaled by ``factor[a, b]``.

    ``Tr(M X) = Σ_xy Mᵀ_yx X_yx`` is a dot product of ``Mᵀ`` with the
    targets' grouped (row, col) bits, so the three operand traces are one
    GEMM against one grouped copy of the tensor, with the control's pair
    leading the kept axes so each block ``(a, b)`` is a strided slice.
    ``Tr rho_00`` is the grouped copy's diagonal sum.
    """
    dim = 2 ** len(targets)
    # Mᵀ of the operand M of Tr(M rho_ab) for blocks (0, 1), (1, 0) and
    # (1, 1): V†, V and V†V.  (0, 0) takes the identity, which every folded
    # S keeps: S*(I) = I.
    operands = np.stack([block.conj(), block.T, block.T @ block.conj()])
    for superop, positions in reversed(folded):
        operands = _adjoint_apply(operands, superop, [targets.index(p) for p in positions])
    lead = () if control is None else (control,)
    work, _ = _grouped(tensor, targets, lead)
    kept = (2,) * (tensor.ndim - 2 * len(targets) - 2 * len(lead))
    # Columns: the control's four (row, col) blocks when it has joined,
    # then the kept axes.
    work = work.reshape(dim, dim, 4 ** len(lead), -1)
    traces = np.empty((4, work.shape[-1]), dtype=np.result_type(work, operands))
    traces[0] = np.trace(work[:, :, 0])
    rows = operands.reshape(3, 1, dim * dim)
    columns = work.reshape(dim * dim, work.shape[2], -1)
    if control is None:
        traces[1:] = np.matmul(rows, columns[:, 0])[:, 0]
    else:
        traces[1:] = np.matmul(rows, columns[:, 1:].transpose(1, 0, 2))[:, 0]
    out = traces.reshape((2, 2) + kept)
    if factor is not None:
        out *= factor.reshape((2, 2) + (1,) * len(kept))
    return out


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
    #: ``U``; ``None`` for a slot, which only ever holds its block.
    matrix: Optional[np.ndarray]
    name: str = "unitary"
    #: ``V`` of the ``I (+) V`` controlled structure, when present; a
    #: slot's is an open :class:`~repro.quantum.gates.BlockSlot` until
    #: :meth:`PTMProgram.bind`.
    block: Union[np.ndarray, BlockSlot, None] = None


PTMProgramOp = Union[PTMOp, WideUnitaryOp]


@dataclass(frozen=True)
class PTMProgram:
    """A noisy circuit lowered to fused superoperators: ops applied in order."""

    num_qubits: int
    ops: Tuple[PTMProgramOp, ...]
    #: Gate + channel count of the source circuit before fusion.
    source_ops: int
    #: The qubits the program may be read out on: the stream was cut to
    #: their backward light cone before fusion (every qubit: nothing cut).
    readout: Tuple[int, ...]
    #: :meth:`PTMExecutor.reduced_state` schedules per kept-qubit tuple.
    #: They depend on the ops' qubits and kinds only, never on a block, so
    #: a program and every :meth:`bind` copy of it share one memo.
    schedules: Dict[Tuple[int, ...], "_Schedule"] = field(
        default_factory=dict, compare=False, repr=False
    )

    def bind(self, blocks: Sequence[np.ndarray]) -> "PTMProgram":
        """The program with ``blocks[j]`` as the block of slot ``j``."""
        ops = tuple(
            replace(op, block=blocks[op.block.index])
            if isinstance(op, WideUnitaryOp) and isinstance(op.block, BlockSlot)
            else op
            for op in self.ops
        )
        return replace(self, ops=ops)

    @property
    def num_superops(self) -> int:
        """Fused superoperator count (the provenance ``fused_gates`` value)."""
        return sum(1 for op in self.ops if isinstance(op, PTMOp))

    @property
    def num_wide(self) -> int:
        return sum(1 for op in self.ops if isinstance(op, WideUnitaryOp))

    def nbytes(self) -> int:
        """Approximate retained size: the op matrices' distinct buffers.

        A controlled block is usually a view into its matrix
        (:func:`controlled_block`), and a channel standing alone in several
        blocks is one memoised array; each buffer is counted once.
        """
        arrays = [op.matrix for op in self.ops if op.matrix is not None]
        blocks = (getattr(op, "block", None) for op in self.ops)
        arrays += [block for block in blocks if isinstance(block, np.ndarray)]
        return distinct_nbytes(arrays)


def _folds(ops: Sequence[PTMProgramOp], traced: Sequence[int]) -> Dict[int, List[int]]:
    """The superoperators each traced controlled power absorbs.

    Maps the index of each power in ``traced`` to the indices, in program
    order, of the :class:`PTMOp` s it folds: ops on the power's targets
    only, where every op between one and the power that shares a qubit with
    it is folded too.  Such an op only moves past ops on other qubits, so
    it may act last, right before the power that traces its qubits out.
    """
    folds = {}
    for index in traced:
        targets, blocked, found = set(ops[index].qubits[1:]), set(), []
        for j in range(index - 1, -1, -1):
            if targets <= blocked:
                break
            op = ops[j]
            if isinstance(op, PTMOp) and targets.issuperset(op.qubits) and blocked.isdisjoint(
                op.qubits
            ):
                found.append(j)
            else:
                blocked.update(op.qubits)
        folds[index] = found[::-1]
    return folds


class _Step(NamedTuple):
    """One step of a :class:`_Schedule`."""

    #: Index of the op in the program.
    index: int
    #: ``"factor"`` (a single-qubit op on its qubit's input factor),
    #: ``"superop"`` or ``"wide"``.
    kind: str
    #: Qubits whose input factors join the tensor right before the op.
    join: Tuple[int, ...] = ()
    #: Tensor positions of the op's support (a factored power's targets).
    positions: Tuple[int, ...] = ()
    #: ``trace_targets`` of :func:`apply_unitary_to_pauli_ensemble`.
    traced: bool = False
    #: The control of a power whose control has not joined: the power acts
    #: on that control's input factor.
    factored: Optional[int] = None
    #: ``(op index, positions)`` of each superoperator a traced power folds.
    folded: Tuple[Tuple[int, Tuple[int, ...]], ...] = ()
    #: Bit axes of the qubits traced out right after the op.
    leavers: Tuple[int, ...] = ()


class _Schedule(NamedTuple):
    """How :meth:`PTMExecutor.reduced_state` walks a program for one
    kept-qubit tuple (:func:`_schedule`)."""

    steps: Tuple[_Step, ...]
    #: Kept qubits no op touches; they join after the last step.
    missing: Tuple[int, ...]
    #: The axis order that lays the kept qubits' row bits, then their col
    #: bits, out in ``keep`` order.
    order: Tuple[int, ...]


def _schedule(program: PTMProgram, keep: Tuple[int, ...]) -> _Schedule:
    """The reduced-state walk of ``program`` for the kept qubits ``keep``.

    Which ops run (the backward light cone of ``keep``) and how, which
    qubits join before each op and leave after it, which traced powers
    fold which superoperators, and where each qubit's axis pair sits at
    every op.  It reads the ops' qubits and kinds only, never a matrix or
    a block, so it holds for every binding of the program's slots.
    """
    live = set(keep)
    source = []
    for index in range(len(program.ops) - 1, -1, -1):
        if live.intersection(program.ops[index].qubits):
            live.update(program.ops[index].qubits)
            source.append(index)
    source.reverse()
    ops = [program.ops[index] for index in source]
    last = {q: index for index, op in enumerate(ops) for q in op.qubits}

    def leaving(index):
        return [q for q in ops[index].qubits if last[q] == index and q not in keep]

    traced = [
        index
        for index, op in enumerate(ops)
        if isinstance(op, WideUnitaryOp)
        and op.block is not None
        and leaving(index) == list(op.qubits[1:])
    ]
    folds = _folds(ops, traced)
    folded = {j for found in folds.values() for j in found}
    steps = []
    axes = []  # qubit label of each (row bit, col bit) axis pair
    for index, op in enumerate(ops):
        if index in folded:
            continue
        if isinstance(op, PTMOp) and len(op.qubits) == 1 and op.qubits[0] not in axes:
            steps.append(_Step(source[index], "factor"))
            continue
        # A controlled power whose control has not joined acts on the
        # control's input factor; the control joins as its output.
        control = op.qubits[0]
        factored = isinstance(op, WideUnitaryOp) and op.block is not None and control not in axes
        support = op.qubits[1:] if factored else op.qubits
        join = tuple(q for q in support if q not in axes)
        axes.extend(join)
        positions = tuple(axes.index(q) for q in support)
        leavers = leaving(index)
        if isinstance(op, PTMOp):
            step = _Step(source[index], "superop", join, positions)
            axes[:] = list(op.qubits) + [q for q in axes if q not in op.qubits]
        else:
            step = _Step(
                source[index],
                "wide",
                join,
                positions,
                traced=index in folds,
                factored=control if factored else None,
                folded=tuple(
                    (source[j], tuple(axes.index(q) for q in ops[j].qubits))
                    for j in folds.get(index, ())
                ),
            )
            if step.traced:
                axes[:] = [control] + [q for q in axes if q not in op.qubits]
                leavers = []
            elif factored:
                axes.insert(0, control)
        steps.append(step._replace(leavers=tuple(_bit_axes([axes.index(q) for q in leavers]))))
        axes[:] = [q for q in axes if q not in leavers]
    missing = tuple(q for q in keep if q not in axes)
    axes.extend(missing)
    order = [axes.index(q) for q in keep]
    rows_then_cols = tuple([2 * p for p in order] + [2 * p + 1 for p in order])
    return _Schedule(tuple(steps), missing, rows_then_cols)


class PTMExecutor:
    """Evolves product-state inputs through a :class:`PTMProgram`."""

    def __init__(self, max_fuse_qubits: int = DEFAULT_MAX_FUSE_QUBITS):
        self.max_fuse_qubits = int(max_fuse_qubits)

    def program(self, circuit, noise_spec=None, readout=None, slots=()) -> PTMProgram:
        """The circuit's fused superoperator program (cached per segment),
        cut to the backward light cone of ``readout`` (default: every qubit);
        the gates of ``slots`` stay open (:meth:`PTMProgram.bind`)."""
        from repro.quantum.fusion import fuse_ptm_program

        return fuse_ptm_program(
            circuit,
            noise_spec=noise_spec,
            max_fuse_qubits=self.max_fuse_qubits,
            readout=readout,
            slots=slots,
        )

    def reduced_state(
        self, program: PTMProgram, initial_states: Sequence[np.ndarray], qubits: Sequence[int]
    ) -> np.ndarray:
        """Reduced density matrix over ``qubits`` after the program.

        The input is the product ``⊗_j initial_states[j]`` of single-qubit
        density matrices, and ``qubits`` must lie in ``program.readout``.
        Only ops in the backward light cone of ``qubits`` run: an op
        touching none of the qubits that later ops (or the readout) depend
        on is trace-preserving on qubits that are traced out anyway.  A
        single-qubit op on a qubit that has not joined acts on its ``2 x 2``
        input factor, and so does a controlled power on its control's
        factor.  A qubit joins the tensor at its first other op and,
        unless kept, leaves right after its last one; targets of a
        controlled power that all leave right after it are traced out by
        the power itself.  Returns the ``(2^k, 2^k)`` matrix with
        ``qubits[0]`` as the most significant bit.

        The walk (:func:`_schedule`) is planned once per program and kept
        qubits, and shared by every :meth:`PTMProgram.bind` copy; a run only
        applies it.
        """
        keep = tuple(int(q) for q in qubits)
        if len(set(keep)) != len(keep) or any(not 0 <= q < program.num_qubits for q in keep):
            raise ValueError(f"invalid readout qubits {list(keep)} for {program.num_qubits} qubits")
        if not set(keep) <= set(program.readout):
            raise ValueError(
                f"readout qubits {list(keep)} are outside {list(program.readout)}, the readout "
                "the program's light cone was cut for"
            )
        if len(initial_states) != program.num_qubits:
            raise ValueError(
                f"expected {program.num_qubits} initial states, got {len(initial_states)}"
            )
        schedule = program.schedules.get(keep)
        if schedule is None:
            schedule = program.schedules.setdefault(keep, _schedule(program, keep))
        factors = [np.asarray(state, dtype=complex) for state in initial_states]

        def join(tensor, new):
            """Append the input factors of qubits ``new`` as trailing axis pairs."""
            factor = _outer_product([factors[q] for q in new])
            return tensor.reshape(tensor.shape + (1,) * factor.ndim) * factor

        tensor = np.ones((), dtype=complex)
        for step in schedule.steps:
            op = program.ops[step.index]
            if step.kind == "factor":
                (q,) = op.qubits
                factors[q] = (op.matrix @ factors[q].reshape(4)).reshape(2, 2)
                continue
            if step.join:
                tensor = join(tensor, step.join)
            if step.kind == "superop":
                tensor = apply_superop(tensor, op.matrix, step.positions)
            else:
                if isinstance(op.block, BlockSlot):
                    raise ValueError(f"{op.name!r} is an open slot: bind the program first")
                tensor = apply_unitary_to_pauli_ensemble(
                    tensor,
                    op.matrix,
                    step.positions,
                    block=op.block,
                    trace_targets=step.traced,
                    control_factor=None if step.factored is None else factors[step.factored],
                    folded=[(program.ops[j].matrix, positions) for j, positions in step.folded],
                )
            if step.leavers:
                identity = _outer_product([np.eye(2)] * (len(step.leavers) // 2))
                tensor = np.tensordot(
                    tensor, identity, axes=(list(step.leavers), list(range(identity.ndim)))
                )
        if schedule.missing:
            tensor = join(tensor, schedule.missing)
        dim = 2 ** len(keep)
        return np.ascontiguousarray(np.transpose(tensor, schedule.order)).reshape(dim, dim)

    def qtda_distribution(
        self,
        circuit,
        precision_qubits: Sequence[int],
        precision_count: int,
        system_count: int,
        noise_spec=None,
    ) -> np.ndarray:
        """Readout distribution of the mixed-input QTDA circuit, exactly.

        Lowers ``circuit`` to its fused program, cut to the light cone of
        ``precision_qubits`` (:meth:`program`), unless it already is a
        :class:`PTMProgram` with every slot bound; evolves the
        ``|0><0|^t (x) I/2^q`` input, and returns the ``(2^t,)`` marginal
        over ``precision_qubits``.
        """
        if isinstance(circuit, PTMProgram):
            program = circuit
        else:
            program = self.program(circuit, noise_spec=noise_spec, readout=precision_qubits)
        t, q = int(precision_count), int(system_count)
        if t < 0 or q < 0 or t + q != program.num_qubits:
            raise ValueError(
                f"precision {t} + system {q} qubits do not match the "
                f"{program.num_qubits}-qubit program"
            )
        states = [_ZERO_STATE] * t + [_MIXED_STATE] * q
        reduced = self.reduced_state(program, states, precision_qubits)
        return np.ascontiguousarray(np.diagonal(reduced).real)
