"""Fusion: merge adjacent small-support ops into single matrices.

The faithful QTDA circuits are dominated by *long runs of small gates*: the
Trotterised ``U^{2^j}`` powers inside QPE are realised by repeating the same
few controlled 1–3-qubit gates ``2^j`` times, and the inverse QFT is a dense
run of Hadamards and controlled phases.  Applying each of those gates to a
``2^n`` state (let alone a ``(2^n, B)`` ensemble) pays the full ``O(2^n)``
sweep per gate.

One greedy window (:func:`_fuse_run`) fuses ``(qubits, matrix)`` items of
local dimension ``d``: 2 for gate unitaries, 4 for Liouville
superoperators (:mod:`repro.quantum.ptm`, DESIGN.md §16).  It multiplies
adjacent items together while their combined qubit support stays within
``max_fuse_qubits`` and emits one matrix per block, so a repetition chain
over a fixed support collapses to a single matrix and the executor sweeps
the state once instead of ``2^j`` times.  Two thin wrappers feed it:

* :func:`fuse_circuit` — the circuit's gates, for the ensemble route;
* :func:`fuse_ptm_program` — the density simulator's gate-then-channel
  walk, scheduled so each qubit joins the density tensor late and cut to
  the readout's light cone, for the exact noisy ``ptm`` route.

Gates wider than the window, and the *slot* gates a caller names (QPE's
exact controlled powers, whatever their width), pass through unfused and
cut the stream into *segments*; the greedy window never fuses across them,
so a fused stream is the concatenation of its segments fused
independently.  Each segment is cached per content (its ops' qubits and
prefix marks, gate-matrix bytes or channel content keys, and the window,
charged by the distinct buffers it holds) in a
:class:`~repro.utils.cache.BoundedCache`.  A segment hit builds no matrix
and looks up no channel superoperator.  Pass-through gates are never
cached.

The exact QTDA route plans its circuit once per shape, not per request:
the ``statevector`` backend compiles each ``(route, t, q, noise, window)``
once with the controlled powers as slots and binds each request's powers
into them (DESIGN.md §11).  The segment caches serve those compilations
and the Trotter synthesis, whose every gate depends on the Laplacian.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.quantum.channels import NoiseSpec
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.gates import BlockSlot, controlled_block, embed_operator
from repro.quantum.operations import Gate
from repro.quantum.ptm import (
    PTMOp,
    PTMProgram,
    WideUnitaryOp,
    channel_content_key,
    channel_superop,
    gate_superop,
)
from repro.utils.cache import BoundedCache, distinct_nbytes

#: Byte budget for the fused gate-plan segments (their gate matrices; at
#: most ``2^w x 2^w`` each for window ``w``).  Sized by the hit ratio, not
#: the working set: the Laplacian-independent segments of every system size
#: fit many times over (DESIGN.md §11).
FUSION_CACHE_MAX_BYTES = 16 * 1024 * 1024

#: Entry-count backstop on top of the byte budget.
FUSION_CACHE_MAXSIZE = 128

#: Fused gate-plan segments per ``(segment content, window)``.
_PLAN_CACHE = BoundedCache(FUSION_CACHE_MAXSIZE, max_bytes=FUSION_CACHE_MAX_BYTES)

#: Byte budget for the fused superoperator segments (``4^w x 4^w`` each).
PTM_CACHE_MAX_BYTES = 256 * 1024 * 1024

PTM_CACHE_MAXSIZE = 64

#: Fused PTM-program segments per ``(segment content, window)``.
_PTM_CACHE = BoundedCache(PTM_CACHE_MAXSIZE, max_bytes=PTM_CACHE_MAX_BYTES)


def fusion_cache_info() -> Dict[str, int]:
    """Hit/miss/size counters of the gate-plan segment cache."""
    return _PLAN_CACHE.info()


def clear_fusion_cache() -> None:
    """Drop every cached gate-plan segment and reset the counters (tests)."""
    _PLAN_CACHE.clear()


def ptm_cache_info() -> Dict[str, int]:
    """Hit/miss/size counters of the PTM-program segment cache."""
    return _PTM_CACHE.info()


def clear_ptm_cache() -> None:
    """Drop every cached PTM-program segment and reset the counters (tests)."""
    _PTM_CACHE.clear()


# --- the greedy window -------------------------------------------------------


def _join(
    op: np.ndarray, qubits: Tuple[int, ...], block: np.ndarray, support: Tuple[int, ...], d: int
) -> np.ndarray:
    """``embed_operator(op, qubits, support, d) @ block`` without the embedding.

    The embedding is the identity on the other digits, so the product only
    contracts the operator's input digits with the output digits of
    ``qubits`` in ``block``: ``d^(s+k)`` work per column instead of the
    dense product's ``d^(2s)``.
    """
    k, s = len(qubits), len(support)
    positions = [support.index(q) for q in qubits]
    out = np.tensordot(
        np.asarray(op, dtype=complex).reshape((d,) * (2 * k)),
        block.reshape((d,) * s + (d**s,)),
        axes=(list(range(k, 2 * k)), positions),
    )
    return np.moveaxis(out, list(range(k)), positions).reshape(d**s, d**s)


def _fuse_run(items, max_fuse_qubits: int, d: int) -> List[Tuple[Tuple[int, ...], np.ndarray, int]]:
    """Greedily fuse ``(qubits, matrix, prefix)`` items into ``(support,
    matrix, count)`` blocks.

    A block grows while the union of its items' qubits stays within the
    window; a later item left-multiplies the block (it acts after it).
    ``count`` is how many consecutive items the block absorbed.  A
    ``prefix`` item (a single-qubit op on a qubit no earlier op couples)
    only fuses with prefix items of its own qubit, so its block stays a
    single-qubit op the executor can apply to that qubit's input factor.
    """
    blocks: List[Tuple[Tuple[int, ...], np.ndarray, int]] = []
    support: Optional[Tuple[int, ...]] = None
    for qubits, op, prefix in items:
        if support is not None:
            union = tuple(sorted(set(support) | set(qubits)))
            same_kind = prefix == held and (not prefix or union == support)
            if same_kind and len(union) <= max_fuse_qubits:
                if union != support:
                    matrix = embed_operator(matrix, support, union, d)
                matrix = _join(op, qubits, matrix, union, d)
                support, count = union, count + 1
                continue
            blocks.append((support, matrix, count))
        support, held = tuple(sorted(qubits)), prefix
        matrix, count = embed_operator(op, qubits, support, d), 1
    if support is not None:
        blocks.append((support, matrix, count))
    return blocks


def _segment_key(run: Sequence[tuple], max_fuse_qubits: int, contents: Dict[int, bytes]) -> str:
    """Content digest of one segment: each op's qubits, prefix mark and
    gate-matrix bytes or channel content key, plus the window.  The mark
    depends on ops before the segment, so it is keyed, not derived.

    ``contents`` memoises each payload's digest by identity for the whole
    stream (QPE's repetition synthesis and the spec's channels repeat the
    same objects many times).
    """
    digest = hashlib.sha256(f"window={int(max_fuse_qubits)}".encode())
    for qubits, payload, prefix in run:
        content = contents.get(id(payload))
        if content is None:
            if isinstance(payload, Gate):
                content = b"G" + hashlib.sha256(np.ascontiguousarray(payload.matrix)).digest()
            else:
                content = b"C" + channel_content_key(payload).encode()
            contents[id(payload)] = content
        digest.update(repr((tuple(qubits), prefix)).encode())
        digest.update(content)
    return digest.hexdigest()


def _fuse_segments(
    stream: Sequence[tuple],
    max_fuse_qubits: int,
    cache: BoundedCache,
    fuse: Callable[[List[tuple]], tuple],
    wide: Callable[[Gate, Optional[int]], object],
    slots: Sequence[Gate] = (),
) -> List[object]:
    """Cut a ``(qubits, gate_or_channel, prefix)`` stream at every gate
    wider than the window and at every gate of ``slots``; fuse each segment
    once per content, rebuild each gate it was cut at.

    ``fuse`` turns a segment into its fused ops (called on a cache miss
    only), ``wide(gate, slot)`` turns a gate it was cut at into its
    pass-through op; ``slot`` is the gate's position in ``slots`` (matched
    by identity), or ``None``.
    """
    if max_fuse_qubits < 1:
        raise ValueError(f"max_fuse_qubits must be >= 1, got {max_fuse_qubits}")
    slot_of = {id(gate): index for index, gate in enumerate(slots)}
    ops: List[object] = []
    run: List[tuple] = []
    contents: Dict[int, bytes] = {}

    def flush() -> None:
        if not run:
            return
        key = _segment_key(run, max_fuse_qubits, contents)
        fused = cache.get(key)
        if fused is None:
            fused = fuse(run)
            fused = cache.put(key, fused, distinct_nbytes(op.matrix for op in fused))
        ops.extend(fused)
        run.clear()

    for item in stream:
        payload = item[1]
        slot = slot_of.get(id(payload))
        if slot is not None or (isinstance(payload, Gate) and payload.num_qubits > max_fuse_qubits):
            flush()
            ops.append(wide(payload, slot))
        else:
            run.append(item)
    flush()
    return ops


# --- gate plans (the ensemble route) ------------------------------------------


def fuse_circuit(
    circuit: QuantumCircuit, max_fuse_qubits: int = 3, slots: Sequence[Gate] = ()
) -> Tuple[Gate, ...]:
    """The circuit's gates with adjacent small-support runs fused.

    Parameters
    ----------
    circuit:
        Circuit to plan (measurements/barriers are ignored — they carry no
        unitary semantics).
    max_fuse_qubits:
        Largest combined qubit support a fused block may reach.  Gates wider
        than this pass through unfused and split the surrounding blocks.
    slots:
        Gates of ``circuit`` that pass through unfused whatever their width
        (the controlled powers a compiled plan leaves open).

    Returns
    -------
    tuple of Gate
        Equivalent gate sequence: applying the returned gates in order equals
        applying the original gates in order (up to floating-point
        association inside each fused product).  Single-gate blocks and wide
        gates are returned as they are, so an unfusable circuit round-trips
        its gates' qubits and matrices unchanged (on a segment hit, a
        single-gate block is the equal gate of the circuit that filled it).
    """

    def fuse(run: List[tuple]) -> Tuple[Gate, ...]:
        plan, start = [], 0
        for support, matrix, count in _fuse_run(
            ((gate.qubits, gate.matrix, prefix) for _, gate, prefix in run), max_fuse_qubits, 2
        ):
            gate = run[start][1] if count == 1 else Gate(f"fused[{count}]", support, matrix)
            plan.append(gate)
            start += count
        return tuple(plan)

    stream = [(gate.qubits, gate, False) for gate in circuit.gates]
    return tuple(
        _fuse_segments(stream, max_fuse_qubits, _PLAN_CACHE, fuse, lambda gate, _: gate, slots)
    )


# --- PTM programs (the exact noisy route) -------------------------------------
#
# In the Liouville representation noise channels compose exactly like gates:
# both are superoperator matrices that left-multiply.  The program stream
# interleaves each gate with the channels NoiseSpec.channels_for_gate
# attaches to it (the placement the density oracle uses), so an entire
# gate+noise run collapses into one fused superoperator per window.  Wide
# controlled powers cannot have explicit superoperators (4^(1+q) blows up);
# they pass through as unitaries with a precomputed controlled-block fast
# path — but their *noise* is small and keeps fusing on either side.  Before
# fusing, the stream is scheduled so each single-qubit op waits for its
# qubit's next coupling op (_defer_single_qubit_runs): each qubit joins the
# density tensor as late as possible, so the wide powers run on the qubits
# that have joined so far instead of on the whole register, and the noise a
# power leaves on its targets lands right before the next power on them.
# The scheduled stream is then cut to the readout's backward light cone
# (_light_cone), and each qubit's held prefix is marked (_mark_prefixes) so
# the window keeps it apart: the executor applies it to the qubit's input
# factor instead of joining the qubit early.


def _density_walk(circuit: QuantumCircuit, noise_spec: Optional[NoiseSpec]):
    """Yield ``(qubits, gate_or_channel)`` in the density simulator's order:
    each gate, then the channels :meth:`NoiseSpec.channels_for_gate`
    attaches to it.
    """
    noisy = noise_spec is not None and noise_spec.has_gate_noise
    for gate in circuit.gates:
        yield gate.qubits, gate
        if noisy:
            for channel, qubits in noise_spec.channels_for_gate(gate):
                yield qubits, channel


def _defer_single_qubit_runs(stream):
    """Reorder ``(qubits, ...)`` items so each single-qubit op runs late.

    Every run of a qubit's single-qubit ops (its Hadamard, the channels
    attached to it, the channels a coupling op left on it) is held back
    until the qubit's next op that couples it to another qubit, then
    emitted in stream order right before that op.  Ops still held after the
    last coupling op are emitted at the end, in stream order.  The result
    is the same evolution: a held op only moves past ops on other qubits,
    and no two ops sharing a qubit swap.
    """
    pending: Dict[int, List[Tuple[int, tuple]]] = {}
    for index, item in enumerate(stream):
        qubits = item[0]
        if len(qubits) == 1:
            pending.setdefault(qubits[0], []).append((index, item))
            continue
        yield from _in_stream_order(pending.pop(q, []) for q in qubits)
        yield item
    yield from _in_stream_order(pending.values())


def _in_stream_order(held):
    """The items of per-qubit ``[(stream index, item), ...]`` lists, merged
    back into stream order."""
    merged = sorted((entry for entries in held for entry in entries), key=lambda e: e[0])
    return [item for _, item in merged]


def _ptm_op_stream(circuit: QuantumCircuit, noise_spec: Optional[NoiseSpec]):
    """The density walk, scheduled so single-qubit ops run late."""
    return _defer_single_qubit_runs(_density_walk(circuit, noise_spec))


def _light_cone(stream: Sequence[tuple], readout) -> List[tuple]:
    """The items of a ``(qubits, ...)`` stream in the backward light cone
    of the ``readout`` qubits, in stream order.

    An item none of whose qubits a later kept item or the readout touches
    acts only on qubits that are traced out afterwards; every program op is
    trace-preserving, so dropping it is exact.
    """
    live = set(readout)
    kept = []
    for item in reversed(stream):
        if live.intersection(item[0]):
            live.update(item[0])
            kept.append(item)
    kept.reverse()
    return kept


def _mark_prefixes(stream: Sequence[tuple]):
    """``(qubits, payload, prefix)``: ``prefix`` marks a single-qubit item on
    a qubit that no earlier item couples to another qubit."""
    coupled = set()
    for qubits, payload in stream:
        yield qubits, payload, len(qubits) == 1 and qubits[0] not in coupled
        if len(qubits) > 1:
            coupled.update(qubits)


def fuse_ptm_program(
    circuit: QuantumCircuit,
    noise_spec: Optional[NoiseSpec] = None,
    max_fuse_qubits: int = 3,
    readout: Optional[Sequence[int]] = None,
    slots: Sequence[Gate] = (),
):
    """The circuit + noise lowered to a fused :class:`~repro.quantum.ptm.
    PTMProgram` (each segment between wide gates cached per content).

    Gates within the window and every attached noise channel become
    superoperators and fuse greedily; wider gates pass through as
    :class:`~repro.quantum.ptm.WideUnitaryOp` boundaries.  Applying the
    returned ops in order equals the density simulator's gate-then-Kraus walk
    exactly (up to floating-point association inside each fused product),
    on any readout within ``readout`` (default: every qubit).  Ops outside
    the backward light cone of ``readout`` are dropped before fusion, and a
    qubit's single-qubit prefix fuses only with itself, so the executor
    applies it to the qubit's input factor.  ``readout_error`` places no
    channel, so specs that differ only in it share every segment.

    Each gate of ``slots`` (controlled ``I (+) V``, matched by identity)
    passes through whatever its width as a ``WideUnitaryOp`` whose block is
    the open :class:`~repro.quantum.gates.BlockSlot` of its position in
    ``slots``, with no matrix; :meth:`~repro.quantum.ptm.PTMProgram.bind`
    fills it.
    """
    n = circuit.num_qubits
    readout = tuple(range(n)) if readout is None else tuple(sorted({int(q) for q in readout}))
    if any(not 0 <= q < n for q in readout):
        raise ValueError(f"readout qubits {list(readout)} out of range for {n} qubits")

    def fuse(run: List[tuple]) -> Tuple[PTMOp, ...]:
        superops = (
            (
                qubits,
                gate_superop(op.matrix) if isinstance(op, Gate) else channel_superop(op),
                prefix,
            )
            for qubits, op, prefix in run
        )
        return tuple(
            PTMOp(qubits=support, matrix=matrix, sources=count, name=f"ptm[{count}]")
            for support, matrix, count in _fuse_run(superops, max_fuse_qubits, 4)
        )

    def wide(gate: Gate, slot: Optional[int]) -> WideUnitaryOp:
        if slot is not None:
            return WideUnitaryOp(gate.qubits, matrix=None, name=gate.name, block=BlockSlot(slot))
        block = controlled_block(gate.matrix)
        return WideUnitaryOp(qubits=gate.qubits, matrix=gate.matrix, name=gate.name, block=block)

    stream = list(_ptm_op_stream(circuit, noise_spec))
    marked = list(_mark_prefixes(_light_cone(stream, readout)))
    ops = _fuse_segments(marked, max_fuse_qubits, _PTM_CACHE, fuse, wide, slots)
    return PTMProgram(num_qubits=n, ops=tuple(ops), source_ops=len(stream), readout=readout)
