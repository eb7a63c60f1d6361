"""Gate fusion: merge adjacent small-support gates into single matrices.

The faithful QTDA circuits are dominated by *long runs of small gates*: the
Trotterised ``U^{2^j}`` powers inside QPE are realised by repeating the same
few controlled 1–3-qubit gates ``2^j`` times, and the inverse QFT is a dense
run of Hadamards and controlled phases.  Applying each of those gates to a
``2^n`` state (let alone a ``(2^n, B)`` ensemble) pays the full ``O(2^n)``
sweep per gate.

:func:`fuse_circuit` walks the gate list once and greedily multiplies
adjacent gates together while their combined qubit support stays within
``max_fuse_qubits``, emitting one fused :class:`~repro.quantum.operations.
Gate` per block.  A repetition chain over a fixed support collapses to a
single matrix, so the downstream executor sweeps the state once instead of
``2^j`` times.  Gates wider than the window (the exact controlled powers)
pass through untouched and act as block boundaries, preserving order.

Fused plans are cached per ``(circuit fingerprint, window)`` — the same
circuit is re-planned by every ensemble chunk, every repeated sample of a
batch and every shot-count/precision sweep that revisits a Laplacian, and
the fingerprint (:meth:`~repro.quantum.circuit.QuantumCircuit.fingerprint`)
lets all of them share one fusion pass.  (Distinct ε values produce distinct
Hamiltonians, hence distinct fingerprints — those pay for their own pass.)
The cache is bounded by *bytes* (a plan retains its gate matrices, including
the wide controlled powers that pass through unfused, and can pin them long
after the circuit itself is garbage), with an entry-count backstop.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.quantum.channels import NoiseSpec
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.operations import Gate

#: Byte budget for retained plans (gate matrices dominate; wide pass-through
#: controlled powers are counted too — at q system qubits each is a
#: ``2^(1+q) x 2^(1+q)`` complex matrix, so a q=6, t=4 plan is ~1 MB).
#: Sized by the hit ratio, not the working set: distinct clouds give distinct
#: circuits, and repeated requests are answered by the service result cache
#: before they reach fusion (DESIGN.md §11).
FUSION_CACHE_MAX_BYTES = 16 * 1024 * 1024

#: Entry-count backstop on top of the byte budget.
FUSION_CACHE_MAXSIZE = 128

_CACHE: "OrderedDict[Tuple[str, int], Tuple[Gate, ...]]" = OrderedDict()
_CACHE_BYTES: Dict[Tuple[str, int], int] = {}
_CACHE_LOCK = threading.Lock()
_CACHE_HITS = 0
_CACHE_MISSES = 0
_CACHE_TOTAL_BYTES = 0


def _plan_bytes(plan: Tuple[Gate, ...]) -> int:
    """Approximate retained size of a plan (its gate matrices)."""
    return sum(gate.matrix.nbytes for gate in plan)


def fusion_cache_info() -> Dict[str, int]:
    """Hit/miss/size counters of the fused-plan cache."""
    with _CACHE_LOCK:
        return {
            "hits": _CACHE_HITS,
            "misses": _CACHE_MISSES,
            "entries": len(_CACHE),
            "bytes": _CACHE_TOTAL_BYTES,
        }


def clear_fusion_cache() -> None:
    """Drop every cached fused plan and reset the counters (tests)."""
    global _CACHE_HITS, _CACHE_MISSES, _CACHE_TOTAL_BYTES
    with _CACHE_LOCK:
        _CACHE.clear()
        _CACHE_BYTES.clear()
        _CACHE_HITS = 0
        _CACHE_MISSES = 0
        _CACHE_TOTAL_BYTES = 0


def _embed_matrix(matrix: np.ndarray, qubits: Tuple[int, ...], support: Tuple[int, ...]) -> np.ndarray:
    """Expand a gate matrix on ``qubits`` to the full ``support`` register.

    ``support`` is an ordered tuple of qubit labels defining the fused
    block's index space (first label = most significant bit, matching the
    :class:`Gate` convention).  The embedding reuses the ensemble kernel:
    applying the gate to the ``2^s`` basis states (the identity matrix viewed
    as an ensemble) produces exactly the full matrix, column by column.
    """
    if tuple(qubits) == tuple(support):
        return np.asarray(matrix, dtype=complex)
    from repro.quantum.engine import apply_gate_to_ensemble

    positions = [support.index(q) for q in qubits]
    s = len(support)
    identity = np.eye(2**s, dtype=complex)
    return apply_gate_to_ensemble(identity, np.asarray(matrix, dtype=complex), positions, s)


def fuse_circuit(circuit: QuantumCircuit, max_fuse_qubits: int = 3) -> Tuple[Gate, ...]:
    """The circuit's gates with adjacent small-support runs fused.

    Parameters
    ----------
    circuit:
        Circuit to plan (measurements/barriers are ignored — they carry no
        unitary semantics).
    max_fuse_qubits:
        Largest combined qubit support a fused block may reach.  Gates wider
        than this pass through unfused and split the surrounding blocks.

    Returns
    -------
    tuple of Gate
        Equivalent gate sequence: applying the returned gates in order equals
        applying the original gates in order (up to floating-point
        association inside each fused product).  Single-gate blocks return
        the *original* gate object, so an unfusable circuit round-trips
        unchanged.
    """
    if max_fuse_qubits < 1:
        raise ValueError(f"max_fuse_qubits must be >= 1, got {max_fuse_qubits}")
    key = (circuit.fingerprint(), int(max_fuse_qubits))
    global _CACHE_HITS, _CACHE_MISSES
    with _CACHE_LOCK:
        cached = _CACHE.get(key)
        if cached is not None:
            _CACHE.move_to_end(key)
            _CACHE_HITS += 1
            return cached

    fused: List[Gate] = []
    support: Optional[Tuple[int, ...]] = None
    matrix: Optional[np.ndarray] = None
    block: List[Gate] = []

    def flush() -> None:
        nonlocal support, matrix, block
        if support is None:
            return
        if len(block) == 1:
            fused.append(block[0])
        else:
            fused.append(
                Gate(name=f"fused[{len(block)}]", qubits=support, matrix=matrix)
            )
        support, matrix, block = None, None, []

    for gate in circuit.gates:
        if gate.num_qubits > max_fuse_qubits:
            flush()
            fused.append(gate)
            continue
        if support is None:
            support = tuple(sorted(gate.qubits))
            matrix = _embed_matrix(gate.matrix, gate.qubits, support)
            block = [gate]
            continue
        union = tuple(sorted(set(support) | set(gate.qubits)))
        if len(union) <= max_fuse_qubits:
            if union != support:
                matrix = _embed_matrix(matrix, support, union)
            # Later gate acts after the block: left-multiply its embedding.
            matrix = _embed_matrix(gate.matrix, gate.qubits, union) @ matrix
            support = union
            block.append(gate)
        else:
            flush()
            support = tuple(sorted(gate.qubits))
            matrix = _embed_matrix(gate.matrix, gate.qubits, support)
            block = [gate]
    flush()

    plan = tuple(fused)
    plan_bytes = _plan_bytes(plan)
    global _CACHE_TOTAL_BYTES
    with _CACHE_LOCK:
        _CACHE_MISSES += 1
        # Two threads can miss the same key concurrently (the lock is
        # released while the plan is computed); only the first insert may
        # account bytes, or eviction could never reclaim the double-count.
        if plan_bytes <= FUSION_CACHE_MAX_BYTES and key not in _CACHE:
            _CACHE[key] = plan
            _CACHE_BYTES[key] = plan_bytes
            _CACHE_TOTAL_BYTES += plan_bytes
            _CACHE.move_to_end(key)
            while len(_CACHE) > FUSION_CACHE_MAXSIZE or _CACHE_TOTAL_BYTES > FUSION_CACHE_MAX_BYTES:
                evicted, _ = _CACHE.popitem(last=False)
                _CACHE_TOTAL_BYTES -= _CACHE_BYTES.pop(evicted)
        # Plans larger than the whole budget are returned uncached: callers
        # still get the fusion win for the current run without the cache
        # pinning a giant matrix set.
    return plan


# --- PTM-program fusion (the noisy twin of fuse_circuit) --------------------
#
# In the Liouville representation (repro.quantum.ptm, DESIGN.md §16) noise
# channels compose exactly like gates: both are superoperator matrices that
# left-multiply.  The greedy walk below is therefore the same algorithm as
# fuse_circuit, run over the interleaved stream of gate superoperators and
# their attached channel superoperators (NoiseSpec.channels_for_gate, the
# placement the density route uses), so an entire gate+noise run collapses
# into one fused superoperator per `max_fuse_qubits` window.  Wide
# controlled powers cannot have explicit superoperators (4^(1+q) blows up);
# they pass through as unitaries with a precomputed controlled-block fast
# path and act as block boundaries — but their *noise* is small and keeps
# fusing on either side.

PTM_CACHE_MAX_BYTES = 256 * 1024 * 1024

PTM_CACHE_MAXSIZE = 64

_PTM_CACHE: "OrderedDict[Tuple[str, str, int], object]" = OrderedDict()
_PTM_CACHE_BYTES: Dict[Tuple[str, str, int], int] = {}
_PTM_CACHE_LOCK = threading.Lock()
_PTM_CACHE_HITS = 0
_PTM_CACHE_MISSES = 0
_PTM_CACHE_TOTAL_BYTES = 0


def ptm_cache_info() -> Dict[str, int]:
    """Hit/miss/size counters of the fused PTM-program cache."""
    with _PTM_CACHE_LOCK:
        return {
            "hits": _PTM_CACHE_HITS,
            "misses": _PTM_CACHE_MISSES,
            "entries": len(_PTM_CACHE),
            "bytes": _PTM_CACHE_TOTAL_BYTES,
        }


def clear_ptm_cache() -> None:
    """Drop every cached PTM program and reset the counters (tests)."""
    global _PTM_CACHE_HITS, _PTM_CACHE_MISSES, _PTM_CACHE_TOTAL_BYTES
    with _PTM_CACHE_LOCK:
        _PTM_CACHE.clear()
        _PTM_CACHE_BYTES.clear()
        _PTM_CACHE_HITS = 0
        _PTM_CACHE_MISSES = 0
        _PTM_CACHE_TOTAL_BYTES = 0


def _noise_spec_key(noise_spec: Optional[NoiseSpec]) -> str:
    """Canonical cache-key form of the spec's *gate* noise.

    ``readout_error`` is applied to the readout distribution, not the
    program, so strength sweeps that only vary it share one program.
    """
    if noise_spec is None or not noise_spec.has_gate_noise:
        return "noise-free"
    data = dict(noise_spec.as_dict())
    data.pop("readout_error", None)
    return repr(sorted((k, repr(v)) for k, v in data.items()))


def _embed_ptm(matrix: np.ndarray, qubits: Tuple[int, ...], support: Tuple[int, ...]) -> np.ndarray:
    """Expand a superoperator on ``qubits`` to the full ``support`` register.

    ``matrix ⊗ I`` acts on the digits ``qubits + (the rest of support)``;
    permuting the digit axes into ``support`` order gives the embedding.
    Only entries are copied, so the result is exact.
    """
    if tuple(qubits) == tuple(support):
        return np.asarray(matrix, dtype=complex)
    s, k = len(support), len(qubits)
    rest = [q for q in support if q not in qubits]
    # Axes of the outer product: qubits' out, qubits' in, rest out, rest in.
    out_axis = {q: j for j, q in enumerate(qubits)}
    out_axis.update({q: 2 * k + j for j, q in enumerate(rest)})
    in_axis = {q: axis + (k if q in qubits else s - k) for q, axis in out_axis.items()}
    full = np.multiply.outer(
        np.asarray(matrix, dtype=complex).reshape((4,) * (2 * k)),
        np.eye(4 ** (s - k)).reshape((4,) * (2 * (s - k))),
    )
    full = full.transpose([out_axis[q] for q in support] + [in_axis[q] for q in support])
    return full.reshape(4**s, 4**s)


def _ptm_op_stream(circuit: QuantumCircuit, noise_spec: Optional[NoiseSpec]):
    """Yield ``(qubits, gate_or_channel_superop, is_gate)`` in execution order.

    Mirrors the density simulator's op walk: each gate, then the channels
    :meth:`NoiseSpec.channels_for_gate` attaches to it (channels arrive
    already lowered to their memoised superoperators).
    """
    from repro.quantum.ptm import channel_superop

    noisy = noise_spec is not None and noise_spec.has_gate_noise
    for gate in circuit.gates:
        yield gate.qubits, gate, True
        if noisy:
            for channel, qubits in noise_spec.channels_for_gate(gate):
                yield qubits, channel_superop(channel), False


def fuse_ptm_program(
    circuit: QuantumCircuit,
    noise_spec: Optional[NoiseSpec] = None,
    max_fuse_qubits: int = 3,
):
    """The circuit + noise lowered to a fused :class:`~repro.quantum.ptm.
    PTMProgram` (cached per circuit fingerprint + NoiseSpec + window).

    Gates within the window and every attached noise channel become
    superoperators and fuse greedily; wider gates pass through as
    :class:`~repro.quantum.ptm.WideUnitaryOp` boundaries.  Applying the
    returned ops in order equals the density route's gate-then-Kraus walk
    exactly (up to floating-point association inside each fused product).
    """
    from repro.quantum.ptm import (
        PTMOp,
        PTMProgram,
        WideUnitaryOp,
        controlled_block,
        gate_superop,
    )

    if max_fuse_qubits < 1:
        raise ValueError(f"max_fuse_qubits must be >= 1, got {max_fuse_qubits}")
    key = (circuit.fingerprint(), _noise_spec_key(noise_spec), int(max_fuse_qubits))
    global _PTM_CACHE_HITS, _PTM_CACHE_MISSES
    with _PTM_CACHE_LOCK:
        cached = _PTM_CACHE.get(key)
        if cached is not None:
            _PTM_CACHE.move_to_end(key)
            _PTM_CACHE_HITS += 1
            return cached

    ops: List[object] = []
    support: Optional[Tuple[int, ...]] = None
    matrix: Optional[np.ndarray] = None
    sources = 0
    source_ops = 0

    def flush() -> None:
        nonlocal support, matrix, sources
        if support is None:
            return
        ops.append(
            PTMOp(
                qubits=support,
                matrix=matrix,
                sources=sources,
                name=f"ptm[{sources}]",
            )
        )
        support, matrix, sources = None, None, 0

    for qubits, payload, is_gate in _ptm_op_stream(circuit, noise_spec):
        if is_gate and payload.num_qubits > max_fuse_qubits:
            flush()
            wide = np.asarray(payload.matrix, dtype=complex)
            ops.append(
                WideUnitaryOp(
                    qubits=payload.qubits,
                    matrix=wide,
                    name=payload.name,
                    block=controlled_block(wide),
                )
            )
            source_ops += 1
            continue
        superop = gate_superop(payload.matrix) if is_gate else payload
        source_ops += 1
        if support is None:
            support = tuple(sorted(qubits))
            matrix = _embed_ptm(superop, qubits, support)
            sources = 1
            continue
        union = tuple(sorted(set(support) | set(qubits)))
        if len(union) <= max_fuse_qubits:
            if union != support:
                matrix = _embed_ptm(matrix, support, union)
            # Later op acts after the block: left-multiply its embedding.
            matrix = _embed_ptm(superop, qubits, union) @ matrix
            support = union
            sources += 1
        else:
            flush()
            support = tuple(sorted(qubits))
            matrix = _embed_ptm(superop, qubits, support)
            sources = 1
    flush()

    program = PTMProgram(
        num_qubits=circuit.num_qubits, ops=tuple(ops), source_ops=source_ops
    )
    program_bytes = program.nbytes()
    global _PTM_CACHE_TOTAL_BYTES
    with _PTM_CACHE_LOCK:
        _PTM_CACHE_MISSES += 1
        # Same double-miss guard as the gate-fusion cache: only the first
        # concurrent insert may account bytes.
        if program_bytes <= PTM_CACHE_MAX_BYTES and key not in _PTM_CACHE:
            _PTM_CACHE[key] = program
            _PTM_CACHE_BYTES[key] = program_bytes
            _PTM_CACHE_TOTAL_BYTES += program_bytes
            _PTM_CACHE.move_to_end(key)
            while (
                len(_PTM_CACHE) > PTM_CACHE_MAXSIZE
                or _PTM_CACHE_TOTAL_BYTES > PTM_CACHE_MAX_BYTES
            ):
                evicted, _ = _PTM_CACHE.popitem(last=False)
                _PTM_CACHE_TOTAL_BYTES -= _PTM_CACHE_BYTES.pop(evicted)
    return program
