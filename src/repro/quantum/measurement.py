"""Measurement utilities: Born probabilities, marginals, shot sampling.

These helpers operate on plain probability vectors so they are shared by the
statevector simulator, the density-matrix simulator and the analytical QPE
backend (which produces outcome distributions directly without a circuit).
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_positive_integer


def born_probabilities(amplitudes: np.ndarray) -> np.ndarray:
    """``|amplitude|^2`` normalised to sum to one (guards against drift)."""
    amp = np.asarray(amplitudes, dtype=complex).reshape(-1)
    probs = np.abs(amp) ** 2
    total = probs.sum()
    if total <= 0:
        raise ValueError("State has zero norm; cannot compute probabilities")
    return probs / total


def _marginal_axes(num_qubits: int, qubits: Sequence[int]) -> tuple:
    """Validated ``(keep, drop, order)`` axis bookkeeping for marginalisation.

    ``drop`` are the traced-out qubit axes; ``order`` permutes the surviving
    axes (which a sum leaves in increasing qubit order) into the caller's
    requested qubit order.
    """
    keep = [int(q) for q in qubits]
    if len(set(keep)) != len(keep):
        raise ValueError("qubits must be distinct")
    for q in keep:
        if not 0 <= q < num_qubits:
            raise ValueError(f"qubit {q} out of range for {num_qubits} qubits")
    drop = [q for q in range(num_qubits) if q not in keep]
    remaining = sorted(keep)
    order = [remaining.index(q) for q in keep]
    return keep, drop, order


def marginal_probabilities(probabilities: np.ndarray, num_qubits: int, qubits: Sequence[int]) -> np.ndarray:
    """Marginalise a full ``2^n`` distribution onto the sub-register ``qubits``.

    The output is indexed by the bitstring of ``qubits`` in the order given
    (first listed qubit = most significant bit of the outcome index).  The
    reduction is a reshape-and-sum over the traced axes — no intermediate
    per-outcome loops.
    """
    probs = np.asarray(probabilities, dtype=float).reshape([2] * num_qubits)
    _, drop, order = _marginal_axes(num_qubits, qubits)
    if drop:
        probs = probs.sum(axis=tuple(drop))
    probs = np.transpose(probs, order)
    return np.ascontiguousarray(probs).reshape(-1)


def ensemble_member_marginal_probabilities(
    states: np.ndarray,
    num_qubits: int,
    qubits: Sequence[int],
) -> np.ndarray:
    """Per-member marginal readouts of a ``(2^n, B)`` ensemble: an ``(out_dim, B)`` matrix.

    Column ``b`` is member ``b``'s marginal distribution on ``qubits`` (first
    listed qubit = most significant bit of the outcome index); a weighted
    ensemble readout is this matrix times the weight vector, and no
    per-member probability vector over the full register is materialised.

    The reduction is deliberately **batch-major**: the probability tensor is
    transposed to ``[B] + [2]*n`` before the traced axes are summed, so every
    member's reduction runs over a contiguous block with strides that do not
    depend on the batch width.  That makes the result *bit-identical under
    any partition of the batch axis* — computing columns ``[s:e]`` from the
    sliced ensemble yields exactly the bytes of ``result[:, s:e]`` — so the
    engine's readout does not depend on how its batch is chunked.  (A
    batch-last layout does not have this property: NumPy's pairwise-summation
    tree over strided axes changes with the trailing batch width.)
    """
    batch = states.shape[-1]
    keep, drop, order = _marginal_axes(num_qubits, qubits)
    probs = states.real**2 + states.imag**2
    probs = np.ascontiguousarray(probs.T).reshape([batch] + [2] * num_qubits)
    if drop:
        probs = probs.sum(axis=tuple(axis + 1 for axis in drop))
    # Surviving axes sit in increasing qubit order after the batch axis;
    # permute them into the caller's qubit order and put the batch axis last.
    probs = np.transpose(probs, [axis + 1 for axis in order] + [0])
    return np.ascontiguousarray(probs).reshape(-1, batch)


def sample_counts(
    probabilities: np.ndarray,
    shots: int,
    num_bits: int | None = None,
    seed: SeedLike = None,
) -> Dict[str, int]:
    """Draw ``shots`` samples from a distribution; return bitstring -> count.

    Sampling uses a single multinomial draw, which is exactly equivalent to
    ``shots`` independent categorical draws but vastly faster for the large
    shot counts of Fig. 3 (up to 10^6 shots).
    """
    shots = check_positive_integer(shots, "shots")
    probs = np.asarray(probabilities, dtype=float).reshape(-1)
    if np.any(probs < -1e-12):
        raise ValueError("probabilities must be non-negative")
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if total <= 0:
        raise ValueError("probabilities sum to zero")
    probs = probs / total
    if num_bits is None:
        num_bits = int(np.ceil(np.log2(probs.size))) or 1
    rng = as_rng(seed)
    draws = rng.multinomial(shots, probs)
    counts: Dict[str, int] = {}
    for index in np.flatnonzero(draws):
        counts[format(int(index), f"0{num_bits}b")] = int(draws[index])
    return counts


def counts_to_probabilities(counts: Dict[str, int], num_bits: int | None = None) -> np.ndarray:
    """Convert a counts dictionary back into an empirical probability vector."""
    if not counts:
        raise ValueError("counts is empty")
    if num_bits is None:
        num_bits = max(len(k) for k in counts)
    probs = np.zeros(2**num_bits, dtype=float)
    total = 0
    for bitstring, count in counts.items():
        if len(bitstring) != num_bits:
            raise ValueError(f"bitstring {bitstring!r} does not have {num_bits} bits")
        probs[int(bitstring, 2)] += count
        total += count
    if total <= 0:
        raise ValueError("counts sum to zero")
    return probs / total


def outcome_probability(counts: Dict[str, int], bitstring: str) -> float:
    """Empirical probability of one particular outcome in a counts dictionary."""
    total = sum(counts.values())
    if total == 0:
        raise ValueError("counts sum to zero")
    return counts.get(bitstring, 0) / total
