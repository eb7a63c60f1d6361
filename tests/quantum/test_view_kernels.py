"""Pins of the view-GEMM gate kernels (DESIGN.md §11).

Every gate kernel of :mod:`repro.quantum.engine` runs one ``np.matmul`` (or
one einsum) on a free reshape of the ``(2^n, B)`` block when the support is
an ascending contiguous qubit run, or a narrow support padded to one.  At
the pinned evolution width (``DEFAULT_COLUMN_BLOCK`` columns) that is the
same arithmetic as the general ``tensordot`` contraction, so the answers
must be *bitwise* equal — for single gates and for whole QTDA readouts.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.quantum.engine as engine
from repro.core.backends import EstimationProblem
from repro.core.backends.statevector import circuit_backend_result
from repro.core.config import QTDAConfig
from repro.quantum.channels import QuantumChannel
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.engine import (
    DEFAULT_COLUMN_BLOCK,
    EnsembleExecutor,
    apply_controlled_block_to_ensemble,
    apply_gate_to_ensemble,
    sample_channel_branches,
)
from repro.quantum.gates import cphase, controlled

WIDTH = DEFAULT_COLUMN_BLOCK


def _random_unitary(rng, k):
    m = rng.standard_normal((2**k, 2**k)) + 1j * rng.standard_normal((2**k, 2**k))
    q, _ = np.linalg.qr(m)
    return q


def _random_states(rng, num_qubits, batch=WIDTH):
    return rng.standard_normal((2**num_qubits, batch)) + 1j * rng.standard_normal(
        (2**num_qubits, batch)
    )


# ---------------------------------------------------------------------------
# apply_gate_to_ensemble: one matmul on the (2^a, 2^k, rest) view
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [4, 7, 10])
@pytest.mark.parametrize(
    "where",
    ["prefix-1", "prefix-2", "prefix-3", "interior-1", "interior-2", "interior-3", "last-1", "last-2"],
)
def test_contiguous_support_is_bitwise_the_tensordot_contraction(n, where):
    kind, k = where.split("-")
    k = int(k)
    start = {"prefix": 0, "interior": 1, "last": n - k}[kind]
    qubits = list(range(start, start + k))
    rng = np.random.default_rng(n * 10 + k)
    gate, states = _random_unitary(rng, k), _random_states(rng, n)
    out = apply_gate_to_ensemble(states, gate, qubits, n)
    assert np.array_equal(out, engine._tensordot_gate(states, gate, qubits, n))


@pytest.mark.parametrize("qubits", [(0, 2), (0, 2, 3), (1, 3), (1, 2, 4)])
def test_hull_padded_support_is_bitwise_the_tensordot_contraction(qubits):
    """Padding only inserts exact zeros between the bare gate's terms, in
    the same order, so the padded GEMM adds nothing to any sum."""
    n = 6
    rng = np.random.default_rng(sum(qubits))
    gate, states = _random_unitary(rng, len(qubits)), _random_states(rng, n)
    matrix, start, width = engine.contiguous_form(gate, qubits)
    assert (start, width) == (qubits[0], qubits[-1] - qubits[0] + 1)
    out = apply_gate_to_ensemble(states, gate, qubits, n)
    assert np.array_equal(out, engine._tensordot_gate(states, gate, qubits, n))


def test_descending_support_is_padded_and_sorted():
    """``(2, 0)`` runs as a gate on the ascending hull ``(0, 1, 2)``.  For a
    monomial gate (the QTDA circuit's descending supports are controlled
    phases) that is bitwise the ``tensordot`` contraction; a dense gate sums
    its terms in the sorted order, equal up to association."""
    n = 5
    rng = np.random.default_rng(3)
    states = _random_states(rng, n)
    phase = cphase(0.7)
    assert np.array_equal(
        apply_gate_to_ensemble(states, phase, (2, 0), n),
        engine._tensordot_gate(states, phase, (2, 0), n),
    )
    dense = _random_unitary(rng, 2)
    np.testing.assert_allclose(
        apply_gate_to_ensemble(states, dense, (2, 0), n),
        engine._tensordot_gate(states, dense, (2, 0), n),
        rtol=0,
        atol=1e-14,
    )


def _spy_general_paths(monkeypatch):
    """Count the calls into the engine's transposing (general) contractions."""
    calls = []
    for name in ("_tensordot_gate", "_tensordot_controlled_block", "_moveaxis_member_matrices"):
        kernel = getattr(engine, name)

        def spy(*args, kernel=kernel, name=name):
            calls.append(name)
            return kernel(*args)

        monkeypatch.setattr(engine, name, spy)
    return calls


def test_only_a_wide_hull_takes_tensordot(monkeypatch):
    n = 7
    rng = np.random.default_rng(4)
    states = _random_states(rng, n)
    calls = _spy_general_paths(monkeypatch)
    for qubits in [(0,), (3, 4), (0, 1, 2, 3), (1, 3), (3, 0), (2, 3, 5)]:
        apply_gate_to_ensemble(states, _random_unitary(rng, len(qubits)), qubits, n)
    assert calls == []
    assert engine.contiguous_form(np.eye(4), (0, 4)) is None
    apply_gate_to_ensemble(states, _random_unitary(rng, 2), (0, 4), n)
    assert calls == ["_tensordot_gate"]


def test_prepare_pads_each_narrow_gate_once():
    rng = np.random.default_rng(5)
    circuit = QuantumCircuit(6)
    circuit.unitary(_random_unitary(rng, 3), [0, 2, 3])
    circuit.unitary(cphase(0.3), [3, 1])
    circuit.unitary(_random_unitary(rng, 2), [0, 5])
    circuit.unitary(controlled(_random_unitary(rng, 3)), [0, 3, 4, 5])
    prepared = EnsembleExecutor(fuse=False)._prepare(circuit.gates)
    assert [tuple(qubits) for _, qubits, _ in prepared] == [
        (0, 1, 2, 3),
        (1, 2, 3),
        (0, 5),
        (0, 3, 4, 5),
    ]
    assert [matrix.shape[0] for matrix, _, _ in prepared] == [16, 8, 4, 16]
    assert [block is not None for _, _, block in prepared] == [False, False, False, True]


# ---------------------------------------------------------------------------
# apply_controlled_block_to_ensemble: V into the |1> slice of the view
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", [4, 5, 6])
@pytest.mark.parametrize("control", [0, 2, 3])
def test_controlled_block_view_is_bitwise_the_tensordot_contraction(q, control):
    """Control first or mid-register, the system-register targets after it
    (QPE's layout: precision control, system targets last)."""
    n = 4 + q
    qubits = [control] + list(range(4, 4 + q))
    rng = np.random.default_rng(10 * q + control)
    block, states = _random_unitary(rng, q), _random_states(rng, n)
    out = apply_controlled_block_to_ensemble(states, block, qubits, n)
    assert np.array_equal(out, engine._tensordot_controlled_block(states, block, qubits, n))
    dense = apply_gate_to_ensemble(states, controlled(block), qubits, n)
    np.testing.assert_allclose(out, dense, rtol=0, atol=1e-12)


def test_controlled_block_with_targets_before_the_control_still_contracts():
    n, q = 7, 4
    rng = np.random.default_rng(6)
    block, states = _random_unitary(rng, q), _random_states(rng, n)
    qubits = [5, 0, 1, 2, 3]
    out = apply_controlled_block_to_ensemble(states, block, qubits, n)
    dense = apply_gate_to_ensemble(states, controlled(block), qubits, n)
    np.testing.assert_allclose(out, dense, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Per-member matrices and the in-place trajectory step
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("qubits", [(0,), (2,), (5,), (1, 2), (4, 5)])
def test_member_matrices_view_is_bitwise_the_moveaxis_path(qubits):
    n = 6
    rng = np.random.default_rng(len(qubits) * 10 + qubits[0])
    states = _random_states(rng, n, batch=7)
    matrices = np.stack([_random_unitary(rng, len(qubits)) for _ in range(7)])
    out = engine._apply_member_matrices(states, matrices, qubits, n)
    assert np.array_equal(out, engine._moveaxis_member_matrices(states, matrices, qubits, n))
    for b in range(7):
        column = apply_gate_to_ensemble(states[:, [b]], matrices[b], qubits, n)
        np.testing.assert_allclose(out[:, [b]], column, rtol=0, atol=1e-12)


def test_mixed_unitary_step_writes_the_drawn_columns_in_place():
    n = 5
    channel = QuantumChannel.from_name("depolarizing", 0.3)
    rng = np.random.default_rng(8)
    states = _random_states(rng, n, batch=12)
    before = states.copy()
    uniforms = rng.random(12)
    drawn = engine._mixed_unitary_branches(channel, uniforms)
    active = np.flatnonzero(~channel.identity_branches[drawn])
    assert 0 < active.size < 12
    out = sample_channel_branches(channel, states, [3], n, uniforms)
    assert out is states
    idle = np.setdiff1d(np.arange(12), active)
    assert np.array_equal(out[:, idle], before[:, idle])
    mats = np.stack(channel.unitary_branches)[drawn[active]]
    expected = engine._apply_member_matrices(before[:, active], mats, [3], n)
    assert np.array_equal(out[:, active], expected)


def test_basis_block_is_one_column_per_basis_state():
    block = EnsembleExecutor()._basis_block([5, 0, 5, 7], 3)
    expected = np.zeros((8, 4), dtype=complex)
    for column, b in enumerate([5, 0, 5, 7]):
        expected[b, column] = 1.0
    assert block.dtype == complex and np.array_equal(block, expected)


# ---------------------------------------------------------------------------
# Whole QTDA readouts: the view kernels change no answer
# ---------------------------------------------------------------------------


def _problem(q: int) -> EstimationProblem:
    rng = np.random.default_rng(100 + q)
    dim = 2**q - 3
    basis = rng.standard_normal((dim, dim - 2))
    laplacian = basis @ basis.T
    return EstimationProblem(laplacian=(laplacian + laplacian.T) / 2.0)


_ROUTES = {
    "ensemble": dict(circuit_engine="ensemble"),
    "trajectory": dict(
        circuit_engine="trajectory",
        noise_channel="depolarizing",
        noise_strength=0.002,
        noise_gate_strengths={"c-U": 0.004, "H": 0.001},
        seed=11,
    ),
}


def _distribution(route: str, q: int) -> np.ndarray:
    config = QTDAConfig(precision_qubits=4, shots=None, delta=6.0, **_ROUTES[route])
    result = circuit_backend_result(_problem(q), config, "exact")
    assert result.route["engine_route"] == route
    return result.distribution


def _force_tensordot(monkeypatch):
    monkeypatch.setattr(engine, "contiguous_form", lambda gate_matrix, qubits: None)
    monkeypatch.setattr(
        engine, "apply_controlled_block_to_ensemble", engine._tensordot_controlled_block
    )
    monkeypatch.setattr(engine, "_apply_member_matrices", engine._moveaxis_member_matrices)


@pytest.mark.parametrize("q", [4, 5, 6])
def test_ensemble_readout_is_bitwise_the_tensordot_path(monkeypatch, q):
    calls = _spy_general_paths(monkeypatch)
    view = _distribution("ensemble", q)
    assert calls == []  # every QTDA layout takes a view kernel
    _force_tensordot(monkeypatch)
    assert np.array_equal(view, _distribution("ensemble", q))
    assert "_tensordot_gate" in calls and "_tensordot_controlled_block" in calls


@pytest.mark.parametrize("q", [4, 5, 6])
def test_trajectory_readout_matches_the_tensordot_path(monkeypatch, q):
    """The clean columns share the ensemble pass, bitwise as above.  A
    dirty block is as wide as the columns that drew an error, and each
    controlled power is one GEMM per |1> slice of that width: when it is
    not a multiple of the BLAS micro-kernel width, a column can land in the
    kernel's tail and differ in its last bit from the one wide
    ``tensordot`` GEMM."""
    view = _distribution("trajectory", q)
    _force_tensordot(monkeypatch)
    np.testing.assert_allclose(view, _distribution("trajectory", q), rtol=0, atol=1e-15)
