"""Regression pins: the registry refactor changed no numbers.

The values below were produced by the pre-registry estimator (string-dispatch
branches inside ``estimate_from_laplacian``) on fixed complexes and seeds.
The refactored backends must reproduce them **bit-identically** — estimation
is deterministic given (complex, config, seed), so any drift here means a
backend's execution path changed, not just its packaging.
"""

import pytest

from repro.core.estimator import QTDABettiEstimator
from repro.experiments.worked_example import appendix_complex
from repro.tda.complexes import SimplicialComplex


def _square_tail() -> SimplicialComplex:
    """Hollow square plus a tail edge: Δ_1 is 5x5 (padded to 8)."""
    return SimplicialComplex(
        [(0,), (1,), (2,), (3,), (4,), (0, 1), (1, 2), (2, 3), (0, 3), (3, 4)]
    )


_CASES = {
    "appendix": (appendix_complex, 1),
    "square_tail": (_square_tail, 1),
    "square_tail_b0": (_square_tail, 0),
}

#: (backend, shots, case) -> (betti_estimate, p_zero, betti_rounded, q, lambda_max)
#: captured at commit 93335dd with precision_qubits=3, delta=6.0,
#: trotter_steps=4, seed=11, no purification for circuit backends.
#: Since the ensemble execution engine became the default noise-free route,
#: circuit backends pin the legacy route explicitly via
#: ``circuit_engine="density"`` (same route those numbers were captured on);
#: the ensemble route is pinned separately, to 1e-10 agreement, in
#: tests/core/test_circuit_engine.py.
_PINNED = {
    ("exact", None, "appendix"): (1.0979011690891878, 0.13723764613614847, 1, 3, 6.0),
    ("exact", None, "square_tail"): (1.0714667568731957, 0.13393334460914946, 1, 3, 5.0),
    ("exact", None, "square_tail_b0"): (1.069913472721037, 0.13373918409012964, 1, 3, 6.0),
    ("exact", 500, "appendix"): (1.04, 0.13, 1, 3, 6.0),
    ("exact", 500, "square_tail"): (1.024, 0.128, 1, 3, 5.0),
    ("exact", 500, "square_tail_b0"): (1.024, 0.128, 1, 3, 6.0),
    ("statevector", None, "appendix"): (1.0979011690891882, 0.13723764613614853, 1, 3, 6.0),
    ("statevector", None, "square_tail"): (1.0714667568731957, 0.13393334460914946, 1, 3, 5.0),
    ("statevector", None, "square_tail_b0"): (1.0699134727210375, 0.1337391840901297, 1, 3, 6.0),
    ("statevector", 500, "appendix"): (1.04, 0.13, 1, 3, 6.0),
    ("statevector", 500, "square_tail"): (1.024, 0.128, 1, 3, 5.0),
    ("statevector", 500, "square_tail_b0"): (1.024, 0.128, 1, 3, 6.0),
    ("trotter", None, "appendix"): (1.0968693760887662, 0.13710867201109578, 1, 3, 6.0),
    ("trotter", None, "square_tail"): (1.078979614840782, 0.13487245185509775, 1, 3, 5.0),
    ("trotter", None, "square_tail_b0"): (1.0743412408355308, 0.13429265510444136, 1, 3, 6.0),
    ("trotter", 500, "appendix"): (1.04, 0.13, 1, 3, 6.0),
    ("trotter", 500, "square_tail"): (1.024, 0.128, 1, 3, 5.0),
    ("trotter", 500, "square_tail_b0"): (1.024, 0.128, 1, 3, 6.0),
}

#: Purified statevector route, captured with the same settings (shots=None).
_PINNED_PURIFIED = (1.0979011690891878, 0.13723764613614847, 1)


@pytest.mark.parametrize("backend,shots,case", sorted(_PINNED, key=str))
def test_backends_bit_identical_to_pre_registry_estimator(backend, shots, case):
    make, k = _CASES[case]
    expected_estimate, expected_p_zero, expected_rounded, expected_q, expected_lam = _PINNED[
        (backend, shots, case)
    ]
    kwargs = {"circuit_engine": "density"} if backend != "exact" else {}
    estimate = QTDABettiEstimator(
        precision_qubits=3,
        shots=shots,
        backend=backend,
        delta=6.0,
        trotter_steps=4,
        seed=11,
        **kwargs,
    ).estimate(make(), k)
    assert estimate.betti_estimate == expected_estimate
    assert estimate.p_zero == expected_p_zero
    assert estimate.betti_rounded == expected_rounded
    assert estimate.num_system_qubits == expected_q
    assert estimate.lambda_max == expected_lam


def test_purified_statevector_bit_identical():
    estimate = QTDABettiEstimator(
        precision_qubits=3,
        shots=None,
        backend="statevector",
        delta=6.0,
        circuit_engine="purified",
    ).estimate(appendix_complex(), 1)
    expected_estimate, expected_p_zero, expected_rounded = _PINNED_PURIFIED
    assert estimate.betti_estimate == expected_estimate
    assert estimate.p_zero == expected_p_zero
    assert estimate.betti_rounded == expected_rounded


def test_sparse_exact_matches_exact_on_worked_example():
    """Paper-scale complexes sit below the dense-fallback threshold, so the
    sparse backend must be bit-identical to ``exact``, not merely close."""
    exact = QTDABettiEstimator(precision_qubits=3, shots=None, backend="exact", delta=6.0)
    sparse = QTDABettiEstimator(precision_qubits=3, shots=None, backend="sparse-exact", delta=6.0)
    for k in (0, 1):
        a = exact.estimate(appendix_complex(), k)
        b = sparse.estimate(appendix_complex(), k)
        assert b.betti_estimate == a.betti_estimate
        assert b.p_zero == a.p_zero
        assert b.num_system_qubits == a.num_system_qubits
        assert b.lambda_max == a.lambda_max


def _operator_view(laplacian, view: str):
    from scipy import sparse

    from repro.core.operators import MatrixFreeOperator, as_operator

    if view == "dense-operator":
        return as_operator(laplacian)
    if view == "sparse-operator":
        return as_operator(sparse.csr_matrix(laplacian))
    if view == "matrix-free":
        return MatrixFreeOperator(lambda x: laplacian @ x, laplacian.shape)
    raise AssertionError(view)


@pytest.mark.parametrize("view", ["dense-operator", "sparse-operator", "matrix-free"])
@pytest.mark.parametrize("backend", ["exact", "sparse-exact", "statevector", "trotter"])
def test_operator_layer_is_bit_identical_to_raw_matrices(backend, view):
    """Acceptance gate: wrapping the Laplacian in any LaplacianOperator view
    changes nothing — every existing backend produces the same BettiEstimate
    bit for bit."""
    from repro.tda.laplacian import combinatorial_laplacian

    for make, k in (_CASES["appendix"], _CASES["square_tail"]):
        laplacian = combinatorial_laplacian(make(), k)
        raw = QTDABettiEstimator(
            precision_qubits=3, shots=None, backend=backend, delta=6.0, seed=11
        ).estimate_from_laplacian(laplacian)
        wrapped = QTDABettiEstimator(
            precision_qubits=3, shots=None, backend=backend, delta=6.0, seed=11
        ).estimate_from_laplacian(_operator_view(laplacian, view))
        assert wrapped.betti_estimate == raw.betti_estimate
        assert wrapped.p_zero == raw.p_zero
        assert wrapped.num_system_qubits == raw.num_system_qubits
        assert wrapped.lambda_max == raw.lambda_max


def test_pinned_estimates_unchanged_by_operator_negotiation():
    """The estimator now negotiates formats through preferred_format; the
    pinned pre-registry numbers must still come out bit-identically (the
    `exact` default remains a dense handoff)."""
    make, k = _CASES["appendix"]
    estimate = QTDABettiEstimator(
        precision_qubits=3, shots=None, backend="exact", delta=6.0, seed=11
    ).estimate(make(), k)
    expected_estimate, expected_p_zero, *_ = _PINNED[("exact", None, "appendix")]
    assert estimate.betti_estimate == expected_estimate
    assert estimate.p_zero == expected_p_zero


#: p(0) on the appendix complex (k=1, precision_qubits=3, shots=None,
#: delta=6.0) through the exact density-matrix route: noise-free and under
#: each declarative channel at strength 0.03.  Captured through the retired
#: backend alias for this route, before it was removed.
_PINNED_NOISY_DENSITY = {
    None: 0.13723764613614853,
    "amplitude-damping": 0.17664742304912046,
    "bit-flip": 0.14306990989492518,
    "depolarizing": 0.16164294267044937,
    "phase-flip": 0.17096628864421298,
}


@pytest.mark.parametrize("channel", sorted(_PINNED_NOISY_DENSITY, key=str))
def test_density_route_noisy_p_zero_bit_identical(channel):
    noise = {} if channel is None else {"noise_channel": channel, "noise_strength": 0.03}
    estimate = QTDABettiEstimator(
        precision_qubits=3,
        shots=None,
        backend="statevector",
        delta=6.0,
        circuit_engine="density",
        **noise,
    ).estimate(appendix_complex(), 1)
    assert estimate.p_zero == _PINNED_NOISY_DENSITY[channel]
    assert estimate.engine_route == "density"


def test_density_route_noise_free_equals_zero_strength_channel():
    """A zero-strength channel is the identity map: the density route gives
    the noise-free pin bit for bit."""
    estimate = QTDABettiEstimator(
        precision_qubits=3,
        shots=None,
        backend="statevector",
        delta=6.0,
        circuit_engine="density",
        noise_channel="depolarizing",
        noise_strength=0.0,
    ).estimate(appendix_complex(), 1)
    assert estimate.p_zero == _PINNED_NOISY_DENSITY[None]
