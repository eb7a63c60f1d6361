"""Regression pins: the registry refactor changed no numbers.

The values below were produced by the pre-registry estimator (string-dispatch
branches inside ``estimate_from_laplacian``) on fixed complexes and seeds.
The refactored backends must reproduce them **bit-identically** — estimation
is deterministic given (complex, config, seed), so any drift here means a
backend's execution path changed, not just its packaging.
"""

import numpy as np
import pytest

from repro.core.backends import EstimationProblem
from repro.core.backends.statevector import (
    density_reference_distribution,
    purified_reference_distribution,
)
from repro.core.config import QTDAConfig
from repro.core.estimator import QTDABettiEstimator
from repro.experiments.worked_example import appendix_complex
from repro.quantum.measurement import sample_counts
from repro.tda.complexes import SimplicialComplex
from repro.tda.laplacian import combinatorial_laplacian
from repro.utils.rng import as_rng


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
#: The circuit backends' numbers were captured on the density-matrix
#: simulation of the circuit, which is no longer a route: they now pin
#: :func:`density_reference_distribution` (with the estimator's readout,
#: :func:`_oracle_estimate`), and the routes are pinned to that oracle in
#: tests/core/test_circuit_engine.py (ensemble 1e-10, ptm 1e-8/1e-12).
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

#: Purified statevector simulation, captured with the same settings (shots=None).
_PINNED_PURIFIED = (1.0979011690891878, 0.13723764613614847, 1)

_SYNTHESIS = {"statevector": "exact", "trotter": "trotter"}


def _oracle_estimate(oracle, complex_, k, config, synthesis):
    """``(betti_estimate, p_zero, betti_rounded, q, lambda_max)`` of an oracle
    distribution, read out as :class:`QTDABettiEstimator` reads a backend's."""
    problem = EstimationProblem(laplacian=combinatorial_laplacian(complex_, k))
    hamiltonian = problem.dense_hamiltonian(config)
    distribution = oracle(problem, config, synthesis)
    if config.shots is None:
        p_zero = float(distribution[0])
    else:
        num_bits = int(np.log2(distribution.size))
        counts = sample_counts(distribution, config.shots, num_bits=num_bits, seed=as_rng(config.seed))
        p_zero = counts.get("0" * num_bits, 0) / config.shots
    estimate = float(2**hamiltonian.num_qubits * p_zero)
    return estimate, p_zero, int(round(estimate)), hamiltonian.num_qubits, hamiltonian.padded.lambda_max


@pytest.mark.parametrize("backend,shots,case", sorted(_PINNED, key=str))
def test_backends_bit_identical_to_pre_registry_estimator(backend, shots, case):
    make, k = _CASES[case]
    config = QTDAConfig(
        precision_qubits=3, shots=shots, backend=backend, delta=6.0, trotter_steps=4, seed=11
    )
    if backend == "exact":
        estimate = QTDABettiEstimator(config).estimate(make(), k)
        got = (
            estimate.betti_estimate,
            estimate.p_zero,
            estimate.betti_rounded,
            estimate.num_system_qubits,
            estimate.lambda_max,
        )
    else:
        got = _oracle_estimate(
            density_reference_distribution, make(), k, config, _SYNTHESIS[backend]
        )
    assert got == _PINNED[(backend, shots, case)]


def test_purified_statevector_bit_identical():
    config = QTDAConfig(precision_qubits=3, shots=None, backend="statevector", delta=6.0)
    estimate, p_zero, rounded, _q, _lam = _oracle_estimate(
        purified_reference_distribution, appendix_complex(), 1, config, "exact"
    )
    assert (estimate, p_zero, rounded) == _PINNED_PURIFIED


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

    from repro.core.operators import as_operator

    if view == "dense-operator":
        return as_operator(laplacian)
    if view == "sparse-operator":
        return as_operator(sparse.csr_matrix(laplacian))
    raise AssertionError(view)


@pytest.mark.parametrize("view", ["dense-operator", "sparse-operator"])
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
    """The estimator builds Laplacians in its backend's operator_format; the
    pinned pre-registry numbers must still come out bit-identically (the
    `exact` default reads a dense Laplacian)."""
    make, k = _CASES["appendix"]
    estimate = QTDABettiEstimator(
        precision_qubits=3, shots=None, backend="exact", delta=6.0, seed=11
    ).estimate(make(), k)
    expected_estimate, expected_p_zero, *_ = _PINNED[("exact", None, "appendix")]
    assert estimate.betti_estimate == expected_estimate
    assert estimate.p_zero == expected_p_zero


#: p(0) on the appendix complex (k=1, precision_qubits=3, shots=None,
#: delta=6.0) from the exact density-matrix simulation: noise-free and under
#: each declarative channel at strength 0.03.  Captured through the retired
#: ``noisy-density`` backend alias, before it was removed.
_PINNED_NOISY_DENSITY = {
    None: 0.13723764613614853,
    "amplitude-damping": 0.17664742304912046,
    "bit-flip": 0.14306990989492518,
    "depolarizing": 0.16164294267044937,
    "phase-flip": 0.17096628864421298,
}


def _appendix_density_p_zero(**noise) -> float:
    config = QTDAConfig(precision_qubits=3, shots=None, backend="statevector", delta=6.0, **noise)
    return _oracle_estimate(
        density_reference_distribution, appendix_complex(), 1, config, "exact"
    )[1]


@pytest.mark.parametrize("channel", sorted(_PINNED_NOISY_DENSITY, key=str))
def test_density_route_noisy_p_zero_bit_identical(channel):
    noise = {} if channel is None else {"noise_channel": channel, "noise_strength": 0.03}
    assert _appendix_density_p_zero(**noise) == _PINNED_NOISY_DENSITY[channel]


def test_density_route_noise_free_equals_zero_strength_channel():
    """A zero-strength channel is the identity map: the density oracle gives
    the noise-free pin bit for bit."""
    p_zero = _appendix_density_p_zero(noise_channel="depolarizing", noise_strength=0.0)
    assert p_zero == _PINNED_NOISY_DENSITY[None]


#: p(0) on the appendix complex (same settings as above) under depolarising
#: noise of strength 0.05 after one gate class only.  Captured from the
#: gate-filtered Kraus-list model (``gate_filter=[name]``) this spec form
#: replaced.  The uncontrolled circuit holds no bare ``CNOT``, so that filter
#: reproduces the noise-free pin.
_PINNED_GATE_FILTERED = {
    "CNOT": 0.13723764613614853,
    "H": 0.14456278369508083,
    "c-U^4": 0.1317709652910361,
}


@pytest.mark.parametrize("gate", sorted(_PINNED_GATE_FILTERED))
def test_gate_filtered_noise_as_a_spec_bit_identical(gate):
    noise = dict(noise_channel="depolarizing", noise_strength=0.0, noise_gate_strengths={gate: 0.05})
    assert _appendix_density_p_zero(**noise) == _PINNED_GATE_FILTERED[gate]
    ptm = QTDABettiEstimator(
        precision_qubits=3, shots=None, backend="statevector", delta=6.0, circuit_engine="ptm", **noise
    ).estimate(appendix_complex(), 1)
    assert ptm.engine_route == "ptm"
    assert abs(ptm.p_zero - _PINNED_GATE_FILTERED[gate]) <= 1e-12
