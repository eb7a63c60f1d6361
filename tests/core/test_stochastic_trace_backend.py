"""Tests for the ``stochastic-trace`` backend (Hutchinson/SLQ estimation).

The acceptance criterion of the ISSUE: on the reference complexes the
stochastic estimate must match the exact kernel dimension within its own
reported error bars (and round to the exact Betti number).
"""

import numpy as np
import pytest
from scipy import sparse

from repro.core.backends import get_backend
from repro.core.backends.stochastic_trace import StochasticTraceBackend
from repro.core.config import QTDAConfig
from repro.core.estimator import QTDABettiEstimator
from repro.core.operators import SparseOperator
from repro.experiments.worked_example import appendix_complex
from repro.tda.betti import betti_number
from repro.tda.complexes import SimplicialComplex
from repro.tda.laplacian import combinatorial_laplacian
from repro.tda.rips import rips_complex
from repro.datasets.point_clouds import circle_cloud


def _square_tail() -> SimplicialComplex:
    return SimplicialComplex(
        [(0,), (1,), (2,), (3,), (4,), (0, 1), (1, 2), (2, 3), (0, 3), (3, 4)]
    )


REFERENCE_COMPLEXES = {
    "appendix": appendix_complex,
    "square_tail": _square_tail,
    "hollow_triangle": lambda: SimplicialComplex(
        [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
    ),
}


def _estimator(**overrides) -> QTDABettiEstimator:
    defaults = dict(precision_qubits=5, shots=None, delta=6.0, seed=17)
    defaults.update(overrides)
    return QTDABettiEstimator(backend="stochastic-trace", **defaults)


@pytest.mark.parametrize("case", sorted(REFERENCE_COMPLEXES))
@pytest.mark.parametrize("k", [0, 1])
def test_matches_exact_kernel_dimension_within_error_bars(case, k):
    """The ISSUE acceptance gate, on every reference complex and dimension."""
    complex_ = REFERENCE_COMPLEXES[case]()
    if complex_.num_simplices(k) == 0:
        pytest.skip("no k-simplices")
    stochastic = _estimator().estimate(complex_, k)
    exact = QTDABettiEstimator(
        precision_qubits=5, shots=None, delta=6.0, backend="exact"
    ).estimate(complex_, k)
    assert stochastic.betti_std is not None and stochastic.betti_std >= 0.0
    assert stochastic.betti_rounded == betti_number(complex_, k)
    # Within the reported error bars of the *deterministic* target the probes
    # are sampling (three standard errors, plus a hair of atol for the
    # zero-variance corner where every probe is exact).
    assert abs(stochastic.betti_estimate - exact.betti_estimate) <= (
        3.0 * stochastic.betti_std + 1e-9
    )


def test_error_bar_shrinks_with_more_probes(appendix_k):
    laplacian = combinatorial_laplacian(appendix_k, 1, sparse_format=True)
    few = StochasticTraceBackend(num_probes=8, lanczos_steps=32)
    many = StochasticTraceBackend(num_probes=256, lanczos_steps=32)
    from repro.core.backends import EstimationProblem
    from repro.core.config import QTDAConfig

    config = QTDAConfig(precision_qubits=4, shots=None, delta=6.0, backend="stochastic-trace")
    rng_few = np.random.default_rng(3)
    rng_many = np.random.default_rng(3)
    sigma_few = few.run(EstimationProblem(laplacian), config, rng_few).p_zero_std
    sigma_many = many.run(EstimationProblem(laplacian), config, rng_many).p_zero_std
    assert sigma_many < sigma_few


def test_matrix_free_operator_only_uses_matvec(appendix_k):
    """The backend reads the Laplacian through matvec and row reductions
    only: a sparse operator is never densified."""
    laplacian = combinatorial_laplacian(appendix_k, 1, sparse_format=True)
    calls = {"matvec": 0, "dense": 0}

    class _Spy(SparseOperator):
        def matvec(self, x):
            calls["matvec"] += 1
            return super().matvec(x)

        def to_dense(self):
            calls["dense"] += 1
            return super().to_dense()

    operator = _Spy(laplacian)
    estimate = _estimator().estimate_from_laplacian(operator)
    assert estimate.betti_rounded == 1
    assert calls["matvec"] > 0
    assert calls["dense"] == 0


def test_deterministic_given_seed(appendix_k):
    a = _estimator(seed=23).estimate(appendix_k, 1)
    b = _estimator(seed=23).estimate(appendix_k, 1)
    c = _estimator(seed=24).estimate(appendix_k, 1)
    assert a.betti_estimate == b.betti_estimate
    assert a.betti_std == b.betti_std
    # A different stream gives a different (but still valid) estimate.
    assert a.betti_estimate != c.betti_estimate


def test_distribution_is_normalised_and_nonnegative(appendix_k):
    from repro.core.backends import EstimationProblem
    from repro.core.config import QTDAConfig

    laplacian = combinatorial_laplacian(appendix_k, 1, sparse_format=True)
    backend = get_backend("stochastic-trace")
    config = QTDAConfig(precision_qubits=4, shots=None, delta=6.0, backend="stochastic-trace")
    result = backend.run(EstimationProblem(laplacian), config, np.random.default_rng(0))
    assert np.all(result.distribution >= -1e-12)
    assert result.distribution.sum() == pytest.approx(1.0, abs=1e-10)


def test_zero_laplacian_reads_full_kernel():
    """All-zero Δ (every simplex harmonic): β̃ = 2^q, no crash on breakdown."""
    estimate = _estimator().estimate_from_laplacian(sparse.csr_matrix((4, 4)))
    assert estimate.betti_estimate == pytest.approx(4.0)
    assert estimate.betti_std == pytest.approx(0.0)


def test_one_dimensional_laplacian():
    estimate = _estimator().estimate_from_laplacian(np.array([[0.0]]))
    # β̃ = 2^q · p(0) with q = 1 and a phase-0 eigenvalue plus identity
    # padding at λ̃_max/2 = 0 — everything reads phase 0.
    assert estimate.betti_estimate == pytest.approx(2.0)


def test_shots_sampling_composes_with_stochastic_backend(appendix_k):
    estimate = _estimator(shots=500, seed=5).estimate(appendix_k, 1)
    assert estimate.counts  # finite-shot counts recorded as for any backend
    assert estimate.betti_std is not None


def test_scales_to_larger_sparse_complex_without_factorisation():
    """A few hundred simplices through matvecs only — sane rounded answer."""
    cloud = circle_cloud(60)
    epsilon = 2.0 * np.sin(4.0 * np.pi / 60) + 1e-9
    complex_ = rips_complex(cloud, epsilon, 2)
    laplacian = combinatorial_laplacian(complex_, 1, sparse_format=True)
    assert laplacian.shape[0] >= 200
    backend = StochasticTraceBackend(num_probes=48, lanczos_steps=80)
    from repro.core.backends import EstimationProblem
    from repro.core.config import QTDAConfig

    config = QTDAConfig(precision_qubits=6, shots=None, delta=6.0, backend="stochastic-trace")
    result = backend.run(EstimationProblem(laplacian), config, np.random.default_rng(11))
    betti = 2**result.num_system_qubits * result.distribution[0]
    exact = betti_number(complex_, 1)
    sigma = 2**result.num_system_qubits * result.p_zero_std
    assert abs(betti - exact) <= max(3.0 * sigma, 0.75)


def test_single_probe_reports_unknown_error_bar(appendix_k):
    """One probe has no empirical spread: σ is unknown (None), never 0.0."""
    from repro.core.backends import EstimationProblem
    from repro.core.config import QTDAConfig

    laplacian = combinatorial_laplacian(appendix_k, 1, sparse_format=True)
    backend = StochasticTraceBackend(num_probes=1, lanczos_steps=16)
    config = QTDAConfig(precision_qubits=4, shots=None, delta=6.0, backend="stochastic-trace")
    result = backend.run(EstimationProblem(laplacian), config, np.random.default_rng(2))
    assert result.p_zero_std is None


def test_constructor_validation():
    with pytest.raises(ValueError):
        StochasticTraceBackend(num_probes=0)
    with pytest.raises(ValueError):
        StochasticTraceBackend(lanczos_steps=0)
    with pytest.raises(ValueError):
        StochasticTraceBackend(breakdown_tol=0.0)


# -- Hutch++-style deflated probing (QTDAConfig.trace_deflation_rank) ------------

def _stochastic_estimate(complex_, k, rank, seed, precision_qubits=4):
    estimator = QTDABettiEstimator(
        QTDAConfig(
            precision_qubits=precision_qubits,
            shots=None,
            backend="stochastic-trace",
            trace_deflation_rank=rank,
            seed=seed,
        )
    )
    return estimator.estimate(complex_, k)


def test_deflation_rank_validated():
    with pytest.raises(ValueError):
        QTDAConfig(trace_deflation_rank=-1)
    assert QTDAConfig(trace_deflation_rank=4).trace_deflation_rank == 4
    # Round-trips through the serialisable config surface.
    assert QTDAConfig.from_dict(QTDAConfig(trace_deflation_rank=4).as_dict()).trace_deflation_rank == 4


def test_deflated_estimate_stays_accurate(appendix_k):
    """Deflation must not bias the estimate: still within error bars of exact."""
    result = _stochastic_estimate(appendix_k, 1, rank=3, seed=7)
    assert result.betti_std is not None
    assert abs(result.betti_estimate - result.exact_betti) <= max(3 * result.betti_std, 0.75)
    assert result.betti_rounded == result.exact_betti


def test_deflation_shrinks_error_bar_at_equal_matvec_budget():
    """The satellite's headline claim: smaller betti_std for the same budget.

    The matvec budget is equalised *inside* the backend (the deflation run's
    Lanczos steps are subtracted from the per-probe depth), so comparing
    plain rank=0 against rank>0 at identical backend parameters is an
    equal-budget comparison by construction.  Averaged over seeds to keep
    the check robust.
    """
    from repro.datasets.point_clouds import figure_eight_cloud
    from repro.tda.rips import RipsComplex

    points = figure_eight_cloud(24, seed=2)
    complex_ = RipsComplex.from_points(points, epsilon=0.75, max_dimension=2).complex()
    seeds = range(6)
    plain = np.mean([_stochastic_estimate(complex_, 1, 0, s).betti_std for s in seeds])
    deflated = np.mean([_stochastic_estimate(complex_, 1, 8, s).betti_std for s in seeds])
    assert deflated < plain, f"deflated std {deflated} not below plain {plain}"


def test_deflation_rank_zero_is_bit_identical_to_plain(appendix_k):
    """rank=0 must take exactly the pre-deflation code path."""
    plain = _stochastic_estimate(appendix_k, 1, 0, seed=3)
    default = QTDABettiEstimator(
        QTDAConfig(precision_qubits=4, shots=None, backend="stochastic-trace", seed=3)
    ).estimate(appendix_k, 1)
    assert plain.as_dict() == default.as_dict()


def test_deflation_rank_capped_at_dimension():
    """rank ≥ |S_k| degrades gracefully (capped, no crash, still accurate)."""
    complex_ = SimplicialComplex([(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)])
    result = _stochastic_estimate(complex_, 1, rank=50, seed=1)
    assert result.betti_rounded == result.exact_betti == 1
