"""Tests for the pluggable backend registry (repro.core.backends)."""

import numpy as np
import pytest

from repro.core.backends import (
    BackendResult,
    EstimationProblem,
    available_backends,
    backend_supports_noise,
    get_backend,
    register_backend,
    temporary_backend,
    unregister_backend,
)
from repro.core.config import QTDAConfig
from repro.core.estimator import QTDABettiEstimator

BUILTIN_BACKENDS = {
    "exact",
    "sparse-exact",
    "stochastic-trace",
    "statevector",
    "trotter",
}


class _ConstantBackend:
    """Minimal protocol implementation used by the extension tests."""

    name = "test-constant"
    description = "returns a fixed distribution"
    operator_format = "dense"

    def run(self, problem, config, rng):
        distribution = np.zeros(2**config.precision_qubits)
        distribution[0] = 1.0
        return BackendResult(
            distribution=distribution,
            num_system_qubits=max(1, int(np.ceil(np.log2(problem.dimension)))),
            lambda_max=1.0,
        )


def test_builtin_backends_are_registered():
    assert BUILTIN_BACKENDS <= set(available_backends())


def test_available_backends_is_sorted():
    names = available_backends()
    assert list(names) == sorted(names)


def test_unknown_backend_error_lists_available_names():
    with pytest.raises(ValueError) as excinfo:
        get_backend("qiskit")
    message = str(excinfo.value)
    assert "qiskit" in message
    for name in BUILTIN_BACKENDS:
        assert name in message


def test_config_rejects_unknown_backend_with_available_list():
    with pytest.raises(ValueError, match="sparse-exact"):
        QTDAConfig(backend="definitely-not-a-backend")


def test_reregistering_a_name_raises():
    with pytest.raises(ValueError, match="already registered"):
        register_backend("exact", _ConstantBackend())


def test_register_rejects_objects_without_run():
    with pytest.raises(TypeError, match="run"):
        register_backend("broken", object())


def test_register_rejects_incomplete_protocol():
    """A backend without operator_format must fail at registration, not
    mid-estimate."""

    class _NoFormatDeclaration:
        description = "missing any format declaration"

        def run(self, problem, config, rng):  # pragma: no cover - never called
            raise NotImplementedError

    with pytest.raises(TypeError, match="operator_format"):
        register_backend("broken", _NoFormatDeclaration())
    assert "broken" not in available_backends()


def test_register_validates_declared_format_names_eagerly():
    """``operator_format`` is exactly one of ``"dense"`` and ``"sparse"``."""
    for declared in ("holographic", "matrix-free", None, ("dense",)):

        class _BadDeclaration(_ConstantBackend):
            operator_format = declared

        with pytest.raises(ValueError, match="operator_format"):
            register_backend("broken-formats", _BadDeclaration())
        assert "broken-formats" not in available_backends()


@pytest.mark.parametrize("declared", ["dense", "sparse"])
def test_estimator_hands_the_backend_its_declared_format(hollow_triangle, declared):
    """Every Laplacian the estimator builds reaches the backend in the
    backend's ``operator_format``: from a complex and from flag arrays."""
    from repro.core.operators import DenseOperator, SparseOperator
    from repro.tda.rips import RipsComplex

    received = []

    class _Recording(_ConstantBackend):
        operator_format = declared

        def run(self, problem, config, rng):
            received.append(type(problem.operator))
            return super().run(problem, config, rng)

    arrays = RipsComplex.from_points(np.eye(3), 1.5, max_dimension=2).flag_arrays()
    backend = _Recording()
    with temporary_backend(backend.name, backend):
        estimator = QTDABettiEstimator(precision_qubits=3, shots=None, backend=backend.name)
        assert estimator.operator_format == declared
        estimator.estimate(hollow_triangle, 1)
        estimator.estimate(arrays, 1)
    expected = {"dense": DenseOperator, "sparse": SparseOperator}[declared]
    assert received == [expected, expected]


def test_register_rejects_empty_name():
    with pytest.raises(ValueError):
        register_backend("", _ConstantBackend())


def test_unregister_unknown_name_raises():
    with pytest.raises(ValueError, match="available backends"):
        unregister_backend("never-registered")


def test_custom_backend_round_trip(hollow_triangle):
    """A registered third-party backend is usable from config + estimator."""
    backend = _ConstantBackend()
    with temporary_backend(backend.name, backend):
        assert backend.name in available_backends()
        estimator = QTDABettiEstimator(precision_qubits=3, shots=None, backend=backend.name)
        estimate = estimator.estimate(hollow_triangle, 1)
        # p(0) = 1 and the hollow triangle's Δ_1 is 3x3 -> q = 2.
        assert estimate.p_zero == 1.0
        assert estimate.betti_estimate == 4.0
        assert estimate.backend == backend.name
    assert backend.name not in available_backends()


def test_temporary_backend_unregisters_on_exception():
    """The scoped registration cannot leak registry state past a failure."""
    backend = _ConstantBackend()
    with pytest.raises(RuntimeError, match="boom"):
        with temporary_backend(backend.name, backend):
            assert backend.name in available_backends()
            raise RuntimeError("boom")
    assert backend.name not in available_backends()


def test_temporary_backend_keeps_a_deliberate_replacement():
    """A body that swaps in its own backend under the same name keeps it."""
    first, second = _ConstantBackend(), _ConstantBackend()
    with temporary_backend(first.name, first):
        unregister_backend(first.name)
        register_backend(first.name, second)
    # first is gone; the deliberate replacement survived the context exit.
    assert get_backend(first.name) is second
    unregister_backend(first.name)


def test_temporary_backend_rejects_duplicate_names():
    with pytest.raises(ValueError, match="already registered"):
        with temporary_backend("exact", _ConstantBackend()):
            pass  # pragma: no cover - never entered


# -- operator formats ------------------------------------------------------------

def test_backend_formats_of_builtins():
    formats = {name: get_backend(name).operator_format for name in BUILTIN_BACKENDS}
    assert formats == {
        "exact": "dense",
        "sparse-exact": "sparse",
        "stochastic-trace": "sparse",
        "statevector": "dense",
        "trotter": "dense",
    }


def test_backend_supports_noise_flags():
    assert backend_supports_noise(get_backend("statevector"))
    assert backend_supports_noise(get_backend("trotter"))
    assert not backend_supports_noise(get_backend("exact"))
    assert not backend_supports_noise(get_backend("sparse-exact"))
    assert not backend_supports_noise(get_backend("stochastic-trace"))
    # Backends without the attribute default to "no noise".
    assert not backend_supports_noise(_ConstantBackend())


def test_estimation_problem_views(appendix_k):
    from scipy import sparse

    from repro.core.operators import SparseOperator
    from repro.tda.laplacian import combinatorial_laplacian

    laplacian = combinatorial_laplacian(appendix_k, 1, sparse_format=True)
    problem = EstimationProblem(laplacian=laplacian)
    assert problem.operator.format == "sparse"
    assert problem.dimension == 6
    assert isinstance(problem.operator, SparseOperator)
    assert problem.operator is problem.operator  # wrapped once, then reused
    hamiltonian = problem.dense_hamiltonian(QTDAConfig(delta=6.0))
    assert hamiltonian.num_qubits == 3
    assert not sparse.issparse(hamiltonian.matrix)


def test_estimator_exposes_resolved_backend():
    estimator = QTDABettiEstimator(backend="sparse-exact")
    assert estimator.backend.name == "sparse-exact"
    assert estimator.operator_format == "sparse"
