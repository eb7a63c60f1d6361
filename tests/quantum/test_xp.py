"""Self-tests for the ``xp`` array-module seam (DESIGN.md §11).

The seam has three resolution layers — ``set_array_module`` override,
``REPRO_ARRAY_MODULE`` environment variable, autodetection — and a GPU path
that is exercised when CuPy is present and *visibly skipped* when it is not
(never silently absent), so the seam can't rot unnoticed on CPU-only CI.
"""

import numpy as np
import pytest

from repro.quantum.circuit import QuantumCircuit
from repro.quantum.engine import (
    EnsembleExecutor,
    array_module,
    set_array_module,
    to_host,
)


def device_backend_available():
    """Whether the CuPy path can run here, with the reason (never raises)."""
    try:
        import cupy
    except Exception as exc:  # pragma: no cover - depends on environment
        return False, f"cupy not importable: {exc}"
    try:  # pragma: no cover - requires CUDA hardware
        count = int(cupy.cuda.runtime.getDeviceCount())
    except Exception as exc:  # pragma: no cover - depends on environment
        return False, f"no usable CUDA runtime: {exc}"
    if count < 1:  # pragma: no cover - requires CUDA hardware
        return False, "no CUDA devices present"
    return True, f"{count} CUDA device(s)"  # pragma: no cover - requires hardware


@pytest.fixture(autouse=True)
def _clean_seam(monkeypatch):
    """Every test starts from env-driven resolution with no override pinned."""
    set_array_module(None)
    monkeypatch.delenv("REPRO_ARRAY_MODULE", raising=False)
    yield
    set_array_module(None)


def _demo_circuit():
    circuit = QuantumCircuit(3)
    circuit.h(0).cnot(0, 1).h(2).cnot(1, 2)
    return circuit


def _cupy_or_skip():
    available, reason = device_backend_available()
    if not available:
        pytest.skip(f"cupy path not exercisable here: {reason}")
    import cupy  # pragma: no cover - requires CUDA hardware

    return cupy  # pragma: no cover - requires CUDA hardware


# ---------------------------------------------------------------------------
# Environment-variable resolution
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("value", ["numpy", "np", " NumPy "])
def test_env_var_forces_numpy(monkeypatch, value):
    monkeypatch.setenv("REPRO_ARRAY_MODULE", value)
    assert array_module() is np


def test_env_var_rejects_unknown_module(monkeypatch):
    monkeypatch.setenv("REPRO_ARRAY_MODULE", "torch")
    with pytest.raises(ValueError, match="REPRO_ARRAY_MODULE"):
        array_module()


def test_override_beats_env_var(monkeypatch):
    monkeypatch.setenv("REPRO_ARRAY_MODULE", "torch")  # would raise if consulted

    class FakeModule:
        pass

    set_array_module(FakeModule)
    assert array_module() is FakeModule


def test_env_var_cupy_is_a_hard_requirement(monkeypatch):
    """``REPRO_ARRAY_MODULE=cupy`` must never silently fall back to numpy."""
    monkeypatch.setenv("REPRO_ARRAY_MODULE", "cupy")
    available, _ = device_backend_available()
    if available:  # pragma: no cover - requires CUDA hardware
        import cupy

        assert array_module() is cupy
    else:
        with pytest.raises(ImportError):
            array_module()


# ---------------------------------------------------------------------------
# The engine under an explicitly pinned module
# ---------------------------------------------------------------------------


def test_engine_under_explicit_numpy_matches_default(monkeypatch):
    circuit = _demo_circuit()
    basis = list(range(8))
    default = EnsembleExecutor(fuse=True).basis_ensemble_distribution(circuit, [0], basis)
    monkeypatch.setenv("REPRO_ARRAY_MODULE", "numpy")
    pinned_executor = EnsembleExecutor(fuse=True)
    assert pinned_executor.xp is np
    pinned = pinned_executor.basis_ensemble_distribution(circuit, [0], basis)
    assert np.array_equal(pinned, default)


def test_engine_run_under_explicit_numpy(monkeypatch):
    monkeypatch.setenv("REPRO_ARRAY_MODULE", "numpy")
    circuit = _demo_circuit()
    states = np.eye(8, dtype=complex)[:, :4]
    out = EnsembleExecutor(fuse=False).run(circuit, states)
    assert isinstance(out, np.ndarray)
    np.testing.assert_allclose((np.abs(out) ** 2).sum(axis=0), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# The cupy path: exercised when present, visibly skipped when not
# ---------------------------------------------------------------------------


def test_device_backend_available_gives_a_clear_reason():
    available, reason = device_backend_available()
    assert isinstance(available, bool)
    assert isinstance(reason, str) and reason  # never an empty excuse


def test_cupy_engine_matches_numpy_engine():
    cupy = _cupy_or_skip()
    circuit = _demo_circuit()  # pragma: no cover - requires CUDA hardware
    basis = list(range(8))
    via_numpy = EnsembleExecutor(fuse=True, xp=np).basis_ensemble_distribution(
        circuit, [0, 1], basis
    )
    via_cupy = EnsembleExecutor(fuse=True, xp=cupy).basis_ensemble_distribution(
        circuit, [0, 1], basis
    )
    np.testing.assert_allclose(to_host(via_cupy), via_numpy, atol=1e-10)


def test_cupy_to_host_round_trip():
    cupy = _cupy_or_skip()
    device_array = cupy.arange(6, dtype=float)  # pragma: no cover - requires CUDA hardware
    host = to_host(device_array)
    assert isinstance(host, np.ndarray)
    np.testing.assert_array_equal(host, np.arange(6, dtype=float))
