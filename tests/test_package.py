"""Package-level smoke tests: imports, version, lazy exports."""

import pytest


def test_version_string():
    import repro

    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") == 2


def test_lazy_exports():
    import repro

    assert repro.QTDABettiEstimator is not None
    assert repro.RipsComplex is not None
    assert repro.QTDAPipeline is not None
    assert repro.QTDAService is not None
    assert repro.EstimationRequest is not None
    with pytest.raises(AttributeError):
        _ = repro.does_not_exist


def test_all_round_trips_every_exported_symbol():
    """__all__, dir() and __getattr__ agree on the whole lazy surface.

    The historic bug: ``__all__`` listed only ``__version__`` while
    ``__getattr__`` served more names.  Every advertised name must resolve,
    appear in ``dir(repro)``, and the api front-door names must be included.
    """
    import repro

    for name in repro.__all__:
        assert getattr(repro, name) is not None, f"__all__ lists unresolvable name {name!r}"
    listed = set(dir(repro))
    missing = set(repro.__all__) - listed
    assert not missing, f"dir(repro) is missing exported names: {sorted(missing)}"
    for name in (
        "EstimationRequest",
        "PipelineRequest",
        "SweepRequest",
        "ExperimentRequest",
        "EstimationResult",
        "Provenance",
        "QTDAService",
        "request_from_dict",
    ):
        assert name in repro.__all__, f"repro.api name {name!r} not advertised in __all__"


def test_pyproject_entry_point_resolves():
    """pyproject.toml exists, uses the src/ layout and its console script is real."""
    import importlib
    from pathlib import Path

    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    root = Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text())
    assert project["build-system"]["build-backend"] == "setuptools.build_meta"
    assert project["tool"]["setuptools"]["packages"]["find"]["where"] == ["src"]
    target = project["project"]["scripts"]["repro-experiments"]
    module_name, _, attribute = target.partition(":")
    entry = getattr(importlib.import_module(module_name), attribute)
    assert callable(entry)
    assert entry(["list-backends"]) == 0


def test_api_module_importable():
    """The repro.api alias module re-exports the core implementation."""
    import repro.api
    import repro.core.api

    assert repro.api.QTDAService is repro.core.api.QTDAService
    assert set(repro.api.__all__) == set(repro.core.api.__all__)


SUBPACKAGES = (
    "repro.paulis",
    "repro.quantum",
    "repro.tda",
    "repro.core",
    "repro.ml",
    "repro.datasets",
    "repro.experiments",
    "repro.utils",
)


def test_all_subpackages_importable():
    import importlib

    for name in SUBPACKAGES:
        module = importlib.import_module(name)
        assert module is not None


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_all_resolves(name):
    """Every name a subpackage's ``__all__`` lists is bound, so
    ``from <subpackage> import *`` works; a stale entry left behind by a
    deletion fails here."""
    import importlib

    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported, f"{name} has no __all__"
    missing = [symbol for symbol in exported if not hasattr(module, symbol)]
    assert not missing, f"{name}.__all__ lists unbound names {missing}"


def test_public_api_docstrings():
    """Every public headline class/function carries a docstring."""
    from repro.core import QTDABettiEstimator, QTDAPipeline, build_hamiltonian, pad_laplacian
    from repro.quantum import QuantumCircuit, StatevectorSimulator
    from repro.tda import RipsComplex, SimplicialComplex, betti_number

    for obj in (
        QTDABettiEstimator,
        QTDAPipeline,
        build_hamiltonian,
        pad_laplacian,
        QuantumCircuit,
        StatevectorSimulator,
        RipsComplex,
        SimplicialComplex,
        betti_number,
    ):
        assert obj.__doc__ and obj.__doc__.strip()


def test_readme_quickstart_snippet_runs():
    """The service quick-start shown in the package docstring works as written."""
    import numpy as np

    from repro import EstimationRequest, QTDAService

    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [2.0, 1.0], [2.5, 0.2]])
    request = EstimationRequest(
        points=points, epsilon=1.5, k=1,
        config={"precision_qubits": 4, "shots": 1000, "seed": 7},
    )
    with QTDAService() as service:
        result = service.run(request)
    assert result.payload["betti_rounded"] >= 0
    assert 0.0 <= result.payload["p_zero"] <= 1.0
    assert result.provenance.backend == "exact"


def test_legacy_quickstart_snippet_still_runs():
    """The pre-service snippet keeps working bit-identically (shim policy)."""
    import numpy as np

    from repro import EstimationRequest, QTDABettiEstimator, QTDAService
    from repro.tda import RipsComplex

    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [2.0, 1.0], [2.5, 0.2]])
    complex_ = RipsComplex.from_points(points, epsilon=1.5, max_dimension=2).complex()
    estimator = QTDABettiEstimator(precision_qubits=4, shots=1000, seed=7)
    result = estimator.estimate(complex_, k=1)
    assert result.betti_rounded >= 0
    assert 0.0 <= result.p_zero <= 1.0
    with QTDAService() as service:
        via_service = service.run(
            EstimationRequest(
                points=points, epsilon=1.5, k=1, max_dimension=2,
                config={"precision_qubits": 4, "shots": 1000, "seed": 7},
            )
        )
    assert via_service.payload == result.as_dict()


def test_estimates_on_every_route_leave_networkx_unloaded():
    """``networkx`` (~12 MB, ~80 ms to import) loads only where a graph is
    built or read; no request route builds one."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    script = (
        "import sys\n"
        "import repro, repro.serve\n"
        "from repro.core.api import EstimationRequest, QTDAService\n"
        "noise = {'noise_channel': 'depolarizing', 'noise_strength': 0.01}\n"
        "configs = [{'backend': 'exact'}, {'circuit_engine': 'ensemble'},\n"
        "           {'circuit_engine': 'ptm', **noise},\n"
        "           {'circuit_engine': 'trajectory', **noise}]\n"
        "service = QTDAService()\n"
        "for extra in configs:\n"
        "    config = {'backend': 'statevector', 'precision_qubits': 3, 'shots': 100, **extra}\n"
        "    service.run(EstimationRequest(points=[[0, 0], [1, 0], [0, 1], [1, 1]],\n"
        "                                  epsilon=1.2, k=1, config=config))\n"
        "assert 'networkx' not in sys.modules, 'networkx was imported'\n"
        "from repro.tda.complexes import SimplicialComplex\n"
        "assert SimplicialComplex([(0,), (1,), (0, 1)]).is_connected()\n"
        "assert 'networkx' in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120)
