"""The ``statevector`` backend compiles each exact QTDA circuit shape once.

A request binds only its controlled powers into the cached program of its
``(route, t, q, noise, window)`` shape (:func:`~repro.core.backends.
statevector.qtda_template`).  For ``q >= 3`` every power is wider than the
fusion window and already ran unfused, so each readout must be bitwise the
one a freshly built circuit gives through the executors; several Laplacians
run in turn through one shape, so a block left over from an earlier request
fails.  For ``q <= 2`` a power no longer fuses with its neighbours, so only
the oracle pins apply.
"""

import threading

import numpy as np
import pytest

import repro.core.backends.statevector as statevector
from repro.core.backends.base import EstimationProblem
from repro.core.backends.statevector import (
    circuit_backend_result,
    clear_template_cache,
    density_reference_distribution,
    purified_reference_distribution,
    qtda_template,
    template_cache_info,
)
from repro.core.config import QTDAConfig
from repro.core.qtda_circuit import qtda_circuit
from repro.quantum.engine import EnsembleExecutor, EnsembleProgram
from repro.quantum.gates import BlockSlot
from repro.quantum.ptm import PTMExecutor, PTMOp, PTMProgram, WideUnitaryOp
from repro.utils.cache import BoundedCache

NOISE = dict(
    noise_channel="depolarizing",
    noise_strength=0.002,
    noise_gate_strengths={"c-U": 0.004, "H": 0.001},
)
ROUTES = {
    "ensemble": dict(circuit_engine="ensemble"),
    "ptm": dict(circuit_engine="ptm", **NOISE),
    "trajectory": dict(circuit_engine="trajectory", seed=11, **NOISE),
}


@pytest.fixture(autouse=True)
def fresh_templates():
    clear_template_cache()
    yield
    clear_template_cache()


def _problem(q: int, seed: int) -> EstimationProblem:
    """A random PSD Laplacian that pads to ``q`` system qubits."""
    rng = np.random.default_rng(seed)
    dim = 2**q - seed % min(3, 2 ** (q - 1))
    basis = rng.standard_normal((dim, max(1, dim - 1 - seed % 2)))
    laplacian = basis @ basis.T
    return EstimationProblem(laplacian=(laplacian + laplacian.T) / 2.0)


def _config(route: str, precision_qubits: int = 4, **extra) -> QTDAConfig:
    return QTDAConfig(
        precision_qubits=precision_qubits, shots=None, delta=6.0, **{**ROUTES[route], **extra}
    )


def _fresh_circuit_readout(route: str, problem: EstimationProblem, config: QTDAConfig, seed: int):
    """The readout of a freshly built circuit through the executor calls."""
    hamiltonian = problem.dense_hamiltonian(config)
    t, q = config.precision_qubits, hamiltonian.num_qubits
    circuit, _ = qtda_circuit(
        hamiltonian, precision_qubits=t, use_purification=False, power_synthesis="spectral"
    )
    spec = config.resolved_noise_spec()
    if route == "ensemble":
        return EnsembleExecutor().basis_ensemble_distribution(circuit, list(range(t)), range(2**q))
    if route == "ptm":
        return PTMExecutor().qtda_distribution(
            circuit, list(range(t)), precision_count=t, system_count=q, noise_spec=spec
        )
    distribution, _ = EnsembleExecutor().trajectory_basis_distribution(
        circuit,
        list(range(t)),
        range(2**q),
        noise_spec=spec,
        rng=np.random.default_rng(seed),
        n_trajectories=config.n_trajectories,
    )
    return distribution


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("q", [3, 4, 5, 6])
def test_bound_template_is_bitwise_a_fresh_circuit(route, q):
    config = _config(route)
    for seed in range(3):
        problem = _problem(q, 10 * q + seed)
        result = circuit_backend_result(problem, config, "exact", rng=np.random.default_rng(seed))
        assert result.route["engine_route"] == route
        assert result.num_system_qubits == q
        expected = _fresh_circuit_readout(route, problem, config, seed)
        assert np.array_equal(result.distribution, expected), (route, q, seed)
    assert template_cache_info() == {"hits": 2, "misses": 1, "entries": 1}


def test_a_hit_builds_and_plans_nothing(monkeypatch):
    """Once a shape is compiled, a request builds no circuit and runs no planner."""
    config = _config("ptm")
    circuit_backend_result(_problem(4, 1), config, "exact")

    def forbidden(*args, **kwargs):
        raise AssertionError("a template hit built or planned a circuit")

    monkeypatch.setattr(statevector, "qtda_circuit", forbidden)
    monkeypatch.setattr(PTMExecutor, "program", forbidden)
    monkeypatch.setattr(EnsembleExecutor, "gate_plan", forbidden)
    circuit_backend_result(_problem(4, 2), config, "exact")
    assert template_cache_info()["hits"] == 1


@pytest.mark.parametrize("q", [1, 2])
def test_small_registers_hold_the_oracle_pins(q):
    """A power as narrow as the fusion window now stays a slot instead of
    fusing with its neighbours; the answers stay on their oracles."""
    for seed in range(2):
        problem = _problem(q, 20 + seed)
        ptm = _config("ptm", precision_qubits=3)
        result = circuit_backend_result(problem, ptm, "exact")
        assert result.num_system_qubits == q
        got = result.distribution
        np.testing.assert_allclose(
            got, density_reference_distribution(problem, ptm), rtol=0, atol=1e-12
        )
        ensemble = _config("ensemble", precision_qubits=3)
        got = circuit_backend_result(problem, ensemble, "exact").distribution
        np.testing.assert_allclose(
            got, purified_reference_distribution(problem, ensemble), rtol=0, atol=1e-10
        )


def test_templates_hold_no_block_and_only_read_only_arrays():
    hamiltonian = _problem(4, 3).dense_hamiltonian(_config("ptm"))
    for route in ROUTES:
        spec = _config(route).resolved_noise_spec()
        template = qtda_template(route, hamiltonian, 4, spec)
        if isinstance(template, PTMProgram):
            wide = [op for op in template.ops if isinstance(op, WideUnitaryOp)]
            assert [op.block for op in wide] == [BlockSlot(j) for j in range(4)]
            assert all(op.matrix is None for op in wide)
            arrays = [op.matrix for op in template.ops if isinstance(op, PTMOp)]
        else:
            assert isinstance(template, EnsembleProgram)
            steps = template.steps + (template.gate_steps or ())
            slots = [block for _, _, block in steps if isinstance(block, BlockSlot)]
            assert sorted(slot.index for slot in slots) == sorted(
                list(range(4)) * (2 if route == "trajectory" else 1)
            )
            assert all(matrix is None for matrix, _, block in steps if isinstance(block, BlockSlot))
            assert all(not isinstance(block, np.ndarray) for _, _, block in steps)
            arrays = [matrix for matrix, _, _ in steps if matrix is not None]
        assert arrays and not any(array.flags.writeable for array in arrays)


def test_each_shape_gets_its_own_template_and_the_cache_stays_bounded(monkeypatch):
    monkeypatch.setattr(statevector, "_TEMPLATES", BoundedCache(3))
    hamiltonian = _problem(3, 4).dense_hamiltonian(_config("ptm"))
    base = _config("ptm").resolved_noise_spec()
    other_noise = _config("ptm", noise_strength=0.003).resolved_noise_spec()
    first = qtda_template("ptm", hamiltonian, 4, base)
    assert qtda_template("ptm", hamiltonian, 4, base) is first
    assert qtda_template("ptm", hamiltonian, 3, base) is not first
    assert qtda_template("ptm", hamiltonian, 4, other_noise) is not first
    assert qtda_template("trajectory", hamiltonian, 4, base) is not first
    bigger = _problem(4, 4).dense_hamiltonian(_config("ptm"))
    assert qtda_template("ptm", bigger, 4, base).num_qubits == 8
    info = statevector._TEMPLATES.info()
    assert info["misses"] == 5 and info["hits"] == 1 and info["entries"] == 3
    assert qtda_template("ptm", hamiltonian, 4, base) is not first  # evicted, rebuilt


def test_two_threads_match_a_sequential_run():
    """Worker threads share the templates; concurrent requests, racing on
    the same shapes from a cold cache, get the sequential answers."""
    jobs = [
        (route, q, seed)
        for route in ("ensemble", "ptm", "trajectory")
        for q in (3, 4)
        for seed in range(3)
    ]

    def run(job):
        route, q, seed = job
        result = circuit_backend_result(
            _problem(q, seed), _config(route), "exact", rng=np.random.default_rng(seed)
        )
        return result.distribution

    sequential = [run(job) for job in jobs]
    clear_template_cache()
    results = {}
    barrier = threading.Barrier(2)

    def worker(offset):
        barrier.wait()
        for index in range(offset, len(jobs), 2):
            results[index] = run(jobs[index])
        for index in range(1 - offset, len(jobs), 2):
            results[("again", index)] = run(jobs[index])

    threads = [threading.Thread(target=worker, args=(offset,)) for offset in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for index, expected in enumerate(sequential):
        assert np.array_equal(results[index], expected), jobs[index]
        assert np.array_equal(results[("again", index)], expected), jobs[index]
