"""Benchmark — the fused-superoperator ``ptm`` route vs the noisy density oracle.

The ``ptm`` route (DESIGN.md §16) is the *exact* fast path for declarative
noise: every gate and attached channel becomes a Liouville superoperator,
adjacent superoperators fuse greedily, and one density tensor evolves
through the fused program, holding each qubit only from its first op to its
last.  No trajectories, no sampling spread — the answer must match the
gate-by-gate density contraction to machine precision, at gate-fusion speed.

The gate: at ``q = 6`` system qubits and ``t = 4`` precision qubits (the
same 48-dimensional workload Laplacian as the other circuit-engine
benchmarks) under per-gate-class depolarising noise, the warm ``ptm`` route
(median of ``WARM_REPEATS`` runs) must beat the noisy density-matrix oracle
(:func:`~repro.core.backends.statevector.density_reference_distribution`) by at
least 5× while agreeing with it to 1e-12 (absolute, per readout probability
— an exactness pin, not a statistical tolerance).  The artefact also records
``wide_op_tensor_qubits``, how many qubits the density tensor holds at each
wide controlled power (6/7/8/9: each precision qubit is still its input
factor at its own controlled power and joins as the power's output), and
``peak_tensor_qubits``, the most any kernel's input or output holds (9 =
``t + q - 1``: the last power traces the system register out without
joining its control).

The superoperator share is recorded per op: ``superop_tensor_qubits`` is
the tensor width each superoperator runs on, ``superop_ms`` its median time
over ``WARM_REPEATS`` instrumented runs, and ``folded_superoperators`` how
many superoperators the traced last power absorbs as adjoints instead of
running them on its 9-qubit input.  ``fused_superoperators`` is 16 (18
before the system register's noise waited for the next power).
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

import repro.quantum.ptm as ptm_module
from repro.core.backends import EstimationProblem
from repro.core.backends.statevector import (
    circuit_backend_result,
    density_reference_distribution,
)
from repro.core.config import QTDAConfig
from repro.utils.rng import as_rng

PRECISION = 4  # t
DIMENSION = 48  # |S_k|, padded to 2^6 -> q = 6
DELTA = 6.0
NOISE_STRENGTH = 0.002
GATE_STRENGTHS = {"c-U": 0.004, "H": 0.001}
GATE = 5.0
SEED = 2023
#: Warm runs behind the reported median and interquartile range.
WARM_REPEATS = 7


def _workload_laplacian(dim: int = DIMENSION) -> np.ndarray:
    """The same deterministic PSD workload as test_bench_circuit_engine.py."""
    rng = np.random.default_rng(2023)
    basis = rng.standard_normal((dim, dim - 2))
    lap = basis @ basis.T
    return (lap + lap.T) / 2.0


def _config(engine: str = "auto") -> QTDAConfig:
    return QTDAConfig(
        precision_qubits=PRECISION,
        shots=None,
        delta=DELTA,
        backend="statevector",
        circuit_engine=engine,
        noise_channel="depolarizing",
        noise_strength=NOISE_STRENGTH,
        noise_gate_strengths=GATE_STRENGTHS,
        seed=SEED,
    )


def _route_seconds(problem: EstimationProblem, engine: str):
    config = _config(engine)
    start = time.perf_counter()
    result = circuit_backend_result(problem, config, "exact", rng=as_rng(config.seed))
    return time.perf_counter() - start, result


def _kernel_profile(problem: EstimationProblem, monkeypatch):
    """One instrumented ``ptm`` run per warm repeat: the tensor qubits at
    each wide unitary, the most any kernel's input or output holds, the
    tensor qubits and median time of each superoperator, and how many
    superoperators the wide unitaries fold."""
    runs = []

    def recorded(kernel, is_wide, run):
        def recording(tensor, *args, **kwargs):
            start = time.perf_counter()
            out = kernel(tensor, *args, **kwargs)
            seconds = time.perf_counter() - start
            if is_wide:
                run["wide"].append(tensor.ndim // 2)
                run["folded"] += len(kwargs.get("folded", ()))
            else:
                run["superops"].append((tensor.ndim // 2, seconds))
            run["sizes"].extend([tensor.ndim // 2, out.ndim // 2])
            return out

        return recording

    for _ in range(WARM_REPEATS):
        run = {"wide": [], "superops": [], "sizes": [], "folded": 0}
        with monkeypatch.context() as patch:
            for name, is_wide in (
                ("apply_superop", False),
                ("apply_unitary_to_pauli_ensemble", True),
            ):
                patch.setattr(ptm_module, name, recorded(getattr(ptm_module, name), is_wide, run))
            _route_seconds(problem, "ptm")
        runs.append(run)
    first = runs[0]
    return {
        "wide_op_tensor_qubits": first["wide"],
        "peak_tensor_qubits": max(first["sizes"]),
        "superop_tensor_qubits": [width for width, _ in first["superops"]],
        "superop_ms": [
            1e3 * statistics.median(run["superops"][index][1] for run in runs)
            for index in range(len(first["superops"]))
        ],
        "folded_superoperators": first["folded"],
    }


def _density_seconds(problem: EstimationProblem):
    """The density-matrix oracle on the same noisy config."""
    start = time.perf_counter()
    distribution = density_reference_distribution(problem, _config(), "exact")
    return time.perf_counter() - start, distribution


@pytest.mark.benchmark(group="ptm")
def test_bench_ptm_route_speedup(benchmark, paper_scale, bench_json, monkeypatch):
    laplacian = _workload_laplacian()
    problem = EstimationProblem(laplacian=laplacian)

    # Cold pass populates the program cache; the gate is measured warm
    # (cached fused program, steady-state allocator) because that is how
    # every run after the first executes in practice.
    cold_seconds, ptm = _route_seconds(problem, "ptm")
    density_seconds, density = _density_seconds(problem)

    warm_runs = []
    benchmark.pedantic(
        lambda: warm_runs.append(_route_seconds(problem, "ptm")[0]),
        rounds=WARM_REPEATS,
        iterations=1,
    )
    ptm_warm_seconds = statistics.median(warm_runs)
    quartiles = statistics.quantiles(warm_runs, n=4)
    ptm_warm_iqr = quartiles[2] - quartiles[0]
    profile = _kernel_profile(problem, monkeypatch)

    dim = 2**6
    betti_ptm = dim * float(ptm.distribution[0])
    betti_density = dim * float(density[0])
    max_abs_diff = float(np.max(np.abs(ptm.distribution - density)))
    speedup = density_seconds / ptm_warm_seconds
    print()
    print(
        f"q=6 t={PRECISION} depolarizing p={NOISE_STRENGTH} "
        f"gate_strengths={GATE_STRENGTHS}: ptm {cold_seconds:.3f}s cold / "
        f"{ptm_warm_seconds:.3f}s warm median (IQR {ptm_warm_iqr:.3f}s, "
        f"{len(warm_runs)} runs; {ptm.route['fused_gates']} fused superops, "
        f"{profile['folded_superoperators']} folded; superops on "
        f"{profile['superop_tensor_qubits']} tensor qubits, "
        f"{sum(profile['superop_ms']):.2f} ms; wide ops on "
        f"{profile['wide_op_tensor_qubits']} tensor qubits, "
        f"peak {profile['peak_tensor_qubits']}) | "
        f"density {density_seconds:.3f}s | speedup {speedup:.1f}x | "
        f"betti {betti_ptm:.6f} vs density {betti_density:.6f} "
        f"(max |Δp| = {max_abs_diff:.2e})"
    )
    bench_json(
        "ptm",
        {
            "system_qubits": 6,
            "precision_qubits": PRECISION,
            "laplacian_dimension": DIMENSION,
            "noise_channel": "depolarizing",
            "noise_strength": NOISE_STRENGTH,
            "noise_gate_strengths": dict(GATE_STRENGTHS),
            "ptm_cold_seconds": cold_seconds,
            "ptm_warm_seconds": ptm_warm_seconds,
            "ptm_warm_iqr_seconds": ptm_warm_iqr,
            "ptm_warm_repeats": len(warm_runs),
            "density_seconds": density_seconds,
            "speedup_vs_density": speedup,
            "fused_superoperators": ptm.route["fused_gates"],
            **profile,
            "betti_ptm": betti_ptm,
            "betti_density": betti_density,
            "max_abs_distribution_diff": max_abs_diff,
            "gate": GATE,
        },
    )

    assert ptm.route["engine_route"] == "ptm"
    assert ptm.route["fused_gates"] is not None and ptm.route["fused_gates"] > 0
    assert ptm.route["noise_spec"] is not None
    # Exactness pin: the ptm route is the same contraction, fused and
    # restricted to the live qubits — machine-precision agreement, no
    # statistical tolerance.
    assert max_abs_diff <= 1e-12, (
        f"ptm and density distributions diverge by {max_abs_diff:.2e} (> 1e-12)"
    )
    # The acceptance criterion of the fused-PTM-route PR.
    assert speedup >= GATE, (
        f"expected >= {GATE}x over the noisy density-matrix oracle, measured {speedup:.1f}x"
    )
