"""Property: all registered backends, run noise-free, agree with classical homology.

For random small complexes (fixed seeds, so the suite is deterministic),
every registered backend's noise-free rounded estimate must equal the
classical ``betti_number`` — the registry guarantees interchangeable
*semantics*, not just a shared interface.  Unknown third-party backends
registered at runtime are picked up automatically because the test iterates
``available_backends()``.
"""

import pytest

from repro.core.backends import available_backends, get_backend
from repro.core.estimator import QTDABettiEstimator
from repro.tda.betti import betti_number
from repro.tda.random_complexes import random_simplicial_complex

#: Fixed seeds keep the property deterministic while still sampling a range
#: of shapes (trees, loops, filled triangles — f-vectors from (5,3) to (5,6,2));
#: seeds 0–11 were all verified to pass, these four keep the suite snappy.
_SEEDS = (2, 5, 8, 11)


#: Circuit backends are exercised on both the default batched route and the
#: exact density-tensor ``ptm`` route (DESIGN.md §11); spectral backends
#: ignore the knob, so they run once under "auto".
_CIRCUIT_BACKENDS = {"statevector", "trotter"}


@pytest.mark.parametrize("seed", _SEEDS)
def test_noiseless_backends_round_to_classical_betti(seed):
    complex_ = random_simplicial_complex(5, max_dimension=2, seed=seed)
    for k in (0, 1):
        truth = betti_number(complex_, k)
        for name in available_backends():
            backend = get_backend(name)
            engines = ("auto", "ptm") if name in _CIRCUIT_BACKENDS else ("auto",)
            for engine in engines:
                # The estimator seed pins the *stochastic-trace* probes —
                # without it this property is flaky at the ~1% level (the
                # probe average can round wrong), despite the fixed complex
                # seeds.
                estimator = QTDABettiEstimator(
                    precision_qubits=4,
                    shots=None,
                    backend=name,
                    delta=6.0,
                    trotter_steps=6,
                    circuit_engine=engine,
                    seed=7,
                )
                estimate = estimator.estimate(complex_, k, compute_exact=False)
                assert estimate.betti_rounded == truth, (
                    f"backend {name!r} (circuit_engine={engine!r}, "
                    f"operator_format={backend.operator_format}) rounded to "
                    f"{estimate.betti_rounded}, classical beta_{k} = {truth} (seed {seed})"
                )


@pytest.mark.parametrize("seed", _SEEDS[:3])
def test_spectral_backends_agree_exactly_not_just_after_rounding(seed):
    """``sparse-exact`` delegates to the dense path at these sizes, so its
    raw estimates must be bit-identical to ``exact``, not merely round alike."""
    complex_ = random_simplicial_complex(5, max_dimension=2, seed=seed)
    for k in (0, 1):
        exact = QTDABettiEstimator(precision_qubits=4, shots=None, backend="exact", delta=6.0)
        sparse = QTDABettiEstimator(
            precision_qubits=4, shots=None, backend="sparse-exact", delta=6.0
        )
        a = exact.estimate(complex_, k, compute_exact=False)
        b = sparse.estimate(complex_, k, compute_exact=False)
        assert a.betti_estimate == b.betti_estimate
