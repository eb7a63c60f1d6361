"""Splice pins for the fusion segment caches (DESIGN.md §11, §16).

Fusion cuts its op stream at every gate wider than the window and caches
each segment per content.  In the QTDA circuit only the controlled powers
depend on the Laplacian, so a warm cache splices segments fused for one
cloud around another cloud's controlled powers.  The splice must be
invisible: over QTDA circuits at q = 1…6 and t = 2…4 (exact synthesis, and
Trotter synthesis at q ≤ 3), under every kind of noise, a plan or program
fused warm is byte-identical to one fused from a cleared cache.
"""

import numpy as np
import pytest

from repro.core.hamiltonian import build_hamiltonian
from repro.core.qtda_circuit import qtda_circuit
from repro.quantum.channels import NoiseSpec
from repro.quantum.fusion import (
    clear_fusion_cache,
    clear_ptm_cache,
    fuse_circuit,
    fuse_ptm_program,
    fusion_cache_info,
    ptm_cache_info,
)

CASES = [(q, t, "exact") for q in range(1, 7) for t in (2, 3, 4)]
CASES += [(q, t, "trotter") for q in (1, 2, 3) for t in (2, 3, 4)]

SPECS = {
    "noise-off": None,
    "depolarizing": NoiseSpec(channel="depolarizing", strength=0.01),
    "amplitude-damping": NoiseSpec(channel="amplitude-damping", strength=0.02),
    "two-qubit": NoiseSpec(
        channel="depolarizing",
        strength=0.01,
        two_qubit_channel="two-qubit-depolarizing",
        two_qubit_strength=0.02,
    ),
    "gate-strengths": NoiseSpec(
        channel="depolarizing", strength=0.01, gate_strengths={"H": 0.03, "c-U^1": 0.0}
    ),
    "readout-only": NoiseSpec(readout_error=0.05),
}


def _circuit(q, t, synthesis, seed):
    """The QTDA circuit of a randomly weighted matching-graph Laplacian
    (disjoint edges ``(0, 1), (2, 3), ...``) that pads to ``q`` qubits.

    A matching keeps the Trotter circuits short (few Pauli terms) while
    every controlled power still depends on the weights.
    """
    dim = 2**q - 1 if q > 1 else 2
    weights = np.random.default_rng(seed).uniform(0.5, 1.5, size=dim // 2)
    laplacian = np.kron(np.diag(weights), [[1.0, -1.0], [-1.0, 1.0]])
    if dim % 2:
        laplacian = np.pad(laplacian, (0, 1))
    hamiltonian = build_hamiltonian(laplacian, delta=6.0)
    circuit, spec = qtda_circuit(
        hamiltonian,
        precision_qubits=t,
        use_purification=False,
        synthesis=synthesis,
        trotter_steps=1,
        power_synthesis="spectral" if synthesis == "exact" else "chain",
    )
    assert spec.system_qubits == q
    return circuit


def _content(ops):
    """What the executor reads of each op: qubits, matrix bytes, sources."""
    return [
        (op.qubits, np.ascontiguousarray(op.matrix).tobytes(), getattr(op, "sources", None))
        for op in ops
    ]


def _scaled(spec, factor):
    """``spec`` with every channel strength scaled by ``factor``."""
    data = spec.as_dict()
    data["strength"] *= factor
    data["two_qubit_strength"] *= factor
    data["gate_strengths"] = {name: s * factor for name, s in data["gate_strengths"].items()}
    return NoiseSpec.from_dict(data)


def _with_readout(spec, readout_error):
    data = NoiseSpec().as_dict() if spec is None else spec.as_dict()
    return NoiseSpec.from_dict({**data, "readout_error": readout_error})


def _all_small_ops_are_shared(q, synthesis):
    """Every controlled power is wider than the default window of 3, so no
    fused segment depends on the Laplacian."""
    return synthesis == "exact" and q + 1 > 3


@pytest.mark.parametrize("q, t, synthesis", CASES)
def test_warm_plan_is_byte_identical_to_cold(q, t, synthesis):
    other, circuit = _circuit(q, t, synthesis, 1), _circuit(q, t, synthesis, 2)
    clear_fusion_cache()
    fuse_circuit(other)
    misses = fusion_cache_info()["misses"]
    warm = fuse_circuit(circuit)
    if _all_small_ops_are_shared(q, synthesis):
        assert fusion_cache_info()["misses"] == misses
    clear_fusion_cache()
    assert _content(warm) == _content(fuse_circuit(circuit))


@pytest.mark.parametrize("q, t, synthesis", CASES)
@pytest.mark.parametrize("noise", sorted(SPECS))
def test_warm_program_is_byte_identical_to_cold(q, t, synthesis, noise):
    spec = SPECS[noise]
    other, circuit = _circuit(q, t, synthesis, 1), _circuit(q, t, synthesis, 2)
    clear_ptm_cache()
    fuse_ptm_program(other, spec)
    misses = ptm_cache_info()["misses"]
    warm = fuse_ptm_program(circuit, spec)
    if _all_small_ops_are_shared(q, synthesis):
        assert ptm_cache_info()["misses"] == misses
    clear_ptm_cache()
    cold = fuse_ptm_program(circuit, spec)
    assert _content(warm.ops) == _content(cold.ops)
    assert (warm.num_qubits, warm.source_ops) == (cold.num_qubits, cold.source_ops)

    # Every lookup of the cold pass missed; a readout error alone places no
    # channel, so it hits every one of those segments.
    segments = ptm_cache_info()["misses"]
    readout = fuse_ptm_program(circuit, _with_readout(spec, 0.1))
    assert ptm_cache_info()["hits"] == segments
    assert ptm_cache_info()["misses"] == segments
    assert _content(readout.ops) == _content(cold.ops)
    if spec is not None and spec.has_gate_noise:
        # A changed channel strength reaches every segment: all miss.
        fuse_ptm_program(circuit, _scaled(spec, 2.0))
        assert ptm_cache_info()["hits"] == segments
        assert ptm_cache_info()["misses"] == 2 * segments
