"""Pickling audit of every wire-facing object.

The batch engine's ``processes`` backend ships configs to worker processes,
and the service requests are the cross-process wire format — so each of
these must survive ``pickle`` byte-for-byte *and* its own
``as_dict``/``from_dict`` round trip.
Frozen dataclasses with precomputed derived fields (the usual spawn-pickling
culprits) get their derived state checked explicitly.
"""

import pickle

import numpy as np
import pytest

from repro.core.api import (
    EstimationRequest,
    ExperimentRequest,
    ObserveRequest,
    PipelineRequest,
    SweepRequest,
    request_from_dict,
)
from repro.core.batch import BatchConfig
from repro.core.config import QTDAConfig
from repro.core.pipeline import PipelineConfig
from repro.quantum.channels import NoiseSpec, QuantumChannel
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.engine import EnsembleExecutor
from repro.quantum.ptm import PTMExecutor


def _roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


TRIANGLE = ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3))


# ---------------------------------------------------------------------------
# Quantum IR: circuits, gate plans, channels
# ---------------------------------------------------------------------------


def test_quantum_circuit_pickles_with_content_intact():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, _ = np.linalg.qr(m)
    circuit = QuantumCircuit(3, name="wire").h(0).cnot(0, 1).unitary(q, [1, 2])
    circuit.barrier()
    circuit.measure([0, 1])
    copy = _roundtrip(circuit)
    assert copy.num_qubits == circuit.num_qubits
    assert copy.name == circuit.name
    assert len(copy.instructions) == len(circuit.instructions)
    # Content equality: every gate's qubits and matrix bytes.
    assert [(g.qubits, g.matrix.tobytes()) for g in copy.gates] == [
        (g.qubits, g.matrix.tobytes()) for g in circuit.gates
    ]


def test_fused_gate_plan_pickles():
    """A *fused* plan must pickle with its gate matrices intact."""
    rng = np.random.default_rng(2)
    circuit = QuantumCircuit(3)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, _ = np.linalg.qr(m)
    for _ in range(6):
        circuit.unitary(q, [0, 1])
    plan = EnsembleExecutor(fuse=True).gate_plan(circuit)
    copy = _roundtrip(plan)
    assert len(copy) == len(plan)
    for got, expected in zip(copy, plan):
        assert got.qubits == expected.qubits
        assert np.array_equal(got.matrix, expected.matrix)


def test_executors_pickle_with_their_settings():
    """Executors hold plain settings only, so worker processes can receive them."""
    circuit = QuantumCircuit(2).h(0).cnot(0, 1)
    for executor in (EnsembleExecutor(), EnsembleExecutor(fuse=False, memory_budget_bytes=4096)):
        copy = _roundtrip(executor)
        assert vars(copy) == vars(executor)
        assert np.array_equal(
            copy.basis_ensemble_distribution(circuit, [0, 1], range(4)),
            executor.basis_ensemble_distribution(circuit, [0, 1], range(4)),
        )
    for executor in (PTMExecutor(), PTMExecutor(max_fuse_qubits=2)):
        assert vars(_roundtrip(executor)) == vars(executor)


@pytest.mark.parametrize(
    "name,strength", [("depolarizing", 0.05), ("bit-flip", 0.1), ("amplitude-damping", 0.2)]
)
def test_quantum_channel_pickles_with_derived_tables(name, strength):
    channel = QuantumChannel.from_name(name, strength)
    copy = _roundtrip(channel)
    assert copy.name == channel.name
    assert copy.arity == channel.arity
    assert copy.is_mixed_unitary == channel.is_mixed_unitary
    for got, expected in zip(copy.kraus_ops, channel.kraus_ops):
        assert np.array_equal(got, expected)
    if channel.is_mixed_unitary:
        # The precomputed trajectory branch tables survive (frozen dataclass
        # __post_init__ recomputes them from kraus_ops on unpickle — they
        # must land on the same values).
        assert np.array_equal(copy.branch_probabilities, channel.branch_probabilities)
        assert np.array_equal(copy.cumulative_probabilities, channel.cumulative_probabilities)
        assert np.array_equal(copy.identity_branches, channel.identity_branches)


def test_noise_spec_pickle_and_wire_roundtrip():
    spec = NoiseSpec(
        channel="depolarizing",
        strength=0.01,
        two_qubit_channel="two-qubit-depolarizing",
        two_qubit_strength=0.02,
        readout_error=0.03,
    )
    assert _roundtrip(spec) == spec
    assert NoiseSpec.from_dict(spec.as_dict()) == spec


# ---------------------------------------------------------------------------
# Configs
# ---------------------------------------------------------------------------


def test_qtda_config_pickle_and_wire_roundtrip():
    config = QTDAConfig(
        precision_qubits=4,
        shots=256,
        seed=11,
        noise_channel="depolarizing",
        noise_strength=0.01,
    )
    assert _roundtrip(config) == config
    assert QTDAConfig.from_dict(config.as_dict()) == config


# ---------------------------------------------------------------------------
# Service requests (the wire format)
# ---------------------------------------------------------------------------


def _request_zoo():
    yield EstimationRequest(
        k=1,
        simplices=TRIANGLE,
        config=QTDAConfig(precision_qubits=3, shots=None, seed=3),
    )
    yield EstimationRequest(
        k=0, points=((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)), epsilon=1.5, config=QTDAConfig(seed=5)
    )
    yield PipelineRequest(
        point_clouds=(((0.0, 0.0), (1.0, 0.0), (0.5, 1.0)),),
        epsilon=1.5,
        pipeline=PipelineConfig(),
        batch=BatchConfig(),
    )
    yield SweepRequest(
        epsilons=(0.5, 1.0),
        time_series=((0.1, 0.4, 0.9, 0.2, 0.7, 0.3, 0.8, 0.1),),
        pipeline=PipelineConfig(),
    )
    yield ExperimentRequest(experiment="appendix", params={"shots": 100, "seed": 2})
    yield ObserveRequest(
        samples=(0.1, 0.2, 0.3),
        session="s1",
        window_length=8,
        stride=2,
        epsilons=(1.0,),
        pipeline=PipelineConfig(),
    )


@pytest.mark.parametrize("request_", _request_zoo(), ids=lambda r: r.kind)
def test_requests_survive_pickle_and_wire_roundtrips(request_):
    copy = _roundtrip(request_)
    assert copy == request_
    assert hash(copy) == hash(request_)
    # The dict wire form round-trips through the kind-dispatching rebuilder.
    rebuilt = request_from_dict(request_.as_dict())
    assert rebuilt == request_
    # And the rebuilt request still pickles (frozen dataclass + derived state).
    assert _roundtrip(rebuilt) == request_
