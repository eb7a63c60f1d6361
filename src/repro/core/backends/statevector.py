"""The ``statevector`` backend — the explicit Fig. 6 circuit.

Runs the full QTDA circuit with exact controlled powers of ``U = exp(iH)``
over one of three routes (``QTDAConfig.circuit_engine``, DESIGN.md §11).
Only those powers depend on the Laplacian, so each circuit shape ``(route,
t, q, noise, fusion window)`` is built and compiled once, with the powers
left as open slots (:func:`qtda_template`); a request computes its powers
``U^{2^j}`` from one ``eigh`` of ``H`` (:func:`controlled_powers`), binds
them and runs the compiled program:

* ``ensemble`` (the default for noise-free runs) — the maximally mixed input
  is simulated by evolving the ``2^q`` system basis states as *one batched
  ``(2^(t+q), B)`` statevector array* on the execution engine
  (:mod:`repro.quantum.engine`): adjacent gates are fused, every gate is one
  GEMM on a reshaped view of the whole batch, each controlled power applies
  only ``V`` to its control's ``|1>`` half, the batch is chunked to a
  memory budget, and the readout is the batch-averaged marginal.
  Mathematically identical to evolving ``|0><0| ⊗ I/2^q`` but
  ``O(2^(t+q) · 2^q)`` flops per gate on a flat array instead of a squared
  density matrix, with no purification qubits.
* ``ptm`` (the default for noisy runs up to ``PTM_AUTO_QUBIT_THRESHOLD``
  total qubits) — the circuit and its noise channels are lowered to
  Liouville superoperators and fused (:mod:`repro.quantum.ptm`, DESIGN.md
  §16); one density tensor evolves through the fused program, holding each
  qubit only from its first op to its last, so the result is *exact*
  (agrees with the density oracle to floating point) at gate-fusion speed.
* ``trajectory`` (the default for noisy runs above the PTM threshold) — the
  same batched ensemble, unravelled through the configured noise channels by
  stochastic Kraus-branch sampling (one branch per ensemble member after
  each gate), repeated ``n_trajectories`` times; the mean estimates the
  density result and the spread becomes ``p_zero_std``.

Noise is declared on :class:`~repro.core.config.QTDAConfig` (``noise_channel``,
``noise_strength`` and the extended :class:`~repro.quantum.channels.NoiseSpec`
fields); :meth:`~repro.core.config.QTDAConfig.resolved_noise_spec` is the one
noise description every route reads.  Two plain simulations of the same
circuit stay here as reference oracles, not routes:
:func:`density_reference_distribution` (gate-by-gate density-matrix
evolution) and :func:`purified_reference_distribution` (the Fig. 2
purification on ``t + 2q`` qubits).  This module also hosts the
circuit-execution plumbing shared with the ``trotter`` backend, which differs
only in how ``U`` is synthesised.
"""

from __future__ import annotations

import json
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.core.backends.base import BackendResult, EstimationProblem, register_backend
from repro.core.hamiltonian import RescaledHamiltonian
from repro.core.qtda_circuit import qtda_circuit
from repro.quantum.channels import NoiseSpec, apply_readout_error
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.density_matrix import DensityMatrix, DensityMatrixSimulator
from repro.quantum.engine import DEFAULT_MAX_FUSE_QUBITS, EnsembleExecutor, EnsembleProgram
from repro.quantum.operations import Gate
from repro.quantum.ptm import PTMExecutor, PTMProgram
from repro.quantum.qpe import SpectralUnitary
from repro.quantum.statevector import StatevectorSimulator
from repro.utils.cache import BoundedCache
from repro.utils.rng import as_rng
from repro.utils.validation import InvalidRequestError

#: Concrete circuit-execution routes (``"auto"`` resolves to one of these).
CIRCUIT_ROUTES = ("ensemble", "trajectory", "ptm")

#: Largest ``t + q`` the exact ``ptm`` route runs: ``auto`` prefers it for
#: noisy runs up to here and an explicit ``ptm`` is refused above.  The
#: route's state is a complex density tensor, 16 bytes an entry.  On QTDA
#: every controlled power acts on its control's input factor, so the
#: tensor peaks at ``4^(t+q-1)`` entries, the one the last power sees
#: (67 MB at 12 qubits, 1.1 GB at 14); a circuit whose qubits all join
#: holds ``4^(t+q)``.  Above the threshold ``auto`` falls back to
#: stochastic trajectories, whose state stays ``2^(t+q)``.
PTM_AUTO_QUBIT_THRESHOLD = 12

#: Compiled exact-synthesis programs, one per circuit shape: ``(route, t,
#: q, noise spec, fusion window)``.  Bounded by entry count, since clients
#: choose the noise spec; a program holds the fused small gates and
#: superoperators of its shape, never a Laplacian's controlled power.
TEMPLATE_CACHE_MAXSIZE = 32

_TEMPLATES = BoundedCache(TEMPLATE_CACHE_MAXSIZE)

CompiledProgram = Union[EnsembleProgram, PTMProgram]


def template_cache_info():
    """Hit/miss/size counters of the compiled-program cache."""
    return _TEMPLATES.info()


def clear_template_cache() -> None:
    """Drop every compiled program and reset the counters (tests)."""
    _TEMPLATES.clear()


def resolve_circuit_route(config, total_qubits: Optional[int] = None) -> str:
    """Resolve ``config.circuit_engine`` to a concrete route.

    Gate noise (``config.resolved_noise_spec().has_gate_noise``) excludes the
    pure-state ``ensemble`` route: an explicit ``ensemble`` choice combined
    with noise raises instead of silently dropping it.  ``"auto"`` resolves
    noisy runs to the exact ``ptm`` route while the register fits the
    density-tensor budget (``total_qubits`` is the circuit's ``t + q``;
    ``None`` — callers that cannot know the size — counts as fitting), and to
    the stochastic ``trajectory`` route above
    :data:`PTM_AUTO_QUBIT_THRESHOLD`.  Noise-free runs resolve ``"auto"`` to
    ``ensemble``; a zero-strength channel counts as noise-free.  An explicit
    ``ptm`` above the threshold raises
    :class:`~repro.utils.validation.InvalidRequestError` before anything is
    allocated, with or without noise.
    """
    engine = config.circuit_engine
    if engine not in ("auto",) + CIRCUIT_ROUTES:
        raise ValueError(
            f"circuit_engine must be one of {('auto',) + CIRCUIT_ROUTES}, got {engine!r}"
        )
    if engine == "ptm" and total_qubits is not None and total_qubits > PTM_AUTO_QUBIT_THRESHOLD:
        raise InvalidRequestError(
            f"circuit_engine='ptm' holds a density tensor of up to 4^{total_qubits} entries; "
            f"it runs at most {PTM_AUTO_QUBIT_THRESHOLD} qubits (t + q), use 'trajectory' "
            "or 'auto' for larger circuits"
        )
    if not config.resolved_noise_spec().has_gate_noise:
        return "ensemble" if engine == "auto" else engine
    if engine == "ensemble":
        raise ValueError(
            "circuit_engine='ensemble' cannot simulate noise channels; "
            "use 'ptm', 'trajectory' (or 'auto')"
        )
    if engine != "auto":
        return engine
    if total_qubits is not None and total_qubits > PTM_AUTO_QUBIT_THRESHOLD:
        return "trajectory"
    return "ptm"


def _compile(
    route: str,
    circuit: QuantumCircuit,
    spec: NoiseSpec,
    readout: Sequence[int],
    slots: Sequence[Gate] = (),
) -> CompiledProgram:
    """``circuit`` compiled for ``route``, the gates of ``slots`` left open.

    ``ptm``: gates and their channels, cut to the light cone of
    ``readout``, lowered to Liouville superoperators and fused.
    ``ensemble``: the fused gate plan.  ``trajectory``: that plan for the
    error-free columns, plus the unfused steps and the noise placed after
    each gate for the columns that drew an error.
    """
    if route == "ptm":
        gate_spec = spec if spec.has_gate_noise else None
        return PTMExecutor().program(circuit, noise_spec=gate_spec, readout=readout, slots=slots)
    noise_spec = spec if route == "trajectory" else None
    return EnsembleExecutor().compile(circuit, slots=slots, noise_spec=noise_spec)


def _read_only(program: CompiledProgram) -> CompiledProgram:
    """``program`` with the arrays it holds marked read-only: a template is
    shared by every thread that runs its shape.  Arrays it shares with the
    segment caches or the gate constants of :mod:`repro.quantum.gates`
    become read-only there too; no kernel writes into a gate matrix."""
    if isinstance(program, PTMProgram):
        arrays = [op.matrix for op in program.ops]
    else:
        arrays = [step[0] for step in program.steps + (program.gate_steps or ())]
    for array in arrays:
        if array is not None:
            array.setflags(write=False)
    return program


def qtda_template(
    route: str, hamiltonian: RescaledHamiltonian, precision_qubits: int, spec: NoiseSpec
) -> CompiledProgram:
    """The exact-synthesis QTDA circuit of this shape compiled for ``route``,
    with its ``t`` controlled powers as open slots (cached per shape).

    Only the controlled powers depend on the Laplacian: the Hadamards, the
    inverse QFT and the noise ``spec`` places are fixed by ``(t, q,
    spec)``.  On a miss the circuit is built from ``hamiltonian`` and
    compiled with today's planners, power ``j`` (the one precision qubit
    ``j`` controls) as slot ``j``; :func:`controlled_powers` gives the
    blocks a run binds.
    """
    t, q = int(precision_qubits), hamiltonian.num_qubits
    key = (route, t, q, json.dumps(spec.as_dict(), sort_keys=True), DEFAULT_MAX_FUSE_QUBITS)
    program = _TEMPLATES.get(key)
    if program is None:
        circuit, layout = qtda_circuit(
            hamiltonian,
            precision_qubits=t,
            use_purification=False,
            synthesis="exact",
            power_synthesis="spectral",
        )
        system = set(layout.system_register)
        powers = [gate for gate in circuit.gates if system.intersection(gate.qubits)]
        program = _read_only(_compile(route, circuit, spec, layout.precision_register, powers))
        program = _TEMPLATES.put(key, program)
    return program


def controlled_powers(hamiltonian: RescaledHamiltonian, precision_qubits: int) -> List[np.ndarray]:
    """The blocks ``V_j = U^{2^(t-1-j)}`` of the exact QTDA circuit's
    controlled powers, ``U = exp(iH)`` from one ``eigh`` of ``H``: the same
    arrays :func:`~repro.core.qtda_circuit.qtda_circuit` puts in the
    ``I (+) V_j`` blocks with ``power_synthesis="spectral"``."""
    t = int(precision_qubits)
    spectral = SpectralUnitary.from_hermitian(hamiltonian.matrix)
    return [spectral.power(2 ** (t - 1 - j)) for j in range(t)]


def circuit_backend_result(
    problem: EstimationProblem,
    config,
    synthesis: str,
    rng: Optional[np.random.Generator] = None,
) -> BackendResult:
    """Execute the Fig. 6 circuit, returning the readout distribution.

    The route comes from ``config.circuit_engine`` via
    :func:`resolve_circuit_route` and the noise from
    ``config.resolved_noise_spec()``.  Every route runs the circuit on
    ``t + q`` qubits.  The exact synthesis compiles each circuit shape once
    (:func:`qtda_template`) and binds each run's controlled powers into it
    (:func:`controlled_powers`: one ``eigh`` of ``H``, phases raised to
    ``2^j``); the Trotter synthesis, whose every gate depends on ``H``,
    builds and compiles its circuit per run.  Every synthesis style emits
    the same gate *sequence*, so ``spec.channels_for_gate`` places noise at
    identical points on the ``ptm`` and ``trajectory`` routes and in
    :func:`density_reference_distribution`.

    ``rng`` drives the trajectory route's branch sampling (falls back to a
    ``config.seed``-derived generator).  A configured ``readout_error`` is
    applied to the final distribution on every route (exact per-bit
    confusion contraction).
    """
    hamiltonian = problem.dense_hamiltonian(config)
    t, q = config.precision_qubits, hamiltonian.num_qubits
    route = resolve_circuit_route(config, total_qubits=t + q)
    spec = config.resolved_noise_spec()
    if synthesis == "exact":
        template = qtda_template(route, hamiltonian, t, spec)
        program = template.bind(controlled_powers(hamiltonian, t))
    else:
        circuit, _ = qtda_circuit(
            hamiltonian,
            precision_qubits=t,
            use_purification=False,
            synthesis=synthesis,
            trotter_steps=config.trotter_steps,
            trotter_order=config.trotter_order,
        )
        program = _compile(route, circuit, spec, range(t))
    precision_register = list(range(t))
    system_basis = range(2**q)
    p_zero_std = fused_gates = n_trajectories = None

    if route == "trajectory":
        # Columns that drew an error run unfused, so noise lands after every
        # original gate; the error-free columns share one fused noise-free
        # pass.  The engine applies the readout error per trajectory, so the
        # spread over the repetitions (``p_zero_std``) accounts for it.
        n_trajectories = config.n_trajectories
        distribution, sem = EnsembleExecutor().trajectory_basis_distribution(
            program,
            qubits=precision_register,
            basis_states=system_basis,
            noise_spec=spec,
            rng=rng if rng is not None else as_rng(config.seed),
            n_trajectories=n_trajectories,
        )
        if n_trajectories > 1:
            p_zero_std = float(sem[0])
    elif route == "ensemble":
        # The 2^q system basis states form one batched array (full-register
        # basis index b: the precision register reads |0...0>); the engine
        # chunks the batch to its budget.
        distribution = EnsembleExecutor().basis_ensemble_distribution(
            program, qubits=precision_register, basis_states=system_basis
        )
        fused_gates = len(program.steps)
    else:
        # ptm: one complex density tensor (at most 4^(t+q-1) entries)
        # evolves through the fused superoperators, each qubit held from its
        # first coupling op to its last op.
        distribution = PTMExecutor().qtda_distribution(
            program, precision_qubits=precision_register, precision_count=t, system_count=q
        )
        fused_gates = program.num_superops
    if route != "trajectory" and spec.readout_error > 0:
        distribution = apply_readout_error(distribution, spec.readout_error)
    return BackendResult(
        distribution=distribution,
        num_system_qubits=hamiltonian.num_qubits,
        lambda_max=hamiltonian.padded.lambda_max,
        p_zero_std=p_zero_std,
        route={
            "engine_route": route,
            "fused_gates": fused_gates,
            "n_trajectories": n_trajectories,
            "noise_spec": None if spec.is_noiseless else spec.as_dict(),
        },
    )


def _reference_circuit(problem: EstimationProblem, config, synthesis: str, use_purification: bool):
    """The Fig. 6 circuit the oracles simulate: ``U`` powered by the ``expm`` chain."""
    return qtda_circuit(
        problem.dense_hamiltonian(config),
        precision_qubits=config.precision_qubits,
        use_purification=use_purification,
        synthesis=synthesis,
        trotter_steps=config.trotter_steps,
        trotter_order=config.trotter_order,
        power_synthesis="chain",
    )


def density_reference_distribution(
    problem: EstimationProblem, config, synthesis: str = "exact"
) -> np.ndarray:
    """Readout distribution of the gate-by-gate density-matrix simulation.

    Evolves ``|0><0| ⊗ I/2^q`` on ``t + q`` qubits, contracting the Kraus
    channels ``config.resolved_noise_spec()`` places after each gate, then
    applies the readout error.  This is the exact oracle the routes are
    pinned against (``ptm`` to 1e-12, ``ensemble`` to 1e-10 noise-free,
    ``trajectory`` to 3σ); it is not a route because ``ptm`` computes the
    same contraction faster.
    """
    spec = config.resolved_noise_spec()
    circuit, circuit_spec = _reference_circuit(problem, config, synthesis, use_purification=False)
    initial = np.kron(
        DensityMatrix.zero_state(circuit_spec.precision_qubits).matrix,
        DensityMatrix.maximally_mixed(circuit_spec.system_qubits).matrix,
    )
    final = DensityMatrixSimulator(spec).run(circuit, initial_state=DensityMatrix(initial))
    distribution = final.marginal_probabilities(list(circuit_spec.precision_register))
    return apply_readout_error(distribution, spec.readout_error)


def purified_reference_distribution(
    problem: EstimationProblem, config, synthesis: str = "exact"
) -> np.ndarray:
    """Readout distribution of the Fig. 2 purified circuit.

    Prepares the maximally mixed input with auxiliary qubits and Bell pairs
    and runs one unfused statevector on ``t + 2q`` qubits, then applies the
    readout error.  A pure-state simulation, so a config with gate noise
    raises.  The noise-free oracle of the ``ensemble`` route (1e-10).
    """
    spec = config.resolved_noise_spec()
    if spec.has_gate_noise:
        raise ValueError("the purified circuit cannot simulate noise channels")
    circuit, circuit_spec = _reference_circuit(problem, config, synthesis, use_purification=True)
    distribution = StatevectorSimulator().probabilities(
        circuit, qubits=list(circuit_spec.precision_register)
    )
    return apply_readout_error(distribution, spec.readout_error)


class StatevectorBackend:
    """Explicit Fig. 6 circuit with exact controlled powers of ``U``."""

    name = "statevector"
    description = "explicit Fig. 6 circuit with exact controlled powers of U (ensemble, ptm or trajectory route)"
    operator_format = "dense"
    supports_noise = True

    def run(self, problem: EstimationProblem, config, rng: np.random.Generator) -> BackendResult:
        return circuit_backend_result(problem, config, "exact", rng=rng)


register_backend(StatevectorBackend.name, StatevectorBackend())
