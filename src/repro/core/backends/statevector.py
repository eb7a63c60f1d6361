"""The ``statevector`` backend — the explicit Fig. 6 circuit.

Builds the full QTDA circuit with exact controlled powers of ``U = exp(iH)``
and executes it over one of five routes (``QTDAConfig.circuit_engine``,
DESIGN.md §11):

* ``ensemble`` (the default for noise-free runs) — the maximally mixed input
  is simulated by evolving the ``2^q`` system basis states as *one batched
  ``(2^(t+q), B)`` statevector array* on the execution engine
  (:mod:`repro.quantum.engine`): every gate is a single ``tensordot`` across
  the whole batch, adjacent gates are fused, the batch is chunked to a
  memory budget, and the readout is the batch-averaged marginal.
  Mathematically identical to evolving ``|0><0| ⊗ I/2^q`` but
  ``O(2^(t+q) · 2^q)`` flops per gate on a flat array instead of a squared
  density matrix, with no purification qubits.
* ``ptm`` (the default for noisy runs up to ``PTM_AUTO_QUBIT_THRESHOLD``
  total qubits) — the circuit and its noise channels are lowered to
  Liouville superoperators and fused (:mod:`repro.quantum.ptm`, DESIGN.md
  §16); one density tensor evolves through the fused program, holding each
  qubit only from its first op to its last, so the result is *exact*
  (agrees with ``density`` to floating point) at gate-fusion speed.
* ``trajectory`` (the default for noisy runs above the PTM threshold) — the
  same batched ensemble, unravelled through the configured noise channels by
  stochastic Kraus-branch sampling (one branch per ensemble member after
  each gate), repeated ``n_trajectories`` times; the mean estimates the
  density result and the spread becomes ``p_zero_std``.
* ``purified`` — the Fig. 2 construction: auxiliary qubits and Bell pairs,
  unfused statevector simulation on ``t + 2q`` qubits (legacy route,
  bit-identity-pinned).
* ``density`` — density-matrix evolution of ``|0><0| ⊗ I/2^q`` on ``t + q``
  qubits, gate by gate (legacy route, bit-identity-pinned; the exact Kraus
  contraction, and the only noise route for hand-built ``NoiseModel``
  objects no :class:`~repro.quantum.channels.NoiseSpec` can express).

Noise is declared on :class:`~repro.core.config.QTDAConfig` (``noise_channel``,
``noise_strength`` and the extended :class:`~repro.quantum.channels.NoiseSpec`
fields) or as an explicit ``noise_model``.  This module also hosts the
circuit-execution plumbing shared with the ``trotter`` backend, which differs
only in how ``U`` is synthesised.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.backends.base import BackendResult, EstimationProblem, register_backend
from repro.core.qtda_circuit import QTDACircuitSpec, qtda_circuit
from repro.quantum.channels import NoiseSpec, apply_readout_error
from repro.quantum.density_matrix import DensityMatrix, DensityMatrixSimulator
from repro.quantum.engine import EnsembleExecutor
from repro.quantum.noise import NoiseModel
from repro.quantum.ptm import PTMExecutor
from repro.quantum.statevector import StatevectorSimulator
from repro.utils.rng import as_rng

#: Concrete circuit-execution routes (``"auto"`` resolves to one of these).
CIRCUIT_ROUTES = ("ensemble", "trajectory", "ptm", "purified", "density")

#: Largest ``t + q`` for which ``auto`` prefers the exact ``ptm`` route for
#: declarative noise.  The route's state is a complex density tensor of at
#: most ``4^(t+q)`` entries (16 bytes an entry: 268 MB at 12 qubits, 4.3 GB
#: at 14), so above the threshold ``auto`` falls back to stochastic
#: trajectories, whose state stays ``2^(t+q)``.
PTM_AUTO_QUBIT_THRESHOLD = 12


def resolve_circuit_route(
    config, noise_model: Optional[NoiseModel], total_qubits: Optional[int] = None
) -> str:
    """Resolve ``config.circuit_engine`` to a concrete route.

    Gate noise excludes the pure-state routes (an *explicit* ``ensemble`` or
    ``purified`` choice combined with noise raises instead of silently
    dropping either).  ``"auto"`` resolves declarative noise (any model
    expressible as a :class:`~repro.quantum.channels.NoiseSpec`) to the exact
    ``ptm`` route while the register fits the density-tensor budget
    (``total_qubits`` is the circuit's ``t + q``; ``None`` — callers that
    cannot know the size — counts as fitting), and to the stochastic
    ``trajectory`` route above :data:`PTM_AUTO_QUBIT_THRESHOLD`.
    Hand-built Kraus lists and gate-filtered models fall back to the exact
    ``density`` contraction (and reject an explicit ``trajectory`` or
    ``ptm`` request — neither can place noise without a spec).
    Noise-free runs resolve ``"auto"`` to ``ensemble``; a zero-strength
    channel counts as noise-free.
    """
    engine = getattr(config, "circuit_engine", "auto")
    if engine not in ("auto",) + CIRCUIT_ROUTES:
        raise ValueError(
            f"circuit_engine must be one of {('auto',) + CIRCUIT_ROUTES}, got {engine!r}"
        )
    spec = noise_model.to_spec() if noise_model is not None else None
    has_gate_noise = noise_model is not None and (spec is None or spec.has_gate_noise)
    if has_gate_noise:
        if engine in ("ensemble", "purified"):
            raise ValueError(
                f"circuit_engine={engine!r} cannot simulate noise channels; "
                "use 'ptm', 'trajectory', 'density' (or 'auto')"
            )
        if engine == "density":
            return "density"
        if spec is None:
            # Hand-built Kraus operators / gate filters have no NoiseSpec
            # form, so neither PTM lowering nor trajectory sampling can
            # place them.
            if engine in ("trajectory", "ptm"):
                raise ValueError(
                    f"circuit_engine={engine!r} requires declarative noise "
                    "(noise_channel & friends); explicit NoiseModel objects "
                    "run on the density route"
                )
            return "density"
        if engine in ("trajectory", "ptm"):
            return engine
        if total_qubits is not None and total_qubits > PTM_AUTO_QUBIT_THRESHOLD:
            return "trajectory"
        return "ptm"
    if engine == "auto":
        return "ensemble"
    return engine


def mixed_initial_state(spec: QTDACircuitSpec) -> DensityMatrix:
    """``|0><0|`` on precision (and auxiliary) registers, ``I/2^q`` on the system."""
    t, q, aux = spec.precision_qubits, spec.system_qubits, spec.auxiliary_qubits
    rho_precision = DensityMatrix.zero_state(t).matrix
    rho_system = DensityMatrix.maximally_mixed(q).matrix
    rho = np.kron(rho_precision, rho_system)
    if aux:
        rho = np.kron(rho, DensityMatrix.zero_state(aux).matrix)
    return DensityMatrix(rho)


def _executed_noise_spec(config, noise_model: Optional[NoiseModel]) -> NoiseSpec:
    """The :class:`NoiseSpec` a run executes under: the model's spec form (if
    any) with the config's declarative ``readout_error`` folded in."""
    spec = noise_model.to_spec() if noise_model is not None else None
    readout = float(getattr(config, "readout_error", 0.0) or 0.0)
    if spec is None:
        return NoiseSpec(readout_error=readout)
    if readout > spec.readout_error:
        spec = NoiseSpec.from_dict({**spec.as_dict(), "readout_error": readout})
    return spec


def circuit_backend_result(
    problem: EstimationProblem,
    config,
    synthesis: str,
    noise_model: Optional[NoiseModel],
    rng: Optional[np.random.Generator] = None,
) -> BackendResult:
    """Build and execute the Fig. 6 circuit, returning the readout distribution.

    The route comes from ``config.circuit_engine`` via
    :func:`resolve_circuit_route`.  One circuit serves every route: the
    ``purified`` route adds the Fig. 2 auxiliary register; the other routes
    run on ``t + q`` qubits.  The ``ensemble``, ``ptm`` and ``trajectory``
    routes build the exact synthesis from spectral controlled powers (one
    ``eigh`` of ``H``, phases raised to ``2^j``); the bit-identity-pinned
    ``purified`` and ``density`` routes keep the ``expm`` chain.  Every
    synthesis style emits the same gate *sequence*, so
    ``spec.channels_for_gate`` places noise at identical points on the
    ``ptm``, ``trajectory`` and ``density`` routes.

    ``rng`` drives the trajectory route's branch sampling (falls back to a
    ``config.seed``-derived generator).  A configured ``readout_error`` is
    applied to the final distribution on every route (exact per-bit
    confusion contraction).
    """
    hamiltonian = problem.dense_hamiltonian(config)
    route = resolve_circuit_route(
        config, noise_model, total_qubits=config.precision_qubits + hamiltonian.num_qubits
    )
    spec = _executed_noise_spec(config, noise_model)
    spectral = synthesis == "exact" and route in ("ensemble", "ptm", "trajectory")
    circuit, circuit_spec = qtda_circuit(
        hamiltonian,
        precision_qubits=config.precision_qubits,
        use_purification=route == "purified",
        synthesis=synthesis,
        trotter_steps=config.trotter_steps,
        trotter_order=config.trotter_order,
        power_synthesis="spectral" if spectral else "chain",
    )
    precision_register = list(circuit_spec.precision_register)
    system_basis = range(2**circuit_spec.system_qubits)
    p_zero_std = fused_gates = n_trajectories = None

    if route == "trajectory":
        # Fusion is bypassed so noise lands after every original gate; the
        # engine applies the readout error per trajectory, so the spread over
        # the repetitions (``p_zero_std``) accounts for it.
        n_trajectories = int(getattr(config, "n_trajectories", 8))
        distribution, sem = EnsembleExecutor(fuse=False).trajectory_basis_distribution(
            circuit,
            qubits=precision_register,
            basis_states=system_basis,
            noise_spec=spec,
            rng=rng if rng is not None else as_rng(getattr(config, "seed", None)),
            n_trajectories=n_trajectories,
        )
        if n_trajectories > 1:
            p_zero_std = float(sem[0])
    elif route == "ensemble":
        # The 2^q system basis states form one batched array (full-register
        # basis index b: the precision register reads |0...0>); the engine
        # fuses adjacent small gates and chunks the batch to its budget.
        executor = EnsembleExecutor()
        plan = executor.gate_plan(circuit)
        distribution = executor.basis_ensemble_distribution(
            circuit, qubits=precision_register, basis_states=system_basis, plan=plan
        )
        fused_gates = len(plan)
    elif route == "ptm":
        # Gates and their channels lowered to Liouville superoperators and
        # fused; one complex density tensor (at most 4^(t+q) entries) evolves
        # through them, each qubit held from its first op to its last.
        executor = PTMExecutor()
        gate_spec = spec if spec.has_gate_noise else None
        program = executor.program(circuit, noise_spec=gate_spec)
        distribution = executor.qtda_distribution(
            circuit,
            precision_qubits=precision_register,
            precision_count=circuit_spec.precision_qubits,
            system_count=circuit_spec.system_qubits,
            noise_spec=gate_spec,
            program=program,
        )
        fused_gates = program.num_superops
    elif route == "density":
        sim = DensityMatrixSimulator(noise_model=noise_model)
        final = sim.run(circuit, initial_state=mixed_initial_state(circuit_spec))
        distribution = final.marginal_probabilities(precision_register)
    else:
        distribution = StatevectorSimulator().probabilities(circuit, qubits=precision_register)
    if route != "trajectory" and spec.readout_error > 0:
        distribution = apply_readout_error(distribution, spec.readout_error)
    return BackendResult(
        distribution=distribution,
        num_system_qubits=hamiltonian.num_qubits,
        lambda_max=hamiltonian.padded.lambda_max,
        p_zero_std=p_zero_std,
        engine_route=route,
        fused_gates=fused_gates,
        n_trajectories=n_trajectories,
        noise_spec=None if spec.is_noiseless else spec.as_dict(),
    )


class StatevectorBackend:
    """Explicit Fig. 6 circuit with exact controlled powers of ``U``."""

    name = "statevector"
    description = "explicit Fig. 6 circuit with exact controlled powers of U (ensemble, ptm, trajectory, purified or density route)"
    prefers_sparse = False
    supported_formats = ("dense",)
    supports_noise = True

    def run(self, problem: EstimationProblem, config, rng: np.random.Generator) -> BackendResult:
        return circuit_backend_result(
            problem, config, "exact", config.resolved_noise_model(), rng=rng
        )


register_backend(StatevectorBackend.name, StatevectorBackend())
