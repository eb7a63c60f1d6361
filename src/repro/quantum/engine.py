"""Batched ("ensemble") statevector execution engine.

The simulators in :mod:`repro.quantum.statevector` evolve one pure state at a
time.  The QTDA circuit, however, takes the *maximally mixed* state ``I/2^q``
as input, and the faithful ways to simulate that — purification on ``t + 2q``
qubits, or density-matrix evolution of a ``2^(t+q) x 2^(t+q)`` matrix — pay
for the mixedness quadratically.  This module provides the third route: store
an ensemble of ``B`` pure states as one ``(2^n, B)`` array and push *every*
gate through the whole batch with a single contraction, so the mixed state
costs ``O(2^(t+q) · 2^q)`` flops per gate on a flat array instead of a
squared state, with no auxiliary qubits at all.

Three design points:

* **One kernel.**  :func:`apply_gate_to_ensemble` is the gate contraction of
  the package — the single-state simulator's ``apply_gate_to_statevector`` is
  its batch-1 specialisation.  A gate on an ascending contiguous qubit run
  ``[a, a+k)`` is one ``np.matmul`` against the free ``(2^a, 2^k, rest)``
  reshape of the block, with no transpose copy; a narrower non-contiguous
  support is padded with identities to its contiguous hull of at most
  :data:`HULL_QUBITS` qubits (once per plan in :meth:`EnsembleExecutor.
  _prepare`), so every layout of the QTDA circuit takes that path and only
  a wider hull falls back to ``tensordot``.  At the pinned 16-column block
  the view GEMMs are bit-identical to the ``tensordot`` contraction on
  ascending supports.  The controlled-block kernel below is the same view
  GEMM on the control's ``|1>`` half for ``I (+) V`` gates.
* **Gate fusion.**  The executor runs circuits through the fusion pass of
  :mod:`repro.quantum.fusion`, which merges adjacent gates acting on at most
  ``max_fuse_qubits`` qubits into one matrix — QPE's repeated
  ``U^{2^j}``-by-repetition synthesis collapses dramatically.  The pass
  caches each segment between wider gates per content.  A wider gate with
  exact ``I (+) V`` structure (QPE's controlled powers) applies only ``V``,
  to its control's ``|1>`` half (:func:`apply_controlled_block_to_ensemble`).
  :meth:`EnsembleExecutor.compile` plans and prepares a circuit once into
  an :class:`EnsembleProgram`; gates named as *slots* keep their ``V``
  open, so one program serves every run that differs only in those blocks
  (the exact QTDA circuit's controlled powers) and a run only binds them.
* **Noise trajectories.**  The trajectory route samples Kraus branches per
  (trajectory, member) column.  Columns that draw no error follow the
  noise-free circuit and share one fused pass; fusion is deliberately
  bypassed only for the columns that drew an error, which run gate by gate
  so that noise lands after every original gate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.quantum.channels import NoiseSpec, QuantumChannel, apply_readout_error
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.gates import BlockSlot, controlled_block, embed_operator
from repro.quantum.measurement import ensemble_member_marginal_probabilities
from repro.quantum.operations import Barrier, Gate, Measurement

#: Default ceiling on the bytes a single ensemble chunk may take up
#: (``2^n · B · 16`` bytes for complex128).  256 MiB keeps the largest chunk
#: comfortably inside typical last-level caches-plus-RAM headroom while still
#: amortising per-gate Python overhead over wide batches.
DEFAULT_MEMORY_BUDGET_BYTES = 256 * 1024 * 1024

#: Default fusion window (see :func:`repro.quantum.fusion.fuse_circuit`).
DEFAULT_MAX_FUSE_QUBITS = 3

#: Pinned column-block width of the ensemble readout routes.  BLAS GEMM
#: kernels pick different micro-kernel tails for different operand widths, so
#: the same column evolved in a 6-wide and a 16-wide batch can differ by one
#: ulp; evolving every ensemble in fixed blocks of this many columns makes
#: the readout independent of how the batch is chunked (whenever the memory
#: budget holds one block), and changing the width would change existing
#: answers.  16 columns keeps the contraction wide enough to amortise
#: per-gate overhead.
DEFAULT_COLUMN_BLOCK = 16

#: Widest contiguous hull a gate on a non-contiguous support is padded to
#: so that it runs as one GEMM on a view of the block (one qubit past the
#: fusion window: the fused ``(0, 2, 3)`` blocks of the inverse QFT).  A
#: padded gate does ``2^(hull - k)`` times the flops of the bare one, so a
#: wider hull keeps the transposing ``tensordot`` contraction.
HULL_QUBITS = DEFAULT_MAX_FUSE_QUBITS + 1


def derive_trajectory_seeds(rng: np.random.Generator, n_trajectories: int) -> Tuple[int, ...]:
    """Deterministic per-trajectory integer seeds drawn from ``rng``.

    One bulk draw (``rng.integers(0, 2**63 - 1, size=n)`` — the same
    derivation :func:`repro.utils.rng.spawn_rngs` uses) seeds every
    trajectory up front, so trajectory ``i``'s random stream depends only on
    the estimator seed and ``i`` — never on how the trajectories are batched
    or scheduled.  Drawing the seeds any other way would change existing
    answers.
    """
    n_trajectories = int(n_trajectories)
    if n_trajectories < 1:
        raise ValueError("n_trajectories must be >= 1")
    return tuple(int(s) for s in rng.integers(0, 2**63 - 1, size=n_trajectories))


def _normalised_weights(weights, count: int) -> np.ndarray:
    """Validate and normalise ensemble member weights (uniform when ``None``)."""
    if weights is None:
        return np.full(count, 1.0 / count)
    w = np.asarray(list(weights), dtype=float)
    if w.shape != (count,):
        raise ValueError("weights must match basis_states in length")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    total_weight = w.sum()
    if total_weight <= 0:
        # Caught here rather than as NaNs three layers downstream.
        raise ValueError("weights must have a positive sum")
    return w / total_weight


def contiguous_form(gate_matrix, qubits: Sequence[int]):
    """The gate as ``(matrix, start, width)`` on the ascending run
    ``[start, start + width)`` of qubits, or ``None``.

    A gate whose support already is an ascending contiguous run keeps its
    matrix.  Any other support is padded with identities to its contiguous
    hull (:func:`~repro.quantum.gates.embed_operator`, an exact copy of
    entries) when the hull spans at most :data:`HULL_QUBITS` qubits; a
    wider hull returns ``None``.
    """
    qubits = tuple(int(q) for q in qubits)
    start = min(qubits)
    hull = tuple(range(start, max(qubits) + 1))
    if qubits == hull:
        return gate_matrix, start, len(hull)
    if len(hull) > HULL_QUBITS:
        return None
    return embed_operator(gate_matrix, qubits, hull), start, len(hull)


def apply_gate_to_ensemble(
    states,
    gate_matrix,
    qubits: Sequence[int],
    num_qubits: int,
):
    """Apply a ``k``-qubit gate to every member of a ``(2^n, B)`` ensemble at once.

    Parameters
    ----------
    states:
        ``(2^num_qubits, B)`` complex array; column ``b`` is one pure state.
    gate_matrix:
        ``2^k x 2^k`` unitary; its first index qubit is ``qubits[0]``.
    qubits:
        Target qubits (qubit 0 = most significant bit of basis labels).
    num_qubits:
        Register size ``n``.

    Notes
    -----
    On an ascending contiguous support ``[a, a+k)`` (or one padded to its
    hull, :func:`contiguous_form`) the block is viewed, without a copy, as
    ``(2^a, 2^k, rest)`` and the whole batch is one ``np.matmul`` of the
    gate against it: one GEMM per leading index, no transpose of the state.
    At ``a = 0`` that is the GEMM ``tensordot`` issues.  Only a support
    whose hull is wider than :data:`HULL_QUBITS` takes the general
    ``tensordot`` contraction against the target axes of the rank-``n+1``
    state tensor.  Either way the per-gate cost is ``O(2^n · 2^k · B)`` with
    no Python loop over batch members.
    """
    batch = states.shape[-1]
    form = contiguous_form(gate_matrix, qubits)
    if form is None:
        return _tensordot_gate(states, gate_matrix, qubits, num_qubits)
    matrix, start, width = form
    view = states.reshape(2**start, 2**width, -1)
    return np.matmul(matrix, view).reshape(2**num_qubits, batch)


def _tensordot_gate(states, gate_matrix, qubits: Sequence[int], num_qubits: int):
    """:func:`apply_gate_to_ensemble` on any support: the gate's column
    indices contracted with the target axes of the rank-``n+1`` state tensor."""
    qubits = [int(q) for q in qubits]
    k = len(qubits)
    batch = states.shape[-1]
    psi = states.reshape([2] * num_qubits + [batch])
    gate = gate_matrix.reshape([2] * (2 * k))
    # Contract the gate's column indices (last k axes) with the target axes.
    psi = np.tensordot(gate, psi, axes=(list(range(k, 2 * k)), qubits))
    # tensordot moves the contracted axes to the front (in gate row order);
    # put them back where the target qubits live.  The batch axis stays last.
    psi = np.moveaxis(psi, list(range(k)), qubits)
    return np.ascontiguousarray(psi).reshape(2**num_qubits, batch)


def apply_controlled_block_to_ensemble(
    states,
    block,
    qubits: Sequence[int],
    num_qubits: int,
):
    """Apply ``U = I (+) V`` to every member of a ``(2^n, B)`` ensemble.

    ``qubits[0]`` is the control and ``block`` is ``V`` on ``qubits[1:]``
    (:func:`~repro.quantum.gates.controlled_block`).  The control's ``|0>``
    half is copied unchanged and ``V`` is contracted with the ``|1>`` half
    only: half the rows and half the contraction length of the dense
    :func:`apply_gate_to_ensemble`, so a quarter of its flops.  Equal to the
    dense kernel up to floating-point association.

    When the control ``c`` sits before an ascending contiguous target run
    starting at ``s`` (every QPE power), the block is viewed as
    ``(2^c, 2, 2^(s-c-1), 2^k, rest)`` and ``V`` is one ``np.matmul`` into
    the ``|1>`` slice of the output, with no transpose copy.
    """
    qubits = [int(q) for q in qubits]
    control, targets = qubits[0], qubits[1:]
    k = len(targets)
    batch = states.shape[-1]
    start = targets[0]
    if control < start and targets == list(range(start, start + k)):
        view = states.reshape(2**control, 2, 2 ** (start - control - 1), 2**k, -1)
        out = np.empty(view.shape, dtype=np.result_type(view, block))
        out[:, 0] = view[:, 0]
        np.matmul(block, view[:, 1], out=out[:, 1])
        return out.reshape(2**num_qubits, batch)
    return _tensordot_controlled_block(states, block, qubits, num_qubits)


def _tensordot_controlled_block(states, block, qubits: Sequence[int], num_qubits: int):
    """:func:`apply_controlled_block_to_ensemble` on any layout: ``V``
    contracted with the target axes of the control's ``|1>`` slice."""
    qubits = [int(q) for q in qubits]
    control, targets = qubits[0], qubits[1:]
    k = len(targets)
    batch = states.shape[-1]
    psi = states.reshape([2] * num_qubits + [batch])
    out = np.empty(psi.shape, dtype=np.result_type(psi, block))
    lead = (slice(None),) * control
    out[lead + (0,)] = psi[lead + (0,)]
    # The |1> slice has no control axis: targets after it sit one axis lower.
    axes = [t - (t > control) for t in targets]
    half = np.tensordot(
        np.asarray(block).reshape([2] * (2 * k)),
        psi[lead + (1,)],
        axes=(list(range(k, 2 * k)), axes),
    )
    out[lead + (1,)] = np.moveaxis(half, list(range(k)), axes)
    return out.reshape(2**num_qubits, batch)


def _apply_prepared(states, prepared, num_qubits: int):
    """One prepared ``(matrix, qubits, block)`` step of :meth:`EnsembleExecutor._prepare`."""
    matrix, qubits, block = prepared
    if block is not None:
        return apply_controlled_block_to_ensemble(states, block, qubits, num_qubits)
    return apply_gate_to_ensemble(states, matrix, qubits, num_qubits)


@dataclass(frozen=True)
class EnsembleProgram:
    """A circuit compiled once for the ensemble kernels
    (:meth:`EnsembleExecutor.compile`).

    ``steps`` is the fused gate plan as prepared ``(matrix, qubits, block)``
    steps (:meth:`EnsembleExecutor._prepare`): the ensemble route runs it,
    and so do the trajectory route's error-free columns.  A program compiled
    for a noise spec also holds the unfused prepared ``gate_steps`` and, per
    gate, the ``(channel, qubits)`` list the spec places after it
    (``noise_plan``): the trajectory route's columns that drew an error run
    those.  The step of a slot gate has no matrix and an open
    :class:`~repro.quantum.gates.BlockSlot` block until :meth:`bind`.
    """

    num_qubits: int
    steps: Tuple[tuple, ...]
    gate_steps: Optional[Tuple[tuple, ...]] = None
    noise_plan: Optional[Tuple[tuple, ...]] = None

    def bind(self, blocks: Sequence[np.ndarray]) -> "EnsembleProgram":
        """The program with ``blocks[j]`` as the block of slot ``j``."""

        def bound(steps):
            return tuple(
                (matrix, qubits, blocks[block.index] if isinstance(block, BlockSlot) else block)
                for matrix, qubits, block in steps
            )

        gate_steps = None if self.gate_steps is None else bound(self.gate_steps)
        return replace(self, steps=bound(self.steps), gate_steps=gate_steps)


def _apply_member_matrices(states, matrices, qubits, num_qubits: int):
    """Apply a *different* ``d x d`` matrix to each member of a ``(2^n, B)`` ensemble.

    ``matrices`` is ``(B, d, d)`` with ``d = 2^len(qubits)`` — the sampled
    Kraus branch of each ensemble member.  The whole batch goes through one
    einsum.  Ascending contiguous targets ``[a, a+k)`` contract against the
    free ``(2^a, d, M, B)`` view of the block, with no copy of it.
    """
    qubits = [int(q) for q in qubits]
    k = len(qubits)
    d = 2**k
    batch = states.shape[-1]
    start = qubits[0]
    if qubits == list(range(start, start + k)):
        view = states.reshape(2**start, d, -1, batch)
        return np.einsum("bij,ajmb->aimb", matrices, view).reshape(2**num_qubits, batch)
    return _moveaxis_member_matrices(states, matrices, qubits, num_qubits)


def _moveaxis_member_matrices(states, matrices, qubits: Sequence[int], num_qubits: int):
    """:func:`_apply_member_matrices` on any targets: moved to the front,
    flattened to ``(d, M, B)``, contracted and moved back."""
    qubits = [int(q) for q in qubits]
    k = len(qubits)
    d = 2**k
    batch = states.shape[-1]
    psi = states.reshape([2] * num_qubits + [batch])
    psi = np.moveaxis(psi, qubits, list(range(k)))
    rest_shape = psi.shape[k:]
    psi = psi.reshape(d, -1, batch)
    psi = np.einsum("bij,jmb->imb", matrices, psi)
    psi = psi.reshape((2,) * k + tuple(rest_shape))
    psi = np.moveaxis(psi, list(range(k)), qubits)
    return np.ascontiguousarray(psi).reshape(2**num_qubits, batch)


def _mixed_unitary_branches(channel: QuantumChannel, uniforms):
    """The branch index each uniform in ``[0, 1)`` picks from a mixed-unitary
    channel's cumulative branch table (any array shape)."""
    # A uniform at or past the table's last entry (rounding) takes the last branch.
    idx = np.searchsorted(channel.cumulative_probabilities, uniforms, side="right")
    return np.minimum(idx, len(channel.unitary_branches) - 1)


def sample_channel_branches(
    channel: QuantumChannel,
    states,
    qubits: Sequence[int],
    num_qubits: int,
    uniforms,
):
    """One trajectory step: sample a Kraus branch of ``channel`` per ensemble member.

    ``uniforms`` holds one draw in ``[0, 1)`` per ensemble member (column of
    ``states``); member ``b``'s branch depends only on ``uniforms[b]`` and
    its own state, so any subset of columns can be stepped on its own.

    Mixed-unitary channels (Pauli-type — every ``K_k = √p_k U_k``) use the
    precomputed cumulative branch table: one ``searchsorted`` over the
    uniforms picks each member's branch, and no renormalisation is needed
    (unitary branches preserve norm).  Members that drew an exact-identity
    branch — almost all of them at realistic strengths — are skipped
    entirely; the remaining sampled unitaries are gathered into a stack and
    applied to just those columns in a single einsum.  This step is **in
    place**: the drawn columns are written straight back into ``states``,
    which the caller must own, and ``states`` is returned.

    General channels (amplitude damping) need per-state Born probabilities
    ``p_k(ψ_b) = ‖K_k ψ_b‖²``: every branch is applied to the full ensemble,
    the branch is sampled from each member's own distribution, and the
    selected states, renormalised by ``√p_k``, are returned as a new block.
    """
    batch = states.shape[-1]
    uniforms = np.asarray(uniforms, dtype=float)
    if channel.is_mixed_unitary:
        idx = _mixed_unitary_branches(channel, uniforms)
        active = np.flatnonzero(~channel.identity_branches[idx])
        if active.size == 0:
            return states
        mats = np.stack(channel.unitary_branches)[idx[active]]
        states[:, active] = _apply_member_matrices(states[:, active], mats, qubits, num_qubits)
        return states
    branch_states = np.stack(
        [apply_gate_to_ensemble(states, k, qubits, num_qubits) for k in channel.kraus_ops]
    )  # (K, 2^n, B)
    probs = (np.abs(branch_states) ** 2).sum(axis=1)  # (K, B) Born weights
    cumulative = np.cumsum(probs, axis=0)
    u = uniforms * cumulative[-1]
    idx = (u[None, :] > cumulative).sum(axis=0)
    idx = np.clip(idx, 0, len(channel.kraus_ops) - 1)
    members = np.arange(batch)
    selected = branch_states[idx, :, members].T  # (2^n, B)
    norms = np.sqrt(probs[idx, members])
    norms = np.where(norms > 0, norms, 1.0)
    return selected / norms


class EnsembleExecutor:
    """Executes circuits on ``(2^n, B)`` ensembles of pure states.

    Parameters
    ----------
    fuse:
        Run circuits through the gate-fusion pass (cached per segment
        between wide gates) before execution.  Fusion changes floating-point
        association, so callers that need bit-identity with the unfused
        single-state simulator must pass ``False``.
    max_fuse_qubits:
        Largest qubit support a fused block may reach.
    memory_budget_bytes:
        Ceiling on one chunk's state memory; :meth:`basis_ensemble_distribution`
        splits wider ensembles into column chunks that fit.
    """

    def __init__(
        self,
        fuse: bool = True,
        max_fuse_qubits: int = DEFAULT_MAX_FUSE_QUBITS,
        memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES,
    ):
        self.fuse = bool(fuse)
        self.max_fuse_qubits = int(max_fuse_qubits)
        self.memory_budget_bytes = int(memory_budget_bytes)

    # -- planning -------------------------------------------------------------
    def gate_plan(self, circuit: QuantumCircuit, slots: Sequence[Gate] = ()) -> Tuple[Gate, ...]:
        """The gate sequence this executor will run (fused when enabled);
        the gates of ``slots`` pass through unfused."""
        if self.fuse:
            from repro.quantum.fusion import fuse_circuit

            return fuse_circuit(circuit, max_fuse_qubits=self.max_fuse_qubits, slots=slots)
        return circuit.gates

    def compile(
        self,
        circuit: QuantumCircuit,
        slots: Sequence[Gate] = (),
        noise_spec: Optional[NoiseSpec] = None,
    ) -> EnsembleProgram:
        """``circuit`` compiled for :meth:`basis_ensemble_distribution`, and
        with ``noise_spec`` also for :meth:`trajectory_basis_distribution`.

        Each gate of ``slots`` (controlled ``I (+) V``, matched by identity)
        stays unfused whatever its width, and its steps hold the open
        :class:`~repro.quantum.gates.BlockSlot` of its position in ``slots``
        instead of ``V``: compile once, then :meth:`EnsembleProgram.bind`
        each run's blocks.
        """
        steps = self._prepare(self.gate_plan(circuit, slots), slots)
        if noise_spec is None:
            return EnsembleProgram(circuit.num_qubits, steps)
        gates = circuit.gates
        return EnsembleProgram(
            circuit.num_qubits,
            steps,
            gate_steps=self._prepare(gates, slots),
            noise_plan=tuple(tuple(noise_spec.channels_for_gate(gate)) for gate in gates),
        )

    def max_batch(self, num_qubits: int) -> int:
        """Widest batch whose ``(2^n, B)`` complex array fits the memory budget."""
        bytes_per_state = (2**num_qubits) * 16  # complex128
        return max(1, self.memory_budget_bytes // bytes_per_state)

    def evolution_block(self, num_qubits: int) -> int:
        """The pinned column width the ensemble readout routes evolve at.

        The memory budget caps it, :data:`DEFAULT_COLUMN_BLOCK` pins it: GEMM
        results for one column depend (at the ulp level) on the operand width,
        so a fixed width — rather than "whatever fits" — is what makes the
        readout reproducible across machines with different budgets.
        """
        return max(1, min(self.max_batch(num_qubits), DEFAULT_COLUMN_BLOCK))

    # -- execution ------------------------------------------------------------
    def run(self, circuit: QuantumCircuit, initial_states) -> np.ndarray:
        """Evolve a ``(2^n, B)`` ensemble through ``circuit``.

        Measurement markers and barriers are skipped, exactly as in the
        single-state simulator.  The caller sizes the batch; chunking to the
        memory budget is the job of :meth:`basis_ensemble_distribution`.
        """
        n = circuit.num_qubits
        states = np.asarray(initial_states, dtype=complex)
        if states.ndim == 1:
            states = states.reshape(-1, 1)
        if states.shape[0] != 2**n:
            raise ValueError(
                f"Ensemble has state dimension {states.shape[0]}, expected {2**n} for {n} qubits"
            )
        return self._evolve(states, self.compile(circuit).steps, n)

    def _prepare(self, gates: Iterable[Gate], slots: Sequence[Gate] = ()):
        """Complex ``(matrix, qubits, block)`` steps for a gate plan, markers dropped.

        ``block`` is the ``V`` of a gate wider than the fusion window with
        exact ``I (+) V`` structure (QPE's controlled powers), which then
        runs on its control's ``|1>`` half only
        (:func:`apply_controlled_block_to_ensemble`); a gate of ``slots``
        gets the open :class:`~repro.quantum.gates.BlockSlot` of its
        position instead, and no matrix.  Every other gate keeps the dense
        kernel, padded here to its contiguous hull (:func:`contiguous_form`)
        so the kernel never pads it again.  Built once per plan, not once
        per chunk: every column block of an ensemble reuses the same steps.
        """
        slot_of = {id(gate): index for index, gate in enumerate(slots)}
        prepared = []
        for gate in gates:
            if isinstance(gate, (Measurement, Barrier)):
                continue
            qubits = tuple(gate.qubits)
            if id(gate) in slot_of:
                prepared.append((None, qubits, BlockSlot(slot_of[id(gate)])))
                continue
            matrix = np.asarray(gate.matrix, dtype=complex)
            block = controlled_block(matrix) if len(qubits) > self.max_fuse_qubits else None
            if block is None:
                form = contiguous_form(matrix, qubits)
                if form is not None:
                    matrix, start, width = form
                    qubits = tuple(range(start, start + width))
            prepared.append((matrix, qubits, block))
        return tuple(prepared)

    def _evolve(self, states, prepared, num_qubits: int):
        for step in prepared:
            states = _apply_prepared(states, step, num_qubits)
        return states

    def basis_ensemble_distribution(
        self,
        circuit: Union[QuantumCircuit, EnsembleProgram],
        qubits: Sequence[int],
        basis_states: Sequence[int],
        weights: Optional[Sequence[float]] = None,
    ) -> np.ndarray:
        """Readout distribution on ``qubits`` for an ensemble of basis states.

        ``circuit`` is compiled first (:meth:`compile`); an
        :class:`EnsembleProgram` with every slot bound runs as it is.
        Evolves the ensemble ``{|basis_states[b]>}`` through ``circuit`` and
        returns the weighted average of each member's marginal probabilities
        on ``qubits`` (uniform weights by default — the maximally mixed
        ensemble).  The ensemble is processed in fixed column blocks
        (:meth:`evolution_block`); each block reduces to its per-member
        marginal matrix (:func:`~repro.quantum.measurement.
        ensemble_member_marginal_probabilities`) which is then contracted
        with the block's weights — so no per-member probability vector over
        the full register is ever materialised, and because every block is
        evolved at the same pinned width the result does not depend on the
        memory budget.
        """
        n = circuit.num_qubits
        basis = self._validated_basis(circuit, basis_states)
        w = _normalised_weights(weights, len(basis))
        prepared = self._compiled(circuit).steps
        chunk = self.evolution_block(n)
        total: Optional[np.ndarray] = None
        for start in range(0, len(basis), chunk):
            block = basis[start : start + chunk]
            states = self._evolve(self._basis_block(block, n), prepared, n)
            marginals = ensemble_member_marginal_probabilities(states, n, qubits)
            partial = marginals @ w[start : start + len(block)]
            total = partial if total is None else total + partial
        assert total is not None
        return total / total.sum()

    def _compiled(self, circuit, noise_spec: Optional[NoiseSpec] = None) -> EnsembleProgram:
        if isinstance(circuit, EnsembleProgram):
            return circuit
        return self.compile(circuit, noise_spec=noise_spec)

    def _validated_basis(self, circuit, basis_states) -> list:
        dim = 2**circuit.num_qubits
        basis = [int(b) for b in basis_states]
        if not basis:
            raise ValueError("basis_states must be non-empty")
        for b in basis:
            if not 0 <= b < dim:
                raise ValueError(f"basis state {b} out of range for {circuit.num_qubits} qubits")
        return basis

    def _basis_block(self, block, num_qubits: int):
        """A ``(2^n, len(block))`` array whose column ``i`` is ``|block[i]>``."""
        states = np.zeros((2**num_qubits, len(block)), dtype=complex)
        states[np.asarray(block, dtype=np.intp), np.arange(len(block))] = 1.0
        return states

    def trajectory_basis_distribution(
        self,
        circuit: Union[QuantumCircuit, EnsembleProgram],
        qubits: Sequence[int],
        basis_states: Sequence[int],
        noise_spec: NoiseSpec,
        rng: np.random.Generator,
        n_trajectories: int = 8,
        weights: Optional[Sequence[float]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Noisy readout distribution via stochastic Kraus-branch trajectories.

        Evolves the basis-state ensemble through ``circuit`` like
        :meth:`basis_ensemble_distribution`, but after each gate samples one
        Kraus branch of every channel ``noise_spec`` places there
        (:func:`sample_channel_branches`) per ensemble member.  The whole
        run is repeated ``n_trajectories`` times; the mean over trajectories
        estimates the density-matrix result and the spread is returned as a
        per-outcome standard error (``std(ddof=1)/sqrt(T)``; zeros for a
        single trajectory).  Readout error is applied to each trajectory's
        marginal as the exact per-bit confusion contraction.  ``circuit``
        may be an :class:`EnsembleProgram` compiled with ``noise_spec`` and
        with every slot bound.

        Each (trajectory, member) *column* draws its branches first
        (:meth:`_trajectory_rows`).  A *clean* column — every channel
        mixed-unitary, every draw an identity branch — follows the
        noise-free circuit exactly, so all clean columns of a member share
        one fused noise-free pass.  Only the *dirty* columns run gate by
        gate, and for them gate fusion is deliberately bypassed: the density
        oracle injects noise after every *original* gate, and fusing would
        move the injection points, so the trajectory mean would converge to
        a different channel composition.

        Each trajectory runs under its own seed derived from ``rng``
        (:func:`derive_trajectory_seeds`): trajectory ``i``'s branch draws
        depend only on ``seeds[i]``, never on the other trajectories.

        Returns ``(mean_distribution, standard_error)``.
        """
        seeds = derive_trajectory_seeds(rng, n_trajectories)
        rows, _ = self._trajectory_rows(circuit, qubits, basis_states, noise_spec, seeds, weights)
        mean = rows.mean(axis=0)
        if len(seeds) > 1:
            sem = rows.std(axis=0, ddof=1) / np.sqrt(len(seeds))
        else:
            sem = np.zeros(rows.shape[1])
        return mean, sem

    def _trajectory_rows(self, circuit, qubits, basis_states, noise_spec, seeds, weights):
        """The ``(T, out_dim)`` readout distribution of each trajectory, and
        how many of the ``T · len(basis_states)`` columns were dirty.

        Per column chunk of the basis (at most :meth:`max_batch` members),
        trajectory ``i`` draws all its uniforms at once,
        ``rng_i.random((steps, len(chunk)))`` with one row per placed
        channel: the same stream as one ``rng_i.random(len(chunk))`` per
        channel in circuit order, because the chunks stay the outer loop of
        each generator.  A column's branch at a step depends only on its
        own uniform (and, for a general channel, its own state), so the
        columns can be regrouped freely:

        * clean columns read their marginals from one fused noise-free pass
          over the chunk's members that have a clean column;
        * dirty columns (all of them once any channel is general) run the
          unfused per-gate sampler on their own uniforms, collected across
          trajectories into blocks no wider than the chunk: a wider block
          would amortise more per-gate overhead, but on a large register it
          falls out of cache.  Each block is built fresh here, so the
          sampler steps its drawn columns in place.
        """
        n = circuit.num_qubits
        basis = self._validated_basis(circuit, basis_states)
        w = _normalised_weights(weights, len(basis))
        qubits = list(qubits)
        program = self._compiled(circuit, noise_spec)
        if program.noise_plan is None:
            raise ValueError("the trajectory route needs a program compiled with its noise spec")
        noise_plan = program.noise_plan
        channels = [channel for placed in noise_plan for channel, _ in placed]
        # The uniform rows (steps) each distinct channel reads.
        by_channel: dict = {}
        for step, channel in enumerate(channels):
            by_channel.setdefault(id(channel), (channel, []))[1].append(step)
        steps_of = [(channel, np.array(steps)) for channel, steps in by_channel.values()]
        can_be_clean = all(channel.is_mixed_unitary for channel in channels)
        generators = [np.random.default_rng(int(seed)) for seed in seeds]
        chunk = self.max_batch(n)
        out_dim = 2 ** len(qubits)
        totals = np.zeros((len(seeds), out_dim))
        dirty_columns = 0

        def run_dirty(block, pending, marginals):
            """Step the pending ``(trajectories, members, uniforms)`` columns
            of ``block`` gate by gate and store their marginals."""
            trajectories = np.concatenate([t for t, _, _ in pending])
            members = np.concatenate([m for _, m, _ in pending])
            uniforms = np.concatenate([u for _, _, u in pending], axis=1)
            states = self._basis_block([block[m] for m in members], n)
            step = 0
            for gate_step, placed in zip(program.gate_steps, noise_plan):
                states = _apply_prepared(states, gate_step, n)
                for channel, targets in placed:
                    states = sample_channel_branches(channel, states, targets, n, uniforms[step])
                    step += 1
            marginals[trajectories, :, members] = ensemble_member_marginal_probabilities(
                states, n, qubits
            ).T

        for start in range(0, len(basis), chunk):
            block = basis[start : start + chunk]
            width = len(block)
            marginals = np.empty((len(seeds), out_dim, width))
            clean = np.zeros((len(seeds), width), dtype=bool)
            pending: list = []
            pending_width = 0
            for trajectory, generator in enumerate(generators):
                uniforms = generator.random((len(channels), width))
                if can_be_clean:
                    clean[trajectory] = True
                    for channel, steps in steps_of:
                        drawn = _mixed_unitary_branches(channel, uniforms[steps])
                        clean[trajectory] &= channel.identity_branches[drawn].all(axis=0)
                dirty = np.flatnonzero(~clean[trajectory])
                dirty_columns += dirty.size
                if pending_width + dirty.size > width:
                    run_dirty(block, pending, marginals)
                    pending, pending_width = [], 0
                if dirty.size:
                    pending.append(
                        (np.full(dirty.size, trajectory), dirty, uniforms[:, dirty])
                    )
                    pending_width += dirty.size
            if pending:
                run_dirty(block, pending, marginals)
            members = np.flatnonzero(clean.any(axis=0))
            if members.size:
                states = self._evolve(
                    self._basis_block([block[m] for m in members], n), program.steps, n
                )
                shared = np.empty((out_dim, width))
                shared[:, members] = ensemble_member_marginal_probabilities(states, n, qubits)
                trajectories, columns = np.nonzero(clean)
                marginals[trajectories, :, columns] = shared[:, columns].T
            totals += marginals @ w[start : start + width]
        rows = totals / totals.sum(axis=1, keepdims=True)
        if noise_spec.readout_error > 0:
            rows = np.stack(
                [apply_readout_error(row, noise_spec.readout_error) for row in rows]
            )
        return rows, dirty_columns
