"""Backend protocol, result type and registry for Betti-number estimation.

A *backend* is one realisation of the Section 3 estimator: given a
combinatorial Laplacian it produces the QPE precision-register readout
distribution from which ``β̃_k = 2^q · p(0)`` follows (Eqs. 10–11).  The
paper itself admits several interchangeable realisations — the analytical
QPE readout, the explicit Fig. 6 circuit, the Trotterised Fig. 7 evolution —
and this module makes them a first-class, extensible subsystem instead of
string-dispatched branches inside the estimator (see DESIGN.md §5).

Every backend implements :class:`BettiBackend` and registers itself under a
unique name with :func:`register_backend`; :class:`QTDAConfig` validates its
``backend`` field against :func:`available_backends`, and
:class:`repro.core.estimator.QTDABettiEstimator` resolves the configured name
through :func:`get_backend` at estimation time.  Future execution paths
(tensor networks, real-hardware adapters) plug in the same way without
touching the estimator.

``run`` returns a :class:`BackendResult`: the readout distribution, ``q``,
``λ̃_max``, an optional standard error and — for circuit backends — one
``route`` mapping of how the circuit ran, which the estimator and the
service pass on to the estimate and its provenance without naming its keys.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, Mapping, Optional, Protocol, runtime_checkable

import numpy as np
from scipy import sparse as _sparse

from repro.core.hamiltonian import RescaledHamiltonian, SpectrumCache, build_hamiltonian
from repro.core.operators import DENSE, SPARSE, LaplacianOperator, as_operator

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a config<->backends cycle
    from repro.core.config import QTDAConfig


@dataclass
class EstimationProblem:
    """One Betti estimation task: a Laplacian operator plus shared caches.

    Attributes
    ----------
    laplacian:
        The ``|S_k| x |S_k|`` combinatorial Laplacian — a dense array, a
        ``scipy.sparse`` matrix or a :class:`~repro.core.operators.
        LaplacianOperator` (raw matrices are wrapped on first access, see
        :attr:`operator`).  Backends pull whichever view they need —
        :meth:`dense_hamiltonian` materialises the padded, rescaled
        ``2^q x 2^q`` matrix for circuit execution, spectral backends use
        ``operator.to_sparse()`` and the stochastic backends only ever call
        ``operator.matvec``.
    spectrum_cache:
        Optional shared :class:`SpectrumCache` used by the spectral backends;
        caching never changes results, only cost (DESIGN.md §6).
    """

    laplacian: "np.ndarray | _sparse.spmatrix | LaplacianOperator"
    spectrum_cache: Optional[SpectrumCache] = None
    _operator: Optional[LaplacianOperator] = field(default=None, repr=False, compare=False)

    @property
    def operator(self) -> LaplacianOperator:
        """The Laplacian as a :class:`LaplacianOperator` (wrapped lazily, once)."""
        if self._operator is None:
            self._operator = as_operator(self.laplacian)
        return self._operator

    @property
    def dimension(self) -> int:
        """``|S_k|`` — the unpadded Laplacian dimension."""
        return int(self.laplacian.shape[0])

    def dense_hamiltonian(self, config: "QTDAConfig") -> RescaledHamiltonian:
        """The padded, rescaled dense Hamiltonian (circuit backends need the matrix)."""
        return build_hamiltonian(self.operator, delta=config.delta, padding=config.padding)


@dataclass(frozen=True)
class BackendResult:
    """What a backend hands back to the estimator.

    Attributes
    ----------
    distribution:
        Length-``2^t`` probability vector over precision-register readouts;
        the estimator derives ``p(0)`` (exactly or by shot sampling) from it.
    num_system_qubits:
        ``q``, so that ``β̃_k = 2**num_system_qubits * p(0)``.
    lambda_max:
        The Gershgorin bound ``λ̃_max`` used for padding/rescaling
        (spectral-scaling provenance, echoed into :class:`BettiEstimate`).
    p_zero_std:
        One standard error of the backend's ``p(0)`` estimate, for
        *stochastic* backends (Hutchinson trace estimation); ``None`` for
        deterministic backends.  The estimator scales it by ``2^q`` into
        :attr:`BettiEstimate.betti_std`.
    route:
        How a circuit backend ran, keyed by
        :class:`~repro.core.estimator.BettiEstimate` field name (the
        estimator splats it into the estimate).
        :func:`~repro.core.backends.statevector.circuit_backend_result`
        fills ``engine_route`` (``"ensemble"``/``"ptm"``/``"trajectory"``),
        ``fused_gates`` (post-fusion block count, ``None`` when no fusion
        ran), ``n_trajectories`` (``trajectory`` only) and ``noise_spec``
        (the resolved :class:`repro.quantum.channels.NoiseSpec` as a
        JSON-safe dict, ``None`` when noiseless); DESIGN.md §11–12, §16.
        Empty for non-circuit backends.
    """

    distribution: np.ndarray
    num_system_qubits: int
    lambda_max: float
    p_zero_std: "float | None" = None
    route: Mapping[str, object] = field(default_factory=dict)


@runtime_checkable
class BettiBackend(Protocol):
    """Protocol every estimator backend implements.

    ``run`` receives the estimation problem (the rescale-ready Laplacian
    operator plus caches), the full :class:`QTDAConfig` and the estimator's
    RNG; it returns the readout distribution.  Shot sampling is *not* the
    backend's job — the estimator samples the returned distribution so that
    finite-shot behaviour is identical across backends.

    An optional ``supports_noise`` flag advertises whether the backend
    honours ``QTDAConfig``'s noise fields (default: no).
    """

    #: Registry name (also the value of ``QTDAConfig.backend``).
    name: str
    #: One-line human description (shown by ``repro-experiments list-backends``).
    description: str
    #: The one Laplacian format the backend reads, ``"dense"`` or ``"sparse"``;
    #: the estimator builds every Laplacian it hands over in this format.
    operator_format: str

    def run(
        self,
        problem: EstimationProblem,
        config: "QTDAConfig",
        rng: np.random.Generator,
    ) -> BackendResult:  # pragma: no cover - protocol signature
        ...


def backend_supports_noise(backend: "BettiBackend") -> bool:
    """Whether ``backend`` honours the config's noise fields (``resolved_noise_spec``)."""
    return bool(getattr(backend, "supports_noise", False))


def backend_capabilities(backend: "BettiBackend") -> Dict[str, object]:
    """Plain-data capability record of one backend.

    The single source of the per-backend provenance the service API stamps
    into every :class:`repro.core.api.EstimationResult` and of the rows the
    CLI's ``list-backends`` table prints — both stay in sync by construction.
    """
    return {
        "name": backend.name,
        "description": backend.description,
        "operator_format": backend.operator_format,
        "supports_noise": backend_supports_noise(backend),
    }


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, BettiBackend] = {}


def register_backend(name: str, backend: BettiBackend) -> None:
    """Register ``backend`` under ``name``.

    Raises
    ------
    ValueError
        If ``name`` is already taken (re-registering is almost always an
        accident — call :func:`unregister_backend` first to replace a
        backend deliberately) or if ``backend`` declares an
        ``operator_format`` other than ``"dense"`` or ``"sparse"``.
    TypeError
        If ``backend`` does not implement the :class:`BettiBackend` protocol
        (``run``, ``description``, ``operator_format``).
    """
    if not isinstance(name, str) or not name:
        raise ValueError(f"backend name must be a non-empty string, got {name!r}")
    if name in _REGISTRY:
        raise ValueError(
            f"backend {name!r} is already registered; call unregister_backend({name!r}) "
            "first to replace it"
        )
    if not callable(getattr(backend, "run", None)):
        raise TypeError(f"backend {name!r} does not implement BettiBackend.run")
    if not hasattr(backend, "description"):
        raise TypeError(f"backend {name!r} is missing the 'description' attribute")
    # Checked here: the estimator reads the format on every estimate, so a
    # missing or unknown one would otherwise fail far from here.
    if not hasattr(backend, "operator_format"):
        raise TypeError(f"backend {name!r} must declare operator_format")
    if backend.operator_format not in (DENSE, SPARSE):
        raise ValueError(
            f"backend {name!r} declares operator_format {backend.operator_format!r}; "
            f"it must be {DENSE!r} or {SPARSE!r}"
        )
    _REGISTRY[name] = backend


def unregister_backend(name: str) -> BettiBackend:
    """Remove and return the backend registered under ``name``."""
    try:
        return _REGISTRY.pop(name)
    except KeyError:
        raise ValueError(
            f"Unknown backend {name!r}; available backends: {', '.join(available_backends())}"
        ) from None


@contextmanager
def temporary_backend(name: str, backend: BettiBackend) -> Iterator[BettiBackend]:
    """Register ``backend`` under ``name`` for the duration of a ``with`` block.

    The backend is unregistered on exit even when the body raises, so test
    suites (and exploratory scripts) can never leak registry state into later
    code.  The registration is only removed if it still points at *this*
    backend — a body that legitimately replaced it keeps its replacement.
    """
    register_backend(name, backend)
    try:
        yield backend
    finally:
        if _REGISTRY.get(name) is backend:
            unregister_backend(name)


def available_backends() -> tuple:
    """Sorted names of all registered backends."""
    return tuple(sorted(_REGISTRY))


def get_backend(name: str) -> BettiBackend:
    """Resolve a backend by name.

    The error message lists every registered name so a typo in a config file
    or CLI flag is immediately actionable.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"Unknown backend {name!r}; available backends: {', '.join(available_backends())}"
        ) from None
