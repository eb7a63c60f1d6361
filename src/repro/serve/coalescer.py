"""In-flight request coalescing keyed by request fingerprint.

The service result cache (DESIGN.md §10) only helps *after* a request
completes; under concurrent traffic, N identical requests arriving together
would each compute.  :class:`RequestCoalescer` closes that gap in front of a
:class:`~repro.core.api.QTDAService`: the first caller for a fingerprint
becomes the **leader** and runs the request, every concurrent duplicate
becomes a **waiter** and receives the leader's result (or the leader's
exception — a failed leader never strands its waiters).

Two safety rules bound what may coalesce:

* Only *deterministic* requests (seeded, or classical-only — the same
  predicate the result cache uses, :func:`repro.core.api.
  deterministic_request`) are merged.  Unseeded quantum requests
  legitimately return different samples per call, and ``observe`` requests
  are stateful, so both always execute individually.
* Waiters receive a **private deep copy** of the leader's payload, matching
  the result-cache aliasing contract: callers may mutate returned feature
  arrays without corrupting what other waiters saw.

Independently of fingerprint-level merging, *geometry grouping* serialises
leaders that share an :meth:`~repro.core.api.EstimationRequest.
geometry_fingerprint` (same complex/point cloud, different estimator
config): the first leader builds the Laplacian and populates the shared
:class:`~repro.core.hamiltonian.SpectrumCache`; the ones waiting on the
geometry lock then hit that cache instead of racing to rebuild the same
operator.  Each point cloud's Laplacian is built once per burst, not once
per config variant.
"""

from __future__ import annotations

import copy
import threading
from dataclasses import replace
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.api import (
    EstimationRequest,
    EstimationResult,
    Request,
    deterministic_request,
)

__all__ = ["RequestCoalescer"]


class _InFlight:
    """State shared between one leader and its waiters."""

    __slots__ = ("done", "result", "exception", "waiters")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result: Optional[EstimationResult] = None
        self.exception: Optional[BaseException] = None
        self.waiters = 0


class _GeometryGate:
    """Reference-counted lock for one geometry fingerprint."""

    __slots__ = ("lock", "refs")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.refs = 0


class RequestCoalescer:
    """Deduplicate identical concurrent requests in front of a runner.

    ``execute(request, runner)`` returns ``(result, coalesced)`` where
    ``coalesced`` is ``True`` when this call was served from another
    in-flight execution.  The runner is any ``request -> EstimationResult``
    callable — typically ``QTDAService.run``.

    Thread-safe; one instance per server.  ``stats()`` is JSON-safe and
    feeds the ``coalescer`` block of ``/v1/stats``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._in_flight: Dict[str, _InFlight] = {}
        self._geometry: Dict[str, _GeometryGate] = {}
        self._hits = 0
        self._leaders = 0
        self._uncoalescable = 0
        self._geometry_serialised = 0

    # -- key computation -------------------------------------------------------
    @staticmethod
    def _coalesce_key(request: Request) -> Optional[str]:
        """The in-flight map key, or ``None`` when the request must not merge."""
        if not deterministic_request(request):
            return None
        try:
            return request.fingerprint()
        except TypeError:
            # Unserialisable config (a generator seed on a classical
            # pipeline): runs fine, just never coalesces.
            return None

    # -- geometry grouping -----------------------------------------------------
    def _geometry_key(self, request: Request) -> Optional[str]:
        if not isinstance(request, EstimationRequest):
            return None
        try:
            return request.geometry_fingerprint()
        except (TypeError, ValueError):  # pragma: no cover - geometry is plain data
            return None

    def _acquire_geometry(self, key: str) -> _GeometryGate:
        with self._lock:
            gate = self._geometry.get(key)
            if gate is None:
                gate = self._geometry[key] = _GeometryGate()
            gate.refs += 1
        if not gate.lock.acquire(blocking=False):
            # Another leader is building this geometry right now: wait for
            # it (and count the serialisation — the spectrum cache will be
            # warm when we get the lock).
            with self._lock:
                self._geometry_serialised += 1
            gate.lock.acquire()
        return gate

    def _release_geometry(self, key: str, gate: _GeometryGate) -> None:
        gate.lock.release()
        with self._lock:
            gate.refs -= 1
            if gate.refs <= 0:
                # Last user evicts the gate so the map stays bounded by the
                # number of *concurrently* in-flight geometries.
                self._geometry.pop(key, None)

    # -- execution -------------------------------------------------------------
    def execute(
        self, request: Request, runner: Callable[[Request], EstimationResult]
    ) -> Tuple[EstimationResult, bool]:
        """Run ``request`` through ``runner``, merging concurrent duplicates."""
        key = self._coalesce_key(request)
        if key is None:
            with self._lock:
                self._uncoalescable += 1
            return self._run_leader(request, runner), False

        with self._lock:
            entry = self._in_flight.get(key)
            if entry is not None:
                entry.waiters += 1
                self._hits += 1
                is_leader = False
            else:
                entry = self._in_flight[key] = _InFlight()
                self._leaders += 1
                is_leader = True

        if not is_leader:
            entry.done.wait()
            if entry.exception is not None:
                # Same exception object for every waiter — the leader's
                # failure is the request's failure, not a coalescer artefact.
                raise entry.exception
            result = entry.result
            assert result is not None
            return replace(result, payload=copy.deepcopy(result.payload)), True

        try:
            entry.result = self._run_leader(request, runner)
        except BaseException as exc:
            entry.exception = exc
            raise
        finally:
            # Evict *before* waking waiters: a request arriving after
            # completion starts a fresh leader (and is usually served by the
            # service result cache anyway) instead of reading stale state.
            with self._lock:
                self._in_flight.pop(key, None)
            entry.done.set()
        return entry.result, False

    def _run_leader(
        self, request: Request, runner: Callable[[Request], EstimationResult]
    ) -> EstimationResult:
        geometry_key = self._geometry_key(request)
        if geometry_key is None:
            return runner(request)
        gate = self._acquire_geometry(geometry_key)
        try:
            return runner(request)
        finally:
            self._release_geometry(geometry_key, gate)

    # -- observability ---------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "enabled": True,
                "hits": self._hits,
                "leaders": self._leaders,
                "uncoalescable": self._uncoalescable,
                "in_flight": len(self._in_flight),
                "geometry_serialised": self._geometry_serialised,
            }
