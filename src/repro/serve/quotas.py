"""Admission control — bounded concurrency and per-caller token buckets.

The serving layer admits a request only when (a) the caller's token bucket
has a token and (b) the server-wide in-flight count is below ``max_pending``.
Both checks happen *before* any work is queued, so a rejected request costs
one dict lookup — quota exhaustion must never enqueue (tested in
``tests/serve/test_quotas.py``).  Rejections carry a ``retry_after_s`` hint
that the HTTP adapter surfaces as a ``Retry-After`` header with status 429.

Shutdown is graceful: :meth:`AdmissionController.begin_drain` flips the
controller into a draining state (new requests are rejected with
``reason="draining"``) and :meth:`AdmissionController.drain` waits for the
in-flight count to reach zero, so the server stops accepting before the
service tears down its caches.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Optional

__all__ = ["AdmissionRejected", "AdmissionController", "TokenBucket"]


class AdmissionRejected(Exception):
    """Raised when a request is refused admission.

    ``reason`` is one of ``"quota"`` (the caller's token bucket is empty),
    ``"capacity"`` (the server-wide in-flight bound is reached) or
    ``"draining"`` (shutdown in progress); ``retry_after_s`` is the hint the
    HTTP layer forwards as ``Retry-After``.
    """

    def __init__(self, reason: str, retry_after_s: float, message: str):
        super().__init__(message)
        self.reason = reason
        self.retry_after_s = float(retry_after_s)


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, burst capacity ``burst``.

    ``try_acquire`` either takes a token and returns ``0.0`` or leaves state
    untouched and returns the seconds until one will be available.  The clock
    is injectable so tests control time exactly.
    """

    __slots__ = ("rate", "burst", "_tokens", "_updated", "_clock", "_lock")

    def __init__(self, rate: float, burst: float, clock: Callable[[], float] = time.monotonic):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be at least 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._clock = clock
        self._updated = clock()
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._updated)
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._updated = now

    def try_acquire(self) -> float:
        """Take one token (returns 0.0) or return seconds until available."""
        with self._lock:
            now = self._clock()
            self._refill(now)
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return 0.0
            return (1.0 - self._tokens) / self.rate

    @property
    def tokens(self) -> float:
        with self._lock:
            self._refill(self._clock())
            return self._tokens


class AdmissionController:
    """Bounded in-flight admission with per-caller token-bucket quotas.

    Parameters
    ----------
    max_pending:
        Server-wide bound on concurrently admitted (in-flight) requests.
    quota_rate, quota_burst:
        Per-caller token-bucket parameters; ``quota_rate=None`` disables
        quotas entirely (capacity and drain checks still apply).
    max_callers:
        Bound on the caller→bucket map; the least-recently-seen caller is
        evicted first (an evicted caller simply starts a fresh, full bucket).
    """

    def __init__(
        self,
        max_pending: int = 64,
        quota_rate: Optional[float] = None,
        quota_burst: Optional[float] = None,
        max_callers: int = 1024,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_pending < 1:
            raise ValueError(f"max_pending must be at least 1, got {max_pending}")
        self.max_pending = int(max_pending)
        self.quota_rate = None if quota_rate is None else float(quota_rate)
        self.quota_burst = float(quota_burst) if quota_burst is not None else (
            None if self.quota_rate is None else max(1.0, self.quota_rate)
        )
        self.max_callers = int(max_callers)
        self._clock = clock
        self._lock = threading.Lock()
        self._drained = threading.Condition(self._lock)
        self._buckets: Dict[str, TokenBucket] = {}
        self._in_flight = 0
        self._draining = False
        self._admitted = 0
        self._rejected: Dict[str, int] = {"quota": 0, "capacity": 0, "draining": 0}

    # -- admission -------------------------------------------------------------
    def _bucket_for(self, caller: str) -> Optional[TokenBucket]:
        if self.quota_rate is None:
            return None
        bucket = self._buckets.pop(caller, None)
        if bucket is None:
            bucket = TokenBucket(self.quota_rate, self.quota_burst, clock=self._clock)
        # Re-insert at the end: plain dicts preserve insertion order, so the
        # first key is always the least recently *seen* caller.
        self._buckets[caller] = bucket
        while len(self._buckets) > self.max_callers:
            self._buckets.pop(next(iter(self._buckets)))
        return bucket

    def admit(self, caller: str) -> None:
        """Admit one request for ``caller`` or raise :class:`AdmissionRejected`.

        On success the in-flight count is incremented; the caller **must**
        pair every successful ``admit`` with exactly one :meth:`release`
        (use ``try/finally``).
        """
        with self._lock:
            if self._draining:
                self._rejected["draining"] += 1
                raise AdmissionRejected(
                    "draining", 1.0, "server is draining; retry against another replica"
                )
            bucket = self._bucket_for(caller)
            if bucket is not None:
                retry_after = bucket.try_acquire()
                if retry_after > 0.0:
                    self._rejected["quota"] += 1
                    raise AdmissionRejected(
                        "quota",
                        retry_after,
                        f"caller {caller!r} exceeded its request quota "
                        f"({self.quota_rate:g}/s, burst {self.quota_burst:g})",
                    )
            if self._in_flight >= self.max_pending:
                self._rejected["capacity"] += 1
                raise AdmissionRejected(
                    "capacity",
                    0.1,
                    f"server is at max_pending={self.max_pending} in-flight requests",
                )
            self._in_flight += 1
            self._admitted += 1

    def release(self) -> None:
        """Mark one admitted request as finished."""
        with self._lock:
            if self._in_flight <= 0:
                raise RuntimeError("release() without a matching admit()")
            self._in_flight -= 1
            if self._in_flight == 0:
                self._drained.notify_all()

    # -- lifecycle -------------------------------------------------------------
    def begin_drain(self) -> None:
        """Stop admitting new requests (idempotent)."""
        with self._lock:
            self._draining = True

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Begin draining and wait for in-flight work to finish.

        Returns ``True`` when the controller emptied within ``timeout``
        (``None`` waits forever).
        """
        deadline = None if timeout is None else self._clock() + timeout
        with self._lock:
            self._draining = True
            while self._in_flight > 0:
                remaining = None if deadline is None else deadline - self._clock()
                if remaining is not None and remaining <= 0:
                    return False
                self._drained.wait(remaining)
            return True

    @property
    def depth(self) -> int:
        """Currently admitted (in-flight) requests."""
        with self._lock:
            return self._in_flight

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    # -- observability ---------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "depth": self._in_flight,
                "max_pending": self.max_pending,
                "admitted": self._admitted,
                "rejected_quota": self._rejected["quota"],
                "rejected_capacity": self._rejected["capacity"],
                "rejected_draining": self._rejected["draining"],
                "quota_rate": self.quota_rate,
                "quota_burst": self.quota_burst,
                "tracked_callers": len(self._buckets),
                "draining": self._draining,
            }
