"""Tests for in-flight request coalescing (repro.serve.coalescer).

Concurrency is driven with explicit events (a runner that blocks until the
test releases it) so leader/waiter interleavings are deterministic, not
timing-dependent.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.api import EstimationRequest, PipelineRequest, QTDAService
from repro.core.config import QTDAConfig
from repro.core.pipeline import PipelineConfig
from repro.serve.coalescer import RequestCoalescer

TRIANGLE = ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2))


def seeded_request(**overrides):
    config = {"precision_qubits": 3, "shots": 100, "seed": 7}
    config.update(overrides.pop("config", {}))
    return EstimationRequest(simplices=TRIANGLE, k=1, config=config, **overrides)


class BlockingRunner:
    """A runner that parks every call until the test releases it."""

    def __init__(self, service):
        self.service = service
        self.release = threading.Event()
        self.entered = threading.Semaphore(0)
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, request):
        with self._lock:
            self.calls += 1
        self.entered.release()
        if not self.release.wait(10.0):  # pragma: no cover - deadlock guard
            raise TimeoutError("test never released the runner")
        return self.service.run(request)


def _wait_for(predicate, timeout=10.0):
    """Poll until ``predicate()`` holds (deterministic rendezvous for tests)."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.005)


def run_concurrently(n, fn):
    """Run ``fn(index)`` on n threads; returns (results, exceptions) by index."""
    results, exceptions = [None] * n, [None] * n

    def target(index):
        try:
            results[index] = fn(index)
        except BaseException as exc:  # noqa: BLE001 - tests inspect the exception
            exceptions[index] = exc

    threads = [threading.Thread(target=target, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30.0)
    assert not any(t.is_alive() for t in threads), "a coalesced caller hung"
    return results, exceptions


@pytest.fixture
def service():
    # No result cache: coalescing must stand on its own.
    with QTDAService(result_cache_size=0) as svc:
        yield svc


class TestCoalescing:
    def test_concurrent_duplicates_compute_once(self, service):
        coalescer = RequestCoalescer()
        runner = BlockingRunner(service)
        request = seeded_request()

        def call(_index):
            return coalescer.execute(request, runner)

        # Start the callers, wait until the leader is inside the runner,
        # then release it — every waiter must be merged behind that one call.
        holder = []
        threads_done = threading.Event()

        def drive():
            holder.append(run_concurrently(5, call))
            threads_done.set()

        driver = threading.Thread(target=drive)
        driver.start()
        assert runner.entered.acquire(timeout=10.0)  # the single leader arrived
        _wait_for(lambda: coalescer.stats()["hits"] == 4)  # all waiters merged
        runner.release.set()
        assert threads_done.wait(30.0)
        driver.join()

        results, exceptions = holder[0]
        assert exceptions == [None] * 5
        assert runner.calls == 1
        flags = [coalesced for _result, coalesced in results]
        assert flags.count(False) == 1 and flags.count(True) == 4
        payloads = [result.payload for result, _ in results]
        assert all(p == payloads[0] for p in payloads)
        stats = coalescer.stats()
        assert stats["leaders"] == 1 and stats["hits"] == 4
        assert stats["in_flight"] == 0

    def test_waiters_get_private_payload_copies(self, service):
        coalescer = RequestCoalescer()
        runner = BlockingRunner(service)
        request = seeded_request()

        def call(_index):
            return coalescer.execute(request, runner)

        # Park the leader until the second caller has joined as a waiter.
        holder = []
        done = threading.Event()

        def drive():
            holder.append(run_concurrently(2, call))
            done.set()

        driver = threading.Thread(target=drive)
        driver.start()
        assert runner.entered.acquire(timeout=10.0)
        # Hold the leader until the second caller has registered as a waiter,
        # so the merge is guaranteed rather than timing-dependent.
        _wait_for(lambda: coalescer.stats()["hits"] == 1)
        runner.release.set()
        assert done.wait(30.0)
        driver.join()

        results, exceptions = holder[0]
        assert exceptions == [None, None]
        assert sorted(coalesced for _r, coalesced in results) == [False, True]
        (first, _), (second, _) = results
        assert first.payload == second.payload
        assert first.payload is not second.payload
        counts_a = first.payload["counts"]
        counts_b = second.payload["counts"]
        assert counts_a is not counts_b  # mutating one must not touch the other

    def test_leader_failure_propagates_to_all_waiters(self, service):
        """A failed leader fails every waiter with the same error — no hangs."""
        coalescer = RequestCoalescer()
        request = seeded_request()
        boom = RuntimeError("backend exploded")
        entered = threading.Semaphore(0)
        release = threading.Event()

        def failing_runner(_request):
            entered.release()
            release.wait(10.0)
            raise boom

        holder = []
        done = threading.Event()

        def drive():
            holder.append(
                run_concurrently(4, lambda _i: coalescer.execute(request, failing_runner))
            )
            done.set()

        driver = threading.Thread(target=drive)
        driver.start()
        assert entered.acquire(timeout=10.0)
        _wait_for(lambda: coalescer.stats()["hits"] == 3)  # all waiters merged
        release.set()
        assert done.wait(30.0)
        driver.join()

        results, exceptions = holder[0]
        assert results == [None] * 4
        assert all(exc is boom for exc in exceptions)
        # The in-flight entry was evicted: the next request starts fresh.
        assert coalescer.stats()["in_flight"] == 0
        result, coalesced = coalescer.execute(request, lambda r: service.run(r))
        assert not coalesced
        assert result.payload["betti_rounded"] == 1

    def test_sequential_requests_do_not_coalesce(self, service):
        coalescer = RequestCoalescer()
        request = seeded_request()
        _, first = coalescer.execute(request, service.run)
        _, second = coalescer.execute(request, service.run)
        assert not first and not second
        assert coalescer.stats()["leaders"] == 2


class TestCoalescingEligibility:
    def test_unseeded_requests_never_coalesce(self, service):
        coalescer = RequestCoalescer()
        request = seeded_request(config={"seed": None})
        _, coalesced = coalescer.execute(request, service.run)
        assert not coalesced
        assert coalescer.stats()["uncoalescable"] == 1
        assert coalescer.stats()["leaders"] == 0

    def test_unserialisable_config_never_coalesces(self, service):
        """A classical pipeline is deterministic whatever its seed, but a
        generator seed cannot serialise, so it has no coalescing key."""
        coalescer = RequestCoalescer()
        pipeline = PipelineConfig(
            epsilon=0.8,
            use_quantum=False,
            estimator=QTDAConfig(precision_qubits=2, seed=np.random.default_rng(1)),
        )
        request = PipelineRequest(
            point_clouds=[np.random.default_rng(0).normal(size=(6, 2))], pipeline=pipeline
        )
        _result, coalesced = coalescer.execute(request, service.run)
        assert not coalesced
        assert coalescer.stats()["uncoalescable"] == 1


class TestGeometryGrouping:
    def test_same_geometry_different_config_serialises(self):
        """Two concurrent leaders sharing geometry run one at a time, so the
        second hits the spectrum cache the first populated."""
        with QTDAService(result_cache_size=0) as service:
            coalescer = RequestCoalescer()
            requests = [
                seeded_request(config={"shots": 100, "seed": 1}),
                seeded_request(config={"shots": 200, "seed": 2}),
            ]
            assert requests[0].fingerprint() != requests[1].fingerprint()
            assert requests[0].geometry_fingerprint() == requests[1].geometry_fingerprint()

            started = threading.Barrier(2, timeout=10.0)

            def call(index):
                started.wait()  # both threads race into the coalescer together
                return coalescer.execute(requests[index], service.run)

            results, exceptions = run_concurrently(2, call)
            assert exceptions == [None, None]
            # Distinct fingerprints: nobody coalesced, both computed...
            assert [c for _r, c in results] == [False, False]
            # ...but the geometry gate made the Laplacian build happen once.
            stats = service.stats
            assert stats["spectrum_cache"]["hits"] >= 1

    def test_geometry_map_is_cleaned_up(self, service):
        coalescer = RequestCoalescer()
        coalescer.execute(seeded_request(), service.run)
        assert coalescer._geometry == {}

    def test_stats_shape(self, service):
        coalescer = RequestCoalescer()
        coalescer.execute(seeded_request(), service.run)
        stats = coalescer.stats()
        for key in ("enabled", "hits", "leaders", "uncoalescable", "in_flight",
                    "geometry_serialised"):
            assert key in stats
        assert stats["enabled"] is True
