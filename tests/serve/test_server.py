"""End-to-end tests for the HTTP/JSON adapter (repro.serve.server).

Everything here goes over a real socket on a loopback ephemeral port — the
same path production traffic takes — via the keep-alive
:class:`repro.serve.ServiceClient`.
"""

import contextlib
import json
import multiprocessing
import socket
import threading
import time

import numpy as np
import pytest

from repro.core.api import (
    SCHEMA_VERSION,
    EstimationRequest,
    EstimationResult,
    ObserveRequest,
    PipelineRequest,
    QTDAService,
    SweepRequest,
)
from repro.core.pipeline import PipelineConfig
from repro.datasets import HighDimStreamConfig, generate_highdim_cloud_stream
from repro.datasets.point_clouds import circle_cloud
from repro.serve import (
    MAX_BODY_BYTES,
    QTDAServer,
    ServeConfig,
    ServiceClient,
    ServiceError,
    validate_stats_dict,
)
from repro.serve import server as server_module

TRIANGLE = ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2))


def estimate_request(**config_overrides):
    config = {"precision_qubits": 3, "shots": 100, "seed": 7}
    config.update(config_overrides)
    return EstimationRequest(simplices=TRIANGLE, k=1, config=config)


@contextlib.contextmanager
def serve(**config_kwargs):
    """A live server on an ephemeral port plus a connected client."""
    server = QTDAServer(ServeConfig(port=0, **config_kwargs))
    with server:
        with ServiceClient(server.host, server.port, caller="test") as client:
            yield server, client


@pytest.fixture(scope="module")
def shared():
    """One server/client pair reused by the read-mostly tests (cheap setup)."""
    server = QTDAServer(ServeConfig(port=0))
    server.start()
    client = ServiceClient(server.host, server.port, caller="shared")
    yield server, client
    client.close()
    server.stop()


class TestRoutes:
    def test_health(self, shared):
        _server, client = shared
        health = client.health()
        assert health["status"] == "ok"
        assert health["schema_version"] == SCHEMA_VERSION
        assert health["kinds"] == ["estimate", "pipeline", "sweep", "observe"]

    def test_estimate_round_trip(self, shared):
        _server, client = shared
        envelope = client.estimate(estimate_request())
        EstimationResult.validate_dict({k: v for k, v in envelope.items() if k != "coalesced"})
        assert envelope["payload"]["betti_rounded"] == 1
        assert envelope["coalesced"] is False

    def test_pipeline_round_trip(self, shared):
        _server, client = shared
        request = PipelineRequest(
            point_clouds=[circle_cloud(8, seed=0)],
            pipeline=PipelineConfig(epsilon=0.8, use_quantum=False),
        )
        envelope = client.pipeline(request)
        features = np.asarray(envelope["payload"]["features"])
        assert features.shape == (1, 2)

    def test_sweep_round_trip(self, shared):
        _server, client = shared
        request = SweepRequest(
            point_clouds=[circle_cloud(8, seed=0)],
            epsilons=(0.5, 0.9),
            pipeline=PipelineConfig(use_quantum=False),
        )
        envelope = client.sweep(request)
        assert np.asarray(envelope["payload"]["features"]).shape == (2, 1, 2)

    def test_observe_round_trip_is_stateful(self, shared):
        """The observe route reaches the streaming engine: windows complete
        as samples accumulate across requests to the same session."""
        _server, client = shared
        pipeline = PipelineConfig(use_quantum=False)
        signal = np.sin(np.linspace(0.0, 8.0 * np.pi, 64))

        def observe(samples):
            return client.observe(
                ObserveRequest(
                    samples=samples,
                    session="http-stream",
                    window_length=32,
                    stride=16,
                    epsilons=(0.5,),
                    pipeline=pipeline,
                )
            )

        first = observe(signal[:16])  # not enough for a window yet
        assert first["payload"]["windows"] == []
        second = observe(signal[16:48])
        assert len(second["payload"]["windows"]) >= 1
        assert second["coalesced"] is False  # observe never coalesces

    def test_stats_schema(self, shared):
        _server, client = shared
        client.estimate(estimate_request())
        stats = client.stats()
        validate_stats_dict(stats)  # the documented contract
        assert stats["requests"]["total"] >= 1
        assert "estimate" in stats["requests"]["by_route"]
        latency = stats["requests"]["by_route"]["estimate"]["latency_ms"]
        assert latency["count"] >= 1 and latency["p50_ms"] is not None

    def test_experiment_kind_not_served(self, shared):
        """Experiment requests are CLI-only; the route does not exist."""
        _server, client = shared
        with pytest.raises(ServiceError) as excinfo:
            client.request("POST", "/v1/experiment", {"schema_version": SCHEMA_VERSION})
        assert excinfo.value.status == 404


class TestErrorEnvelopes:
    def test_unknown_get_path(self, shared):
        _server, client = shared
        with pytest.raises(ServiceError) as excinfo:
            client.request("GET", "/nope")
        assert excinfo.value.status == 404
        assert excinfo.value.envelope["error"]["reason"] == "not_found"
        assert excinfo.value.envelope["schema_version"] == SCHEMA_VERSION

    def test_invalid_json_body(self, shared):
        server, _client = shared
        status, document, _headers = server.handle_post("estimate", b"{not json", "t")
        assert status == 400
        assert document["error"]["reason"] == "invalid_json"

    def test_missing_schema_version(self, shared):
        _server, client = shared
        body = estimate_request().as_dict()
        del body["schema_version"]
        with pytest.raises(ServiceError) as excinfo:
            client.estimate(body)
        assert excinfo.value.status == 400
        assert excinfo.value.reason == "missing_schema_version"
        assert excinfo.value.envelope["error"]["supported_versions"] == [SCHEMA_VERSION]

    def test_unsupported_schema_version(self, shared):
        _server, client = shared
        body = estimate_request().as_dict()
        body["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ServiceError) as excinfo:
            client.estimate(body)
        assert excinfo.value.status == 400
        assert excinfo.value.reason == "unsupported_schema_version"
        assert excinfo.value.envelope["error"]["supported_versions"] == [SCHEMA_VERSION]

    def test_kind_route_mismatch(self, shared):
        _server, client = shared
        with pytest.raises(ServiceError) as excinfo:
            client.pipeline(estimate_request())  # estimate body on /v1/pipeline
        assert excinfo.value.status == 400
        assert excinfo.value.reason == "kind_mismatch"

    def test_kind_defaults_to_route(self, shared):
        _server, client = shared
        body = estimate_request().as_dict()
        del body["kind"]  # the route is authoritative when the body omits it
        assert client.estimate(body)["payload"]["betti_rounded"] == 1

    def test_invalid_request_document(self, shared):
        _server, client = shared
        body = {"schema_version": SCHEMA_VERSION, "kind": "estimate", "k": 1}
        with pytest.raises(ServiceError) as excinfo:
            client.estimate(body)
        assert excinfo.value.status == 400
        assert excinfo.value.reason == "invalid_request"
        assert "exactly one" in excinfo.value.envelope["error"]["message"]

    @staticmethod
    def _observe_body(session, window_length):
        return ObserveRequest(
            session=session,
            window_length=window_length,
            stride=16,
            epsilons=(0.5,),
            pipeline=PipelineConfig(use_quantum=False),
        ).as_dict()

    def test_execution_failure_is_500(self, shared, monkeypatch):
        """A request that validates but fails in the server during execution
        returns a structured 500 — the worker thread survives."""
        server, client = shared

        def broken(request):
            raise RuntimeError("injected execution fault")

        monkeypatch.setattr(server.service, "run", broken)
        with pytest.raises(ServiceError) as excinfo:
            client.observe(self._observe_body("fault-session", 32))
        assert excinfo.value.status == 500
        assert excinfo.value.reason == "internal_error"
        monkeypatch.undo()
        assert client.health()["status"] == "ok"  # server is still alive

    def test_session_config_mismatch_is_400(self, shared):
        """An observe request whose configuration does not match its session
        is the client's fault, found only at execution: a 400, not a 500."""
        _server, client = shared
        client.observe(self._observe_body("mismatch-session", 32))  # creates the session
        with pytest.raises(ServiceError) as excinfo:
            client.observe(self._observe_body("mismatch-session", 64))
        assert excinfo.value.status == 400
        assert excinfo.value.reason == "invalid_request"
        assert "does not match" in excinfo.value.envelope["error"]["message"]
        assert client.health()["status"] == "ok"


def raw_exchange(server, head: bytes, body: bytes = b""):
    """Send raw request bytes, read until the server closes the connection.

    Returns ``(status, headers, envelope)``.  Reading to EOF is itself an
    assertion: a refusal must close the connection, not wait for more.
    """
    with socket.create_connection((server.host, server.port), timeout=10.0) as sock:
        sock.sendall(head + b"\r\n" + body)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head_text, _, payload = b"".join(chunks).partition(b"\r\n\r\n")
    status_line, *header_lines = head_text.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in header_lines)
    return int(status_line.split()[1]), headers, json.loads(payload)


def post_head(content_length: str) -> bytes:
    return (
        "POST /v1/estimate HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n"
        f"Content-Length: {content_length}\r\n"
    ).encode("latin-1")


class TestHeaderRobustness:
    """Malformed or hostile framing gets a counted error envelope, and the
    connection is closed because the body is left unread."""

    @staticmethod
    def assert_refused(server, status, reason, raw_status, headers, envelope):
        assert raw_status == status
        assert envelope["schema_version"] == SCHEMA_VERSION
        assert envelope["error"]["code"] == status
        assert envelope["error"]["reason"] == reason
        assert headers["Connection"] == "close"
        stats = server.stats()
        validate_stats_dict(stats)
        route = stats["requests"]["by_route"]["estimate"]
        assert (route["count"], route["errors"], route["latency_ms"]["count"]) == (1, 1, 1)
        assert stats["requests"]["errors"] == 1

    @pytest.mark.parametrize("value", ["abc", "-1", "1_0", "+5"])
    def test_malformed_content_length_is_400(self, value):
        with serve() as (server, _client):
            answer = raw_exchange(server, post_head(value))
            self.assert_refused(server, 400, "invalid_header", *answer)

    def test_conflicting_content_lengths_are_400(self):
        with serve() as (server, _client):
            answer = raw_exchange(server, post_head("2") + b"Content-Length: 3\r\n")
            self.assert_refused(server, 400, "invalid_header", *answer)

    def test_oversized_body_is_413_unread(self):
        with serve() as (server, _client):
            answer = raw_exchange(server, post_head(str(MAX_BODY_BYTES + 1)))
            self.assert_refused(server, 413, "body_too_large", *answer)

    def test_stalled_body_times_out_with_408(self, monkeypatch):
        monkeypatch.setattr(server_module._RequestHandler, "timeout", 0.2)
        with serve() as (server, _client):
            answer = raw_exchange(server, post_head("100"), b'{"schema_version"')
            self.assert_refused(server, 408, "body_timeout", *answer)

    def test_handler_timeout_is_set(self):
        assert server_module._RequestHandler.timeout is not None
        assert server_module._RequestHandler.timeout > 0

    @pytest.mark.parametrize("max_pending", [1, 16, 64, 256])
    def test_listen_backlog_holds_max_pending_connections(self, max_pending):
        """``listen()`` gets ``max_pending``, not ``socketserver``'s 5: a burst of
        new connections must not overflow the accept queue and wait 1 s for a
        SYN retry."""
        server = QTDAServer(ServeConfig(port=0, max_pending=max_pending))
        try:
            assert server._httpd.request_queue_size == max_pending
        finally:
            server.stop()


class _SendCounter:
    """Socket proxy that counts the writes a handler makes on its connection."""

    def __init__(self, sock):
        self._sock = sock
        self.sends = 0

    def sendall(self, data, *args):
        self.sends += 1
        return self._sock.sendall(data, *args)

    def send(self, data, *args):
        self.sends += 1
        return self._sock.send(data, *args)

    def __getattr__(self, name):
        return getattr(self._sock, name)


@contextlib.contextmanager
def counted_connections(server):
    """Record every accepted connection as ``(send counter, TCP_NODELAY)``."""
    accepted = []
    base = server._httpd.RequestHandlerClass

    class CountingHandler(base):
        def setup(self):
            self.request = _SendCounter(self.request)
            super().setup()
            nodelay = self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            accepted.append((self.request, nodelay))

    server._httpd.RequestHandlerClass = CountingHandler
    try:
        yield accepted
    finally:
        server._httpd.RequestHandlerClass = base


class TestTransport:
    """The response path: one socket write per answer on a no-delay socket."""

    def test_each_response_is_one_send_on_a_nodelay_socket(self):
        with serve() as (server, client), counted_connections(server) as accepted:
            client.close()  # reconnect so the counting handler serves it
            client.health()
            client.estimate(estimate_request())
            with pytest.raises(ServiceError):
                client.estimate({"schema_version": SCHEMA_VERSION + 1})
            client.stats()
            assert len(accepted) == 1
            counter, nodelay = accepted[0]
            assert counter.sends == 4
            assert nodelay == 1

    def test_keep_alive_serves_back_to_back_requests(self):
        with serve() as (server, client), counted_connections(server) as accepted:
            client.close()
            # Distinct seeds: each request executes (no result-cache replay).
            envelopes = [client.estimate(estimate_request(seed=seed)) for seed in (1, 2, 3)]
            assert [e["coalesced"] for e in envelopes] == [False, False, False]
            assert len(accepted) == 1  # all three rode one connection
            assert accepted[0][0].sends == 3

    def test_latency_histogram_counts_every_answered_request(self):
        """The route histogram times every answer, rejected ones included."""
        with serve() as (_server, client):
            client.estimate(estimate_request())
            client.estimate(estimate_request(seed=8))
            for body in ({"schema_version": SCHEMA_VERSION + 1}, {"schema_version": SCHEMA_VERSION}):
                with pytest.raises(ServiceError):
                    client.estimate(body)
            with pytest.raises(ServiceError):
                client.request("POST", "/v1/estimate", None)  # empty body: invalid JSON
            stats = client.stats()
            validate_stats_dict(stats)
            route = stats["requests"]["by_route"]["estimate"]
            assert route["count"] == 5 and route["errors"] == 3
            assert route["latency_ms"]["count"] == route["count"]


class TestQuotasOverHTTP:
    def test_quota_exhaustion_returns_429_with_retry_after(self):
        with serve(quota_rate=0.001, quota_burst=2.0) as (_server, client):
            client.estimate(estimate_request())
            client.estimate(estimate_request(seed=8))
            with pytest.raises(ServiceError) as excinfo:
                client.estimate(estimate_request(seed=9))
            assert excinfo.value.status == 429
            assert excinfo.value.reason == "quota"
            assert excinfo.value.retry_after_s > 0

    def test_callers_are_isolated(self):
        with serve(quota_rate=0.001, quota_burst=1.0) as (server, _client):
            with ServiceClient(server.host, server.port, caller="alice") as alice, \
                 ServiceClient(server.host, server.port, caller="bob") as bob:
                alice.estimate(estimate_request())
                bob.estimate(estimate_request())  # bob's own bucket
                with pytest.raises(ServiceError) as excinfo:
                    alice.estimate(estimate_request(seed=8))
                assert excinfo.value.status == 429

    def test_rejections_show_up_in_stats(self):
        with serve(quota_rate=0.001, quota_burst=1.0) as (_server, client):
            client.estimate(estimate_request())
            with pytest.raises(ServiceError):
                client.estimate(estimate_request(seed=8))
            stats = client.stats()
            validate_stats_dict(stats)
            assert stats["queue"]["rejected_quota"] == 1
            assert stats["requests"]["errors"] == 1


class TestCoalescingOverHTTP:
    def test_concurrent_duplicates_coalesce(self):
        """N identical requests in flight together: one computes, the rest are
        marked coalesced; all payloads identical.

        The injected service's run() is slowed so the leader is guaranteed to
        still be executing when the other callers arrive (no cache to hide
        behind: both caches are disabled, coalescing does all the work).
        """
        service = QTDAService(result_cache_size=0, spectrum_cache_size=0)
        original_run = service.run
        run_count = threading.Semaphore(0)

        def slow_run(request):
            run_count.release()
            time.sleep(0.5)
            return original_run(request)

        service.run = slow_run
        server = QTDAServer(ServeConfig(port=0), service=service)
        server.start()
        try:
            request = estimate_request()
            n = 6
            envelopes, errors = [None] * n, [None] * n
            barrier = threading.Barrier(n, timeout=30.0)

            def call(index):
                try:
                    with ServiceClient(server.host, server.port, caller=f"c{index}") as client:
                        barrier.wait()
                        envelopes[index] = client.estimate(request)
                except Exception as exc:  # noqa: BLE001
                    errors[index] = exc

            threads = [threading.Thread(target=call, args=(i,)) for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert errors == [None] * n
            flags = [e["coalesced"] for e in envelopes]
            assert flags.count(True) >= 1  # duplicates rode along
            payloads = [e["payload"] for e in envelopes]
            assert all(p == payloads[0] for p in payloads)
            stats = server.stats()
            assert stats["coalescer"]["hits"] == flags.count(True)
            assert stats["coalescer"]["leaders"] == flags.count(False)
        finally:
            server.stop()
            service.close()

    def test_coalescing_disabled_stats(self):
        with serve(coalesce=False) as (_server, client):
            client.estimate(estimate_request())
            stats = client.stats()
            validate_stats_dict(stats)
            assert stats["coalescer"] == {"enabled": False}


class TestRemovedShardConfig:
    """Wire schema 5 dropped sharding: a body that still asks for shards gets a
    structured 400 and never starts worker processes."""

    @pytest.mark.parametrize(
        "fields",
        [
            {"shards": 5},
            {"shards": 9, "shard_backend": "process"},
            {"devices": [0]},
        ],
    )
    def test_shard_fields_get_a_400_and_spawn_nothing(self, shared, fields):
        _server, client = shared
        body = estimate_request().as_dict()
        body["config"].update(fields)
        with pytest.raises(ServiceError) as excinfo:
            client.estimate(body)
        assert excinfo.value.status == 400
        assert excinfo.value.reason == "invalid_request"
        assert excinfo.value.envelope["schema_version"] == SCHEMA_VERSION
        assert multiprocessing.active_children() == []

    def test_schema_version_4_body_is_unsupported(self, shared):
        _server, client = shared
        body = estimate_request().as_dict()
        body["schema_version"] = 4
        with pytest.raises(ServiceError) as excinfo:
            client.estimate(body)
        assert excinfo.value.status == 400
        assert excinfo.value.reason == "unsupported_schema_version"
        assert excinfo.value.envelope["error"]["supported_versions"] == [SCHEMA_VERSION]


class TestRemovedConfig:
    """Wire schema 6 dropped the superseded route knobs and the
    ``noisy-density`` alias; schema 7 dropped the ``density``/``purified``
    route values.  Such a body — or one still speaking schema 6 — gets a
    structured 400 and never starts worker processes."""

    @pytest.mark.parametrize(
        "fields",
        [
            {"use_purification": True},
            {"fuse_purified": True},
            {"backend": "noisy-density"},
            {"circuit_engine": "density"},
            {"circuit_engine": "purified"},
            {"schema_version": 6},
        ],
    )
    def test_removed_fields_get_a_400_and_spawn_nothing(self, shared, fields):
        _server, client = shared
        body = estimate_request().as_dict()
        if "schema_version" in fields:
            body.update(fields)
            reason = "unsupported_schema_version"
        else:
            body["config"].update(fields)
            reason = "invalid_request"
        with pytest.raises(ServiceError) as excinfo:
            client.estimate(body)
        assert excinfo.value.status == 400
        assert excinfo.value.reason == reason
        assert excinfo.value.envelope["schema_version"] == SCHEMA_VERSION
        assert multiprocessing.active_children() == []

    def test_schema_version_5_body_is_unsupported(self, shared):
        _server, client = shared
        body = estimate_request().as_dict()
        body["schema_version"] = 5
        with pytest.raises(ServiceError) as excinfo:
            client.estimate(body)
        assert excinfo.value.status == 400
        assert excinfo.value.reason == "unsupported_schema_version"
        assert excinfo.value.envelope["error"]["supported_versions"] == [SCHEMA_VERSION]


class TestHighDimStreamOverHTTP:
    def test_highdim_frames_estimate_consistently(self):
        """Frames of the rotating high-dimensional stream all report the
        circle's Betti numbers through the service."""
        frames = generate_highdim_cloud_stream(
            3, HighDimStreamConfig(shape="circle", ambient_dim=6, num_points=14, noise_std=0.01),
            seed=5,
        )
        with serve() as (_server, client):
            for frame in frames:
                envelope = client.estimate(
                    EstimationRequest(
                        points=frame, epsilon=0.6, k=1, compute_exact=True,
                        config={"precision_qubits": 4, "shots": 500, "seed": 3},
                    )
                )
                assert envelope["payload"]["exact_betti"] == 1


class TestLifecycle:
    def test_draining_returns_503_and_health_reflects_it(self):
        server = QTDAServer(ServeConfig(port=0))
        server.start()
        try:
            with ServiceClient(server.host, server.port) as client:
                client.estimate(estimate_request())
                server.admission.begin_drain()
                assert client.health()["status"] == "draining"
                with pytest.raises(ServiceError) as excinfo:
                    client.estimate(estimate_request(seed=8))
                assert excinfo.value.status == 503
                assert excinfo.value.reason == "draining"
        finally:
            server.stop()

    def test_stop_is_idempotent_and_closes_owned_service(self):
        server = QTDAServer(ServeConfig(port=0))
        server.start()
        server.stop()
        server.stop()  # no-op
        with pytest.raises(RuntimeError, match="closed"):
            server.service.submit(estimate_request())

    def test_injected_service_is_not_closed(self):
        with QTDAService() as service:
            server = QTDAServer(ServeConfig(port=0), service=service)
            server.start()
            server.stop()
            # The injected service stays usable: the caller owns its lifecycle.
            result = service.run(estimate_request())
            assert result.payload["betti_rounded"] == 1

    def test_connection_reuse_across_requests(self):
        """The client keeps one TCP connection across sequential requests."""
        with serve() as (_server, client):
            client.health()
            connection = client._connection
            client.estimate(estimate_request())
            assert client._connection is connection
