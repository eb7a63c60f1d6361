"""HTTP/JSON adapter over :class:`~repro.core.api.QTDAService` (DESIGN.md §15).

Turns the in-process service into a network-deployable endpoint using only
the standard library (``http.server.ThreadingHTTPServer`` — one handler
thread per connection, no new dependencies):

* ``POST /v1/estimate`` | ``/v1/pipeline`` | ``/v1/sweep`` | ``/v1/observe``
  accept a request document in the versioned wire format
  (:func:`repro.core.api.request_from_dict`) and return the corresponding
  :meth:`~repro.core.api.EstimationResult.as_dict` envelope — the same JSON
  ``validate_dict`` accepts, plus a ``coalesced`` marker.  ``experiment``
  requests are deliberately *not* exposed: they are unbounded batch jobs,
  which belong to the CLI, not an online endpoint.
* ``GET /v1/health`` is the liveness probe; ``GET /v1/stats`` returns the
  documented observability snapshot (:func:`validate_stats_dict`).

The request path composes the serving primitives in a fixed order —
**adapter → admission control → coalescer → service** — so every rejection
is cheap and every executed request is metered:

1. parse + schema-version negotiation (the body must speak
   :data:`~repro.core.api.SCHEMA_VERSION`; mismatches get a structured 400
   naming the supported versions);
2. admission (:mod:`repro.serve.quotas`): per-caller token buckets and the
   server-wide in-flight bound — rejections return 429 (quota/capacity) or
   503 (draining) with ``Retry-After``;
3. coalescing (:mod:`repro.serve.coalescer`): identical concurrent
   deterministic requests execute once; estimation leaders sharing geometry
   serialise so each Laplacian is built into the shared spectrum cache once;
4. execution on the shared :class:`~repro.core.api.QTDAService` — including
   process-sharded configs (``config={"shards": ..., "shard_backend":
   "process"}``), which are bit-identical to in-process runs.

Errors always arrive as a structured envelope::

    {"schema_version": 4, "error": {"code": 429, "reason": "quota",
     "message": "...", "retry_after_s": 0.7}}

The transport guards the handler threads before any of that runs: a
malformed ``Content-Length`` gets a 400 (``invalid_header``), a body over
:data:`MAX_BODY_BYTES` a 413 (``body_too_large``), and a client that stalls
mid-body a 408 (``body_timeout``) after the handler's socket ``timeout``.
Each leaves (the rest of) the body unread, so the connection is closed
behind the answer.  Every answer is one ``sendall`` on a ``TCP_NODELAY``
socket (DESIGN.md §15).

Caller identity for quotas is the ``X-Caller`` header when present, else the
peer address — good enough for LAN deployments; put a real authenticating
proxy in front for anything else.
"""

from __future__ import annotations

import json
import logging
import math
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.core.api import (
    SCHEMA_VERSION,
    ObserveRequest,
    QTDAService,
    request_from_dict,
)
from repro.serve.coalescer import RequestCoalescer
from repro.serve.metrics import MetricsRegistry
from repro.serve.quotas import AdmissionController, AdmissionRejected

__all__ = [
    "MAX_BODY_BYTES",
    "SERVED_KINDS",
    "ServeConfig",
    "QTDAServer",
    "error_envelope",
    "validate_stats_dict",
]

logger = logging.getLogger("repro.serve")

#: Request kinds the HTTP adapter exposes (``experiment`` is CLI-only).
SERVED_KINDS = ("estimate", "pipeline", "sweep", "observe")

#: Largest request body the adapter accepts.  A QTDA request is a small
#: complex or cloud (tens of points); 1 MiB holds ~50k coordinates.
MAX_BODY_BYTES = 1 << 20


def _finite_float(text: str) -> float:
    """``json`` hook for floats and the ``NaN``/``Infinity`` tokens: the wire
    format has no non-finite numbers (``1e999`` overflows to one)."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


def _decode_body(raw: bytes) -> Any:
    """Strict JSON: UTF-8, finite numbers only."""
    return json.loads(raw.decode("utf-8"), parse_float=_finite_float, parse_constant=_finite_float)


def _body_too_large(length: int) -> Tuple[int, str, str]:
    message = f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
    return 413, "body_too_large", message


@dataclass
class ServeConfig:
    """Deployment knobs of one :class:`QTDAServer`.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`QTDAServer.port` — the test/benchmark harnesses rely on this).
    ``quota_rate=None`` disables per-caller quotas; ``coalesce=False``
    disables request coalescing (the load benchmark's control arm).
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_pending: int = 64
    quota_rate: Optional[float] = None
    quota_burst: Optional[float] = None
    coalesce: bool = True
    group_geometry: bool = True
    max_workers: Optional[int] = None
    result_cache_size: int = 256
    spectrum_cache_size: int = 1024
    drain_timeout: float = 10.0

    def __post_init__(self):
        if self.max_pending < 1:
            raise ValueError(f"max_pending must be at least 1, got {self.max_pending}")
        if self.drain_timeout < 0:
            raise ValueError(f"drain_timeout must be non-negative, got {self.drain_timeout}")


def error_envelope(
    code: int, reason: str, message: str, retry_after_s: Optional[float] = None, **extra: Any
) -> Dict[str, Any]:
    """The structured error document every non-200 response carries."""
    body: Dict[str, Any] = {"code": int(code), "reason": reason, "message": message}
    if retry_after_s is not None:
        body["retry_after_s"] = float(retry_after_s)
    body.update(extra)
    return {"schema_version": SCHEMA_VERSION, "error": body}


class _RequestHandler(BaseHTTPRequestHandler):
    """Per-connection handler; the owning :class:`QTDAServer` is ``self.app``."""

    app: "QTDAServer"  # bound by QTDAServer via a subclass attribute
    protocol_version = "HTTP/1.1"
    # Responses leave in one write (see _send_json); TCP_NODELAY also covers
    # the two-write answers http.server itself sends (send_error).
    disable_nagle_algorithm = True
    # Socket timeout (seconds) for every read and write: a client that goes
    # quiet mid-request, or idles on a keep-alive connection, frees its thread.
    timeout = 10.0

    # BaseHTTPRequestHandler logs every request line to stderr by default;
    # route it through the package logger at debug instead.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        logger.debug("%s - %s", self.address_string(), format % args)

    def _caller(self) -> str:
        return self.headers.get("X-Caller") or self.client_address[0]

    def _send_json(
        self, status: int, document: Mapping[str, Any], headers: Optional[Dict[str, str]] = None
    ) -> None:
        """Send status line, headers and body in a single ``sendall``.

        ``end_headers()`` followed by a separate body write puts two small
        segments on the wire; Nagle's algorithm holds the second until the
        client's delayed ACK for the first, ~40 ms on every answer.
        """
        payload = json.dumps(document).encode("utf-8")
        self.log_request(status)
        lines = [
            f"{self.protocol_version} {status} {self.responses.get(status, ('',))[0]}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            "Content-Type: application/json",
            f"Content-Length: {len(payload)}",
            f"X-QTDA-Schema-Version: {SCHEMA_VERSION}",
            *(f"{name}: {value}" for name, value in (headers or {}).items()),
        ]
        if self.close_connection:
            lines.append("Connection: close")
        self.wfile.write("\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + payload)

    def _read_body(self) -> Tuple[bytes, Optional[Tuple[int, str, str]]]:
        """The request body, or ``(b"", (status, reason, message))`` when refused.

        A refused body is left unread, so the connection is marked for
        closing: its remaining bytes would otherwise be parsed as the next
        request line.
        """
        def refused(status: int, reason: str, message: str):
            self.close_connection = True
            return b"", (status, reason, message)

        values = self.headers.get_all("Content-Length") or ["0"]
        text = values[0].strip()
        if len(set(values)) > 1 or not (text.isascii() and text.isdigit()):
            return refused(
                400, "invalid_header", f"Content-Length must be one non-negative integer, got {values!r}"
            )
        length = int(text)
        if length > MAX_BODY_BYTES:
            return refused(*_body_too_large(length))
        try:
            raw = self.rfile.read(length) if length else b""
        except TimeoutError:
            return refused(408, "body_timeout", f"request body not received within {self.timeout:g}s")
        if len(raw) < length:
            return refused(
                400, "incomplete_body", f"connection closed after {len(raw)} of {length} body bytes"
            )
        return raw, None

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/v1/health":
            self._send_json(200, self.app.health())
        elif self.path == "/v1/stats":
            self._send_json(200, self.app.stats())
        else:
            self._send_json(
                404, error_envelope(404, "not_found", f"unknown path {self.path!r}")
            )

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        # Drain the body before routing: on a keep-alive connection an
        # unread body would be parsed as the next request line.
        raw, refusal = self._read_body()
        # The route's latency window: body in hand -> answer on the wire.
        start = time.perf_counter()
        route = self.path[len("/v1/"):] if self.path.startswith("/v1/") else None
        if route not in SERVED_KINDS:
            self._send_json(
                404,
                error_envelope(
                    404,
                    "not_found",
                    f"unknown path {self.path!r}; POST routes: "
                    + ", ".join(f"/v1/{k}" for k in SERVED_KINDS),
                ),
            )
            return
        if refusal is not None:
            status, document, headers = self.app.refuse(route, *refusal)
        else:
            status, document, headers = self.app.handle_post(route, raw, self._caller())
        self._send_json(status, document, headers)
        self.app.metrics.histogram(f"requests.{route}.latency").record(
            time.perf_counter() - start
        )


class QTDAServer:
    """The deployable QTDA service: HTTP adapter + coalescer + quotas + metrics.

    Owns a :class:`~repro.core.api.QTDAService` (or wraps one you pass in —
    then you keep responsibility for closing it) and serves it over a
    threading HTTP server.  Use as a context manager::

        with QTDAServer(ServeConfig(port=0)) as server:
            print("listening on", server.base_url)
            ...

    ``stop()`` drains gracefully: admission flips to rejecting, in-flight
    requests finish (bounded by ``drain_timeout``), then the listener and the
    service (with its shard pools) shut down.
    """

    def __init__(self, config: Optional[ServeConfig] = None, service: Optional[QTDAService] = None):
        self.config = config if config is not None else ServeConfig()
        self._owns_service = service is None
        self.service = (
            service
            if service is not None
            else QTDAService(
                max_workers=self.config.max_workers,
                spectrum_cache_size=self.config.spectrum_cache_size,
                result_cache_size=self.config.result_cache_size,
            )
        )
        self.metrics = MetricsRegistry()
        self.coalescer: Optional[RequestCoalescer] = (
            RequestCoalescer(group_geometry=self.config.group_geometry)
            if self.config.coalesce
            else None
        )
        self.admission = AdmissionController(
            max_pending=self.config.max_pending,
            quota_rate=self.config.quota_rate,
            quota_burst=self.config.quota_burst,
        )
        handler = type("_BoundRequestHandler", (_RequestHandler,), {"app": self})
        httpd = ThreadingHTTPServer((self.config.host, self.config.port), handler)
        httpd.daemon_threads = True
        self._httpd = httpd
        self._thread: Optional[threading.Thread] = None
        self._started_at: Optional[float] = None
        self._stopped = False

    # -- lifecycle -------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "QTDAServer":
        if self._thread is not None:
            raise RuntimeError("server is already started")
        self._started_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="qtda-serve",
            daemon=True,
        )
        self._thread.start()
        logger.info("QTDA service listening on %s", self.base_url)
        return self

    def stop(self, drain: bool = True) -> None:
        """Graceful shutdown (idempotent): drain, stop listening, close the service."""
        if self._stopped:
            return
        self._stopped = True
        self.admission.begin_drain()
        if drain:
            if not self.admission.drain(timeout=self.config.drain_timeout):
                logger.warning(
                    "drain timed out after %.1fs with %d requests in flight",
                    self.config.drain_timeout,
                    self.admission.depth,
                )
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()
        if self._owns_service:
            self.service.close()

    def __enter__(self) -> "QTDAServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- request processing ----------------------------------------------------
    def handle_post(
        self, route: str, raw: bytes, caller: str
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """Process one POST body; returns ``(status, document, extra_headers)``.

        Factored out of the socket handler so tests can drive the full
        pipeline (parsing, negotiation, admission, coalescing, execution,
        metering) without a network round trip when they want to.  The
        route's latency histogram is the handler's: it also times the send.
        """
        self._count(route)
        if len(raw) > MAX_BODY_BYTES:
            return self._reject(route, *_body_too_large(len(raw)))
        try:
            body = _decode_body(raw)
        except (ValueError, RecursionError) as exc:
            return self._reject(route, 400, "invalid_json", f"request body is not JSON: {exc}")
        if not isinstance(body, dict):
            return self._reject(route, 400, "invalid_request", "request body must be a JSON object")

        # Schema-version negotiation: the wire format is versioned and this
        # build speaks exactly one version; the error names it so clients can
        # adapt instead of guessing.
        version = body.get("schema_version")
        if version != SCHEMA_VERSION:
            reason = "missing_schema_version" if version is None else "unsupported_schema_version"
            return self._reject(
                route,
                400,
                reason,
                f"request schema_version {version!r} is not supported",
                supported_versions=[SCHEMA_VERSION],
            )
        kind = body.setdefault("kind", route)
        if kind != route:
            return self._reject(
                route, 400, "kind_mismatch", f"request kind {kind!r} does not match route /v1/{route}"
            )

        try:
            request = request_from_dict(body)
        except (TypeError, ValueError, OverflowError, RecursionError) as exc:
            return self._reject(route, 400, "invalid_request", str(exc))

        try:
            self.admission.admit(caller)
        except AdmissionRejected as exc:
            status = 503 if exc.reason == "draining" else 429
            return self._reject(
                route,
                status,
                exc.reason,
                str(exc),
                headers={"Retry-After": f"{max(exc.retry_after_s, 0.0):.3f}"},
                retry_after_s=exc.retry_after_s,
            )

        self.metrics.gauge("queue.depth").set(self.admission.depth)
        try:
            # Observe requests are stateful (never coalescable); everything
            # else goes through the coalescer when one is configured.
            if self.coalescer is not None and not isinstance(request, ObserveRequest):
                result, coalesced = self.coalescer.execute(request, self.service.run)
            else:
                result, coalesced = self.service.run(request), False
        except Exception as exc:  # noqa: BLE001 - the adapter must not crash the worker
            logger.exception("request execution failed")
            return self._reject(route, 500, "internal_error", f"{type(exc).__name__}: {exc}")
        finally:
            self.admission.release()
            self.metrics.gauge("queue.depth").set(self.admission.depth)

        if coalesced:
            self.metrics.counter(f"requests.{route}.coalesced").inc()
        document = result.as_dict()
        document["coalesced"] = coalesced
        return 200, document, {}

    def refuse(
        self, route: str, status: int, reason: str, message: str
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """Count and answer a request the transport refused before decoding."""
        self._count(route)
        return self._reject(route, status, reason, message)

    def _count(self, route: str) -> None:
        self.metrics.counter("requests.total").inc()
        self.metrics.counter(f"requests.{route}.count").inc()

    def _reject(
        self,
        route: str,
        status: int,
        reason: str,
        message: str,
        headers: Optional[Dict[str, str]] = None,
        **extra: Any,
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        self.metrics.counter("requests.errors").inc()
        self.metrics.counter(f"requests.{route}.errors").inc()
        return status, error_envelope(status, reason, message, **extra), headers or {}

    # -- observability ---------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self.admission.draining else "ok",
            "schema_version": SCHEMA_VERSION,
            "kinds": list(SERVED_KINDS),
        }

    def stats(self) -> Dict[str, Any]:
        """The documented ``/v1/stats`` snapshot (see :func:`validate_stats_dict`)."""
        snapshot = self.metrics.as_dict()
        counters = snapshot["counters"]
        histograms = snapshot["histograms"]
        by_route: Dict[str, Any] = {}
        for kind in SERVED_KINDS:
            count = counters.get(f"requests.{kind}.count", 0)
            if not count:
                continue
            by_route[kind] = {
                "count": count,
                "errors": counters.get(f"requests.{kind}.errors", 0),
                "coalesced": counters.get(f"requests.{kind}.coalesced", 0),
                "latency_ms": histograms.get(
                    f"requests.{kind}.latency",
                    {
                        "count": 0,
                        "mean_ms": None,
                        "p50_ms": None,
                        "p95_ms": None,
                        "p99_ms": None,
                        "min_ms": None,
                        "max_ms": None,
                    },
                ),
            }
        uptime = 0.0 if self._started_at is None else time.monotonic() - self._started_at
        return {
            "schema_version": SCHEMA_VERSION,
            "server": {
                "host": self.host,
                "port": self.port,
                "uptime_s": uptime,
                "draining": self.admission.draining,
                "served_kinds": list(SERVED_KINDS),
            },
            "requests": {
                "total": counters.get("requests.total", 0),
                "errors": counters.get("requests.errors", 0),
                "by_route": by_route,
            },
            "queue": self.admission.stats(),
            "coalescer": (
                self.coalescer.stats() if self.coalescer is not None else {"enabled": False}
            ),
            "service": self.service.cache_stats(),
        }


#: The documented shape of the ``/v1/stats`` payload: required keys and the
#: type (or tuple of types) their values must have.  ``None``-able numeric
#: fields use ``(int, float, type(None))``.  This is the contract the CI
#: ``load-smoke`` job asserts.
_NUMBER = (int, float)
_OPT_NUMBER = (int, float, type(None))
_STATS_SCHEMA: Dict[str, Dict[str, Any]] = {
    "server": {
        "host": str,
        "port": int,
        "uptime_s": _NUMBER,
        "draining": bool,
        "served_kinds": list,
    },
    "requests": {"total": int, "errors": int, "by_route": dict},
    "queue": {
        "depth": int,
        "max_pending": int,
        "admitted": int,
        "rejected_quota": int,
        "rejected_capacity": int,
        "rejected_draining": int,
        "quota_rate": _OPT_NUMBER,
        "quota_burst": _OPT_NUMBER,
        "tracked_callers": int,
        "draining": bool,
    },
    "coalescer": {"enabled": bool},
    "service": {
        "result_cache_entries": int,
        "result_cache_hits": int,
        "spectrum_hits": int,
        "spectrum_misses": int,
        "spectrum_entries": int,
        "spectrum_hit_rate": _OPT_NUMBER,
    },
}

_ROUTE_SCHEMA: Dict[str, Any] = {"count": int, "errors": int, "coalesced": int, "latency_ms": dict}
_LATENCY_SCHEMA: Dict[str, Any] = {
    "count": int,
    "mean_ms": _OPT_NUMBER,
    "p50_ms": _OPT_NUMBER,
    "p95_ms": _OPT_NUMBER,
    "p99_ms": _OPT_NUMBER,
    "min_ms": _OPT_NUMBER,
    "max_ms": _OPT_NUMBER,
}


def _check_block(data: Mapping[str, Any], schema: Mapping[str, Any], context: str) -> None:
    for key, expected in schema.items():
        if key not in data:
            raise ValueError(f"stats payload is missing {context}.{key}")
        value = data[key]
        if isinstance(expected, Mapping):
            if not isinstance(value, Mapping):
                raise ValueError(f"{context}.{key} must be a mapping, got {type(value).__name__}")
            _check_block(value, expected, f"{context}.{key}")
        elif expected is bool:
            # bool is a subclass of int; check it exactly so numeric fields
            # and flags cannot swap silently.
            if not isinstance(value, bool):
                raise ValueError(f"{context}.{key} must be a bool, got {type(value).__name__}")
        elif not isinstance(value, expected):
            raise ValueError(
                f"{context}.{key} has type {type(value).__name__}, expected {expected}"
            )


def validate_stats_dict(data: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` unless ``data`` matches the documented `/v1/stats` schema.

    Checked: top-level ``schema_version`` plus the ``server``/``requests``/
    ``queue``/``coalescer``/``service`` blocks, and — for every route present
    in ``requests.by_route`` — the per-route counters and latency summary.
    Used by the serve tests and the CI ``load-smoke`` job.
    """
    if not isinstance(data, Mapping):
        raise ValueError(f"stats payload must be a mapping, got {type(data).__name__}")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"stats schema_version must be {SCHEMA_VERSION}, got {data.get('schema_version')!r}"
        )
    for block, schema in _STATS_SCHEMA.items():
        if not isinstance(data.get(block), Mapping):
            raise ValueError(f"stats payload is missing the {block!r} block")
        _check_block(data[block], schema, block)
    for route, record in data["requests"]["by_route"].items():
        if route not in SERVED_KINDS:
            raise ValueError(f"unknown route {route!r} in requests.by_route")
        _check_block(record, _ROUTE_SCHEMA, f"requests.by_route.{route}")
        _check_block(record["latency_ms"], _LATENCY_SCHEMA, f"requests.by_route.{route}.latency_ms")
