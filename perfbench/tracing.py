"""Span tracing of the QTDA layers, applied from outside the program.

The benchmark does not instrument ``src/``; instead, for a traced run it
replaces each public layer function listed in :data:`WRAPPED` with a wrapper
that records a span (layer metric, start, end, parent span, request id) and
restores the original afterwards.  Functions are patched at the module where
their caller resolves the name (``repro.core.estimator.sample_counts``, not
``repro.quantum.measurement.sample_counts``), and methods on their class, so
every call on the request path goes through the wrapper.

A layer's self time is its span's duration minus the time covered by its
child spans.  Spans of one request share a request id: the benchmark opens a
root span per request (:meth:`Tracer.request`), and a span opened with no
parent on the current thread (an HTTP handler thread) starts a request of
its own.
"""

from __future__ import annotations

import contextvars
import importlib
import itertools
import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Name of the benchmark's own per-request root span.
REQUEST = "request"
#: Entry points: their self time is request time that no layer below explains.
ENTRY = (REQUEST, "api.run_ms", "serve.handler_ms")


def _simplex_count(result) -> int:
    return int(result.num_simplices())


def _gate_count(result) -> int:
    circuit, _spec = result
    return int(circuit.num_gates)


def _superop_count(result) -> int:
    return int(result.num_superops)


def _caller_of_client(args, kwargs) -> Optional[str]:
    return args[0].caller


def _caller_of_handler(args, kwargs) -> Optional[str]:
    return kwargs["caller"] if "caller" in kwargs else args[3]


def _ptm_state_bytes(args, kwargs) -> int:
    # The Pauli vector of an n-qubit register holds 4^n float64 entries.
    circuit = args[1] if len(args) > 1 else kwargs["circuit"]
    return 8 * 4 ** int(circuit.num_qubits)


#: ``(layer metric, "module:attribute.path", note)``.  ``note`` is
#: ``None``, ``("result", fn)`` (a count read off the return value) or
#: ``("args", fn)`` (a value read off the call's arguments).
WRAPPED: Tuple[Tuple[str, str, Optional[Tuple[str, Callable]]], ...] = (
    ("serve.client_rtt_ms", "repro.serve.loadgen:ServiceClient.request", ("args", _caller_of_client)),
    ("serve.handler_ms", "repro.serve.server:QTDAServer.handle_post", ("args", _caller_of_handler)),
    ("serve.decode_ms", "repro.serve.server:request_from_dict", None),
    ("serve.encode_ms", "repro.core.api:EstimationResult.as_dict", None),
    ("api.run_ms", "repro.core.api:QTDAService.run", None),
    ("api.fingerprint_ms", "repro.core.api:_RequestBase.fingerprint", None),
    ("batch.sweep_ms", "repro.core.batch:BatchFeatureEngine.sweep", None),
    ("batch.stream_extend_ms", "repro.core.batch:StreamingFeatureEngine.extend", None),
    ("tda.distances_ms", "repro.core.batch:pairwise_distances", None),
    ("tda.distances_ms", "repro.tda.rips:pairwise_distances", None),
    ("tda.flag_complex_ms", "repro.core.batch:flag_complex_arrays", ("result", _simplex_count)),
    ("tda.complex_build_ms", "repro.core.api:EstimationRequest.build_complex", ("result", _simplex_count)),
    ("tda.laplacian_ms", "repro.core.batch:laplacian_operator_from_flag_arrays", None),
    ("tda.laplacian_ms", "repro.core.estimator:combinatorial_laplacian", None),
    ("tda.exact_betti_ms", "repro.tda.betti:betti_number", None),
    ("tda.exact_betti_ms", "repro.core.batch:betti_number", None),
    ("hamiltonian.spectrum_ms", "repro.core.hamiltonian:SpectrumCache.spectrum", None),
    ("hamiltonian.padding_ms", "repro.core.backends.exact:padded_spectrum", None),
    ("hamiltonian.padding_ms", "repro.core.backends.base:EstimationProblem.dense_hamiltonian", None),
    ("estimator.estimate_ms", "repro.core.estimator:QTDABettiEstimator.estimate", None),
    ("estimator.estimate_ms", "repro.core.estimator:QTDABettiEstimator.estimate_from_laplacian", None),
    ("estimator.readout_ms", "repro.core.estimator:sample_counts", None),
    ("backends.exact_ms", "repro.core.backends.exact:ExactBackend.run", None),
    ("backends.statevector_ms", "repro.core.backends.statevector:StatevectorBackend.run", None),
    ("circuit.build_ms", "repro.core.backends.statevector:qtda_circuit", ("result", _gate_count)),
    ("fusion.gate_plan_ms", "repro.quantum.engine:EnsembleExecutor.gate_plan", None),
    ("fusion.ptm_program_ms", "repro.quantum.ptm:PTMExecutor.program", ("result", _superop_count)),
    ("ptm.execute_ms", "repro.quantum.ptm:PTMExecutor.qtda_distribution", ("args", _ptm_state_bytes)),
    ("ptm.wide_unitary_ms", "repro.quantum.ptm:apply_unitary_to_pauli_ensemble", None),
    ("engine.ensemble_ms", "repro.quantum.engine:EnsembleExecutor.basis_ensemble_distribution", None),
    ("engine.trajectory_ms", "repro.quantum.engine:EnsembleExecutor.trajectory_basis_distribution", None),
)

#: Every ``_ms`` metric the traced run reports (one per layer slice).
TIMED_METRICS: Tuple[str, ...] = tuple(dict.fromkeys(metric for metric, _, _ in WRAPPED)) + (
    "serve.transport_ms",
)


class Span:
    """One recorded call: ``metric`` ran from ``start`` to ``end`` (seconds)."""

    __slots__ = ("span_id", "parent_id", "request_id", "metric", "start", "end", "note")

    def __init__(self, span_id, parent_id, request_id, metric, start, end, note):
        self.span_id = span_id
        self.parent_id = parent_id
        self.request_id = request_id
        self.metric = metric
        self.start = start
        self.end = end
        self.note = note

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, Any]:
        return {slot: getattr(self, slot) for slot in self.__slots__}


def _resolve(target: str):
    """``(owner, attribute name)`` of a ``"module:attr.path"`` target."""
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


class Tracer:
    """Collects spans in memory while :meth:`installed` patches the layers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)

    def _open(self) -> Tuple[int, Optional[int], int]:
        parent = self._current.get()
        span_id = next(self._ids)
        if parent is None:
            return span_id, None, span_id
        return span_id, parent[0], parent[1]

    @contextmanager
    def request(self):
        """Root span of one benchmark request (the unit latency is measured on)."""
        span_id, parent_id, request_id = self._open()
        token = self._current.set((span_id, request_id))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            self.spans.append(Span(span_id, parent_id, request_id, REQUEST, start, end, None))

    def _wrap(self, function: Callable, metric: str, note) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            span_id, parent_id, request_id = tracer._open()
            token = tracer._current.set((span_id, request_id))
            value = note[1](args, kwargs) if note is not None and note[0] == "args" else None
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._current.reset(token)
            if note is not None and note[0] == "result":
                value = note[1](result)
            tracer.spans.append(Span(span_id, parent_id, request_id, metric, start, end, value))
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", metric)
        return traced

    @contextmanager
    def installed(self):
        """Patch every :data:`WRAPPED` target for the duration of the block."""
        patched = []
        try:
            for metric, target, note in WRAPPED:
                owner, name = _resolve(target)
                original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
                setattr(owner, name, self._wrap(original, metric, note))
                patched.append((owner, name, original))
            yield self
        finally:
            for owner, name, original in reversed(patched):
                setattr(owner, name, original)


def _median_ms(values: List[float]) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0


def summarise(spans: List[Span]) -> Dict[str, float]:
    """Per-layer self times, notes and coverage from a traced window.

    ``<layer>_ms`` is the median, over the requests in which the layer ran,
    of the layer's summed self time in that request.
    """
    child_time: Dict[int, float] = {}
    for span in spans:
        if span.parent_id is not None:
            child_time[span.parent_id] = child_time.get(span.parent_id, 0.0) + span.duration
    per_request: Dict[int, Dict[str, float]] = {}
    entry_self = 0.0
    for span in spans:
        self_time = span.duration - child_time.get(span.span_id, 0.0)
        if span.metric in ENTRY:
            entry_self += self_time
        layers = per_request.setdefault(span.request_id, {})
        layers[span.metric] = layers.get(span.metric, 0.0) + self_time
    out: Dict[str, float] = {}
    for metric in TIMED_METRICS:
        out[metric] = _median_ms([layers[metric] for layers in per_request.values() if metric in layers])

    # Transport: each handler span lies inside the client round trip of the
    # same caller (closed loop: one request in flight per caller).
    clients: Dict[Optional[str], List[Span]] = {}
    for span in spans:
        if span.metric == "serve.client_rtt_ms":
            clients.setdefault(span.note, []).append(span)
    transport = []
    for span in spans:
        if span.metric != "serve.handler_ms":
            continue
        for client in clients.get(span.note, ()):
            if client.start <= span.start and span.end <= client.end:
                transport.append(client.duration - span.duration)
                break
    out["serve.transport_ms"] = _median_ms(transport)

    def total(metric: str) -> int:
        return int(sum(span.note for span in spans if span.metric == metric and span.note is not None))

    def calls(metric: str) -> int:
        return sum(1 for span in spans if span.metric == metric)

    out["tda.simplices"] = total("tda.flag_complex_ms") + total("tda.complex_build_ms")
    out["circuit.builds"] = calls("circuit.build_ms")
    out["circuit.gates"] = total("circuit.build_ms")
    out["fusion.ptm_programs"] = calls("fusion.ptm_program_ms")
    out["fusion.fused_superops"] = total("fusion.ptm_program_ms")
    state_bytes = [span.note for span in spans if span.metric == "ptm.execute_ms"]
    out["ptm.state_mb_computed"] = max(state_bytes) / 1e6 if state_bytes else 0.0
    out["api.run_calls"] = calls("api.run_ms")

    # Coverage: the share of request wall time (root spans: the benchmark's
    # requests and, over HTTP, the server's handler calls) spent inside a
    # layer below the entry points.
    wall = sum(span.duration for span in spans if span.parent_id is None)
    out["trace.coverage"] = 1.0 - entry_self / wall if wall > 0 else 0.0
    out["trace.requests"] = sum(1 for span in spans if span.metric == REQUEST)
    return out
