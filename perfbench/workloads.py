"""The three benchmark workloads: seeded inputs, the call under test, the oracle.

Each workload generates finished request documents from ``(seed, stream,
caller, index)`` alone, so the same seed gives the same inputs; stream 0
feeds the measured window and stream 1 the warm-up, which therefore never
touches a measured input.  Request *shapes* repeat in a fixed cycle (the
``PATTERN`` of each workload) and only the geometry is drawn from the seed,
so every seed loads the program with the same mix of sizes and routes.

Every workload is a closed loop: a caller sends its next request only after
the previous one returned.  The in-process workloads use one caller;
``http-mixed`` uses two keep-alive connections.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.api import (
    EstimationRequest,
    EstimationResult,
    ObserveRequest,
    PipelineRequest,
    QTDAService,
    SweepRequest,
    request_from_dict,
)
from repro.core.config import QTDAConfig
from repro.core.pipeline import PipelineConfig
from repro.datasets.gearbox import generate_gearbox_signal
from repro.datasets.point_clouds import circle_cloud
from repro.quantum.fusion import fusion_cache_info, ptm_cache_info
from repro.quantum.ptm import ptm_memo_info
from repro.serve import QTDAServer, ServeConfig, ServiceClient
from repro.tda.distances import pairwise_distances

from perfbench.oracle import ShotTally, exact_p_zero, p_zero_mismatch, sweep_mismatch

MEASURED, WARM_UP = 0, 1

#: Point count and target edge count per system-register size ``q``: the
#: k=1 Laplacian is ``|edges| x |edges|`` and pads to ``2^q``.
CLOUD_SIZES = {4: (10, 14), 5: (12, 28), 6: (16, 56)}

DEPOLARIZING = {
    "noise_channel": "depolarizing",
    "noise_strength": 0.002,
    "noise_gate_strengths": {"c-U": 0.004, "H": 0.001},
}


def stream_rng(seed: int, stream: int, caller: int, index: int) -> np.random.Generator:
    """The generator behind one input: a pure function of its coordinates."""
    return np.random.default_rng(np.random.SeedSequence([seed, stream, caller, index]))


def sub_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def cloud_for_qubits(q: int, rng: np.random.Generator) -> Tuple[np.ndarray, float]:
    """A noisy circle and the ε at which its Rips complex has the target edge count.

    ``circle_cloud`` places points deterministically and only jitters them,
    so the noise must be positive for two seeds to give distinct clouds.
    """
    num_points, edges = CLOUD_SIZES[q]
    cloud = circle_cloud(num_points, noise=0.1, seed=sub_seed(rng))
    distances = np.sort(pairwise_distances(cloud)[np.triu_indices(num_points, 1)])
    return cloud, float((distances[edges - 1] + distances[edges]) / 2.0)


def estimate_document(q: int, rng: np.random.Generator, config: Dict[str, Any]) -> Dict[str, Any]:
    cloud, epsilon = cloud_for_qubits(q, rng)
    return EstimationRequest(
        points=cloud,
        epsilon=epsilon,
        k=1,
        max_dimension=2,
        config={**config, "seed": sub_seed(rng)},
    ).as_dict()


def estimate_mismatch(
    document: Dict[str, Any], payload: Dict[str, Any], bias: float, tally: ShotTally
) -> Optional[str]:
    """Check one estimate's ``p(0)``; noise-free finite-shot answers also enter ``tally``."""
    config = document["config"]
    expected, _q = exact_p_zero(
        document["points"], document["epsilon"], document["k"], document["max_dimension"],
        config["precision_qubits"],
    )
    if bias == 0.0 and config["shots"] is not None:
        tally.add(document, [(payload["p_zero"], expected)], config["shots"])
    return p_zero_mismatch(payload["p_zero"], expected, config["shots"], bias)


def _delta(after: Dict[str, int], before: Dict[str, int], key: str) -> int:
    return int(after[key]) - int(before[key])


def hit_ratio(after: Dict[str, int], before: Dict[str, int], hits: str, misses: str) -> Tuple[float, int]:
    """``(hit ratio, lookups)`` of a cache over a window, from two snapshots."""
    hit = _delta(after, before, hits)
    lookups = hit + _delta(after, before, misses)
    return (hit / lookups if lookups else 0.0), lookups


class Workload:
    """One seeded request stream against the program, plus its oracle."""

    name = ""
    callers = 1
    #: Warm-up requests, all from the warm-up stream.
    WARM_UP_REQUESTS = 0

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._next_index: Dict[Tuple[int, int], int] = {}
        #: Aggregate shot-noise check over every answer :meth:`mismatch` saw.
        self.tally = ShotTally()

    # -- inputs ----------------------------------------------------------------
    def document(self, stream: int, caller: int, index: int) -> Dict[str, Any]:
        raise NotImplementedError

    def next_document(self, caller: int, stream: int = MEASURED) -> Dict[str, Any]:
        key = (stream, caller)
        index = self._next_index.get(key, 0)
        self._next_index[key] = index + 1
        return self.document(stream, caller, index)

    # -- the program -------------------------------------------------------------
    def start(self) -> None:
        self.service = QTDAService()

    def prepare(self, document: Dict[str, Any]):
        """What the caller hands the program (decoded outside the timed call)."""
        return request_from_dict(document)

    def send(self, caller: int, prepared) -> Any:
        return self.service.run(prepared)

    def warm_up(self) -> None:
        for _ in range(self.WARM_UP_REQUESTS):
            self.send(0, self.prepare(self.next_document(0, WARM_UP)))

    def close(self) -> None:
        self.service.close()

    # -- checks and counters ---------------------------------------------------
    def mismatch(self, document: Dict[str, Any], response: Any) -> Optional[str]:
        raise NotImplementedError

    def checked(self, count: int) -> List[int]:
        """Indices of the responses the oracle checks (all, by default)."""
        return list(range(count))

    def counters(self) -> Dict[str, Any]:
        return {
            "service": self.service.cache_stats(),
            "ptm_cache": ptm_cache_info(),
            "ptm_memo": ptm_memo_info(),
            "fusion_cache": fusion_cache_info(),
        }

    def counter_metrics(self, before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
        """Per-layer ratios and counts over a window, each with its base."""
        out: Dict[str, float] = {}
        service_after, service_before = after["service"], before["service"]
        out["api.result_cache_hits"] = _delta(service_after, service_before, "result_cache_hits")
        out["hamiltonian.spectrum_hit_ratio"], out["hamiltonian.spectrum_lookups"] = hit_ratio(
            service_after, service_before, "spectrum_hits", "spectrum_misses"
        )
        out["fusion.ptm_cache_hit_ratio"], out["fusion.ptm_cache_lookups"] = hit_ratio(
            after["ptm_cache"], before["ptm_cache"], "hits", "misses"
        )
        out["fusion.plan_cache_hit_ratio"], out["fusion.plan_cache_lookups"] = hit_ratio(
            after["fusion_cache"], before["fusion_cache"], "hits", "misses"
        )
        out["ptm.memo_hit_ratio"], out["ptm.memo_lookups"] = hit_ratio(
            after["ptm_memo"], before["ptm_memo"], "hits", "misses"
        )
        out["serve.coalesce_hit_ratio"] = 0.0
        out["serve.coalescer_calls"] = 0
        out["serve.rejected"] = 0
        return out


class SweepExact(Workload):
    """The paper's §5 pipeline: one ε-sweep per Takens-embedded gearbox window."""

    name = "sweep-exact"
    WARM_UP_REQUESTS = 4
    #: Responses the oracle checks per run: the from-scratch path costs
    #: about 20x the request it checks.
    CHECKS = 16
    EPSILONS = tuple(float(e) for e in np.linspace(0.6, 2.0, 8))
    PIPELINE = PipelineConfig(
        homology_dimensions=(0, 1),
        takens_dimension=3,
        takens_delay=4,
        takens_stride=16,
        estimator=QTDAConfig(backend="exact", precision_qubits=3, shots=1000),
    )

    def document(self, stream: int, caller: int, index: int) -> Dict[str, Any]:
        rng = stream_rng(self.seed, stream, caller, index)
        window = generate_gearbox_signal(500, faulty=bool(index % 2), seed=rng)
        pipeline = replace(self.PIPELINE, estimator=self.PIPELINE.estimator.replace(seed=sub_seed(rng)))
        return SweepRequest(time_series=[window], epsilons=self.EPSILONS, pipeline=pipeline).as_dict()

    def checked(self, count: int) -> List[int]:
        return list(range(0, count, max(1, math.ceil(count / self.CHECKS))))

    def mismatch(self, document: Dict[str, Any], response: EstimationResult) -> Optional[str]:
        request = request_from_dict(document)
        return sweep_mismatch(
            request.time_series[0], request.epsilons, response.payload["features"], request.pipeline, self.tally
        )


class NoisyPTM(Workload):
    """Declarative depolarizing noise on the statevector backend: ``auto`` picks ``ptm``."""

    name = "noisy-ptm"
    #: System-register size of each request, cycled: 12 x q=4, 3 x q=5 and
    #: 1 x q=6, so p50 falls inside the q=4 group and p95 inside the q=6
    #: group; t = 4 throughout.
    PATTERN = (4, 4, 4, 5, 4, 4, 4, 6, 4, 4, 4, 5, 4, 4, 4, 5)
    WARM_UP_PER_SIZE = 3
    #: Allowed noise bias on p(0); measured biases stay below 0.002.
    BIAS = 0.01
    CONFIG = {"backend": "statevector", "precision_qubits": 4, "shots": None, **DEPOLARIZING}

    def document(self, stream: int, caller: int, index: int) -> Dict[str, Any]:
        rng = stream_rng(self.seed, stream, caller, index)
        return estimate_document(self.PATTERN[index % len(self.PATTERN)], rng, self.CONFIG)

    def warm_up(self) -> None:
        for q in sorted(set(self.PATTERN)):
            for index in range(self.WARM_UP_PER_SIZE):
                rng = stream_rng(self.seed, WARM_UP, q, index)
                self.send(0, self.prepare(estimate_document(q, rng, self.CONFIG)))

    def mismatch(self, document: Dict[str, Any], response: EstimationResult) -> Optional[str]:
        if response.provenance.engine_route != "ptm":
            return f"route {response.provenance.engine_route!r}, expected 'ptm'"
        return estimate_mismatch(document, response.payload, self.BIAS, self.tally)


class HTTPMixed(Workload):
    """``QTDAServer`` on loopback, two keep-alive connections, four request kinds.

    The distinct estimates are noise-free circuits on the ensemble engine
    with finite shots, plus a share on noisy trajectories: the engine works
    here and the ptm route does not, the reverse of ``noisy-ptm``.
    """

    name = "http-mixed"
    callers = 2
    WARM_UP_REQUESTS = 10
    #: Request kind of each call on one connection, cycled.
    PATTERN = (
        "cheap", "distinct", "cheap", "pipeline", "distinct",
        "observe", "cheap", "sweep", "distinct", "observe",
    )
    CHEAP_POOL = 4
    CHEAP = {"backend": "exact", "precision_qubits": 5, "shots": 1000}
    #: ``(route, q)`` of each distinct estimate on a connection, cycled.
    CIRCUITS = (
        ("ensemble", 4), ("ensemble", 5), ("ensemble", 4), ("ensemble", 6), ("trajectory", 4),
        ("ensemble", 5), ("ensemble", 4), ("ensemble", 6), ("ensemble", 5), ("trajectory", 5),
    )
    CIRCUIT_CONFIGS = {
        "ensemble": {"backend": "statevector", "precision_qubits": 4, "shots": 2000},
        "trajectory": {
            "backend": "statevector", "precision_qubits": 4, "shots": 2000,
            "circuit_engine": "trajectory", **DEPOLARIZING,
        },
    }
    #: Allowed bias of the 8-trajectory mean under noise (measured: < 0.013).
    TRAJECTORY_BIAS = 0.04
    CLASSICAL = PipelineConfig(use_quantum=False)
    STREAM = PipelineConfig(use_quantum=False, takens_dimension=3, takens_delay=2, takens_stride=2)
    OBSERVE_CHUNK = 32

    def start(self) -> None:
        self.server = QTDAServer(ServeConfig(port=0)).start()
        self.service = self.server.service
        self.clients = [
            ServiceClient(self.server.host, self.server.port, caller=f"perfbench-{caller}")
            for caller in range(self.callers)
        ]
        rng = stream_rng(self.seed, MEASURED, self.callers, 0)
        self.cheap = [estimate_document(4, rng, self.CHEAP) for _ in range(self.CHEAP_POOL)]

    def document(self, stream: int, caller: int, index: int) -> Dict[str, Any]:
        kind = self.PATTERN[index % len(self.PATTERN)]
        rng = stream_rng(self.seed, stream, caller, index)
        if kind == "cheap" and stream == MEASURED:
            return self.cheap[(index + caller) % self.CHEAP_POOL]
        if kind == "cheap":
            return estimate_document(4, rng, self.CHEAP)
        if kind == "distinct":
            cycle, position = divmod(index, len(self.PATTERN))
            occurrence = cycle * self.PATTERN.count(kind) + self.PATTERN[:position].count(kind)
            return self.circuit_document(occurrence, rng)
        if kind == "pipeline":
            clouds = [circle_cloud(10, noise=0.1, seed=sub_seed(rng)) for _ in range(3)]
            return PipelineRequest(point_clouds=clouds, epsilon=0.8, pipeline=self.CLASSICAL).as_dict()
        if kind == "sweep":
            clouds = [circle_cloud(10, noise=0.1, seed=sub_seed(rng)) for _ in range(2)]
            return SweepRequest(point_clouds=clouds, epsilons=(0.5, 0.8), pipeline=self.CLASSICAL).as_dict()
        samples = generate_gearbox_signal(self.OBSERVE_CHUNK, faulty=False, seed=rng)
        return ObserveRequest(
            samples=samples,
            session=f"perfbench-{stream}-{caller}",
            window_length=64,
            stride=32,
            epsilons=(0.8,),
            pipeline=self.STREAM,
        ).as_dict()

    def prepare(self, document: Dict[str, Any]):
        return document

    def send(self, caller: int, prepared) -> Any:
        return self.clients[caller].request("POST", f"/v1/{prepared['kind']}", prepared)

    def circuit_document(self, occurrence: int, rng: np.random.Generator) -> Dict[str, Any]:
        route, q = self.CIRCUITS[occurrence % len(self.CIRCUITS)]
        return estimate_document(q, rng, self.CIRCUIT_CONFIGS[route])

    def warm_up(self) -> None:
        for occurrence in range(len(self.CIRCUITS)):
            rng = stream_rng(self.seed, WARM_UP, self.callers, occurrence)
            self.send(0, self.circuit_document(occurrence, rng))
        for _ in range(self.WARM_UP_REQUESTS):
            for caller in range(self.callers):
                self.send(caller, self.next_document(caller, WARM_UP))

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.server.stop()

    def mismatch(self, document: Dict[str, Any], response: Dict[str, Any]) -> Optional[str]:
        try:
            EstimationResult.validate_dict(response)
        except ValueError as exc:
            return f"invalid envelope: {exc}"
        if response["kind"] != document["kind"]:
            return f"kind {response['kind']!r} for a {document['kind']!r} request"
        if document["kind"] != "estimate":
            return None
        config = document["config"]
        if config["backend"] == "exact":
            return estimate_mismatch(document, response["payload"], 0.0, self.tally)
        route = "trajectory" if config["circuit_engine"] == "trajectory" else "ensemble"
        if response["provenance"]["engine_route"] != route:
            return f"route {response['provenance']['engine_route']!r}, expected {route!r}"
        bias = self.TRAJECTORY_BIAS if route == "trajectory" else 0.0
        return estimate_mismatch(document, response["payload"], bias, self.tally)

    def counters(self) -> Dict[str, Any]:
        with ServiceClient(self.server.host, self.server.port) as client:
            stats = client.stats()
        return {**super().counters(), "server": stats}

    def counter_metrics(self, before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
        out = super().counter_metrics(before, after)
        coalescer_after, coalescer_before = after["server"]["coalescer"], before["server"]["coalescer"]
        hits = _delta(coalescer_after, coalescer_before, "hits")
        calls = hits + sum(
            _delta(coalescer_after, coalescer_before, key) for key in ("leaders", "uncoalescable")
        )
        out["serve.coalesce_hit_ratio"] = hits / calls if calls else 0.0
        out["serve.coalescer_calls"] = calls
        queue_after, queue_before = after["server"]["queue"], before["server"]["queue"]
        out["serve.rejected"] = sum(
            _delta(queue_after, queue_before, key)
            for key in ("rejected_quota", "rejected_capacity", "rejected_draining")
        )
        return out


WORKLOADS = {cls.name: cls for cls in (SweepExact, NoisyPTM, HTTPMixed)}
