"""Digest the service's answers to a seeded request corpus, and compare two digests.

A simplification that claims "same numbers" runs this on both sides of the
change and compares::

    PYTHONPATH=src python tools/payload_digest.py digest after.json
    PYTHONPATH=<parent checkout>/src python tools/payload_digest.py digest before.json
    python tools/payload_digest.py compare before.json after.json

``digest`` builds the corpus and posts every request, as a JSON wire
document, through :meth:`repro.serve.QTDAServer.handle_post` on one server
that is never started: decoding, validation, execution and encoding run as
they do on the wire, without a socket.  The corpus covers every request kind
(``estimate``, ``pipeline``, ``sweep``, ``experiment`` at reduced size and
``observe`` sequences), both complex inputs (``simplices``, ``points``), every
registered backend, and every circuit route with and without noise, plus a
few requests that must be refused.  ``--size tiny`` keeps one request per
kind and a handful of routes.

The output holds one record per request: its kind, the route that served it
(``backend[/engine_route][+noise]``), the HTTP status, the SHA-256 of the
request document and the SHA-256 of ``canonical_json`` of the response with
the per-run fields removed (``wall_time_s``, the cache counters,
``result_cache_hit`` and ``coalesced``).  ``compare`` lists the requests whose
status or digest differ, grouped by kind and route, prints the coverage
(kinds × routes) and exits with 1 when anything differs.

No digest file is committed: ``eigvalsh`` results can differ in their last
bits between LAPACK builds, so both sides must run on the same host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from collections import Counter, defaultdict
from typing import Any, Dict, Iterator, List, Mapping, Tuple

#: Seed of every random input in the corpus.
CORPUS_SEED = 2023

#: Provenance fields that vary from run to run by design.
PER_RUN_PROVENANCE = ("wall_time_s", "cache_hits", "cache_misses", "result_cache_hit")

#: The noisy circuit settings the corpus crosses with every circuit route.
NOISE_MODELS = (
    {"noise_channel": "depolarizing", "noise_strength": 0.01},
    {"noise_channel": "amplitude-damping", "noise_strength": 0.02, "readout_error": 0.01},
    {
        "noise_channel": "phase-flip",
        "noise_strength": 0.01,
        "noise_gate_strengths": {"CNOT": 0.02},
        "noise_two_qubit_channel": "two-qubit-depolarizing",
        "noise_two_qubit_strength": 0.01,
    },
)

CIRCUIT_ENGINES = ("auto", "ensemble", "ptm", "trajectory")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------


def _wire(kind: str, body: Mapping[str, Any]) -> Dict[str, Any]:
    from repro.api import SCHEMA_VERSION, canonical_json

    return json.loads(canonical_json({"schema_version": SCHEMA_VERSION, "kind": kind, **body}))


def _seed(rng) -> int:
    return int(rng.integers(2**31))


def _inputs(rng, tiny: bool) -> List[Dict[str, Any]]:
    """Estimate inputs: explicit complexes and point clouds."""
    from repro.datasets.point_clouds import circle_cloud, figure_eight_cloud
    from repro.experiments.worked_example import APPENDIX_SIMPLICES
    from repro.tda.random_complexes import random_simplicial_complex

    inputs = [
        {"simplices": [list(s) for s in APPENDIX_SIMPLICES]},
        {"points": circle_cloud(8, noise=0.05, seed=_seed(rng)).tolist(), "epsilon": 0.9},
    ]
    if tiny:
        return inputs
    for vertices in (5, 7):
        complex_ = random_simplicial_complex(vertices, seed=_seed(rng))
        inputs.append({"simplices": [list(s.vertices) for s in complex_.simplices()]})
    square = rng.uniform(-1.0, 1.0, size=(9, 2))
    eight = figure_eight_cloud(10, noise=0.05, seed=_seed(rng))
    inputs.append({"points": square.tolist(), "epsilon": 0.8, "max_dimension": 2})
    inputs.append({"points": eight.tolist(), "epsilon": 0.7})
    return inputs


def _estimates(rng, tiny: bool) -> Iterator[Dict[str, Any]]:
    from repro.core.backends import available_backends
    from repro.core.backends.statevector import PTM_AUTO_QUBIT_THRESHOLD

    inputs = _inputs(rng, tiny)
    circuit_backends = ("statevector", "trotter")
    for backend in ("exact",) if tiny else available_backends():
        if backend in circuit_backends:
            continue
        for index, geometry in enumerate(inputs):
            for k in (0, 1):
                for shots in (None, 500):
                    config = {"backend": backend, "precision_qubits": 3 + index % 2, "shots": shots,
                              "seed": _seed(rng)}
                    yield _wire("estimate", {**geometry, "k": k, "config": config})
    circuit_inputs = inputs[:1] if tiny else inputs[:3]
    for backend in ("statevector",) if tiny else circuit_backends:
        for geometry in circuit_inputs:
            for noise in ({},) + (NOISE_MODELS[:1] if tiny else NOISE_MODELS):
                for engine in ("ptm", "trajectory") if tiny else CIRCUIT_ENGINES:
                    config = {
                        "backend": backend, "circuit_engine": engine, "precision_qubits": 3,
                        "delta": 6.0, "n_trajectories": 4, "seed": _seed(rng),
                        "shots": None if engine == "ptm" else 1000, **noise,
                    }
                    yield _wire("estimate", {**geometry, "k": 1, "config": config})
    if tiny:
        return
    appendix = inputs[0]
    noisy = {"backend": "statevector", "delta": 6.0, "shots": None, "n_trajectories": 2, "seed": 3,
             **NOISE_MODELS[0]}
    # auto above the ptm budget (t + q = 13) falls back to trajectories.
    yield _wire("estimate", {**appendix, "k": 1, "config": {**noisy, "precision_qubits": 11}})
    # An explicit ptm over the budget: refused at route resolution (t + q = 13)
    # or, once t alone reaches the threshold, at validation.
    for precision_qubits in (PTM_AUTO_QUBIT_THRESHOLD - 1, PTM_AUTO_QUBIT_THRESHOLD):
        config = {**noisy, "circuit_engine": "ptm", "precision_qubits": precision_qubits}
        yield _wire("estimate", {**appendix, "k": 1, "config": config})
    # Client errors: an unclosed complex and a float vertex label.
    yield _wire("estimate", {"simplices": [[0], [1], [0, 1], [0, 1, 2]], "k": 1})
    yield _wire("estimate", {"simplices": [[0.5], [1], [0.5, 1]], "k": 0})


def _clouds(rng, count: int) -> List[List[List[float]]]:
    from repro.datasets.point_clouds import circle_cloud

    return [circle_cloud(10, noise=0.1, seed=_seed(rng)).tolist() for _ in range(count)]


def _series(rng, count: int, length: int) -> List[List[float]]:
    from repro.datasets.gearbox import generate_gearbox_signal

    return [
        generate_gearbox_signal(length, faulty=bool(i % 2), seed=_seed(rng)).tolist()
        for i in range(count)
    ]


def _pipelines(rng, tiny: bool) -> List[Dict[str, Any]]:
    takens = {"takens_delay": 2, "takens_stride": 4}
    pipelines = [{"use_quantum": False, **takens}]
    if tiny:
        return pipelines
    estimators = [
        {"backend": backend, "precision_qubits": 3, "shots": 500, "seed": _seed(rng)}
        for backend in ("exact", "stochastic-trace", "statevector")
    ]
    noisy = {"backend": "statevector", "precision_qubits": 3, "shots": 500, "seed": 5, **NOISE_MODELS[0]}
    return pipelines + [{"use_quantum": True, **takens, "estimator": e} for e in estimators + [noisy]]


def _batch_requests(rng, tiny: bool) -> Iterator[Dict[str, Any]]:
    import numpy as np

    from repro.tda.distances import pairwise_distances

    for pipeline in _pipelines(rng, tiny):
        clouds = _clouds(rng, 2 if tiny else 3)
        series = _series(rng, 2, 160)
        exact = {"point_clouds": clouds, "epsilon": 0.8, "include_exact": True, "pipeline": pipeline}
        yield _wire("pipeline", exact)
        yield _wire("sweep", {"point_clouds": clouds, "epsilons": [0.5, 0.9], "pipeline": pipeline})
        if tiny:
            continue
        distances = [pairwise_distances(np.asarray(c)).tolist() for c in clouds]
        yield _wire("pipeline", {"point_clouds": clouds, "pipeline": pipeline})
        yield _wire("pipeline", {"time_series": series, "epsilon": 1.0, "pipeline": pipeline})
        yield _wire("pipeline", {"distance_matrices": distances, "epsilon": 0.8, "pipeline": pipeline})
        yield _wire("sweep", {"time_series": series, "epsilons": [0.6, 1.0, 1.4], "pipeline": pipeline})


def _experiments(tiny: bool) -> Iterator[Dict[str, Any]]:
    appendix = {"backend": "exact", "shots": 200, "seed": 2}
    yield _wire("experiment", {"experiment": "appendix", "params": appendix})
    if tiny:
        return
    for params in (
        {"backend": "statevector", "shots": 200, "seed": 2, "include_drawing": True},
        {"backend": "statevector", "shots": None, "seed": 2, **NOISE_MODELS[0]},
        {"backend": "statevector", "shots": 200, "seed": 2, "circuit_engine": "trajectory",
         "n_trajectories": 3, **NOISE_MODELS[1]},
    ):
        yield _wire("experiment", {"experiment": "appendix", "params": params})
    yield _wire("experiment", {"experiment": "fig3", "params": {
        "complex_sizes": [5], "num_complexes": 2, "shots_grid": [100], "precision_grid": [1, 3]}})
    yield _wire("experiment", {"experiment": "table1", "params": {
        "num_rows": 24, "num_healthy": 8, "precision_grid": [1, 3]}})
    yield _wire("experiment", {"experiment": "fig4", "params": {
        "num_rows": 24, "num_healthy": 8, "num_scales": 4, "repetitions": 2}})
    yield _wire("experiment", {"experiment": "timeseries", "params": {
        "num_samples_per_class": 3, "window_length": 300}})
    yield _wire("experiment", {"experiment": "timeseries", "params": {
        "num_samples_per_class": 3, "window_length": 300, "use_quantum": False}})


def _observe_sequences(rng, tiny: bool) -> Iterator[Dict[str, Any]]:
    sessions = _pipelines(rng, tiny)[: 1 if tiny else 3]
    for index, pipeline in enumerate(sessions):
        signal = _series(rng, 1, 400)[0]
        cuts = (0, 40, 200, 400) if not tiny else (0, 200, 400)
        base = {"session": f"digest-{index}", "window_length": 96, "stride": 32,
                "epsilons": [0.6, 1.1], "pipeline": pipeline}
        for start, stop in zip(cuts, cuts[1:]):
            yield _wire("observe", {**base, "samples": signal[start:stop]})
        if not tiny:
            # A later chunk that changes the session's configuration is refused.
            yield _wire("observe", {**base, "stride": 16, "samples": signal[:8]})


def build_corpus(tiny: bool) -> List[Dict[str, Any]]:
    """The wire documents of the corpus, in the order they are posted."""
    import numpy as np

    rng = np.random.default_rng(CORPUS_SEED)
    corpus: List[Dict[str, Any]] = []
    corpus.extend(_estimates(rng, tiny))
    corpus.extend(_batch_requests(rng, tiny))
    corpus.extend(_experiments(tiny))
    corpus.extend(_observe_sequences(rng, tiny))
    return corpus


# ---------------------------------------------------------------------------
# Digest
# ---------------------------------------------------------------------------


def _estimator_settings(document: Mapping[str, Any]) -> Mapping[str, Any]:
    """The backend and noise settings a request document asks for."""
    kind = document.get("kind")
    if kind == "estimate":
        return document.get("config") or {}
    if kind == "experiment":
        return document.get("params") or {}
    pipeline = document.get("pipeline") or {}
    if not pipeline.get("use_quantum", True):
        return {"backend": "classical-exact"}
    return pipeline.get("estimator") or {}


def _noisy(settings: Mapping[str, Any]) -> bool:
    strengths = ("noise_strength", "noise_two_qubit_strength", "readout_error")
    if settings.get("noise_gate_strengths"):
        return True
    return any((settings.get(name) or 0) > 0 for name in strengths)


def route_of(document: Mapping[str, Any], status: int, response: Mapping[str, Any]) -> str:
    """``backend[/engine_route][+noise]``: the served route, or the asked one if refused."""
    settings = _estimator_settings(document)
    if status == 200:
        provenance = response["provenance"]
        route = provenance["backend"]
        if provenance.get("engine_route"):
            route += "/" + provenance["engine_route"]
    else:
        route = settings.get("backend", "exact")
        if settings.get("circuit_engine"):
            route += "/" + settings["circuit_engine"]
    if document.get("kind") == "experiment":
        route = f"{document.get('experiment')}:{route}"
    return route + ("+noise" if _noisy(settings) else "")


def stable_document(response: Mapping[str, Any]) -> Dict[str, Any]:
    """The response without the fields that vary from run to run."""
    stable = {key: value for key, value in response.items() if key != "coalesced"}
    if "provenance" in stable:
        stable["provenance"] = {
            key: value for key, value in stable["provenance"].items() if key not in PER_RUN_PROVENANCE
        }
    return stable


def digest(tiny: bool) -> Dict[str, Any]:
    from repro.api import canonical_json
    from repro.serve import QTDAServer, ServeConfig

    # Refused executions are recorded as 500s below; their tracebacks are noise here.
    logging.getLogger("repro.serve").setLevel(logging.CRITICAL)
    records = []
    server = QTDAServer(ServeConfig(port=0))  # never started: no socket traffic
    try:
        for index, document in enumerate(build_corpus(tiny)):
            raw = canonical_json(document)
            status, response, _ = server.handle_post(document["kind"], raw.encode("utf-8"), "digest")
            record = {
                "id": f"{index:04d}",
                "kind": document["kind"],
                "route": route_of(document, status, response),
                "status": status,
                "request_sha256": sha256(raw),
                "sha256": sha256(canonical_json(stable_document(response))),
            }
            if status >= 500:
                record["error"] = response["error"]["message"]
            records.append(record)
    finally:
        server.stop()
    return {"size": "tiny" if tiny else "full", "records": records}


def coverage_lines(records: List[Mapping[str, Any]]) -> List[str]:
    routes: Dict[str, Counter] = defaultdict(Counter)
    for record in records:
        routes[record["kind"]][record["route"]] += 1
    distinct = {route for counter in routes.values() for route in counter}
    lines = [f"coverage: {len(routes)} kinds x {len(distinct)} routes, {len(records)} requests"]
    for kind in sorted(routes):
        cells = ", ".join(f"{route} {count}" for route, count in sorted(routes[kind].items()))
        lines.append(f"  {kind}: {cells}")
    return lines


def compare(before: Mapping[str, Any], after: Mapping[str, Any]) -> Tuple[int, List[str]]:
    """The number of differing requests and a report grouped by kind and route."""
    left, right = before["records"], after["records"]
    if [r["request_sha256"] for r in left] != [r["request_sha256"] for r in right]:
        raise SystemExit("the two files digest different corpora (size or generator differ)")
    groups: Dict[Tuple[str, str], List[str]] = defaultdict(list)
    for old, new in zip(left, right):
        if (old["status"], old["sha256"]) != (new["status"], new["sha256"]):
            change = "payload"
            if old["status"] != new["status"]:
                change = f"status {old['status']} -> {new['status']}"
            groups[(old["kind"], old["route"])].append(f"{old['id']} ({change})")
    differing = sum(len(ids) for ids in groups.values())
    lines = coverage_lines(left)
    lines.append(f"identical: {len(left) - differing} of {len(left)} requests")
    for (kind, route), ids in sorted(groups.items()):
        lines.append(f"differ: {kind} {route}: {', '.join(ids)}")
    return differing, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("digest", help="digest the corpus into a JSON file")
    run.add_argument("output")
    run.add_argument("--size", choices=("tiny", "full"), default="full")
    check = commands.add_parser("compare", help="compare two digest files")
    check.add_argument("before")
    check.add_argument("after")
    args = parser.parse_args(argv)

    if args.command == "digest":
        result = digest(args.size == "tiny")
        with open(args.output, "w") as handle:
            json.dump(result, handle, indent=1, sort_keys=True)
            handle.write("\n")
        statuses = Counter(record["status"] for record in result["records"])
        print("\n".join(coverage_lines(result["records"])))
        print("statuses: " + ", ".join(f"{code} x{count}" for code, count in sorted(statuses.items())))
        for record in result["records"]:
            if "error" in record:
                print(f"  {record['id']} {record['kind']} {record['route']}: {record['error']}")
        return 0
    with open(args.before) as handle:
        before = json.load(handle)
    with open(args.after) as handle:
        after = json.load(handle)
    differing, lines = compare(before, after)
    print("\n".join(lines))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
