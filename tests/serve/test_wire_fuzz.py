"""Property tests: the HTTP adapter answers every bad body with a structured 4xx.

Drives :meth:`QTDAServer.handle_post` directly on a server that is never
started, so no request crosses a socket and nothing is timed.  Inputs are
malformed JSON, non-finite number tokens, wrong value types, unknown
fields, oversized arrays, missing or wrong ``schema_version`` values,
simplicial complexes that miss a face (closed ones must be served) or
whose vertex labels are not integers in ``[0, 2**63)``,
``precision_qubits`` past ``MAX_PRECISION_QUBITS`` or, on an explicit
``ptm`` route, at ``PTM_AUTO_QUBIT_THRESHOLD``, non-square distance
matrices and time series or observe windows shorter than the Takens span.
Two faults show only at execution: an explicit ``ptm`` whose ``t + q``
exceeds the threshold once the complex is built, and an observe request
that does not match its session.  Every one must come back as a 4xx error
envelope: never a 500 and never an exception out of the adapter.  Examples
are derandomised, so every run checks the same inputs.
"""

import json
from itertools import combinations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.api import (
    SCHEMA_VERSION,
    EstimationRequest,
    ObserveRequest,
    PipelineRequest,
    QTDAService,
    SweepRequest,
    request_from_dict,
)
from repro.core.backends.statevector import PTM_AUTO_QUBIT_THRESHOLD
from repro.core.config import MAX_PRECISION_QUBITS, QTDAConfig
from repro.core.pipeline import PipelineConfig
from repro.datasets.point_clouds import circle_cloud
from repro.serve import MAX_BODY_BYTES, QTDAServer, ServeConfig
from repro.utils.validation import InvalidRequestError

FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)

CLASSICAL = PipelineConfig(use_quantum=False)
CLOUD = circle_cloud(6, seed=0)

#: One valid wire document per served route (JSON round-tripped, as a
#: client would send it).
VALID = {
    route: json.loads(json.dumps(request.as_dict()))
    for route, request in {
        "estimate": EstimationRequest(
            simplices=((0,), (1,), (2,), (0, 1), (0, 2), (1, 2)),
            k=1,
            config={"precision_qubits": 3, "shots": 100, "seed": 7},
        ),
        "pipeline": PipelineRequest(point_clouds=[CLOUD], epsilon=0.8, pipeline=CLASSICAL),
        "sweep": SweepRequest(point_clouds=[CLOUD], epsilons=(0.5, 0.8), pipeline=CLASSICAL),
        "observe": ObserveRequest(
            samples=[0.0, 0.5, 1.0],
            session="fuzz",
            window_length=8,
            stride=4,
            epsilons=(0.5,),
            pipeline=CLASSICAL,
        ),
    }.items()
}
ROUTES = sorted(VALID)

#: Fuzzed fields: every request field, plus every wire field of the
#: estimator config (nested under ``config``).
FIELDS = [
    (route, (key,)) for route in ROUTES for key in VALID[route] if key not in ("schema_version", "kind")
] + [("estimate", ("config", key)) for key in VALID["estimate"]["config"]]

#: Text that no numeric parser reads as a number (no digits, no nan/inf).
TEXT = st.text(alphabet="xyz_", min_size=1, max_size=6)
NUMBER = st.one_of(st.integers(-10, 10**6), st.floats(-1e6, 1e6, allow_nan=False))
NESTED = st.fixed_dictionaries({"nested": st.lists(st.integers(0, 3), max_size=2)})
TEXT_LIST = st.lists(st.lists(TEXT, min_size=1, max_size=2), min_size=1, max_size=2)


def wrong_values(original):
    """Values of a JSON type the field does not take."""
    if isinstance(original, bool):
        return st.one_of(TEXT, NUMBER, NESTED, TEXT_LIST)
    if isinstance(original, (int, float)):
        return st.one_of(TEXT, NESTED, TEXT_LIST)
    if isinstance(original, str):
        return st.one_of(NUMBER, st.booleans(), NESTED, TEXT_LIST)
    return st.one_of(TEXT, NUMBER, st.booleans(), NESTED, TEXT_LIST)


def numeric_paths(node, path=()):
    """Paths of the numeric leaves of a document (bools excluded)."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from numeric_paths(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from numeric_paths(value, path + (index,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


def replaced(document, path, value):
    copy = json.loads(json.dumps(document))
    node = copy
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return copy


@pytest.fixture(scope="module")
def server():
    server = QTDAServer(ServeConfig(port=0))  # never started: no socket traffic
    yield server
    server.stop()


def assert_client_error(server, route, raw):
    status, document, headers = server.handle_post(route, raw, "fuzz")
    assert 400 <= status < 500, (status, document)
    assert document["schema_version"] == SCHEMA_VERSION
    error = document["error"]
    assert error["code"] == status
    assert isinstance(error["reason"], str) and isinstance(error["message"], str)
    assert isinstance(headers, dict)
    json.dumps(document, allow_nan=False)  # the envelope itself is strict JSON
    return error["reason"]


@pytest.mark.parametrize("route", ROUTES)
def test_valid_documents_are_served(server, route):
    """The fuzz seeds are valid, so each mutation below is what breaks them."""
    status, document, _headers = server.handle_post(route, json.dumps(VALID[route]).encode(), "fuzz")
    assert status == 200, document


@FUZZ
@given(route=st.sampled_from(ROUTES), raw=st.binary(max_size=256))
def test_arbitrary_bytes(server, route, raw):
    assert_client_error(server, route, raw)


@FUZZ
@given(route=st.sampled_from(ROUTES), data=st.data())
def test_malformed_json(server, route, data):
    text = json.dumps(VALID[route])
    cut = data.draw(st.integers(0, len(text) - 1), label="cut")
    junk = data.draw(st.sampled_from(["", "{", "]", ",", "'", "\\", "\x00", "\ud800"]), label="junk")
    raw = (text[:cut] + junk).encode("utf-8", "surrogatepass")
    assert assert_client_error(server, route, raw) == "invalid_json"


@FUZZ
@given(
    route=st.sampled_from(ROUTES),
    token=st.sampled_from(["NaN", "Infinity", "-Infinity", "1e999", "-1e999"]),
    data=st.data(),
)
def test_non_finite_numbers(server, route, token, data):
    path = data.draw(st.sampled_from(list(numeric_paths(VALID[route]))), label="path")
    text = json.dumps(replaced(VALID[route], path, "@@")).replace('"@@"', token)
    assert assert_client_error(server, route, text.encode()) == "invalid_json"


@FUZZ
@given(field=st.sampled_from(FIELDS), data=st.data())
def test_wrong_value_types(server, field, data):
    route, path = field
    original = VALID[route]
    for step in path:
        original = original[step]
    value = data.draw(wrong_values(original), label="value")
    document = replaced(VALID[route], path, value)
    assert_client_error(server, route, json.dumps(document).encode())


@FUZZ
@given(route=st.sampled_from(ROUTES), nested=st.booleans(), name=TEXT)
def test_unknown_fields(server, route, nested, name):
    document = json.loads(json.dumps(VALID[route]))
    if nested and route == "estimate":
        document["config"]["unknown_" + name] = 1
    else:
        document["unknown_" + name] = 1
    assert assert_client_error(server, route, json.dumps(document).encode()) == "invalid_request"


@settings(FUZZ, max_examples=6, suppress_health_check=[HealthCheck.too_slow])
@given(route=st.sampled_from(ROUTES), excess=st.integers(1, 4))
def test_oversized_arrays(server, route, excess):
    """An array that takes the body past MAX_BODY_BYTES gets a 413 unparsed."""
    key = {"estimate": "points", "pipeline": "point_clouds", "sweep": "epsilons", "observe": "samples"}[route]
    item = {"points": [0.25, 0.75], "point_clouds": [[0.25, 0.75]], "epsilons": 0.5, "samples": 0.5}[key]
    count = excess * MAX_BODY_BYTES // len(json.dumps(item))
    raw = json.dumps(replaced(VALID[route], (key,), [item] * count)).encode()
    assert len(raw) > MAX_BODY_BYTES
    assert assert_client_error(server, route, raw) == "body_too_large"


@FUZZ
@given(
    route=st.sampled_from(ROUTES),
    version=st.one_of(
        st.none(), st.integers(), st.floats(allow_nan=False, allow_infinity=False), TEXT, NESTED
    ).filter(lambda v: v != SCHEMA_VERSION),
    missing=st.booleans(),
)
def test_missing_or_wrong_schema_version(server, route, version, missing):
    document = json.loads(json.dumps(VALID[route]))
    if missing:
        del document["schema_version"]
    else:
        document["schema_version"] = version
    reason = assert_client_error(server, route, json.dumps(document).encode())
    expected = "missing_schema_version" if missing or version is None else "unsupported_schema_version"
    assert reason == expected


#: A simplex of dimension 0-2 on five vertices, as a sorted vertex tuple.
SIMPLEX = st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True).map(
    lambda vertices: tuple(sorted(vertices))
)


def is_closed(simplices):
    return all(
        face in simplices for simplex in simplices for face in combinations(simplex, len(simplex) - 1) if face
    )


@pytest.mark.parametrize("precision_qubits", [MAX_PRECISION_QUBITS + 1, 34])
def test_precision_qubits_over_the_cap(server, precision_qubits):
    """A small body cannot ask for a ``2^t`` readout past the cap: the wire
    answers 400 at validation instead of a 500 from a failed allocation, and
    in process the config raises the same ``ValueError``."""
    document = replaced(VALID["estimate"], ("config", "precision_qubits"), precision_qubits)
    raw = json.dumps(document).encode()
    assert assert_client_error(server, "estimate", raw) == "invalid_request"
    with pytest.raises(ValueError, match="precision_qubits"):
        QTDAConfig(precision_qubits=precision_qubits)


@pytest.mark.parametrize("precision_qubits", [PTM_AUTO_QUBIT_THRESHOLD, MAX_PRECISION_QUBITS])
def test_explicit_ptm_that_can_never_run(server, precision_qubits):
    """An explicit ``ptm`` at ``t >= PTM_AUTO_QUBIT_THRESHOLD`` exceeds the
    route's ``t + q`` budget on every Laplacian (``q >= 1``): the wire answers
    400 at validation, not a 500 from route resolution, and in process the
    config raises the same ``ValueError`` whatever the backend."""
    ptm = {
        "precision_qubits": precision_qubits,
        "backend": "statevector",
        "circuit_engine": "ptm",
        "noise_channel": "depolarizing",
        "noise_strength": 0.01,
    }
    document = json.loads(json.dumps(VALID["estimate"]))
    document["config"].update(ptm)
    assert assert_client_error(server, "estimate", json.dumps(document).encode()) == "invalid_request"
    for backend in ("statevector", "exact"):
        with pytest.raises(ValueError, match="precision_qubits"):
            QTDAConfig(**{**ptm, "backend": backend})
    assert QTDAConfig(**{**ptm, "precision_qubits": PTM_AUTO_QUBIT_THRESHOLD - 1}).circuit_engine == "ptm"


def test_explicit_ptm_over_the_qubit_budget_at_execution(server):
    """``t = 11`` passes validation, but the hollow triangle's ``Δ_1`` adds
    ``q = 2``: ``t + q = 13`` exceeds ``PTM_AUTO_QUBIT_THRESHOLD``.  Route
    resolution refuses it once the complex is built, and the wire answers
    400, not 500; in process the service raises ``InvalidRequestError``."""
    ptm = {
        "precision_qubits": PTM_AUTO_QUBIT_THRESHOLD - 1,
        "backend": "statevector",
        "circuit_engine": "ptm",
        "noise_channel": "depolarizing",
        "noise_strength": 0.01,
    }
    document = json.loads(json.dumps(VALID["estimate"]))
    document["config"].update(ptm)
    assert assert_client_error(server, "estimate", json.dumps(document).encode()) == "invalid_request"
    with pytest.raises(InvalidRequestError, match="circuit_engine='ptm'"):
        QTDAService().run(request_from_dict(document))


def test_observe_config_that_does_not_match_its_session(server):
    """The first observe request makes the session; a later one with another
    window length is refused at execution with a 400, and the session keeps
    serving requests that match it."""
    first = replaced(VALID["observe"], ("session",), "fuzz-mismatch")
    other = replaced(first, ("window_length",), first["window_length"] * 2)
    status, _, _ = server.handle_post("observe", json.dumps(first).encode(), "fuzz")
    assert status == 200
    assert assert_client_error(server, "observe", json.dumps(other).encode()) == "invalid_request"
    status, _, _ = server.handle_post("observe", json.dumps(first).encode(), "fuzz")
    assert status == 200


@FUZZ
@given(maximal=st.lists(SIMPLEX, min_size=1, max_size=4), close=st.booleans())
@example(maximal=[(0, 1), (1, 2), (0, 2)], close=False)
def test_closed_and_unclosed_complexes(server, maximal, close):
    """A closed complex is served; one that misses a face is a 400, not a
    500, and in process the request raises the ``SimplicialComplex`` message."""
    if close:
        simplices = {face for m in maximal for r in range(1, len(m) + 1) for face in combinations(m, r)}
    else:
        simplices = set(maximal)
    document = replaced(VALID["estimate"], ("simplices",), [list(s) for s in sorted(simplices)])
    raw = json.dumps(document).encode()
    if is_closed(simplices):
        status, body, _headers = server.handle_post("estimate", raw, "fuzz")
        assert status == 200, body
    else:
        assert assert_client_error(server, "estimate", raw) == "invalid_request"
        with pytest.raises(ValueError, match="is missing"):
            EstimationRequest(simplices=sorted(simplices))


@pytest.mark.parametrize(
    "simplices, error",
    [
        ([[0.9], [1.2], [0.9, 1.2]], TypeError),
        ([[1.0], [2.0], [1.0, 2.0]], TypeError),
        ([["0"], ["1"], ["0", "1"]], TypeError),
        ([[True], [False], [False, True]], TypeError),
        ([[0], [10**30], [0, 10**30]], ValueError),
        ([[0], [2**63], [0, 2**63]], ValueError),
        ([[-1], [0], [-1, 0]], ValueError),
    ],
    ids=["fraction", "integral-float", "string", "bool", "10**30", "2**63", "negative"],
)
def test_vertex_labels_follow_the_integer_rules(server, simplices, error):
    """A label is an integer in ``[0, 2**63)``: ``0.9`` is not truncated to
    vertex 0, and a label past int64 is a 400, not a 500."""
    document = replaced(VALID["estimate"], ("simplices",), simplices)
    assert assert_client_error(server, "estimate", json.dumps(document).encode()) == "invalid_request"
    with pytest.raises(error, match="vertex label"):
        EstimationRequest(simplices=simplices)


def test_largest_vertex_label_is_served(server):
    top = 2**63 - 1
    document = replaced(VALID["estimate"], ("simplices",), [[5], [top], [5, top]])
    status, body, _headers = server.handle_post("estimate", json.dumps(document).encode(), "fuzz")
    assert status == 200, body
    assert body["payload"]["exact_betti"] == 0


def test_non_square_distance_matrix(server):
    """A non-square distance matrix is a 400 at validation, not a 500 from
    the flag-complex builder."""
    document = PipelineRequest(distance_matrices=[[[0.0, 1.0], [1.0, 0.0]]], pipeline=CLASSICAL).as_dict()
    document["distance_matrices"] = [[[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]]]
    assert assert_client_error(server, "pipeline", json.dumps(document).encode()) == "invalid_request"
    with pytest.raises(ValueError, match="square"):
        PipelineRequest(distance_matrices=document["distance_matrices"], pipeline=CLASSICAL)


@pytest.mark.parametrize("route", ["pipeline", "sweep"])
@pytest.mark.parametrize("samples, delay", [(3, 2), (20, 50)])
def test_time_series_shorter_than_the_takens_span(server, route, samples, delay):
    """A series too short for one embedded point is a 400, not a 500 from
    the embedding: 3 samples need span (3 - 1) * 2 + 1 = 5, 20 need 101."""
    pipeline = PipelineConfig(use_quantum=False, takens_dimension=3, takens_delay=delay)
    series = [[0.1 * i for i in range(samples)]]
    with pytest.raises(ValueError, match="Takens span"):
        if route == "pipeline":
            PipelineRequest(time_series=series, pipeline=pipeline)
        else:
            SweepRequest(time_series=series, epsilons=(0.5,), pipeline=pipeline)
    document = json.loads(json.dumps(VALID[route]))
    document.pop("point_clouds")
    document["time_series"] = series
    document["pipeline"] = pipeline.as_dict()
    assert assert_client_error(server, route, json.dumps(document).encode()) == "invalid_request"


def test_observe_window_shorter_than_the_takens_span(server):
    """An observe window below the Takens span is a 400 at validation, not a
    500 from the session's streaming engine."""
    pipeline = PipelineConfig(use_quantum=False, takens_dimension=3, takens_delay=2)
    document = replaced(VALID["observe"], ("window_length",), 4)
    document["pipeline"] = pipeline.as_dict()
    document["session"] = "fuzz-short-window"
    assert assert_client_error(server, "observe", json.dumps(document).encode()) == "invalid_request"
    with pytest.raises(ValueError, match="Takens span 5"):
        ObserveRequest(window_length=4, epsilons=(0.5,), pipeline=pipeline)
