"""Property tests: the HTTP adapter answers every bad body with a structured 4xx.

Drives :meth:`QTDAServer.handle_post` directly on a server that is never
started, so no request crosses a socket and nothing is timed.  Inputs are
malformed JSON, non-finite number tokens, wrong value types, unknown
fields, oversized arrays and missing or wrong ``schema_version`` values.
Every one must come back as a 4xx error envelope: never a 500 and never an
exception out of the adapter.  Examples are derandomised, so every run
checks the same inputs.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.api import (
    SCHEMA_VERSION,
    EstimationRequest,
    ObserveRequest,
    PipelineRequest,
    SweepRequest,
)
from repro.core.pipeline import PipelineConfig
from repro.datasets.point_clouds import circle_cloud
from repro.serve import MAX_BODY_BYTES, QTDAServer, ServeConfig

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
