"""Tests of ``tools/payload_digest.py``: two runs of the tiny corpus agree.

No golden digests are pinned (``eigvalsh`` bits differ between LAPACK
builds); the smoke test checks that the tool runs end to end, covers every
request kind, and gives the same digest for every request twice in a row.
The other tests check the corpus's coverage and the digest's helpers in
process, without posting the corpus.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import REQUEST_KINDS
from repro.core.backends import available_backends

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "payload_digest.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("payload_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_tool(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(TOOL), *args], env=env, capture_output=True, text=True, timeout=300
    )


def test_tiny_corpus_digests_twice_identically(tmp_path):
    outputs = [tmp_path / "first.json", tmp_path / "second.json"]
    for output in outputs:
        run = run_tool("digest", str(output), "--size", "tiny")
        assert run.returncode == 0, run.stderr
    document = json.loads(outputs[0].read_text())
    records = document["records"]
    assert {record["kind"] for record in records} == set(REQUEST_KINDS)
    assert all(record["status"] == 200 for record in records), records
    assert all(len(record["sha256"]) == 64 for record in records)

    compared = run_tool("compare", *map(str, outputs))
    assert compared.returncode == 0, compared.stdout + compared.stderr
    assert f"coverage: {len(REQUEST_KINDS)} kinds x " in compared.stdout
    assert f"identical: {len(records)} of {len(records)} requests" in compared.stdout

    # A request whose answer changed is listed under its kind and route.
    changed = records[0]
    changed["status"], changed["sha256"] = 400, "0" * 64
    outputs[1].write_text(json.dumps(document))
    compared = run_tool("compare", *map(str, outputs))
    assert compared.returncode == 1
    listed = f"differ: {changed['kind']} {changed['route']}: {changed['id']} (status 200 -> 400)"
    assert listed in compared.stdout


def test_full_corpus_covers_every_kind_input_backend_and_engine(tool):
    corpus = tool.build_corpus(tiny=False)
    assert {document["kind"] for document in corpus} == set(REQUEST_KINDS)
    estimates = [d for d in corpus if d["kind"] == "estimate" and "config" in d]
    assert {d["config"]["backend"] for d in estimates} == set(available_backends())
    circuits = [d["config"] for d in estimates if "circuit_engine" in d["config"]]
    for noisy in (False, True):
        engines = {c["circuit_engine"] for c in circuits if tool._noisy(c) == noisy}
        assert engines == set(tool.CIRCUIT_ENGINES)
    assert any("simplices" in d for d in estimates) and any("points" in d for d in estimates)


def test_corpus_is_seeded(tool):
    assert tool.build_corpus(tiny=True) == tool.build_corpus(tiny=True)


def test_stable_document_drops_only_the_per_run_fields(tool):
    provenance = {"backend": "exact", "seed": 7, **{name: 1 for name in tool.PER_RUN_PROVENANCE}}
    response = {"betti": [1, 1], "coalesced": True, "provenance": provenance}
    assert tool.stable_document(response) == {"betti": [1, 1], "provenance": {"backend": "exact", "seed": 7}}
    assert tool.stable_document({"error": {"code": "invalid_request"}}) == {"error": {"code": "invalid_request"}}


@pytest.mark.parametrize(
    "document, status, response, route",
    [
        ({"kind": "estimate", "config": {"backend": "statevector", "circuit_engine": "auto",
                                         "noise_channel": "depolarizing", "noise_strength": 0.01}},
         200, {"provenance": {"backend": "statevector", "engine_route": "ptm"}}, "statevector/ptm+noise"),
        ({"kind": "estimate", "config": {"backend": "statevector", "circuit_engine": "ptm"}},
         400, {"error": {}}, "statevector/ptm"),
        ({"kind": "estimate"}, 400, {"error": {}}, "exact"),
        ({"kind": "experiment", "experiment": "appendix", "params": {"backend": "exact"}},
         200, {"provenance": {"backend": "exact"}}, "appendix:exact"),
        ({"kind": "sweep", "pipeline": {"use_quantum": False}},
         200, {"provenance": {"backend": "classical-exact"}}, "classical-exact"),
    ],
)
def test_route_names_the_served_route_or_the_asked_one_if_refused(tool, document, status, response, route):
    assert tool.route_of(document, status, response) == route


def test_compare_refuses_digests_of_different_corpora(tool):
    record = {"id": "0000", "kind": "estimate", "route": "exact", "status": 200,
              "request_sha256": "a" * 64, "sha256": "b" * 64}
    other = {**record, "request_sha256": "c" * 64}
    assert tool.compare({"records": [record]}, {"records": [record]})[0] == 0
    with pytest.raises(SystemExit, match="different corpora"):
        tool.compare({"records": [record]}, {"records": [other]})
