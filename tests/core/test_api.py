"""Tests for the service-grade front door (repro.core.api / repro.api).

Covers the request layer (validation, immutability, hashability, wire-format
round trips), the result envelope (schema validation, JSON emission) and —
most importantly — the acceptance criterion that every legacy entry point is
expressible as a request and produces bit-identical numerics through the
service.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.api import (
    SCHEMA_VERSION,
    EstimationRequest,
    EstimationResult,
    ExperimentRequest,
    ObserveRequest,
    PipelineRequest,
    Provenance,
    QTDAService,
    SweepRequest,
    deterministic_request,
    request_from_dict,
)
from repro.core.batch import BatchConfig, BatchFeatureEngine
from repro.core.config import QTDAConfig
from repro.core.estimator import QTDABettiEstimator
from repro.core.pipeline import PipelineConfig, QTDAPipeline
from repro.datasets.point_clouds import circle_cloud
from repro.experiments.worked_example import APPENDIX_SIMPLICES
from repro.tda.complexes import SimplicialComplex

TRIANGLE = ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2))


@pytest.fixture
def clouds():
    return [circle_cloud(10, seed=i) for i in range(3)]


@pytest.fixture
def quantum_pipeline():
    return PipelineConfig(
        epsilon=0.8, estimator=QTDAConfig(precision_qubits=3, shots=100, seed=3)
    )


# -- request layer --------------------------------------------------------------


class TestRequestValidation:
    def test_exactly_one_geometry_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            EstimationRequest(k=1)
        with pytest.raises(ValueError, match="exactly one"):
            EstimationRequest(k=1, simplices=TRIANGLE, points=((0.0, 0.0),), epsilon=1.0)

    def test_points_require_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            EstimationRequest(k=1, points=((0.0, 0.0), (1.0, 0.0)))

    def test_simplices_reject_cloud_only_fields(self):
        with pytest.raises(ValueError, match="point-cloud"):
            EstimationRequest(k=1, simplices=TRIANGLE, epsilon=1.0)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            EstimationRequest(k=-1, simplices=TRIANGLE)

    def test_config_mapping_coerced(self):
        request = EstimationRequest(simplices=TRIANGLE, config={"shots": 5, "seed": 1})
        assert isinstance(request.config, QTDAConfig)
        assert request.config.shots == 5

    def test_geometry_normalised_to_tuples(self):
        request = EstimationRequest(
            k=1, points=np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]]), epsilon=1.5
        )
        assert isinstance(request.points, tuple)
        assert all(isinstance(row, tuple) for row in request.points)

    def test_sweep_requires_epsilons(self):
        with pytest.raises(ValueError, match="epsilons"):
            SweepRequest(point_clouds=[circle_cloud(6, seed=0)], epsilons=())

    def test_pipeline_include_exact_needs_clouds(self):
        series = np.vstack([np.sin(np.linspace(0, 7, 40))] * 2)
        with pytest.raises(ValueError, match="include_exact"):
            PipelineRequest(time_series=series, include_exact=True)

    def test_experiment_name_validated(self):
        with pytest.raises(ValueError, match="experiment"):
            ExperimentRequest(experiment="fig99")

    def test_requests_are_frozen(self):
        request = EstimationRequest(simplices=TRIANGLE)
        with pytest.raises(AttributeError):
            request.k = 2


#: Awkward float64s: a float32 round trip changes most of them.
_FREEZE_BASE = np.array(
    [[1.0 / 3.0, 0.1, 2.5, -1e-17, 1e17, 7.0]] * 6
) + np.arange(6)[:, None] / 7.0


def _as_input(kind, arr):
    """``arr`` as the caller-side container ``kind``."""
    if kind == "list":
        return arr.tolist()
    if kind == "tuple":
        return tuple(map(tuple, arr.tolist())) if arr.ndim == 2 else tuple(arr.tolist())
    if kind == "ndarray":
        return arr
    if kind == "int":
        return np.rint(arr * 10.0).astype(int).tolist()
    return arr.astype(np.float32)


_FREEZERS = {
    "points": lambda x: EstimationRequest(points=x, epsilon=1.0).points,
    "point_clouds": lambda x: PipelineRequest(point_clouds=[x]).point_clouds[0],
    "time_series": lambda x: PipelineRequest(time_series=x).time_series,
    "distance_matrices": lambda x: PipelineRequest(distance_matrices=[x]).distance_matrices[0],
    "samples": lambda x: ObserveRequest(samples=x[0], window_length=5, epsilons=(1.0,)).samples,
}


class TestFreezersShareFloats:
    """Request freezing builds tuples of the caller's own floats, bit-equal to numpy's."""

    @pytest.mark.parametrize("field", sorted(_FREEZERS))
    @pytest.mark.parametrize("kind", ["list", "tuple", "ndarray", "int", "float32"])
    def test_frozen_values_are_bit_equal_python_floats(self, field, kind):
        given = _as_input(kind, _FREEZE_BASE)
        frozen = _FREEZERS[field](given)
        expected = np.asarray(given, dtype=float)
        if field == "samples":
            expected = expected[0]
        values = list(frozen) if field == "samples" else [v for row in frozen for v in row]
        assert all(type(v) is float for v in values)
        assert np.asarray(frozen, dtype=float).tobytes() == expected.tobytes()

    def test_decoded_document_floats_are_shared(self):
        document = json.loads(
            json.dumps(EstimationRequest(points=_FREEZE_BASE, epsilon=1.0).as_dict())
        )
        request = request_from_dict(document)
        assert all(
            got is given
            for got_row, given_row in zip(request.points, document["points"])
            for got, given in zip(got_row, given_row)
        )


class TestNonFiniteInputRejected:
    """NaN never reaches the flag arrays: each field fails validation with a ValueError."""

    def test_estimate_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            EstimationRequest(points=((0.0, 0.0), (1.0, 0.0)), epsilon=float("nan"))

    def test_estimate_points(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="points"):
                EstimationRequest(points=((0.0, 0.0), (bad, 0.0)), epsilon=1.0)

    def test_pipeline_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            PipelineRequest(point_clouds=[circle_cloud(6, seed=0)], epsilon=float("nan"))

    def test_pipeline_config_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            PipelineConfig(epsilon=float("nan"))

    def test_sweep_epsilons(self):
        with pytest.raises(ValueError, match="epsilons"):
            SweepRequest(point_clouds=[circle_cloud(6, seed=0)], epsilons=(0.5, float("nan")))

    def test_observe_epsilons(self):
        with pytest.raises(ValueError, match="epsilons"):
            ObserveRequest(samples=(0.0,), window_length=8, epsilons=(float("nan"),))

    def test_point_clouds(self):
        cloud = circle_cloud(6, seed=0)
        cloud[2, 1] = float("nan")
        with pytest.raises(ValueError, match="point_clouds"):
            PipelineRequest(point_clouds=[cloud])
        with pytest.raises(ValueError, match="point_clouds"):
            SweepRequest(point_clouds=[cloud], epsilons=(0.5,))

    def test_distance_matrices(self):
        matrix = np.array([[0.0, 1.0, np.nan], [1.0, 0.0, 1.0], [np.nan, 1.0, 0.0]])
        with pytest.raises(ValueError, match="distance_matrices"):
            PipelineRequest(distance_matrices=[matrix])

    def test_time_series(self):
        series = np.vstack([np.sin(np.linspace(0, 7, 40))] * 2)
        series[1, 5] = np.inf
        with pytest.raises(ValueError, match="time_series"):
            PipelineRequest(time_series=series)

    def test_observe_samples(self):
        with pytest.raises(ValueError, match="samples"):
            ObserveRequest(samples=(0.0, float("nan")), window_length=8, epsilons=(0.5,))

    def test_infinite_epsilon_is_the_complete_complex(self):
        request = EstimationRequest(points=circle_cloud(5, seed=0), epsilon=float("inf"), k=0)
        assert request.build_complex().f_vector() == (5, 10)


class TestRequestHashingAndRoundTrip:
    def test_hashable_and_equal(self):
        a = EstimationRequest(simplices=TRIANGLE, k=1, config={"seed": 7})
        b = EstimationRequest(simplices=TRIANGLE, k=1, config={"seed": 7})
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_fingerprint_distinguishes_requests(self):
        a = EstimationRequest(simplices=TRIANGLE, k=0)
        b = EstimationRequest(simplices=TRIANGLE, k=1)
        assert a.fingerprint() != b.fingerprint()

    @pytest.mark.parametrize("build", [
        lambda: EstimationRequest(simplices=APPENDIX_SIMPLICES, k=1, config={"shots": 10, "seed": 2}),
        lambda: EstimationRequest(points=circle_cloud(8, seed=1), epsilon=0.9, k=1),
        lambda: PipelineRequest(
            point_clouds=[circle_cloud(6, seed=0)],
            epsilon=0.7,
            pipeline=PipelineConfig(estimator=QTDAConfig(seed=4)),
        ),
        lambda: SweepRequest(
            point_clouds=[circle_cloud(6, seed=0)],
            epsilons=(0.4, 0.8),
            pipeline=PipelineConfig(use_quantum=False),
        ),
        lambda: ExperimentRequest(
            experiment="timeseries",
            params={"num_samples_per_class": 2, "batch": BatchConfig().as_dict()},
        ),
        lambda: ObserveRequest(
            samples=np.sin(np.linspace(0.0, 4.0, 32)),
            session="wire-test",
            window_length=16,
            stride=4,
            epsilons=(0.3, 0.6),
            pipeline=PipelineConfig(estimator=QTDAConfig(seed=5)),
        ),
        # Noise-rich config: per-gate strength overrides (pairs on the wire),
        # two-qubit channel, readout error, trajectory count.
        lambda: EstimationRequest(
            simplices=TRIANGLE,
            k=1,
            config=QTDAConfig(
                precision_qubits=2,
                shots=20,
                backend="statevector",
                circuit_engine="trajectory",
                noise_channel="depolarizing",
                noise_strength=0.01,
                noise_gate_strengths=(("h", 0.02), ("cp", 0.005)),
                noise_two_qubit_channel="two-qubit-depolarizing",
                noise_two_qubit_strength=0.03,
                readout_error=0.01,
                n_trajectories=4,
                seed=2,
            ),
        ),
    ])
    def test_wire_format_round_trip(self, build):
        """as_dict -> actual JSON bytes -> from_dict preserves equality and fingerprint.

        The serialisation goes through real ``bytes`` (encode/decode), the
        path an HTTP body takes — not just ``json.dumps``/``loads`` — so any
        type JSON cannot represent fails here rather than in production.
        """
        request = build()
        wire = json.dumps(request.as_dict()).encode("utf-8")
        data = json.loads(wire.decode("utf-8"))
        assert data["schema_version"] == SCHEMA_VERSION
        rebuilt = request_from_dict(data)
        assert rebuilt == request
        assert rebuilt.fingerprint() == request.fingerprint()
        # And the round trip is idempotent: re-serialising produces the
        # byte-identical document (canonical field ordering, exact floats).
        assert json.dumps(rebuilt.as_dict()).encode("utf-8") == wire

    def test_float64_values_survive_json_bytes_exactly(self):
        """Awkward float64s (1/3, 1e-17, big magnitudes) round-trip exactly —
        JSON's repr-based emission is shortest-round-trip, so byte-level
        equality over HTTP is a sound assertion for the serve layer."""
        cloud = np.array(
            [[1.0 / 3.0, 2.0 / 7.0], [1e-17, 1e17], [np.pi, -np.e], [0.1 + 0.2, 0.0]]
        )
        request = EstimationRequest(points=cloud, epsilon=1.0 / 3.0, k=1)
        wire = json.dumps(request.as_dict()).encode("utf-8")
        rebuilt = request_from_dict(json.loads(wire.decode("utf-8")))
        assert rebuilt.points == request.points  # exact, not approximate
        assert rebuilt.epsilon == request.epsilon

    def test_noise_gate_strengths_normalise_identically_from_wire(self):
        """Mapping and pair-sequence spellings of noise_gate_strengths are the
        same request (same fingerprint) and survive JSON, which only has the
        pair-free object spelling."""
        as_pairs = EstimationRequest(
            simplices=TRIANGLE,
            config=QTDAConfig(noise_channel="depolarizing", noise_gate_strengths=(("h", 0.02),), seed=1),
        )
        as_mapping = EstimationRequest(
            simplices=TRIANGLE,
            config=QTDAConfig(noise_channel="depolarizing", noise_gate_strengths={"h": 0.02}, seed=1),
        )
        assert as_pairs == as_mapping
        assert as_pairs.fingerprint() == as_mapping.fingerprint()
        rebuilt = request_from_dict(json.loads(json.dumps(as_pairs.as_dict())))
        assert rebuilt.config.noise_gate_strengths == {"h": 0.02}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            request_from_dict({"kind": "nope"})

    def test_future_schema_version_rejected(self):
        data = EstimationRequest(simplices=TRIANGLE).as_dict()
        data["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema_version"):
            request_from_dict(data)


def _pinned_corpus():
    """One request per kind: nested noise fields, PipelineConfig, BatchConfig."""
    noisy = QTDAConfig(
        precision_qubits=3,
        shots=200,
        delta=6.0,
        backend="statevector",
        circuit_engine="ptm",
        noise_channel="depolarizing",
        noise_strength=0.02,
        noise_gate_strengths={"c-U": 0.01, "H": 0.005},
        noise_two_qubit_channel="two-qubit-depolarizing",
        noise_two_qubit_strength=0.01,
        readout_error=0.01,
        n_trajectories=4,
        seed=11,
    )
    pipeline = PipelineConfig(
        epsilon=0.7, takens_stride=2, estimator=QTDAConfig(precision_qubits=2, shots=50, seed=4)
    )
    batch = BatchConfig(backend="threads", max_workers=2, chunk_size=1, spectrum_cache_size=8)
    cloud = ((0.0, 0.0), (1.0, 0.0), (0.5, 0.75), (0.25, -0.5))
    series = (0.0, 0.5, 1.0, 0.5, 0.0, -0.5, -1.0, -0.5) * 2
    return {
        "estimate": EstimationRequest(simplices=TRIANGLE, k=1, config=noisy),
        "estimate-points": EstimationRequest(
            points=cloud, epsilon=1.2, k=0, compute_exact=False, config={"seed": 2}
        ),
        "pipeline": PipelineRequest(
            point_clouds=[cloud, cloud[:3]], include_exact=True, pipeline=pipeline, batch=batch
        ),
        "sweep": SweepRequest(
            time_series=[series, series[::-1]], epsilons=(0.4, 0.8), pipeline=pipeline, batch=batch
        ),
        "experiment": ExperimentRequest(
            experiment="timeseries", params={"num_samples_per_class": 2, "batch": batch.as_dict()}
        ),
        "observe": ObserveRequest(
            samples=series, session="pin", window_length=8, stride=2, epsilons=(0.5,), pipeline=pipeline
        ),
    }


class TestWirePins:
    """Literal pins of the wire, so deriving it from the dataclass fields
    cannot drift: the result cache and the coalescer key on fingerprints."""

    FINGERPRINTS = {
        "estimate": "2279a7bdf8d5d2756e944c8cb3dbd28e6298d7661b464bee09ea85db25993f13",
        "estimate-points": "a6e633436b6679cccfcd8c88e6873f961cd50b1edd7c5973c9fc4064802174fd",
        "pipeline": "8d3b89dcf0a01708e94d83f37a8d27f9f34a59e8809e9d84991cbf3e2e4127b7",
        "sweep": "4206b8a3ea3f8944a880955a3ba50149bbe7348131085bc0d2e713eaff2e88a0",
        "experiment": "247f0f72907a5436e98df2c312322ec8c8bdd6a54daa525aaf28e768bff5f0f7",
        "observe": "ea848dd93bedf7c748c587c7b315e11c8ab7f0585c463adbcfd5d8db3d198909",
    }

    def test_fingerprints_are_pinned(self):
        corpus = _pinned_corpus()
        assert {name: r.fingerprint() for name, r in corpus.items()} == self.FINGERPRINTS
        for name, request in corpus.items():
            rebuilt = request_from_dict(json.loads(json.dumps(request.as_dict())))
            assert rebuilt.fingerprint() == self.FINGERPRINTS[name]

    def test_float_series_encode_without_a_call_per_sample(self, monkeypatch):
        """A frozen series of exact floats is copied into the canonical JSON
        as it is, byte-identical to walking it one sample at a time."""
        from repro.core import api

        def walk(value):
            # The per-item walk that the float-series shortcut must match.
            if isinstance(value, float):
                return float(value)
            if isinstance(value, dict):
                return {str(k): walk(v) for k, v in value.items()}
            if isinstance(value, (list, tuple)):
                return [walk(v) for v in value]
            return api._json_safe(value)

        rng = np.random.default_rng(5)
        series = rng.standard_normal((2, 40)) * 10.0 ** rng.integers(-300, 300, (2, 40))
        series[0, :4] = (-0.0, 1.0, 1e-320, 2.0**60)
        request = SweepRequest(time_series=series, epsilons=(0.5, 1.5))
        document = request.as_dict()
        want = json.dumps(walk(document), sort_keys=True, separators=(",", ":"))
        assert api.canonical_json(document) == want
        assert request.fingerprint() == hashlib.sha256(want.encode("utf-8")).hexdigest()

        calls = []
        original = api._json_safe

        def counting(value):
            calls.append(value)
            return original(value)

        monkeypatch.setattr(api, "_json_safe", counting)
        row = request.time_series[0]
        assert counting(row) == list(row) and len(calls) == 1
        # Anything but exact floats still takes the per-item walk.
        assert counting((1.0, np.float64(2.0), 3)) == [1.0, 2.0, 3] and len(calls) == 5
        assert counting([True, 1.0]) == [True, 1.0]

    def test_provenance_keys_are_the_documented_schema(self):
        provenance = Provenance(
            request_kind="estimate",
            request_fingerprint="",
            backend="exact",
            operator_format="dense",
            seed=None,
            wall_time_s=0.0,
        )
        assert set(provenance.as_dict()) == {
            "schema_version",
            "request_kind",
            "request_fingerprint",
            "backend",
            "operator_format",
            "seed",
            "wall_time_s",
            "cache_hits",
            "cache_misses",
            "betti_std",
            "result_cache_hit",
            "engine_route",
            "fused_gates",
            "n_trajectories",
            "noise_spec",
        }


# -- bit-identity with the legacy entry points ----------------------------------


class TestLegacyEquivalence:
    def test_estimator_entry_point(self):
        """QTDABettiEstimator.estimate == service.run(EstimationRequest)."""
        config = QTDAConfig(precision_qubits=4, shots=500, seed=7)
        legacy = QTDABettiEstimator(config).estimate(SimplicialComplex(APPENDIX_SIMPLICES), 1)
        with QTDAService() as service:
            result = service.run(
                EstimationRequest(simplices=APPENDIX_SIMPLICES, k=1, config=config)
            )
        assert result.payload == legacy.as_dict()

    def test_pipeline_entry_point(self, clouds, quantum_pipeline):
        """QTDAPipeline.transform_point_clouds == service.run(PipelineRequest)."""
        legacy = BatchFeatureEngine(quantum_pipeline).transform_point_clouds(clouds)
        shim = QTDAPipeline(quantum_pipeline).transform_point_clouds(clouds)
        with QTDAService() as service:
            result = service.run(
                PipelineRequest(point_clouds=clouds, pipeline=quantum_pipeline)
            )
        assert np.array_equal(result.payload["features"], legacy)
        assert np.array_equal(shim, legacy)

    def test_pipeline_time_series_entry_point(self, quantum_pipeline):
        series = np.vstack([np.sin(np.linspace(0, 4 * np.pi, 60)) + 0.1 * i for i in range(3)])
        legacy = BatchFeatureEngine(quantum_pipeline).transform_time_series(series)
        shim = QTDAPipeline(quantum_pipeline).transform_time_series(series)
        with QTDAService() as service:
            result = service.run(
                PipelineRequest(time_series=series, pipeline=quantum_pipeline)
            )
        assert np.array_equal(result.payload["features"], legacy)
        assert np.array_equal(shim, legacy)

    def test_batch_sweep_entry_point(self, clouds, quantum_pipeline):
        """BatchFeatureEngine.sweep == service.run(SweepRequest)."""
        epsilons = (0.5, 0.8, 1.1)
        legacy = BatchFeatureEngine(quantum_pipeline).sweep(clouds, epsilons)
        with QTDAService() as service:
            result = service.run(
                SweepRequest(point_clouds=clouds, epsilons=epsilons, pipeline=quantum_pipeline)
            )
        assert np.array_equal(result.payload["features"], legacy)

    def test_features_and_exact_entry_point(self, clouds, quantum_pipeline):
        estimated, exact = BatchFeatureEngine(quantum_pipeline).features_and_exact(clouds)
        with QTDAService() as service:
            result = service.run(
                PipelineRequest(point_clouds=clouds, include_exact=True, pipeline=quantum_pipeline)
            )
        assert np.array_equal(result.payload["features"], estimated)
        assert np.array_equal(result.payload["exact"], exact)

    def test_experiment_driver_entry_point(self):
        """run_timeseries_classification == service.run(ExperimentRequest)."""
        from repro.experiments.gearbox_table1 import run_timeseries_classification

        params = {
            "num_samples_per_class": 3,
            "window_length": 200,
            "takens_stride": 24,
            "use_quantum": False,
            "seed": 7,
        }
        legacy = run_timeseries_classification(**params)
        with QTDAService() as service:
            result = service.run(ExperimentRequest(experiment="timeseries", params=params))
        assert result.payload["training_accuracy"] == legacy.training_accuracy
        assert result.payload["validation_accuracy"] == legacy.validation_accuracy
        assert result.payload["epsilon"] == legacy.epsilon
        assert "report" in result.payload


# -- streaming sweeps -----------------------------------------------------------


class TestStreamSweep:
    def test_stream_matches_materialised_sweep(self, clouds, quantum_pipeline):
        epsilons = (0.5, 0.8, 1.1)
        request = SweepRequest(point_clouds=clouds, epsilons=epsilons, pipeline=quantum_pipeline)
        with QTDAService() as service:
            full = service.run(request)
            streamed = list(service.stream_sweep(request))
        assert [r.payload["epsilon"] for r in streamed] == list(epsilons)
        stacked = np.stack([r.payload["features"] for r in streamed])
        assert np.array_equal(stacked, full.payload["features"])

    def test_stream_is_incremental(self, clouds, quantum_pipeline):
        """Results arrive one scale at a time; early exit skips later work."""
        request = SweepRequest(
            point_clouds=clouds, epsilons=(0.5, 0.8, 1.1), pipeline=quantum_pipeline
        )
        with QTDAService() as service:
            stream = service.stream_sweep(request)
            first = next(stream)
            assert first.payload["epsilon_index"] == 0
            assert first.payload["num_epsilons"] == 3
            assert first.payload["features"].shape == (len(clouds), 2)
            stream.close()  # abandoning mid-sweep must not raise

    def test_stream_provenance_populated(self, clouds, quantum_pipeline):
        request = SweepRequest(point_clouds=clouds, epsilons=(0.5, 0.9), pipeline=quantum_pipeline)
        with QTDAService() as service:
            for result in service.stream_sweep(request):
                provenance = result.provenance
                assert provenance.backend == "exact"
                assert provenance.operator_format in ("dense", "sparse")
                assert provenance.request_fingerprint == request.fingerprint()
                assert provenance.wall_time_s >= 0.0
                assert provenance.seed == 3

    def test_stream_rejects_non_sweep_requests(self):
        with QTDAService() as service:
            with pytest.raises(TypeError, match="SweepRequest"):
                next(service.stream_sweep(EstimationRequest(simplices=TRIANGLE)))


# -- the result envelope --------------------------------------------------------


class TestResultEnvelope:
    def test_provenance_fields(self):
        config = QTDAConfig(precision_qubits=3, shots=None, seed=11, backend="stochastic-trace")
        with QTDAService() as service:
            result = service.run(EstimationRequest(simplices=APPENDIX_SIMPLICES, k=1, config=config))
        provenance = result.provenance
        assert provenance.backend == "stochastic-trace"
        assert provenance.operator_format == "sparse"
        assert provenance.seed == 11
        assert provenance.betti_std is not None and provenance.betti_std > 0
        assert provenance.wall_time_s > 0
        assert not provenance.result_cache_hit

    def test_json_emission_validates(self):
        with QTDAService() as service:
            result = service.run(EstimationRequest(simplices=TRIANGLE, k=1, config={"seed": 5}))
        data = json.loads(result.to_json())
        EstimationResult.validate_dict(data)  # must not raise

    @pytest.mark.parametrize("mutate, match", [
        (lambda d: d.pop("schema_version"), "schema_version"),
        (lambda d: d.update(kind="nope"), "kind"),
        (lambda d: d.update(payload=[1, 2]), "payload"),
        (lambda d: d["provenance"].pop("backend"), "missing"),
        (lambda d: d["provenance"].update(request_fingerprint="0" * 64), "fingerprint"),
    ])
    def test_schema_violations_rejected(self, mutate, match):
        with QTDAService() as service:
            result = service.run(EstimationRequest(simplices=TRIANGLE, k=1, config={"seed": 5}))
        data = json.loads(result.to_json())
        mutate(data)
        with pytest.raises(ValueError, match=match):
            EstimationResult.validate_dict(data)

    def test_spectrum_cache_deltas_surface(self):
        request = EstimationRequest(simplices=APPENDIX_SIMPLICES, k=1, config={"seed": 1})
        with QTDAService(result_cache_size=0) as service:
            first = service.run(request)
            second = service.run(request)
        assert first.provenance.cache_misses >= 1
        assert second.provenance.cache_hits >= 1
        assert second.provenance.cache_misses == 0


# -- service behaviour ----------------------------------------------------------


class TestServiceBehaviour:
    def test_result_cache_serves_identical_requests(self):
        request = EstimationRequest(simplices=TRIANGLE, k=1, config={"shots": 50, "seed": 9})
        with QTDAService() as service:
            first = service.run(request)
            second = service.run(request)
            assert not first.provenance.result_cache_hit
            assert second.provenance.result_cache_hit
            assert second.payload == first.payload
            assert service.stats["result_cache_hits"] == 1

    def test_unseeded_requests_bypass_result_cache(self):
        request = EstimationRequest(simplices=TRIANGLE, k=1, config={"shots": 50, "seed": None})
        with QTDAService() as service:
            service.run(request)
            second = service.run(request)
        assert not second.provenance.result_cache_hit

    def test_classical_pipeline_is_cacheable_without_seed(self, clouds):
        request = PipelineRequest(
            point_clouds=clouds, pipeline=PipelineConfig(epsilon=0.8, use_quantum=False)
        )
        with QTDAService() as service:
            service.run(request)
            assert service.run(request).provenance.result_cache_hit

    def test_map_preserves_request_order(self, clouds, quantum_pipeline):
        requests = [
            EstimationRequest(simplices=TRIANGLE, k=0, config={"seed": 1}),
            PipelineRequest(point_clouds=clouds, pipeline=quantum_pipeline),
            EstimationRequest(simplices=TRIANGLE, k=1, config={"seed": 1}),
        ]
        with QTDAService(max_workers=3) as service:
            results = service.map(requests)
        assert [r.request for r in results] == requests
        assert results[0].payload["betti_rounded"] == 1  # β_0 of the hollow triangle
        assert results[2].payload["betti_rounded"] == 1  # β_1

    def test_submit_returns_future(self):
        request = EstimationRequest(simplices=TRIANGLE, k=1, config={"seed": 2})
        with QTDAService() as service:
            future = service.submit(request)
            result = future.result(timeout=30)
        assert result.payload["betti_rounded"] == 1

    def test_closed_service_rejects_submissions(self):
        service = QTDAService()
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(EstimationRequest(simplices=TRIANGLE))

    def test_run_rejects_non_requests(self):
        with QTDAService() as service:
            with pytest.raises(TypeError):
                service.run({"kind": "estimate"})

    def test_run_dict_wire_entry_point(self):
        request = EstimationRequest(simplices=TRIANGLE, k=1, config={"seed": 3})
        with QTDAService() as service:
            result = service.run_dict(json.loads(json.dumps(request.as_dict())))
        assert result.payload["betti_rounded"] == 1


class TestCacheIsolation:
    def test_cached_payload_arrays_are_not_aliased(self, clouds):
        """Mutating a returned feature matrix must not corrupt later cache hits."""
        pipeline = PipelineConfig(epsilon=0.8, use_quantum=False)
        request = PipelineRequest(point_clouds=clouds, pipeline=pipeline)
        with QTDAService() as service:
            first = service.run(request)
            pristine = first.payload["features"].copy()
            first.payload["features"] *= 100.0  # caller-side in-place scaling
            second = service.run(request)
        assert second.provenance.result_cache_hit
        assert np.array_equal(second.payload["features"], pristine)
        assert second.payload["features"] is not first.payload["features"]

    def test_pipeline_shim_returns_fresh_arrays(self, clouds, quantum_pipeline):
        pipeline = QTDAPipeline(quantum_pipeline)
        first = pipeline.transform_point_clouds(clouds)
        pristine = first.copy()
        first *= 100.0
        second = pipeline.transform_point_clouds(clouds)
        assert np.array_equal(second, pristine)


class TestExperimentParamValidation:
    def test_fig3_paper_scale_rejects_unknown_params(self):
        with QTDAService() as service:
            with pytest.raises(TypeError, match="backend"):
                service.run(
                    ExperimentRequest(
                        experiment="fig3", params={"paper_scale": True, "shot_grid": (10,)}
                    )
                )

    def test_classical_timeseries_provenance_backend(self):
        params = {
            "num_samples_per_class": 2,
            "window_length": 200,
            "takens_stride": 24,
            "use_quantum": False,
        }
        with QTDAService() as service:
            result = service.run(ExperimentRequest(experiment="timeseries", params=params))
        assert result.provenance.backend == "classical-exact"


def _generator_seed_pipeline() -> PipelineConfig:
    """A classical pipeline whose estimator seed is a ``np.random.Generator``:
    deterministic (no quantum sampling), but its config cannot serialise."""
    return PipelineConfig(
        epsilon=0.8,
        use_quantum=False,
        estimator=QTDAConfig(precision_qubits=2, seed=np.random.default_rng(1)),
    )


class TestUnserialisableConfigs:
    def test_shim_works_with_generator_seed(self, clouds):
        """Call sites holding a generator seed keep working (shim policy):
        such requests execute fine, they are just uncacheable/unserialisable."""
        config = _generator_seed_pipeline()
        legacy = BatchFeatureEngine(config).transform_point_clouds(clouds[:1])
        shim = QTDAPipeline(config).transform_point_clouds(clouds[:1])
        assert np.array_equal(shim, legacy)

    def test_service_runs_unserialisable_request_uncached(self, clouds):
        request = PipelineRequest(point_clouds=clouds[:1], pipeline=_generator_seed_pipeline())
        with pytest.raises(TypeError):
            request.fingerprint()
        with QTDAService() as service:
            first = service.run(request)
            second = service.run(request)
        assert first.provenance.request_fingerprint == ""
        assert not second.provenance.result_cache_hit
        assert np.array_equal(first.payload["features"], second.payload["features"])

    def test_experiment_batch_none_uses_defaults(self):
        params = {
            "num_rows": 16,
            "num_healthy": 6,
            "precision_grid": (2,),
            "batch": None,
            "seed": 5,
        }
        with QTDAService() as service:
            result = service.run(ExperimentRequest(experiment="table1", params=params))
        assert result.payload["rows"][0]["precision_qubits"] == 2


def test_unserialisable_request_is_still_hashable():
    """hash() must not raise for generator-seeded requests (set/dict use)."""
    config = QTDAConfig(seed=np.random.default_rng(0))
    request = EstimationRequest(simplices=TRIANGLE, config=config)
    assert isinstance(hash(request), int)
    assert request in {request}
    with pytest.raises(TypeError):
        request.fingerprint()


def test_fingerprint_is_memoised():
    request = EstimationRequest(simplices=TRIANGLE, config={"seed": 1})
    assert request.fingerprint() is request.fingerprint()


def test_appendix_json_carries_requested_drawing():
    params = {"shots": 50, "include_drawing": True, "seed": 1, "backend": "exact"}
    with QTDAService() as service:
        result = service.run(ExperimentRequest(experiment="appendix", params=params))
    assert isinstance(result.payload["circuit_drawing"], str)
    assert result.payload["circuit_drawing"].strip()


def test_unversioned_request_dict_rejected():
    """Documents without schema_version are rejected, never assumed current."""
    data = EstimationRequest(simplices=TRIANGLE).as_dict()
    del data["schema_version"]
    with pytest.raises(ValueError, match="schema_version"):
        request_from_dict(data)


def test_request_isolated_from_caller_config_mutation():
    """Mutating the caller's config after building a request must not change
    the request (or its memoised fingerprint / cache identity)."""
    config = QTDAConfig(shots=100, seed=1)
    request = EstimationRequest(simplices=TRIANGLE, config=config)
    before = request.fingerprint()
    config.shots = 10000
    assert request.config.shots == 100
    assert request.fingerprint() == before
    fresh = EstimationRequest(simplices=TRIANGLE, config=config)
    assert fresh.fingerprint() != before


def test_stream_sweep_validates_eagerly():
    """The type check fires at the call site, not at first iteration."""
    with QTDAService() as service:
        with pytest.raises(TypeError, match="SweepRequest"):
            service.stream_sweep(EstimationRequest(simplices=TRIANGLE))


# -- reuse predicate, geometry fingerprint, service lifecycle -------------------


class TestDeterministicRequest:
    def test_seeded_estimation_is_deterministic(self):
        assert deterministic_request(EstimationRequest(simplices=TRIANGLE, config={"seed": 1}))

    def test_unseeded_estimation_is_not(self):
        assert not deterministic_request(EstimationRequest(simplices=TRIANGLE, config={"seed": None}))

    def test_classical_pipeline_is_deterministic_without_seed(self, clouds):
        request = PipelineRequest(
            point_clouds=clouds, pipeline=PipelineConfig(epsilon=0.8, use_quantum=False)
        )
        assert deterministic_request(request)

    def test_observe_is_never_deterministic(self):
        request = ObserveRequest(
            session="s", window_length=8, epsilons=(0.5,),
            pipeline=PipelineConfig(estimator=QTDAConfig(seed=1)),
        )
        assert not deterministic_request(request)

    def test_experiment_with_explicit_none_seed_is_not(self):
        assert not deterministic_request(
            ExperimentRequest(experiment="fig3", params={"seed": None})
        )
        assert deterministic_request(ExperimentRequest(experiment="fig3", params={}))

    def test_matches_service_result_cache_behaviour(self):
        """The predicate and the result cache must never disagree."""
        seeded = EstimationRequest(simplices=TRIANGLE, k=1, config={"shots": 20, "seed": 9})
        unseeded = EstimationRequest(simplices=TRIANGLE, k=1, config={"shots": 20, "seed": None})
        with QTDAService() as service:
            service.run(seeded)
            service.run(unseeded)
            assert service.run(seeded).provenance.result_cache_hit == deterministic_request(seeded)
            assert (
                service.run(unseeded).provenance.result_cache_hit
                == deterministic_request(unseeded)
            )


class TestGeometryFingerprint:
    def test_same_geometry_different_config_share_fingerprint(self):
        a = EstimationRequest(simplices=TRIANGLE, k=1, config={"shots": 10, "seed": 1})
        b = EstimationRequest(simplices=TRIANGLE, k=1, config={"shots": 9999, "seed": 2})
        assert a.fingerprint() != b.fingerprint()
        assert a.geometry_fingerprint() == b.geometry_fingerprint()

    def test_different_geometry_differs(self):
        a = EstimationRequest(simplices=TRIANGLE)
        b = EstimationRequest(simplices=APPENDIX_SIMPLICES)
        c = EstimationRequest(points=circle_cloud(8, seed=1), epsilon=0.9)
        assert len({a.geometry_fingerprint(), b.geometry_fingerprint(), c.geometry_fingerprint()}) == 3

    def test_unserialisable_config_does_not_break_geometry_hash(self):
        """The geometry fingerprint ignores the config, so requests whose
        config cannot serialise still group by geometry."""
        config = QTDAConfig(seed=np.random.default_rng(0))
        request = EstimationRequest(simplices=TRIANGLE, config=config)
        assert request.geometry_fingerprint() == EstimationRequest(simplices=TRIANGLE).geometry_fingerprint()

    def test_memoised(self):
        request = EstimationRequest(simplices=TRIANGLE)
        assert request.geometry_fingerprint() is request.geometry_fingerprint()

    def test_simplices_complex_is_built_once_and_stays_off_the_wire(self):
        """Validation builds the ``simplices`` complex once; build_complex
        returns those read-only arrays, and the wire dict, equality and
        hash do not see them."""
        request = EstimationRequest(simplices=APPENDIX_SIMPLICES, k=1)
        before = request.as_dict()
        first = request.build_complex()
        second = request.build_complex()
        assert first is second
        assert all(a is b for a, b in zip(first.skeleton, second.skeleton))
        assert all(not array.flags.writeable for array in first.skeleton)
        want = SimplicialComplex(APPENDIX_SIMPLICES).arrays
        assert first.num_vertices == want.num_vertices
        assert all(np.array_equal(a, b) for a, b in zip(first.skeleton, want.skeleton))
        assert request.as_dict() == before
        assert request.as_dict() == EstimationRequest(simplices=APPENDIX_SIMPLICES, k=1).as_dict()
        twin = EstimationRequest.from_dict(before)
        assert twin == request and hash(twin) == hash(request)


class TestServiceLifecycle:
    def test_close_is_idempotent(self):
        service = QTDAService()
        service.run(EstimationRequest(simplices=TRIANGLE, k=1, config={"seed": 1}))
        service.close()
        service.close()  # second close must be a no-op, not an error
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(EstimationRequest(simplices=TRIANGLE))


def test_result_envelope_through_json_bytes():
    """The full envelope survives actual JSON bytes and re-validates."""
    request = EstimationRequest(simplices=TRIANGLE, k=1, config={"shots": 50, "seed": 5})
    with QTDAService() as service:
        result = service.run(request)
    wire = json.dumps(result.as_dict()).encode("utf-8")
    data = json.loads(wire.decode("utf-8"))
    EstimationResult.validate_dict(data)
    assert data["payload"]["betti_estimate"] == result.payload["betti_estimate"]
    assert data["provenance"]["request_fingerprint"] == request.fingerprint()
