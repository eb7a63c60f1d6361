"""Command-line interface for the experiment drivers.

Installs as the ``repro-experiments`` console script and lets each of the
paper's experiments be regenerated without writing any Python:

.. code-block:: bash

    repro-experiments list-backends               # registered estimator backends
    repro-experiments appendix                    # Appendix A walkthrough
    repro-experiments fig3 --complexes 10         # error vs shots / precision
    repro-experiments table1 --rows 80            # gearbox Table 1 analogue
    repro-experiments fig4 --scales 7             # accuracy vs grouping scale
    repro-experiments timeseries --windows 12     # Section 5 time-series route
    repro-experiments timeseries --window-stride 64 --stream   # streaming sweep engine
    repro-experiments serve --port 8080           # HTTP/JSON QTDA service (Ctrl-C drains)

Every subcommand prints the same report the corresponding benchmark prints;
``--paper-scale`` switches to the full grids described in EXPERIMENTS.md.
The estimation subcommands accept ``--backend`` (any name from the
:mod:`repro.core.backends` registry) and, for the noisy workload,
``--noise-channel`` / ``--noise-strength`` plus the trajectory-route knobs
``--circuit-engine`` / ``--n-trajectories`` / ``--readout-error``.

The experiment subcommands are executed through the service API
(:mod:`repro.core.api`): each run is an :class:`~repro.core.api.
ExperimentRequest` handed to a :class:`~repro.core.api.QTDAService`, and
``--json`` (on ``fig3``/``table1``/``appendix``/``timeseries``) switches the
output from the human-readable report to the versioned
:class:`~repro.core.api.EstimationResult` envelope — machine-readable JSON
with the experiment payload plus provenance, in the style of the
``BENCH_*.json`` artefacts.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence


def _add_backend_option(parser, default: str = "exact") -> None:
    # Deliberately not `choices=`: resolving the registry here would import
    # the heavy backend modules on every `--help`, and would reject backends
    # registered after the parser was built.  QTDAConfig validates the name
    # against the live registry and its error lists the available backends.
    parser.add_argument(
        "--backend",
        default=default,
        help="estimator backend name (see 'list-backends' for the registry)",
    )


def _add_noise_options(parser) -> None:
    from repro.core.config import CIRCUIT_ENGINES

    parser.add_argument(
        "--noise-channel",
        default=None,
        help=(
            "per-gate noise channel for the circuit backends "
            "(depolarizing, bit-flip, phase-flip or amplitude-damping); "
            "--circuit-engine ptm runs it on the exact density-tensor route"
        ),
    )
    parser.add_argument(
        "--noise-strength",
        type=float,
        default=0.0,
        help="per-gate error probability of the noise channel",
    )
    parser.add_argument(
        "--circuit-engine",
        choices=CIRCUIT_ENGINES,
        default="auto",
        help=(
            "circuit execution route for the statevector/trotter backends "
            "('auto' picks ensemble when noise-free, the exact ptm route for "
            "declarative noise on small registers, trajectory above)"
        ),
    )
    parser.add_argument(
        "--n-trajectories",
        type=int,
        default=8,
        help="stochastic Kraus-unravelling repetitions on the trajectory route",
    )
    parser.add_argument(
        "--readout-error",
        type=float,
        default=0.0,
        help="per-bit readout flip probability applied to measured marginals",
    )


def _add_batch_options(parser) -> None:
    """Batch-engine knobs shared by the feature-extraction subcommands."""
    parser.add_argument(
        "--batch-backend",
        choices=("serial", "threads", "processes"),
        default="serial",
        help="execution backend of the batched feature engine",
    )
    parser.add_argument("--workers", type=int, default=None, help="worker-pool size for parallel backends")
    parser.add_argument("--chunk-size", type=int, default=None, help="samples per submitted worker task")


def _add_json_option(parser) -> None:
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the versioned EstimationResult envelope as JSON instead of the text report",
    )


def _batch_config(args):
    from repro.core.batch import BatchConfig

    return BatchConfig(
        backend=args.batch_backend,
        max_workers=args.workers,
        chunk_size=args.chunk_size,
    )


def _run_experiment(name: str, params: dict, as_json: bool) -> str:
    """Execute one experiment through the service API.

    Returns the rendered text report (identical to the pre-service output)
    or, with ``as_json``, the full result envelope as indented JSON — plus a
    ``service_cache_stats`` block with the service's cumulative cache
    counters (result-cache and spectrum-cache totals, spectrum hit rate).
    """
    import json

    from repro.core.api import ExperimentRequest, QTDAService

    with QTDAService() as service:
        result = service.run(ExperimentRequest(experiment=name, params=params))
        if as_json:
            document = result.as_dict()
            document["service_cache_stats"] = service.cache_stats()
            return json.dumps(document, indent=2)
    return result.payload["report"]


def _add_fig3(subparsers) -> None:
    parser = subparsers.add_parser("fig3", help="Fig. 3: error vs shots and precision qubits")
    parser.add_argument("--complexes", type=int, default=10, help="random complexes per size")
    parser.add_argument("--sizes", type=int, nargs="+", default=[5, 10], help="complex sizes n")
    parser.add_argument("--shots", type=int, nargs="+", default=[100, 1000, 10000], help="shot grid")
    parser.add_argument("--precision", type=int, nargs="+", default=[1, 2, 3, 4, 5, 6], help="precision-qubit grid")
    parser.add_argument("--seed", type=int, default=1234)
    _add_backend_option(parser)
    _add_json_option(parser)


def _add_table1(subparsers) -> None:
    parser = subparsers.add_parser("table1", help="Table 1: gearbox accuracy vs precision qubits")
    parser.add_argument("--rows", type=int, default=80, help="number of feature rows")
    parser.add_argument("--healthy", type=int, default=26, help="number of healthy rows")
    parser.add_argument("--shots", type=int, default=100)
    parser.add_argument("--precision", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    parser.add_argument("--seed", type=int, default=2023)
    _add_backend_option(parser)
    _add_noise_options(parser)
    _add_batch_options(parser)
    _add_json_option(parser)


def _add_fig4(subparsers) -> None:
    parser = subparsers.add_parser("fig4", help="Fig. 4: training accuracy vs grouping scale")
    parser.add_argument("--rows", type=int, default=60)
    parser.add_argument("--healthy", type=int, default=20)
    parser.add_argument("--scales", type=int, default=7)
    parser.add_argument("--repetitions", type=int, default=5)
    parser.add_argument("--seed", type=int, default=13)
    _add_batch_options(parser)


def _add_appendix(subparsers) -> None:
    parser = subparsers.add_parser("appendix", help="Appendix A worked example")
    parser.add_argument("--shots", type=int, default=1000)
    parser.add_argument("--precision", type=int, default=3)
    _add_backend_option(parser, default="statevector")
    _add_noise_options(parser)
    parser.add_argument("--draw", action="store_true", help="include an ASCII drawing of the Fig. 6 circuit")
    parser.add_argument("--seed", type=int, default=1)
    _add_json_option(parser)


def _add_timeseries(subparsers) -> None:
    parser = subparsers.add_parser("timeseries", help="Section 5 raw time-series classification")
    parser.add_argument("--windows", type=int, default=12, help="windows per class")
    parser.add_argument("--window-length", type=int, default=500)
    parser.add_argument("--precision", type=int, default=4)
    parser.add_argument("--shots", type=int, default=100)
    parser.add_argument("--stride", type=int, default=16, help="Takens embedding stride")
    parser.add_argument(
        "--window-stride",
        type=int,
        default=None,
        help=(
            "cut overlapping windows (this many samples between window starts) from one "
            "continuous signal per class instead of the paper's independent windows"
        ),
    )
    parser.add_argument(
        "--stream",
        action="store_true",
        help=(
            "route the overlapping windows through the streaming sweep engine "
            "(one session per class signal, reusing unchanged windows; requires "
            "--window-stride)"
        ),
    )
    parser.add_argument("--classical", action="store_true", help="use exact Betti numbers instead of QPE estimates")
    parser.add_argument(
        "--signal",
        choices=("gearbox", "drift", "adversarial"),
        default="gearbox",
        help=(
            "signal generator: the gearbox rig, the synthetic drift/anomaly "
            "stream, or the drift stream under adversarial corruption "
            "(heavy-tailed impulses + sensor occlusion)"
        ),
    )
    parser.add_argument("--seed", type=int, default=7)
    _add_backend_option(parser)
    _add_noise_options(parser)
    _add_batch_options(parser)
    _add_json_option(parser)


def _add_list_backends(subparsers) -> None:
    subparsers.add_parser(
        "list-backends", help="list the registered estimator backends and their descriptions"
    )


def _add_serve(subparsers) -> None:
    parser = subparsers.add_parser(
        "serve", help="run the network QTDA service over HTTP/JSON (DESIGN.md §15)"
    )
    parser.add_argument("--host", default="127.0.0.1", help="interface to bind")
    parser.add_argument("--port", type=int, default=8080, help="TCP port (0 picks a free port)")
    parser.add_argument(
        "--max-pending", type=int, default=64, help="bound on concurrently admitted requests"
    )
    parser.add_argument(
        "--quota-rate",
        type=float,
        default=None,
        help="per-caller request quota in requests/second (default: no quotas)",
    )
    parser.add_argument(
        "--quota-burst",
        type=float,
        default=None,
        help="per-caller burst capacity (default: max(1, quota rate))",
    )
    parser.add_argument(
        "--no-coalesce",
        action="store_true",
        help="disable in-flight coalescing of identical deterministic requests",
    )
    parser.add_argument("--workers", type=int, default=None, help="service worker-pool size")
    parser.add_argument(
        "--result-cache-size", type=int, default=256, help="service result-cache entries (0 disables)"
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="serve for this many seconds then drain (default: until Ctrl-C)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the experiments of 'Quantum-Enhanced Topological Data Analysis' (arXiv:2302.09553).",
    )
    parser.add_argument("--paper-scale", action="store_true", help="use the full paper-sized parameter grids (slow)")
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_list_backends(subparsers)
    _add_fig3(subparsers)
    _add_table1(subparsers)
    _add_fig4(subparsers)
    _add_appendix(subparsers)
    _add_timeseries(subparsers)
    _add_serve(subparsers)
    return parser


def _run_list_backends(args) -> str:
    from repro.core.backends import available_backends, backend_capabilities, get_backend

    rows = [("name", "format", "noise", "description")]
    for name in available_backends():
        caps = backend_capabilities(get_backend(name))
        rows.append(
            (
                str(caps["name"]),
                str(caps["operator_format"]),
                "yes" if caps["supports_noise"] else "no",
                str(caps["description"]),
            )
        )
    widths = [max(len(row[col]) for row in rows) for col in range(3)]
    lines = ["Registered estimator backends:"]
    for name, fmt, noise, description in rows:
        lines.append(
            f"  {name:<{widths[0]}}  {fmt:<{widths[1]}}  {noise:<{widths[2]}}  {description}"
        )
    return "\n".join(lines)


def _run_fig3(args) -> str:
    if args.paper_scale:
        params = {"paper_scale": True, "backend": args.backend}
    else:
        params = {
            "complex_sizes": tuple(args.sizes),
            "num_complexes": args.complexes,
            "shots_grid": tuple(args.shots),
            "precision_grid": tuple(args.precision),
            "seed": args.seed,
            "backend": args.backend,
        }
    return _run_experiment("fig3", params, args.json)


def _run_table1(args) -> str:
    params = {
        "batch": _batch_config(args).as_dict(),
        "backend": args.backend,
        "noise_channel": args.noise_channel,
        "noise_strength": args.noise_strength,
        "circuit_engine": args.circuit_engine,
        "n_trajectories": args.n_trajectories,
        "readout_error": args.readout_error,
    }
    if args.paper_scale:
        params["paper_scale"] = True
    else:
        params.update(
            num_rows=args.rows,
            num_healthy=args.healthy,
            precision_grid=tuple(args.precision),
            shots=args.shots,
            seed=args.seed,
        )
    return _run_experiment("table1", params, args.json)


def _run_fig4(args) -> str:
    params = {"batch": _batch_config(args).as_dict()}
    if args.paper_scale:
        params["paper_scale"] = True
    else:
        params.update(
            num_rows=args.rows,
            num_healthy=args.healthy,
            num_scales=args.scales,
            repetitions=args.repetitions,
            seed=args.seed,
        )
    return _run_experiment("fig4", params, as_json=False)


def _run_appendix(args) -> str:
    params = {
        "shots": args.shots,
        "precision_qubits": args.precision,
        "backend": args.backend,
        "seed": args.seed,
        "include_drawing": args.draw,
        "noise_channel": args.noise_channel,
        "noise_strength": args.noise_strength,
        "circuit_engine": args.circuit_engine,
        "n_trajectories": args.n_trajectories,
        "readout_error": args.readout_error,
    }
    return _run_experiment("appendix", params, args.json)


def _run_timeseries(args) -> str:
    params = {
        "num_samples_per_class": args.windows,
        "window_length": args.window_length,
        "precision_qubits": args.precision,
        "shots": args.shots,
        "takens_stride": args.stride,
        "window_stride": args.window_stride,
        "streaming": args.stream,
        "seed": args.seed,
        "use_quantum": not args.classical,
        "batch": _batch_config(args).as_dict(),
        "backend": args.backend,
        "noise_channel": args.noise_channel,
        "noise_strength": args.noise_strength,
        "circuit_engine": args.circuit_engine,
        "n_trajectories": args.n_trajectories,
        "readout_error": args.readout_error,
        "signal": args.signal,
    }
    return _run_experiment("timeseries", params, args.json)


def _run_serve(args) -> str:
    """Serve until Ctrl-C (or ``--duration``), then drain and report stats.

    The final ``/v1/stats`` snapshot is returned as the report, so a serve
    run always ends with the same machine-readable summary the live
    endpoint exposes.
    """
    import json
    import time

    from repro.serve import QTDAServer, ServeConfig

    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_pending=args.max_pending,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
        coalesce=not args.no_coalesce,
        max_workers=args.workers,
        result_cache_size=args.result_cache_size,
    )
    server = QTDAServer(config)
    server.start()
    print(
        f"serving QTDA at {server.base_url} "
        "(POST /v1/{estimate,pipeline,sweep,observe}; GET /v1/health, /v1/stats) "
        "— Ctrl-C drains and exits",
        flush=True,
    )
    try:
        if args.duration is not None:
            time.sleep(args.duration)
        else:
            while True:  # pragma: no cover - interactive loop
                time.sleep(3600)
    except KeyboardInterrupt:
        print("interrupt received — draining in-flight requests", flush=True)
    finally:
        stats = server.stats()
        server.stop()
    return json.dumps(stats, indent=2)


_COMMANDS = {
    "list-backends": _run_list_backends,
    "fig3": _run_fig3,
    "table1": _run_table1,
    "fig4": _run_fig4,
    "appendix": _run_appendix,
    "timeseries": _run_timeseries,
    "serve": _run_serve,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    report = _COMMANDS[args.command](args)
    print(report)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
