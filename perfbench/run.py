"""The repository benchmark: seeded QTDA request workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-exact --seed 1 --seconds 28 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` measures the same workload twice, half the time each: once
untraced, then with every layer function wrapped in a span
(:mod:`perfbench.tracing`), and reports per-layer self times, counters and
the tracing overhead.  Every response is checked against an independent
oracle (:mod:`perfbench.oracle`) after the timed window; a mismatch counts
as a failed request.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 - the clock above must start before the imports
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

# One BLAS thread: on a 2-core host a second, spin-waiting BLAS worker
# competes with the caller thread, and a 64x64 @ 64x4096 product swung 4.7x
# between processes with two threads against 1.5x with one.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    # Measure the program beside the benchmark, never an installed copy.
    sys.exit(f"perfbench: no program source at {ROOT / 'src' / 'repro'}")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from repro.core.api import request_from_dict  # noqa: E402

from perfbench.tracing import TIMED_METRICS, Tracer, summarise  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload  # noqa: E402

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics (``--trace 1``) that are not self times, with units.
LAYER_COUNTERS: Tuple[Tuple[str, str], ...] = (
    ("serve.coalesce_hit_ratio", "ratio"),
    ("serve.coalescer_calls", "count"),
    ("serve.rejected", "count"),
    ("api.result_cache_hit_ratio", "ratio"),
    ("api.run_calls", "count"),
    ("tda.simplices", "count"),
    ("hamiltonian.spectrum_hit_ratio", "ratio"),
    ("hamiltonian.spectrum_lookups", "count"),
    ("circuit.gates", "count"),
    ("circuit.builds", "count"),
    ("fusion.ptm_cache_hit_ratio", "ratio"),
    ("fusion.ptm_cache_lookups", "count"),
    ("fusion.plan_cache_hit_ratio", "ratio"),
    ("fusion.plan_cache_lookups", "count"),
    ("fusion.fused_superops", "count"),
    ("fusion.ptm_programs", "count"),
    ("ptm.state_mb_computed", "MB"),
    ("ptm.memo_hit_ratio", "ratio"),
    ("ptm.memo_lookups", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage", "ratio"),
    ("trace.requests", "count"),
    ("input.distinct_fingerprints", "count"),
)

PER_LAYER: Tuple[Tuple[str, str], ...] = tuple((name, "ms") for name in TIMED_METRICS) + LAYER_COUNTERS

#: Answers the latencies rest on, so that ten lie beyond p95.
MIN_REQUESTS = 200
SETUP_REPEATS = 3
SPAN_DIR = ROOT / ".perfbench"


@dataclass
class Record:
    document: Dict[str, Any]
    response: Any
    latency_s: float
    error: Optional[str]


def start_workload(name: str, seed: int) -> Workload:
    """Construct the service (or server) and warm it up: the set-up a caller pays."""
    workload = WORKLOADS[name](seed)
    workload.start()
    workload.warm_up()
    return workload


def drive(workload: Workload, seconds: float, min_answers: int, tracer: Optional[Tracer] = None):
    """Closed-loop load from ``workload.callers`` callers; returns ``(records, wall_s)``.

    Each caller generates its next document (outside the timed call), sends
    it and waits for the answer.  The window closes once ``seconds`` have
    passed and ``min_answers`` answers arrived, and at ``2 * seconds`` in any
    case.
    """
    records: List[Record] = []
    answered = 0
    lock = threading.Lock()
    done = threading.Event()
    start = time.perf_counter()
    deadline, cutoff = start + seconds, start + 2 * seconds

    def caller_loop(caller: int) -> None:
        nonlocal answered
        try:
            while not done.is_set():
                document = workload.next_document(caller)
                span = tracer.request() if tracer is not None else contextlib.nullcontext()
                response, error = None, None
                sent = time.perf_counter()
                try:
                    prepared = workload.prepare(document)
                    sent = time.perf_counter()
                    with span:
                        response = workload.send(caller, prepared)
                except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
                    error = f"{type(exc).__name__}: {exc}"
                now = time.perf_counter()
                with lock:
                    records.append(Record(document, response, now - sent, error))
                    answered += error is None
                    if (now >= deadline and answered >= min_answers) or now >= cutoff:
                        done.set()
        finally:
            # A caller that dies stops the others; its exception surfaces below.
            done.set()

    with ThreadPoolExecutor(max_workers=workload.callers, thread_name_prefix="perfbench-caller") as pool:
        futures = [pool.submit(caller_loop, caller) for caller in range(workload.callers)]
        for future in futures:
            future.result()
    return records, time.perf_counter() - start


def answers(records: List[Record]) -> List[Record]:
    return [record for record in records if record.error is None]


def verify(workload: Workload, records: List[Record]) -> Tuple[int, int]:
    """Oracle-check the answered requests; returns ``(mismatches, checked)``.

    A systematic shot-noise shift over the run fails every checked answer.
    """
    answered = answers(records)
    indices = workload.checked(len(answered))
    mismatches = 0
    for index in indices:
        record = answered[index]
        try:
            reason = workload.mismatch(record.document, record.response)
        except Exception as exc:  # noqa: BLE001 - a malformed answer is a wrong answer
            reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            mismatches += 1
            print(f"oracle mismatch ({workload.name}): {reason}", file=sys.stderr)
    reason = workload.tally.mismatch()
    if reason is not None:
        print(f"oracle mismatch ({workload.name}): {reason}", file=sys.stderr)
        mismatches = len(indices)
    return mismatches, len(indices)


def timing_metrics(records: List[Record], wall_s: float) -> Dict[str, float]:
    latencies = np.asarray([record.latency_s for record in answers(records)]) * 1000.0
    return {
        "throughput_rps": len(latencies) / wall_s,
        "latency_p50_ms": float(np.percentile(latencies, 50)),
        "latency_p95_ms": float(np.percentile(latencies, 95)),
    }


def distinct_fingerprints(records: List[Record]) -> int:
    return len({request_from_dict(record.document).fingerprint() for record in records})


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of a fresh process doing the same set-up as this one."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--setup-probe"],
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])


def write_spans(tracer: Tracer, name: str, seed: int) -> Path:
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans-{name}-{seed}.jsonl"
    with path.open("w") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span.as_dict()) + "\n")
    return path


def traced_run(workload: Workload, seconds: float, min_answers: int, name: str, seed: int):
    """Half the window untraced, half traced; returns ``(records, wall_s, per-layer metrics)``."""
    untraced, untraced_s = drive(workload, seconds / 2.0, min_answers)
    tracer = Tracer()
    before = workload.counters()
    with tracer.installed():
        traced, traced_s = drive(workload, seconds / 2.0, min_answers, tracer)
    after = workload.counters()
    layer = {**summarise(tracer.spans), **workload.counter_metrics(before, after)}
    hits = layer.pop("api.result_cache_hits")
    layer["api.result_cache_hit_ratio"] = hits / layer["api.run_calls"] if layer["api.run_calls"] else 0.0
    plain_rps = len(answers(untraced)) / untraced_s
    layer["trace.overhead_pct"] = 100.0 * (plain_rps - len(answers(traced)) / traced_s) / plain_rps
    print(f"spans written to {write_spans(tracer, name, seed)}")
    return untraced + traced, untraced_s + traced_s, layer


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = start_workload(args.workload, args.seed)
    setup_s = time.perf_counter() - PROCESS_START
    if args.setup_probe:
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    try:
        if args.trace == 0:
            records, wall_s = drive(workload, args.seconds, MIN_REQUESTS)
        else:
            records, wall_s, layer = traced_run(
                workload, args.seconds, MIN_REQUESTS // 2, args.workload, args.seed
            )
    finally:
        workload.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    call_errors = len(records) - len(answers(records))
    for record in records:
        if record.error is not None:
            print(f"request failed ({args.workload}): {record.error}", file=sys.stderr)
    if not answers(records):
        sys.exit(f"perfbench: no {args.workload} request was answered")
    mismatches, checked = verify(workload, records)
    failed = call_errors + mismatches
    distinct = distinct_fingerprints(records)
    setups = [setup_s] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]

    end_to_end = {
        **timing_metrics(records, wall_s),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    print(
        f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
        f"load=closed-loop callers={workload.callers} requests={len(records)} "
        f"wall_s={wall_s:.3f} failed={failed} "
        f"oracle_checked={checked} shot_z={workload.tally.score:.2f}/{workload.tally.count} "
        f"distinct_fingerprints={distinct} "
        f"setups_s={[round(s, 3) for s in setups]}"
    )
    for name, unit in END_TO_END:
        print(f"  {name:<32} {end_to_end[name]:>14.4f} {unit}")
    print(f"  {'error_rate':<32} {failed / len(records):>14.4f} ratio")

    if args.trace == 0:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}
    else:
        layer["input.distinct_fingerprints"] = distinct
        for name, unit in PER_LAYER:
            print(f"  {name:<32} {layer[name]:>14.4f} {unit}")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
