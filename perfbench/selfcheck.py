"""Self-check of the benchmark at tiny size.

Runs every workload of ``BENCHMARK.json`` for a fraction of a second in
both modes and checks that the last output line carries every named metric
with its unit, that no request failed the oracle, and that the end-to-end
values are positive.  Then checks that the benchmark refuses to run, without
printing a result, in a directory holding only ``BENCHMARK.json`` and the
benchmark's own files.  Run from the repository root::

    python3 perfbench/selfcheck.py

It asserts nothing about speed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: The window closes at twice ``--seconds`` whatever the request count.
TINY = ["--seconds", "0.5"]


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = spec["command"][1:]
    return subprocess.run(
        [sys.executable, *command, "--workload", workload, "--seed", "1", "--trace", str(trace), *TINY],
        cwd=str(cwd),
        capture_output=True,
        text=True,
        timeout=170,
    )


def check_workload(spec: dict, workload: str) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        completed = run(ROOT, workload, trace)
        if completed.returncode != 0:
            raise SystemExit(f"{workload} trace={trace} exited {completed.returncode}:\n{completed.stderr}")
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            raise SystemExit(f"{workload} trace={trace}: unexpected keys {sorted(result)}")
        if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
            raise SystemExit(f"{workload} trace={trace}: {result['failed']} of {result['attempted']} failed")
        expected = {metric["name"]: metric["unit"] for metric in spec[key]}
        got = {name: entry["unit"] for name, entry in result["metrics"].items()}
        if got != expected:
            raise SystemExit(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: {set(got) ^ set(expected)}")
        if trace == 0:
            zero = [name for name, entry in result["metrics"].items() if not entry["value"] > 0]
            if zero:
                raise SystemExit(f"{workload}: end-to-end metrics not positive: {zero}")
        print(f"ok {workload} trace={trace}: {len(got)} metrics, {result['attempted']} requests")


def check_refuses_without_program(workload: str) -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in json.loads((ROOT / "BENCHMARK.json").read_text())["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        completed = run(bare, workload, 0)
        if completed.returncode == 0 or '"metrics"' in completed.stdout:
            raise SystemExit("the benchmark ran without the program beside it")
        print(f"ok refuses to run without the program (exit {completed.returncode})")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        check_workload(spec, workload["name"])
    check_refuses_without_program(spec["workloads"][0]["name"])


if __name__ == "__main__":
    main()
