"""Benchmark-harness configuration.

Every benchmark regenerates one of the paper's tables/figures (or one of the
ablations listed in DESIGN.md) on a reduced grid, prints the corresponding
rows/series, and times the run with pytest-benchmark.  Set the environment
variable ``REPRO_PAPER_SCALE=1`` to run the paper-sized grids instead (much
slower; see EXPERIMENTS.md).

Speedup-gating benchmarks additionally persist their measurements as
machine-readable ``BENCH_<name>.json`` files at the repository root (via
:func:`write_bench_json`), so the performance trajectory is tracked across
PRs and CI can upload the artefacts.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import pytest

#: Repository root — BENCH_<name>.json files land here.
REPO_ROOT = Path(__file__).resolve().parent.parent


def _commit_sha() -> str:
    """HEAD commit (``-dirty`` when uncommitted changes exist), or ``"unknown"``.

    Stamped here by the harness (not by CI workflow scripts) so every
    BENCH_*.json carries its provenance no matter where it was produced —
    laptop, CI, or a paper-scale run.  The dirty marker matters: numbers
    produced by uncommitted code must not be attributed to the clean SHA.
    """
    def _git(*args: str) -> str:
        return subprocess.run(
            ["git", *args],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        ).stdout.strip()

    try:
        sha = _git("rev-parse", "HEAD")
        if not sha:
            return "unknown"
        # The BENCH_*.json artefacts are themselves tracked and rewritten by
        # every benchmark run; they must not count as dirtiness or a clean
        # checkout would stamp '-dirty' the moment its first benchmark ran.
        if _git("status", "--porcelain", "--", ":!BENCH_*.json"):
            sha += "-dirty"
        return sha
    except Exception:
        return "unknown"


def paper_scale_requested() -> bool:
    """Whether the user asked for the full paper-sized parameter grids."""
    return os.environ.get("REPRO_PAPER_SCALE", "0") not in ("", "0", "false", "False")


@pytest.fixture(scope="session")
def paper_scale() -> bool:
    return paper_scale_requested()


def blas_threads() -> Optional[int]:
    """The BLAS thread count pinned through ``OPENBLAS_NUM_THREADS`` (the
    root ``conftest.py`` sets it to 1 unless it is already set), or ``None``
    when unpinned."""
    value = os.environ.get("OPENBLAS_NUM_THREADS", "")
    return int(value) if value.isdigit() else None


def write_bench_json(name: str, payload: dict) -> Path:
    """Persist one benchmark's measurements as ``BENCH_<name>.json``.

    ``payload`` is benchmark-specific (timings in seconds, speedups, scenario
    sizes); a small provenance envelope (benchmark name, paper-scale flag,
    BLAS thread count, python version, commit SHA, ISO-8601 UTC timestamp)
    is added so the files are self-describing when collected as CI
    artefacts or diffed across PRs.
    """
    path = REPO_ROOT / f"BENCH_{name}.json"
    document = {
        "benchmark": name,
        "paper_scale": paper_scale_requested(),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "commit": _commit_sha(),
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        **payload,
    }
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


@pytest.fixture(scope="session")
def bench_json():
    """Session fixture handing benchmarks the :func:`write_bench_json` writer."""
    return write_bench_json
