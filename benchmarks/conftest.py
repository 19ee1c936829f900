"""Shared benchmark fixtures.

Every benchmark regenerates one table or figure of the reconstructed
evaluation (see DESIGN.md).  The rendered text is printed to the
terminal *and* persisted under ``benchmarks/output/`` so EXPERIMENTS.md
can cite stable artifacts.

Two execution tiers:

* full (default) -- production workloads; regenerates the committed
  artifacts and enforces every shape criterion.
* ``--smoke`` -- drastically scaled-down workloads that exercise every
  code path in seconds.  Statistical shape criteria are relaxed (they
  are meaningless at smoke sizes) and artifacts are written under
  ``benchmarks/output/smoke/`` so committed outputs never mix tiers.

All benchmark items also carry the ``tier2_benchmark`` marker, so CI
can run the whole directory as a rot-check with
``pytest benchmarks --smoke -m tier2_benchmark``.
"""

from __future__ import annotations

import os
import subprocess
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

OUTPUT_DIR = Path(__file__).parent / "output"
REPO_ROOT = Path(__file__).resolve().parent.parent


def pytest_addoption(parser):
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help="run benchmarks on scaled-down workloads (seconds, not minutes)",
    )


def pytest_collection_modifyitems(config, items):
    for item in items:
        item.add_marker(pytest.mark.tier2_benchmark)


@pytest.fixture
def smoke(request) -> bool:
    """True when ``--smoke`` was passed: scale workloads down."""
    return bool(request.config.getoption("--smoke"))


@pytest.fixture
def record(request):
    """record(name, text): persist + print one rendered table/figure."""
    out_dir = OUTPUT_DIR
    if request.config.getoption("--smoke"):
        out_dir = OUTPUT_DIR / "smoke"

    def _record(name: str, text: str) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{name}.txt").write_text(text + "\n")
        rel = out_dir.relative_to(REPO_ROOT)
        print(f"\n{text}\n[saved to {rel}/{name}.txt]")

    return _record


def run_once(benchmark, fn):
    """Benchmark a table-producing callable exactly once and return its value."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def run_metadata() -> dict:
    """Provenance stamp for persisted perf records (BENCH_perf.json).

    Git SHA, UTC timestamp, numpy version and CPU count make the perf
    trajectory across PRs attributable to a code state and a host.
    """
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    try:
        # Honest parallelism budget: cgroup/affinity-limited CPU count
        # (CI containers often expose fewer cores than os.cpu_count()).
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cpus = os.cpu_count()
    from repro import kernels

    return {
        "git_sha": sha,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "numpy_version": np.__version__,
        "cpu_count": cpus,
        "kernel_backend": kernels.resolve_kernel("auto"),
        "numba_version": kernels.backend_version("numba"),
    }
