"""Per-run manifests: everything needed to attribute and replay a run.

Production QMC campaigns live and die on provenance -- which code, which
seeds, which configuration produced this number?  The manifest is one
JSON document per run holding:

* the run kind and full parameter dict, plus a ``config_hash`` (sha256
  of the canonical-JSON parameters) so runs are groupable/dedupable by
  configuration alone;
* the root RNG seed and derived sweep seeds;
* code provenance: package version, git revision (``"unknown"`` outside
  a checkout), python/numpy/scipy versions, platform;
* the fault plan, if any (repr of each fault event);
* the :class:`~repro.vmp.faults.RunReport` postmortem;
* per-rank metric summaries from the run's
  :class:`~repro.obs.metrics.MetricsRegistry`.

The wall-clock ``written_at`` stamp is the only nondeterministic field;
everything else is a pure function of code state and configuration.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import platform
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

__all__ = [
    "config_hash",
    "git_revision",
    "environment_info",
    "build_manifest",
    "write_manifest",
]

_REPO_ROOT = Path(__file__).resolve().parents[3]


def config_hash(parameters: dict) -> str:
    """sha256 of the canonical-JSON encoding of a parameter dict."""
    canonical = json.dumps(parameters, sort_keys=True, separators=(",", ":"),
                           default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


@functools.cache
def git_revision(repo_root: str | Path | None = None) -> str:
    """The checkout's HEAD sha, or ``"unknown"`` when git is unavailable.

    Asked of ``git`` once per process (and inherited by its forks): the
    code a process runs is the code it imported.
    """
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_root or _REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def environment_info() -> dict:
    """Interpreter/package/platform fingerprint of this run.

    Computed once per process (and inherited by its forks); every call
    hands out its own copy.
    """
    return copy.deepcopy(_environment_info())


@functools.cache
def _environment_info() -> dict:
    import numpy

    info = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
    info["scipy"] = _installed_version("scipy")
    try:
        from repro import __version__

        info["repro"] = __version__
    except ImportError:
        info["repro"] = None
    from repro import kernels

    # Compiled-kernel availability: versions are None for backends the
    # environment lacks, so manifests record what a run *could* use.
    info["numba"] = kernels.backend_version("numba")
    info["kernel_backends"] = list(kernels.available_backends())
    return info


def _installed_version(package: str) -> str | None:
    """``package.__version__``, read from the package's own ``version``
    module run on its own: neither the package (scipy's ``__init__``
    costs ~9 ms) nor :mod:`importlib.metadata` (~20 ms) is imported.
    None if the package or that module is missing."""
    import importlib.util

    try:
        spec = importlib.util.find_spec(package)
        where = Path(spec.submodule_search_locations[0]) / "version.py"
        spec = importlib.util.spec_from_file_location(f"{package}.version", where)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.version
    except (AttributeError, ImportError, OSError, TypeError):
        return None


def _fault_plan_doc(fault_plan) -> list[str] | None:
    if fault_plan is None:
        return None
    return [repr(f) for f in fault_plan.faults]


def build_manifest(
    kind: str,
    parameters: dict,
    seed: int | None = None,
    registry=None,
    report=None,
    fault_plan=None,
    extra: dict | None = None,
) -> dict:
    """Assemble the manifest document (plain JSON-serializable dict).

    ``registry`` is the run's :class:`~repro.obs.metrics.MetricsRegistry`
    (or None); ``report`` the :class:`~repro.vmp.faults.RunReport` (or
    None); ``extra`` merges additional top-level fields (makespan, comm
    fraction, output paths...).
    """
    from datetime import datetime, timezone

    doc = {
        "manifest_version": 1,
        "kind": kind,
        "parameters": parameters,
        "config_hash": config_hash(parameters),
        "seed": seed,
        "git_revision": git_revision(),
        "environment": environment_info(),
        "fault_plan": _fault_plan_doc(fault_plan),
        "run_report": asdict(report) if report is not None else None,
        "rank_metrics": (
            {str(r): m for r, m in registry.summary().items()}
            if registry is not None
            else None
        ),
        "written_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    if extra:
        doc.update(extra)
    return doc


def write_manifest(path: str | Path, manifest: dict) -> Path:
    """Write the manifest JSON to ``path`` (parents created)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True,
                               default=str) + "\n")
    return path
