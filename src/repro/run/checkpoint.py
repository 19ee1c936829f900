"""Per-rank checkpointing: exact resume of a distributed run.

Long QMC runs on space-shared 1993 machines checkpointed religiously;
this module provides the same facility.  Each rank of the SPMD drivers
in :mod:`repro.qmc.parallel` writes its own ``rank####.npz`` bundle
(local spins including ghost layers, RNG stream state, sweep counter,
accumulated measurement series) into a shared directory via
:func:`save_rank_checkpoint`; a restarted run with the same rank count
and seed resumes the trajectory **bit-identically** (asserted by the
test suite).  The paper's machines were space-shared with preemption --
per-rank bundles mean no rank ever holds another rank's state, exactly
as on the real hardware where each node dumped its local memory image.
"""

from __future__ import annotations

import json
import os
import pickle
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "CheckpointConfig",
    "rank_checkpoint_path",
    "save_rank_checkpoint",
    "load_rank_checkpoint",
    "pack_rng_state",
    "restore_rng_state",
]

#: Format of the per-rank bundles.
_DIST_FORMAT_VERSION = 1


@dataclass(frozen=True)
class CheckpointConfig:
    """Checkpoint policy handed to the SPMD drivers.

    ``every`` > 0 saves a per-rank bundle after every ``every``-th
    measured sweep; ``resume=True`` restores each rank's bundle from
    ``directory`` before sweeping (the bundles must exist and match the
    run's geometry/rank count).  ``every=0`` with ``resume=True`` is
    valid: finish a restored run without writing further checkpoints.
    """

    directory: str | Path
    every: int = 0
    resume: bool = False

    def __post_init__(self):
        if self.every < 0:
            raise ValueError("checkpoint interval must be >= 0")
        if self.every == 0 and not self.resume:
            raise ValueError(
                "CheckpointConfig with every=0 and resume=False does nothing"
            )


def rank_checkpoint_path(directory: str | Path, rank: int) -> Path:
    """The bundle path of one rank: ``<directory>/rank0003.npz``."""
    return Path(directory) / f"rank{rank:04d}.npz"


def pack_rng_state(generator) -> np.ndarray:
    """A generator's bit-generator state as a uint8 array (npz-storable).

    The state dict carries the bit-generator class name, which
    :func:`restore_rng_state` validates on the way back in.
    """
    return np.frombuffer(
        pickle.dumps(generator.bit_generator.state), dtype=np.uint8
    )


def restore_rng_state(generator, packed: np.ndarray) -> None:
    """Restore :func:`pack_rng_state` output, validating the generator kind."""
    state = pickle.loads(bytes(packed))
    saved_kind = state.get("bit_generator") if isinstance(state, dict) else None
    actual = type(generator.bit_generator).__name__
    if saved_kind != actual:
        raise ValueError(
            f"checkpoint RNG state is for bit generator {saved_kind!r}, "
            f"stream uses {actual!r}"
        )
    generator.bit_generator.state = state


def save_rank_checkpoint(
    directory: str | Path,
    rank: int,
    meta: dict,
    arrays: dict[str, np.ndarray],
    metrics=None,
) -> Path:
    """Atomically write one rank's bundle into ``directory``.

    ``meta`` is JSON-encoded (ints/floats/strings only); ``arrays``
    holds the rank's ndarray state (spins with ghost layers, series,
    packed RNG state...).  The write goes through a same-directory temp
    file and ``os.replace`` so a crash mid-save leaves either the old
    bundle or the new one, never a torn file -- a rank can die *during*
    its checkpoint and the run still restarts cleanly.

    ``metrics`` (a rank scope from :mod:`repro.obs.metrics`, or None)
    records snapshot count, on-disk bytes, and wall duration.
    """
    obs = metrics is not None and metrics.enabled
    if obs:
        t0 = time.perf_counter()
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = rank_checkpoint_path(directory, rank)
    full_meta = dict(meta)
    full_meta["dist_version"] = _DIST_FORMAT_VERSION
    full_meta["rank"] = int(rank)
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            np.savez_compressed(
                fh,
                meta=np.frombuffer(json.dumps(full_meta).encode(), dtype=np.uint8),
                **arrays,
            )
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    if obs:
        metrics.count("checkpoint.count")
        metrics.count("checkpoint.bytes", path.stat().st_size)
        metrics.count("checkpoint.wall_seconds", time.perf_counter() - t0)
    return path


def load_rank_checkpoint(
    directory: str | Path,
    rank: int,
    expect: dict | None = None,
    metrics=None,
) -> tuple[dict, dict[str, np.ndarray]]:
    """Load one rank's bundle; returns ``(meta, arrays)``.

    Every key in ``expect`` must match the stored meta exactly --
    drivers pass the run geometry (driver name, rank count, lattice
    shape, sweep seed) so a resume against the wrong run, wrong ``P``,
    or wrong seed fails loudly instead of producing a silently
    different trajectory.  ``metrics`` records restore count/bytes/wall
    duration when given.
    """
    obs = metrics is not None and metrics.enabled
    if obs:
        t0 = time.perf_counter()
    manifest = Path(directory) / "layout.json"
    if manifest.exists():
        layout = json.loads(manifest.read_text()).get("layout")
        raise ValueError(
            f"{directory} holds a {layout!r} checkpoint, a bundle directory "
            f"a replica under {manifest.name}: its R x P ranks are no run's "
            f"any more (a replica strip's P ranks each hold every replica), "
            f"so it cannot resume this run"
        )
    path = rank_checkpoint_path(directory, rank)
    if not path.exists():
        raise FileNotFoundError(
            f"no checkpoint bundle for rank {rank} at {path}; cannot resume"
        )
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        arrays = {k: data[k].copy() for k in data.files if k != "meta"}
    if meta.get("dist_version") != _DIST_FORMAT_VERSION:
        raise ValueError(
            f"unsupported distributed checkpoint version "
            f"{meta.get('dist_version')!r} in {path} "
            f"(this build reads version {_DIST_FORMAT_VERSION})"
        )
    if meta.get("rank") != rank:
        raise ValueError(
            f"bundle {path} holds rank {meta.get('rank')} state, asked for "
            f"rank {rank}"
        )
    for key, want in (expect or {}).items():
        got = meta.get(key)
        if got != want:
            raise ValueError(
                f"checkpoint mismatch in {path}: {key} is {got!r}, this run "
                f"expects {want!r}"
            )
    if obs:
        metrics.count("checkpoint.restore_count")
        metrics.count("checkpoint.restore_bytes", path.stat().st_size)
        metrics.count(
            "checkpoint.restore_wall_seconds", time.perf_counter() - t0
        )
    return meta, arrays
