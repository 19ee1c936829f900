"""Sampler checkpointing: exact resume of a Markov chain.

Long QMC runs on space-shared 1993 machines checkpointed religiously;
this module provides the same facility.  A checkpoint captures the
complete sampler state -- the spin configuration, the random
generator's internal state, and the attempt/accept counters -- so that
``save`` + ``load`` + ``run`` reproduces the uninterrupted trajectory
**bit for bit** (asserted by the test suite).

Usage::

    save_checkpoint(sampler, "run_a.ckpt.npz")
    ...
    fresh = WorldlineChainQmc(model, beta, n_slices)   # same geometry
    load_checkpoint(fresh, "run_a.ckpt.npz")

Works with any sampler exposing ``spins`` (ndarray), ``stream``
(:class:`~repro.util.rng.RankStream`) and the ``n_attempted`` /
``n_accepted`` counters -- i.e. every sampler in :mod:`repro.qmc`.
The TFIM wrapper delegates to its inner classical sampler.

Distributed runs checkpoint *per rank*: each rank of the SPMD drivers
in :mod:`repro.qmc.parallel` writes its own ``rank####.npz`` bundle
(local spins including ghost layers, RNG stream state, sweep counter,
accumulated measurement series) into a shared directory via
:func:`save_rank_checkpoint`; a restarted run with the same rank count
and seed resumes the trajectory **bit-identically**.  The paper's
machines were space-shared with preemption -- per-rank bundles mean no
rank ever holds another rank's state, exactly as on the real hardware
where each node dumped its local memory image.
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
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointConfig",
    "rank_checkpoint_path",
    "save_rank_checkpoint",
    "load_rank_checkpoint",
    "pack_rng_state",
    "restore_rng_state",
]

_FORMAT_VERSION = 1

#: Format of the per-rank distributed bundles (independent of the
#: single-sampler format above).
_DIST_FORMAT_VERSION = 1


def _resolve(sampler):
    """The object actually carrying spins/stream (unwraps TfimQmc)."""
    if hasattr(sampler, "classical"):  # TfimQmc delegates
        return sampler.classical
    return sampler


def save_checkpoint(sampler, path: str | Path) -> None:
    """Write the sampler's complete resumable state to ``path`` (.npz)."""
    target = _resolve(sampler)
    path = Path(path)
    meta = {
        "version": _FORMAT_VERSION,
        "sampler_class": type(target).__name__,
        "shape": list(target.spins.shape),
        "n_attempted": int(getattr(target, "n_attempted", 0)),
        "n_accepted": int(getattr(target, "n_accepted", 0)),
    }
    rng_state = pickle.dumps(target.stream.generator.bit_generator.state)
    np.savez_compressed(
        path,
        spins=target.spins,
        rng_state=np.frombuffer(rng_state, dtype=np.uint8),
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
    )


def load_checkpoint(sampler, path: str | Path) -> None:
    """Restore state saved by :func:`save_checkpoint` into ``sampler``.

    The sampler must have been constructed with the same geometry (its
    spin-array shape is validated); model parameters are the caller's
    responsibility, as they are not part of the mutable state.
    """
    target = _resolve(sampler)
    path = Path(path)
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        if meta["version"] != _FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta['version']}")
        if meta["sampler_class"] != type(target).__name__:
            raise ValueError(
                f"checkpoint holds {meta['sampler_class']} state, sampler is "
                f"{type(target).__name__}"
            )
        spins = data["spins"]
        if list(spins.shape) != list(target.spins.shape):
            raise ValueError(
                f"checkpoint lattice {spins.shape} != sampler lattice "
                f"{target.spins.shape}"
            )
        rng_state = pickle.loads(bytes(data["rng_state"]))
        bit_gen = target.stream.generator.bit_generator
        saved_kind = (
            rng_state.get("bit_generator") if isinstance(rng_state, dict) else None
        )
        if saved_kind != type(bit_gen).__name__:
            raise ValueError(
                f"checkpoint RNG state is for bit generator {saved_kind!r}, "
                f"sampler stream uses {type(bit_gen).__name__!r}; restoring "
                f"would not reproduce the trajectory"
            )
        if hasattr(target, "n_attempted"):
            missing = [k for k in ("n_attempted", "n_accepted") if k not in meta]
            if missing:
                raise ValueError(
                    f"checkpoint is missing sampler counters {missing}; "
                    f"refusing a partial restore (resumed acceptance "
                    f"statistics would be wrong)"
                )
        # All validation passed: mutate the sampler only now, so a bad
        # checkpoint never leaves it half-restored.
        target.spins = spins.astype(target.spins.dtype).copy()
        bit_gen.state = rng_state
        if hasattr(target, "n_attempted"):
            target.n_attempted = meta["n_attempted"]
            target.n_accepted = meta["n_accepted"]
        # Derived caches that depend on the configuration.
        if hasattr(target, "walker"):
            raise ValueError("multicanonical walkers checkpoint via their sampler")


# ======================================================================
# distributed per-rank checkpointing
# ======================================================================


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
