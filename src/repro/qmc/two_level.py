"""Two-level ensemble x domain parallelism for the strip driver.

The paper's massively-parallel story composes two orthogonal axes on
one machine: an *ensemble* of independent replicas (different seeds,
optionally different temperatures) where each replica is itself
*domain-decomposed* over a strip of processors.  This module builds
that composition out of :meth:`Communicator.split`:

* world ranks ``[r*P, (r+1)*P)`` form replica ``r``'s **domain
  sub-communicator** (``split(color=replica, ...)``), inside which the
  unchanged :func:`~repro.qmc.parallel.worldline_strip_program` logic
  runs -- the strip driver only ever uses comm-relative ranks, so a
  P-rank domain behaves exactly like a flat P-rank world;
* the ``R`` domain leaders (domain rank 0) form the **ensemble
  sub-communicator** (``split(..., label="ensemble")``), over which
  replica statistics are pooled.  The ``ensemble`` label routes its
  clock charges to the ``ensemble``/``ensemble_wait`` categories, so
  telemetry reports ensemble-swap and halo traffic as separate
  per-level comm fractions.

**Bit-identity anchor.**  A replica's trajectory consumes randomness
only from the strip driver's rank-count-independent sweep streams
(seeded by ``sweep_seed``), never from communicator traffic, and a
domain allreduce at ``P`` ranks combines in exactly the order a flat
``P``-rank run uses.  A composed ``R x P`` run is therefore
bit-identical, replica by replica, to ``R`` independent flat strip
runs with the same per-replica seeds -- the correctness anchor the
test suite asserts on all three backends.

**Fault containment.**  Ensemble traffic is the only coupling between
replicas, and every ensemble operation here tolerates a
:class:`~repro.vmp.faults.RankFailure`: if one replica's domain dies,
the surviving replicas complete their own trajectories (with
``ensemble_degraded=True`` and no pooled series) instead of cascading.

**Checkpointing.**  Each replica checkpoints into its own
``replica####/`` subdirectory using the strip driver's per-rank
bundles (fingerprinted at ``n_ranks=P``), and world rank 0 writes a
``layout.json`` manifest recording ``R x P``.  A resume validates the
manifest first: a flat-layout checkpoint directory (no manifest) or a
mismatched geometry is rejected with a clear error before any rank
state is touched.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.obs.online import Welford, gelman_rubin_from_pooled_sums
from repro.qmc.parallel import (
    WorldlineStripConfig,
    _health_monitor,
    _run_decomposed,
    _StripState,
)
from repro.vmp.faults import RankFailure

__all__ = [
    "TwoLevelConfig",
    "two_level_program",
    "replica_checkpoint_dir",
    "read_layout_manifest",
]

_MANIFEST = "layout.json"


@dataclass(frozen=True)
class TwoLevelConfig:
    """Composed ensemble x domain run: ``replicas`` strips of ``domain_ranks``.

    ``base`` is the per-replica strip configuration; replica ``r`` runs
    it with ``sweep_seed = sweep_seeds[r]`` (default: ``base.sweep_seed
    + r``, giving independent trajectories) and ``beta = betas[r]``
    when a temperature ladder is given.  ``ensemble_every`` is the
    cadence, in measurement steps, of the in-run ensemble heartbeat
    (leaders pool the latest energy estimate; 0 disables it).
    """

    replicas: int
    domain_ranks: int
    base: WorldlineStripConfig
    sweep_seeds: tuple[int, ...] | None = None
    betas: tuple[float, ...] | None = None
    ensemble_every: int = 1

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError("need at least one replica")
        if self.domain_ranks < 1:
            raise ValueError("need at least one domain rank per replica")
        if self.sweep_seeds is not None and len(self.sweep_seeds) != self.replicas:
            raise ValueError(
                f"sweep_seeds has {len(self.sweep_seeds)} entries for "
                f"{self.replicas} replicas"
            )
        if self.betas is not None and len(self.betas) != self.replicas:
            raise ValueError(
                f"betas has {len(self.betas)} entries for {self.replicas} replicas"
            )
        if self.ensemble_every < 0:
            raise ValueError("ensemble_every must be >= 0")

    @property
    def n_ranks(self) -> int:
        """World size of the composed run."""
        return self.replicas * self.domain_ranks

    def seed_for(self, replica: int) -> int:
        if self.sweep_seeds is not None:
            return int(self.sweep_seeds[replica])
        return int(self.base.sweep_seed) + replica

    def config_for(self, replica: int) -> WorldlineStripConfig:
        """The flat strip config replica ``replica`` executes."""
        kwargs = {"sweep_seed": self.seed_for(replica)}
        if self.betas is not None:
            kwargs["beta"] = float(self.betas[replica])
        return replace(self.base, **kwargs)


def replica_checkpoint_dir(directory: str | Path, replica: int) -> Path:
    """One replica's bundle subdirectory: ``<directory>/replica0003/``."""
    return Path(directory) / f"replica{replica:04d}"


def read_layout_manifest(directory: str | Path) -> dict:
    """Load and return a checkpoint directory's two-level manifest.

    Raises ``ValueError`` when the manifest is absent (a flat-layout
    checkpoint cannot seed a two-level resume) or malformed.
    """
    path = Path(directory) / _MANIFEST
    if not path.exists():
        raise ValueError(
            f"checkpoint directory {directory} has no {_MANIFEST} manifest: "
            f"it holds a flat-layout checkpoint, which cannot resume a "
            f"two-level (replicas x strip) run"
        )
    manifest = json.loads(path.read_text())
    if manifest.get("layout") != "two-level":
        raise ValueError(
            f"manifest {path} declares layout {manifest.get('layout')!r}, "
            f"expected 'two-level'"
        )
    return manifest


def _write_layout_manifest(directory: str | Path, cfg: TwoLevelConfig) -> None:
    """Atomically write the composed layout's manifest (world rank 0)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / _MANIFEST
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    tmp.write_text(
        json.dumps(
            {
                "layout": "two-level",
                "replicas": cfg.replicas,
                "domain_ranks": cfg.domain_ranks,
            }
        )
    )
    os.replace(tmp, path)


def _validate_resume_layout(directory: str | Path, cfg: TwoLevelConfig) -> None:
    manifest = read_layout_manifest(directory)
    for key, want in (
        ("replicas", cfg.replicas),
        ("domain_ranks", cfg.domain_ranks),
    ):
        got = manifest.get(key)
        if got != want:
            raise ValueError(
                f"checkpoint layout mismatch in {directory}: {key} is "
                f"{got!r}, this run expects {want!r}"
            )


def two_level_program(comm, cfg: TwoLevelConfig, checkpoint=None, health=None) -> dict:
    """SPMD rank program: ``R`` strip replicas over domain sub-communicators.

    Returns on every rank its replica's trajectory (``energy`` /
    ``magnetization`` series, final owned spins, move counters --
    bit-identical to the equivalent flat strip run) plus the
    ensemble-pooled mean series (``ensemble_energy`` /
    ``ensemble_magnetization``; None when pooling was degraded by a
    peer-replica failure).

    Each replica runs the strip driver's own state and run loop
    (:func:`~repro.qmc.parallel._run_decomposed`) on its domain
    sub-communicator; the two-level parts ride along as that loop's
    hooks -- the ensemble heartbeat after each measurement (it pools the
    latest global energy, so a replica's domain reduces at every
    measurement instead of in batches), the layout manifest before each
    checkpoint write.

    ``health`` (a :class:`~repro.obs.health.HealthRules`) enables the
    streaming run-health monitor exactly as in
    :func:`~repro.qmc.parallel.worldline_strip_program`, plus the
    two-level-only diagnostic: at the ensemble heartbeat cadence the
    ``R`` replica leaders pool their streaming energy moments with one
    sum-allreduce over the ensemble communicator (charged to the
    ``ensemble`` clock categories) and evaluate the cross-replica
    Gelman--Rubin R-hat against ``health.rhat_max``.  The monitor adds
    no RNG draws and no domain-level traffic, so trajectories stay
    bit-identical with health on or off.
    """
    R, P = cfg.replicas, cfg.domain_ranks
    if comm.size != R * P:
        raise ValueError(
            f"two-level layout {R} x {P} needs {R * P} ranks, got {comm.size}"
        )
    replica = comm.rank // P
    domain = comm.split(replica, key=comm.rank, name=f"replica{replica}")
    is_leader = domain.rank == 0
    ensemble = comm.split(
        0 if is_leader else None,
        key=comm.rank,
        label="ensemble",
        name="ensemble",
    )

    monitor = _health_monitor(health, comm.rank, replica)
    energy_stats = Welford()
    if checkpoint is not None and checkpoint.resume:
        _validate_resume_layout(checkpoint.directory, cfg)
    degraded = False
    n_syncs = measured = 0

    def heartbeat(s: int, series: dict) -> None:
        """Leaders pool the latest estimate so the run exercises (and
        telemetry measures) ensemble-level traffic at a controlled
        cadence.  A peer-replica failure degrades pooling but never
        this replica's trajectory."""
        nonlocal degraded, n_syncs, measured
        energy = series["energy"][-1]
        measured += 1
        if monitor.enabled:
            energy_stats.push(energy)
        if (
            ensemble is None
            or degraded
            or not cfg.ensemble_every
            or measured % cfg.ensemble_every
        ):
            return
        try:
            ensemble.allreduce(energy)
            n_syncs += 1
            # Cross-replica convergence: pool the leaders' streaming
            # energy moments and check R-hat.  One extra
            # ensemble-charged allreduce per heartbeat; no domain
            # traffic, no RNG, so the trajectory is untouched.
            if monitor.enabled and R >= 2 and measured >= 2:
                count, mean, var = energy_stats.moments()
                sums = ensemble.allreduce(
                    np.array([mean, mean * mean, var], dtype=np.float64)
                )
                rhat = gelman_rubin_from_pooled_sums(
                    count, R, sums[0], sums[1], sums[2]
                )
                monitor.t_model = comm.clock.now
                monitor.observe_rhat("energy", rhat, s)
        except RankFailure:
            degraded = True

    def write_manifest() -> None:
        if comm.rank == 0:
            _write_layout_manifest(checkpoint.directory, cfg)

    replica_checkpoint = checkpoint
    if checkpoint is not None:
        replica_checkpoint = replace(
            checkpoint,
            directory=replica_checkpoint_dir(checkpoint.directory, replica),
        )
    out = _run_decomposed(
        _StripState(domain, cfg.config_for(replica)),
        replica_checkpoint,
        health,
        monitor=monitor,
        on_measure=heartbeat,
        before_save=write_manifest,
    )

    # Pooled mean series, computed once from the full series so resumed
    # runs pool bit-identically to uninterrupted ones.
    pooled_e = pooled_m = None
    if ensemble is not None and not degraded:
        try:
            pooled_e = ensemble.allreduce(out["energy"]) / R
            pooled_m = ensemble.allreduce(out["magnetization"]) / R
        except RankFailure:
            degraded = True
            pooled_e = pooled_m = None
    if is_leader:
        pooled = domain.bcast((pooled_e, pooled_m, degraded), root=0)
    else:
        pooled = domain.bcast(None, root=0)
    pooled_e, pooled_m, degraded = pooled
    out.update(
        replica=replica,
        ensemble_energy=pooled_e,
        ensemble_magnetization=pooled_m,
        n_ensemble_syncs=n_syncs,
        ensemble_degraded=degraded,
    )
    return out
