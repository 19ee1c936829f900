"""Validated run configurations for the high-level API."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import kernels

__all__ = ["ParallelLayout", "XXZRunConfig", "XXZ2DRunConfig", "TfimRunConfig"]


@dataclass(frozen=True)
class ParallelLayout:
    """How a run maps onto the virtual machine.

    strategy:
        ``serial`` | ``strip`` | ``block`` | ``replica``.
    n_ranks:
        Logical processors.
    machine:
        Machine-model name from :data:`repro.vmp.MACHINES`.
    backend:
        Execution backend for the SPMD strategies (``strip``/``block``):
        ``thread`` (default; cooperative in-process scheduler), ``mp``
        (real OS processes), or ``mpi`` (real message passing via
        mpi4py; run the CLI under ``mpiexec -n <n_ranks>``).  All three
        produce bit-identical trajectories at the same seed.
    overlap:
        Run the SPMD sweep drivers with the five-stage halo-overlap
        pipeline (pack -> post -> update interior -> wait -> update
        boundary).  Trajectories stay bit-identical to the lockstep
        path; only the modeled timeline changes.
    kernel:
        Compiled-kernel backend for the checkerboard sweeps:
        ``auto`` (default; best available registry backend), a
        registered backend name (``numpy``/``numba``), or
        ``scalar`` for the per-move reference path.  Every registry
        backend produces the bit-identical trajectory; selection is
        resolved once at run start so an unavailable backend fails
        fast with a :class:`repro.kernels.KernelUnavailableError`.
    replicas:
        Number of independent strip replicas in a two-level ensemble x
        domain run.  With ``replicas > 1`` (``strip`` strategy only)
        the run uses ``replicas * n_ranks`` processors: each replica is
        a strip of ``n_ranks`` domain ranks, and the replica leaders
        pool statistics over an ensemble sub-communicator (see
        :mod:`repro.qmc.two_level`).
    """

    strategy: str = "serial"
    n_ranks: int = 1
    machine: str = "Ideal"
    backend: str = "thread"
    overlap: bool = False
    kernel: str = "auto"
    replicas: int = 1

    def __post_init__(self):
        if self.strategy not in ("serial", "strip", "block", "replica"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        if self.strategy == "serial" and self.n_ranks != 1:
            raise ValueError("serial runs use exactly one rank")
        if self.backend not in ("thread", "mp", "mpi"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.backend != "thread" and self.strategy not in ("strip", "block"):
            raise ValueError(
                f"backend {self.backend!r} applies to the SPMD strategies "
                f"(strip/block); {self.strategy!r} runs in-process"
            )
        if self.overlap and self.strategy not in ("strip", "block"):
            raise ValueError(
                "halo overlap applies to the SPMD strategies (strip/block); "
                f"{self.strategy!r} has no halo to overlap"
            )
        if self.kernel not in ("auto", "scalar", "vectorized") and (
            self.kernel not in kernels.known_backends()
        ):
            raise ValueError(
                f"unknown kernel {self.kernel!r}; expected 'auto', 'scalar', "
                f"'vectorized', or a registered backend "
                f"({', '.join(kernels.known_backends())})"
            )
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.replicas > 1 and self.strategy != "strip":
            raise ValueError(
                "a two-level ensemble (replicas > 1) composes with the "
                f"'strip' strategy only, got {self.strategy!r}"
            )


def _validate_checkpoint_fields(cfg, supported_strategy: str | None) -> None:
    """Shared validation of the checkpoint_every/checkpoint_dir/resume trio.

    ``supported_strategy`` names the layout strategy whose driver
    implements distributed checkpointing (``None``: no driver of this
    config does).
    """
    wants = cfg.checkpoint_every > 0 or cfg.resume
    if cfg.checkpoint_every < 0:
        raise ValueError("checkpoint_every must be >= 0")
    if not wants:
        if cfg.checkpoint_dir is not None:
            raise ValueError(
                "checkpoint_dir given but neither checkpoint_every nor "
                "resume is set"
            )
        return
    if supported_strategy is None:
        raise ValueError(
            f"{type(cfg).__name__} runs do not support distributed "
            f"checkpointing (no domain-decomposed driver)"
        )
    if cfg.layout.strategy != supported_strategy:
        raise ValueError(
            f"distributed checkpointing needs the {supported_strategy!r} "
            f"layout, got {cfg.layout.strategy!r}"
        )
    if cfg.checkpoint_dir is None:
        raise ValueError("checkpointing/resume needs a checkpoint_dir")


def _validate_obs_fields(cfg, span_strategies: tuple[str, ...]) -> None:
    """Shared validation of the metrics_out/trace_out/obs_interval trio.

    ``span_strategies`` names the layout strategies whose drivers run
    under the SPMD scheduler and therefore can export phase-span
    traces; metrics/manifests work for every layout.
    """
    if cfg.obs_interval < 0:
        raise ValueError("obs_interval must be >= 0")
    if cfg.obs_interval > 0 and cfg.metrics_out is None:
        raise ValueError("obs_interval > 0 needs a metrics_out path")
    if cfg.trace_out is not None and cfg.layout.strategy not in span_strategies:
        supported = "/".join(span_strategies) or "(none)"
        raise ValueError(
            f"trace export needs an SPMD layout ({supported}), got "
            f"{cfg.layout.strategy!r}"
        )
    if cfg.trace_out is not None and cfg.layout.backend != "thread":
        raise ValueError(
            "trace export records per-event timelines inside the thread "
            "scheduler; it is not available for the mp/mpi backends "
            "(metrics_out and manifests work on every backend)"
        )


def _validate_health_fields(cfg) -> None:
    """Shared validation of the health/health_rules/events_out trio.

    Health works on every layout (SPMD drivers check in-loop, serial
    samplers stream the same estimators), so the only constraints are
    that the auxiliary knobs require the engine to be on.
    """
    if cfg.health_rules is not None and not cfg.health:
        raise ValueError("health_rules given but health is not enabled")
    if cfg.events_out is not None and not cfg.health:
        raise ValueError("events_out given but health is not enabled")


@dataclass(frozen=True)
class XXZRunConfig:
    """World-line run of the spin-1/2 XXZ chain."""

    n_sites: int
    beta: float
    jz: float = 1.0
    jxy: float = 1.0
    n_slices: int = 16
    periodic: bool = True
    n_sweeps: int = 2000
    n_thermalize: int = 200
    measure_every: int = 1
    seed: int = 0
    layout: ParallelLayout = field(default_factory=ParallelLayout)
    checkpoint_every: int = 0
    checkpoint_dir: str | None = None
    resume: bool = False
    metrics_out: str | None = None
    trace_out: str | None = None
    obs_interval: int = 0
    health: bool = False
    health_rules: str | None = None
    events_out: str | None = None

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.n_slices % 2 or self.n_slices < 4:
            raise ValueError("n_slices must be even and >= 4")
        if self.n_sweeps < 1:
            raise ValueError("need at least one sweep")
        if self.layout.strategy == "block":
            raise ValueError("the chain world-line driver has no block layout")
        if self.layout.strategy == "strip":
            if self.n_sites % 4 or self.n_slices % 4:
                raise ValueError("strip layout needs L % 4 == 0 and n_slices % 4 == 0")
            if not self.periodic:
                raise ValueError("strip layout requires a periodic chain")
        _validate_checkpoint_fields(self, supported_strategy="strip")
        _validate_obs_fields(self, span_strategies=("strip",))
        _validate_health_fields(self)


@dataclass(frozen=True)
class XXZ2DRunConfig:
    """World-line run of the spin-1/2 XXZ model on the square lattice.

    Serial and replica layouts only: the 2-D sampler's segment moves
    have not been domain-decomposed (DESIGN.md lists this as future
    work; the 1-D strip driver demonstrates the technique).
    """

    lx: int
    ly: int
    beta: float
    jz: float = 1.0
    jxy: float = 1.0
    n_slices: int = 16
    n_sweeps: int = 1000
    n_thermalize: int = 100
    measure_every: int = 1
    seed: int = 0
    layout: ParallelLayout = field(default_factory=ParallelLayout)
    checkpoint_every: int = 0
    checkpoint_dir: str | None = None
    resume: bool = False
    metrics_out: str | None = None
    trace_out: str | None = None
    obs_interval: int = 0
    health: bool = False
    health_rules: str | None = None
    events_out: str | None = None

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.n_slices % 4 or self.n_slices < 8:
            raise ValueError("n_slices must be a multiple of 4 and >= 8")
        if self.n_sweeps < 1:
            raise ValueError("need at least one sweep")
        if self.layout.strategy not in ("serial", "replica"):
            raise ValueError(
                "the 2-D world-line sampler supports serial and replica layouts"
            )
        _validate_checkpoint_fields(self, supported_strategy=None)
        _validate_obs_fields(self, span_strategies=())
        _validate_health_fields(self)


@dataclass(frozen=True)
class TfimRunConfig:
    """Transverse-field Ising run via the classical mapping."""

    spatial_shape: tuple[int, ...]
    beta: float
    j: float = 1.0
    gamma: float = 1.0
    n_slices: int = 16
    n_sweeps: int = 2000
    n_thermalize: int = 200
    measure_every: int = 1
    seed: int = 0
    layout: ParallelLayout = field(default_factory=ParallelLayout)
    checkpoint_every: int = 0
    checkpoint_dir: str | None = None
    resume: bool = False
    metrics_out: str | None = None
    trace_out: str | None = None
    obs_interval: int = 0
    health: bool = False
    health_rules: str | None = None
    events_out: str | None = None

    def __post_init__(self):
        if len(self.spatial_shape) not in (1, 2):
            raise ValueError("TFIM runs support chains and square lattices")
        if any(s % 2 or s < 2 for s in self.spatial_shape):
            raise ValueError("spatial extents must be even and >= 2")
        if self.beta <= 0 or self.gamma <= 0:
            raise ValueError("need beta > 0 and gamma > 0")
        if self.n_slices % 2 or self.n_slices < 2:
            raise ValueError("n_slices must be even and >= 2")
        if self.layout.strategy == "strip":
            raise ValueError("TFIM uses 'block' (or serial/replica) layouts")
        _validate_checkpoint_fields(self, supported_strategy="block")
        _validate_obs_fields(self, span_strategies=("block",))
        _validate_health_fields(self)
