"""Validated run configurations, and each run kind's field table.

A run kind (``xxz`` / ``xxz2d`` / ``tfim``) is declared here once: its
config class adds the model fields, their geometry checks and their
:class:`RunField` rows to :class:`RunConfig`, whose ``run_fields()`` is
then the kind's whole field table -- which ``run-<kind>`` option and
which campaign spec field set which config field.  The CLI builds its
subparsers and its one ``args -> config`` function from that table, the
campaign its allowed fields and the cells' command lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar

from repro import kernels
from repro.vmp.machines import MACHINES

__all__ = [
    "ParallelLayout",
    "RunConfig",
    "XXZRunConfig",
    "XXZ2DRunConfig",
    "TfimRunConfig",
    "RunField",
    "RUN_KINDS",
]


@dataclass(frozen=True)
class RunField:
    """One row of a kind's field table: a ``run-<kind>`` option.

    ``name`` is the field of the run config (or of its ``layout``) the
    option sets -- None for the two options the command itself consumes
    (``--output``, ``--quiet``); ``spec`` the campaign spec field that
    sets it, None where the campaign owns the value (artifact paths) or
    offers none.  ``type`` parses the option's value.  A ``bool`` row is
    a switch away from ``default``: the option takes no value and the
    field is ``default`` without it, ``not default`` with it (so
    ``periodic`` / ``--open-chain`` has ``default=True``).
    """

    name: str | None
    flag: str
    type: Callable[[str], Any] = str
    default: Any = None
    spec: str | None = None
    required: bool = False
    choices: tuple[str, ...] | None = None
    metavar: str | None = None
    help: str | None = None

    @property
    def dest(self) -> str:
        """The attribute argparse stores the option under."""
        return self.flag.lstrip("-").replace("-", "_")


@dataclass(frozen=True)
class ParallelLayout:
    """How a run maps onto the virtual machine.

    strategy:
        ``serial`` | ``strip`` | ``block`` | ``replica``.
    n_ranks:
        Logical processors; under ``replica`` the number of independent
        chains, which all run on one rank.
    machine:
        Machine-model name from :data:`repro.vmp.MACHINES`.
    backend:
        Execution backend for the SPMD strategies (``strip``/``block``):
        ``thread`` (default; one OS thread per rank, in-process), ``mp``
        (real OS processes), or ``mpi`` (real message passing via
        mpi4py; run the CLI under ``mpiexec -n <n_ranks>``).  All three
        produce bit-identical trajectories at the same seed.
    overlap:
        Charge the SPMD sweep drivers' modeled clock the halo-overlap
        schedule (post offloaded -> interior share -> wait -> boundary
        share).  What executes is the lockstep order; only the modeled
        timeline changes.
    kernel:
        Kernel backend for the checkerboard sweeps: ``auto`` (default;
        the best available batched backend) or a registered backend
        name -- ``numpy``, ``numba``, or ``scalar``, the per-move loops
        on every layout, with numpy's trajectory wherever numpy runs.
        Selection is resolved once at run start so an unavailable
        backend fails fast with a
        :class:`repro.kernels.KernelUnavailableError`.
    replicas:
        Number of independent strip replicas (``strip`` strategy only).
        The run still uses ``n_ranks`` processors: each rank holds its
        strip of every replica, stacked and swept together, and the
        result's series are the replicas' mean (see
        :func:`repro.qmc.parallel.worldline_strip_program`).
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
        if self.machine not in MACHINES:
            raise ValueError(
                f"unknown machine {self.machine!r}; expected one of "
                f"{', '.join(sorted(MACHINES))}"
            )
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
        kernels.check_kernel_name(self.kernel)
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.replicas > 1 and self.strategy != "strip":
            raise ValueError(
                "replicas > 1 stack in the 'strip' strategy only, "
                f"got {self.strategy!r}"
            )


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    """What every run kind configures: Monte Carlo schedule, layout, artifacts.

    A kind subclasses this with its model fields, a ``_check_model``
    for their geometry, and the class attributes below.
    """

    #: The kind's name in results, manifests and ``run-<kind>``.
    kind: ClassVar[str]
    #: One line for ``repro --help``.
    summary: ClassVar[str]
    #: The layout strategies the kind runs under.
    strategies: ClassVar[tuple[str, ...]]
    #: The one of them that has a domain-decomposed SPMD driver -- the
    #: only layout that checkpoints and exports phase-span traces -- or
    #: None.
    decomposed: ClassVar[str | None]
    #: The table rows of the kind's model fields.
    model_fields: ClassVar[tuple[RunField, ...]]

    beta: float
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
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.n_sweeps < 1:
            raise ValueError("need at least one sweep")
        if self.n_thermalize < 0:
            raise ValueError("n_thermalize must be >= 0")
        if self.measure_every < 1:
            raise ValueError("measure_every must be >= 1")
        strategy = self.layout.strategy
        if strategy not in self.strategies:
            *head, last = self.strategies
            raise ValueError(
                f"{type(self).__name__} has no {strategy} layout; it supports "
                f"{', '.join(head)} and {last}"
            )
        self._check_model()
        self._check_checkpoint_fields()
        self._check_obs_fields()
        # Health works on every layout (each is a rank program that
        # checks in its run loop), so the only constraint is that the
        # auxiliary knobs need the engine on.
        if self.health_rules is not None and not self.health:
            raise ValueError("health_rules given but health is not enabled")
        if self.events_out is not None and not self.health:
            raise ValueError("events_out given but health is not enabled")

    @classmethod
    def run_fields(cls) -> tuple[RunField, ...]:
        """The kind's field table: model, Monte Carlo, then layout rows.

        The rows' order is the ``run-<kind> --help`` order.  Layout rows
        name :class:`ParallelLayout` fields; only ``--strategy`` differs
        between kinds (its choices are the kind's ``strategies``).
        """
        strategy = RunField(
            "strategy", "--strategy", default="serial", spec="strategy",
            choices=cls.strategies, help="parallelization strategy",
        )
        return cls.model_fields + _MC_FIELDS + (strategy,) + _LAYOUT_FIELDS

    def _check_model(self) -> None:
        """Model-field and geometry checks of the kind."""
        raise NotImplementedError

    def _check_checkpoint_fields(self) -> None:
        """The checkpoint_every / checkpoint_dir / resume trio."""
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if not (self.checkpoint_every > 0 or self.resume):
            if self.checkpoint_dir is not None:
                raise ValueError(
                    "checkpoint_dir given but neither checkpoint_every nor "
                    "resume is set"
                )
            return
        if self.decomposed is None:
            raise ValueError(
                f"{type(self).__name__} runs do not support distributed "
                f"checkpointing (no domain-decomposed driver)"
            )
        if self.layout.strategy != self.decomposed:
            raise ValueError(
                f"distributed checkpointing needs the {self.decomposed!r} "
                f"layout, got {self.layout.strategy!r}"
            )
        if self.checkpoint_dir is None:
            raise ValueError("checkpointing/resume needs a checkpoint_dir")

    def _check_obs_fields(self) -> None:
        """The metrics_out / trace_out / obs_interval trio.

        Only the decomposed layout models time and so has phase spans
        to export; metrics and manifests work for every layout.
        """
        if self.obs_interval < 0:
            raise ValueError("obs_interval must be >= 0")
        if self.obs_interval > 0 and self.metrics_out is None:
            raise ValueError("obs_interval > 0 needs a metrics_out path")
        if self.trace_out is None:
            return
        if self.layout.strategy != self.decomposed:
            raise ValueError(
                f"trace export needs an SPMD layout "
                f"({self.decomposed or '(none)'}), got {self.layout.strategy!r}"
            )
        if self.layout.backend != "thread":
            raise ValueError(
                "trace export records per-event timelines inside the thread "
                "scheduler; it is not available for the mp/mpi backends "
                "(metrics_out and manifests work on every backend)"
            )


@dataclass(frozen=True, kw_only=True)
class XXZRunConfig(RunConfig):
    """World-line run of the spin-1/2 XXZ chain."""

    kind = "xxz"
    summary = "world-line QMC of the XXZ chain"
    strategies = ("serial", "replica", "strip")
    decomposed = "strip"
    model_fields = (
        RunField("n_sites", "--sites", int, spec="n_sites", required=True),
        RunField("jz", "--jz", float, 1.0, spec="jz"),
        RunField("jxy", "--jxy", float, 1.0, spec="jxy"),
        RunField("periodic", "--open-chain", bool, True, spec="periodic",
                 help="open boundaries (default periodic)"),
    )

    n_sites: int
    jz: float = 1.0
    jxy: float = 1.0
    periodic: bool = True

    def _check_model(self) -> None:
        if self.n_slices % 2 or self.n_slices < 4:
            raise ValueError("n_slices must be even and >= 4")
        if self.layout.strategy == "strip":
            if self.n_sites % 4 or self.n_slices % 4:
                raise ValueError("strip layout needs L % 4 == 0 and n_slices % 4 == 0")
            if not self.periodic:
                raise ValueError("strip layout requires a periodic chain")


@dataclass(frozen=True, kw_only=True)
class XXZ2DRunConfig(RunConfig):
    """World-line run of the spin-1/2 XXZ model on the square lattice.

    Serial and replica layouts only: the 2-D sampler's segment moves
    have not been domain-decomposed (DESIGN.md lists this as future
    work; the 1-D strip driver demonstrates the technique).
    """

    kind = "xxz2d"
    summary = "world-line QMC of the 2-D XXZ (Heisenberg) model"
    strategies = ("serial", "replica")
    decomposed = None
    model_fields = (
        RunField("lx", "--lx", int, spec="lx", required=True),
        RunField("ly", "--ly", int, spec="ly", required=True),
        RunField("jz", "--jz", float, 1.0, spec="jz"),
        RunField("jxy", "--jxy", float, 1.0, spec="jxy"),
    )

    lx: int
    ly: int
    jz: float = 1.0
    jxy: float = 1.0
    # Not new fields: this class's defaults for two shared ones, kept
    # from before the shared base (``run-xxz2d`` itself defaults to the
    # table's 2000 / 200 like every kind).
    n_sweeps: int = 1000
    n_thermalize: int = 100

    def _check_model(self) -> None:
        if self.n_slices % 4 or self.n_slices < 8:
            raise ValueError("n_slices must be a multiple of 4 and >= 8")


def lattice_shape(text: str) -> tuple[int, ...]:
    """Parse a ``--shape`` value: ``'32'`` -> ``(32,)``, ``'8x8'`` -> ``(8, 8)``."""
    return tuple(int(x) for x in text.lower().split("x"))


@dataclass(frozen=True, kw_only=True)
class TfimRunConfig(RunConfig):
    """Transverse-field Ising run via the classical mapping."""

    kind = "tfim"
    summary = "transverse-field Ising QMC"
    strategies = ("serial", "replica", "block")
    decomposed = "block"
    model_fields = (
        RunField("spatial_shape", "--shape", lattice_shape, spec="shape",
                 required=True, help="spatial shape, e.g. '32' or '8x8'"),
        RunField("j", "--j", float, 1.0, spec="j"),
        RunField("gamma", "--gamma", float, 1.0, spec="gamma"),
    )

    spatial_shape: tuple[int, ...]
    j: float = 1.0
    gamma: float = 1.0

    def _check_model(self) -> None:
        if len(self.spatial_shape) not in (1, 2):
            raise ValueError("TFIM runs support chains and square lattices")
        if any(s % 2 or s < 2 for s in self.spatial_shape):
            raise ValueError("spatial extents must be even and >= 2")
        if self.gamma <= 0:
            raise ValueError("need gamma > 0")
        if self.n_slices % 2 or self.n_slices < 2:
            raise ValueError("n_slices must be even and >= 2")


#: Run kind name -> its config class.
RUN_KINDS: dict[str, type[RunConfig]] = {
    cls.kind: cls for cls in (XXZRunConfig, XXZ2DRunConfig, TfimRunConfig)
}

_MC_FIELDS = (
    RunField("beta", "--beta", float, spec="beta", required=True,
             help="inverse temperature"),
    RunField("n_slices", "--slices", int, 16, spec="n_slices",
             help="Trotter slices"),
    RunField("n_sweeps", "--sweeps", int, 2000, spec="n_sweeps",
             help="measured sweeps"),
    RunField("n_thermalize", "--thermalize", int, 200, spec="n_thermalize",
             help="warm-up sweeps"),
    RunField("seed", "--seed", int, 0, spec="seed", help="root random seed"),
    RunField(None, "--output", help="save result to PATH.json/.npz"),
    # A campaign sets checkpoint_every; the directory and resume flags
    # that go with it are its own, derived from the run's directory.
    RunField("checkpoint_every", "--checkpoint-every", int, 0,
             spec="checkpoint_every", metavar="N",
             help="save per-rank checkpoints every N sweeps (strip/block "
                  "layouts)"),
    RunField("checkpoint_dir", "--checkpoint-dir", metavar="DIR",
             help="directory for per-rank checkpoint bundles"),
    RunField("resume", "--resume", bool, False,
             help="resume bit-identically from --checkpoint-dir"),
    RunField("metrics_out", "--metrics-out", metavar="PATH",
             help="write per-rank metrics as JSONL (plus a manifest.json "
                  "next to it)"),
    RunField("trace_out", "--trace-out", metavar="PATH",
             help="write a Chrome trace_event JSON of the run's phase spans "
                  "(strip/block layouts; open in Perfetto)"),
    RunField("obs_interval", "--obs-interval", int, 0, metavar="N",
             help="snapshot metrics every N sweeps into --metrics-out "
                  "(0: summaries only); with --health also sets the "
                  "health-check cadence"),
    RunField("health", "--health", bool, False,
             help="enable the streaming run-health engine (online "
                  "convergence estimators + alert rules; trajectories "
                  "stay bit-identical to a run without it)"),
    RunField("health_rules", "--health-rules", metavar="PATH",
             help="JSON file overriding the default health rules "
                  "(implies nothing without --health)"),
    RunField("events_out", "--events-out", metavar="PATH",
             help="write health events as JSONL (requires --health)"),
    RunField(None, "--quiet", bool, False,
             help="suppress the human-readable summary on stdout "
                  "(file sinks are still written)"),
)

_LAYOUT_FIELDS = (
    RunField("n_ranks", "--ranks", int, 1, spec="ranks", help="virtual processors"),
    RunField("machine", "--machine", default="Ideal", spec="machine",
             choices=tuple(sorted(MACHINES)), help="machine cost model"),
    RunField("backend", "--backend", default="thread", spec="backend",
             choices=("thread", "mp", "mpi"),
             help="execution backend for strip/block layouts; 'mpi' expects "
                  "the command to run under "
                  "'mpiexec -n RANKS python -m repro ...'"),
    RunField("overlap", "--overlap", bool, False, spec="overlap",
             help="overlap halo exchanges with interior updates in the "
                  "strip/block sweep drivers (bit-identical trajectories, "
                  "shorter modeled makespan)"),
    RunField("kernel", "--kernel", default="auto", spec="kernel",
             help="sweep kernel backend: 'auto' (best available), 'numpy', "
                  "'numba', or 'scalar', the per-move loops on every "
                  "layout, with numpy's trajectory wherever numpy runs "
                  "(default: auto)"),
    RunField("replicas", "--replicas", int, 1, spec="replicas", metavar="R",
             help="R independent replicas, each rank holding its strip of "
                  "all of them (still --ranks processors; strip strategy "
                  "only)"),
)
