"""The world a rank program runs in, and what a run of it returns.

* :func:`world_size_hint` / :func:`world_rank_hint` -- the surrounding
  MPI launch, read from the launcher's environment, so that asking
  "am I under mpiexec?" imports no MPI.
* :class:`SpmdResult` -- what every run returns: a :class:`RankOutcome`
  a rank (its value, modeled clock and :class:`CommStats`), the run's
  :class:`~repro.vmp.faults.RunReport` and its telemetry.
* :func:`run_alone` -- a rank program run as the one rank of its world,
  with no fabric: the chain layouts
  (:func:`repro.qmc.chains.chain_program`), which send nothing.

Nothing here loads a transport: a serial run imports this module and
none of :mod:`repro.vmp.comm`, :mod:`~repro.vmp.scheduler` or the
backends, which :func:`~repro.vmp.scheduler.run_spmd` brings.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.obs.metrics import MESSAGE_BYTES_EDGES, NOOP
from repro.util.timer import (
    COMM_CATEGORIES,
    COMPUTE_CATEGORIES,
    WAIT_CATEGORIES,
    ModelClock,
)
from repro.vmp.faults import RunReport
from repro.vmp.machines import IDEAL

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry
    from repro.vmp.machines import MachineModel
    from repro.vmp.topology import Topology

__all__ = [
    "CommStats",
    "RankOutcome",
    "SpmdResult",
    "record_comm_counters",
    "record_rank_metrics",
    "run_alone",
    "world_rank_hint",
    "world_size_hint",
]


def world_size_hint() -> int:
    """Rank count of the surrounding MPI launch, from the launcher's env.

    Reads the environment instead of importing mpi4py so that asking
    "am I under mpiexec?" never initializes MPI in a plain process.
    Returns 1 outside any launcher.
    """
    for var in ("OMPI_COMM_WORLD_SIZE", "PMI_SIZE", "SLURM_NTASKS"):
        value = os.environ.get(var)
        if value:
            try:
                return max(1, int(value))
            except ValueError:
                continue
    return 1


def world_rank_hint() -> int:
    """This process's rank in the surrounding MPI launch (0 outside one).

    The CLI uses this to restrict printing and file output to rank 0
    without importing mpi4py on non-MPI runs.
    """
    for var in ("OMPI_COMM_WORLD_RANK", "PMI_RANK", "SLURM_PROCID"):
        value = os.environ.get(var)
        if value:
            try:
                return max(0, int(value))
            except ValueError:
                continue
    return 0


@dataclass
class CommStats:
    """Per-rank message counters (reported by the comm-fraction bench)."""

    messages_sent: int = 0
    bytes_sent: int = 0
    messages_received: int = 0
    bytes_received: int = 0

    def merge(self, other: "CommStats") -> None:
        self.messages_sent += other.messages_sent
        self.bytes_sent += other.bytes_sent
        self.messages_received += other.messages_received
        self.bytes_received += other.bytes_received


def record_comm_counters(metrics, stats: CommStats, breakdown: dict) -> None:
    """Write a rank's ``comm.*`` counters into its metrics scope.

    ``comm.wait_seconds`` is the modeled time the rank spent blocked
    past the latency charge -- the clock's wait categories
    (``comm_wait``, the overlap pipeline's ``halo_wait``, per-level
    waits), so no per-message accounting is needed.
    """
    metrics.counter("comm.messages_sent").value = float(stats.messages_sent)
    metrics.counter("comm.bytes_sent").value = float(stats.bytes_sent)
    metrics.counter("comm.messages_received").value = float(stats.messages_received)
    metrics.counter("comm.bytes_received").value = float(stats.bytes_received)
    metrics.counter("comm.wait_seconds").value = sum(
        breakdown.get(c, 0.0) for c in WAIT_CATEGORIES
    )


def record_rank_metrics(scope, breakdown: dict, model_time: float,
                        stats: CommStats) -> None:
    """Record one rank's end-of-run comm counters and phase gauges.

    The phase gauges say how the rank's modeled makespan splits into
    compute / comm overhead / idle wait.  The same call serves every
    backend: thread ranks pass their live scope, while mp/mpi ranks ran
    in other processes (recorders cannot cross that boundary), so the
    launcher records what they reported.  Sweep-level counters and the
    message-size histogram stay thread-backend-only; DESIGN.md carries
    the support matrix.
    """
    record_comm_counters(scope, stats, breakdown)
    scope.set_gauge(
        "phase.compute_seconds",
        sum(breakdown.get(c, 0.0) for c in COMPUTE_CATEGORIES),
    )
    scope.set_gauge(
        "phase.comm_seconds", sum(breakdown.get(c, 0.0) for c in COMM_CATEGORIES)
    )
    scope.set_gauge(
        "phase.idle_seconds", sum(breakdown.get(c, 0.0) for c in WAIT_CATEGORIES)
    )
    scope.set_gauge("phase.model_seconds", model_time)


@dataclass
class RankOutcome:
    """Result and accounting of one rank."""

    rank: int
    value: Any
    model_time: float
    breakdown: dict[str, float]
    stats: CommStats


@dataclass
class SpmdResult:
    """Aggregate outcome of an SPMD run.

    ``elapsed_model_time`` is the makespan -- the slowest rank's clock --
    which is what "time to solution" means on a space-shared MPP.
    ``trace`` holds per-message events when the run was launched with
    ``trace=True`` (else None); render with
    :func:`repro.vmp.trace.render_timeline`.  ``report`` is the run's
    :class:`~repro.vmp.faults.RunReport` (all-completed on success).
    """

    outcomes: list[RankOutcome]
    machine: MachineModel
    topology: Topology
    trace: list | None = None
    report: RunReport | None = None
    #: The run's MetricsRegistry when telemetry was enabled (else None).
    metrics: MetricsRegistry | None = None
    #: Per-rank phase spans when launched with ``spans=True`` (else None).
    spans: list | None = None

    def health_events(self) -> list[dict]:
        """All ranks' health-event records, deterministically ordered.

        Rank programs that run with health rules return their monitor's
        events under a ``"health_events"`` key in the value dict; this
        gathers them across ranks (empty when health was off).
        """
        from repro.obs.events import sort_events

        events: list[dict] = []
        for o in self.outcomes:
            if isinstance(o.value, dict):
                events.extend(o.value.get("health_events") or ())
        return sort_events(events)

    def chrome_trace(self, metadata: dict | None = None) -> dict:
        """Chrome ``trace_event`` document of the run (requires spans=True).

        Health events, when any rank emitted them, appear as instant
        markers on the emitting rank's timeline row.
        """
        from repro.obs.chrome_trace import chrome_trace_doc
        from repro.obs.events import health_instant_events

        if self.spans is None:
            raise ValueError("run has no phase spans; pass spans=True to run_spmd")
        return chrome_trace_doc(
            self.spans,
            messages=self.trace,
            ranks=[o.rank for o in self.outcomes],
            metadata=metadata,
            instants=health_instant_events(self.health_events()),
        )

    def write_chrome_trace(self, path, metadata: dict | None = None):
        """Write the Chrome trace JSON to ``path`` (see chrome_trace)."""
        from repro.obs.chrome_trace import write_chrome_trace
        from repro.obs.events import health_instant_events

        if self.spans is None:
            raise ValueError("run has no phase spans; pass spans=True to run_spmd")
        return write_chrome_trace(
            path,
            self.spans,
            messages=self.trace,
            ranks=[o.rank for o in self.outcomes],
            metadata=metadata,
            instants=health_instant_events(self.health_events()),
        )

    def render_timeline(self, width: int = 72) -> str:
        """Text Gantt view of traced messages (requires trace=True)."""
        from repro.vmp.trace import render_timeline

        if self.trace is None:
            raise ValueError("run was not traced; pass trace=True to run_spmd")
        return render_timeline(
            self.trace,
            [o.breakdown for o in self.outcomes],
            self.elapsed_model_time,
            width=width,
        )

    @property
    def values(self) -> list[Any]:
        return [o.value for o in self.outcomes]

    @property
    def elapsed_model_time(self) -> float:
        return max(o.model_time for o in self.outcomes)

    @property
    def total_messages(self) -> int:
        return sum(o.stats.messages_sent for o in self.outcomes)

    @property
    def total_bytes(self) -> int:
        return sum(o.stats.bytes_sent for o in self.outcomes)

    def comm_fraction(self) -> float:
        """Share of the makespan rank 0 spent communicating or waiting.

        Counts the comm categories plus every wait category (both the
        blocking path's ``comm_wait`` and the overlap pipeline's
        ``halo_wait``), so overlapped and lockstep runs are directly
        comparable.  Rank 0 is representative for the homogeneous SPMD
        workloads in this repository; the per-rank breakdown is in
        ``outcomes``.
        """
        o = self.outcomes[0]
        if o.model_time == 0:
            return 0.0
        comm = sum(
            o.breakdown.get(c, 0.0) for c in COMM_CATEGORIES + WAIT_CATEGORIES
        )
        return comm / o.model_time

    def category_seconds(self, category: str) -> float:
        """Max-over-ranks seconds spent in one clock category."""
        return max(o.breakdown.get(category, 0.0) for o in self.outcomes)


class _AloneRank:
    """The communicator of a rank alone in its world: rank 0 of 1, its
    modeled clock, its metrics scope, and the one collective a lone rank
    can make -- an allreduce, which returns its value.  There is no
    fabric and no ``stream``: a program that sends, receives or draws on
    ``comm.stream`` runs under :func:`~repro.vmp.scheduler.run_spmd`."""

    rank = 0
    size = 1

    def __init__(self, metrics):
        self.clock = ModelClock()
        self.stats = CommStats()
        self.metrics = metrics
        if metrics.enabled:  # the comm.* names every rank's summary carries
            metrics.histogram("comm.message_bytes", MESSAGE_BYTES_EDGES)

    def sync_metrics(self) -> None:
        """Fold the (empty) CommStats and the clock's wait total into
        the registry, as every rank's communicator does."""
        if self.metrics.enabled:
            record_comm_counters(self.metrics, self.stats, self.clock.breakdown())

    def allreduce(self, value: Any) -> Any:
        return value


def run_alone(
    program: Callable[..., Any],
    args: Sequence[Any] = (),
    metrics: MetricsRegistry | None = None,
) -> SpmdResult:
    """Run ``program(comm, *args)`` as the one rank of its world
    (:class:`_AloneRank`) on the ideal machine.

    For a program that communicates only by allreduce over its one rank
    it returns what ``run_spmd(program, 1, metrics=metrics)`` does --
    the value, the clock, the all-completed report and the end-of-run
    ``comm.*`` counters and ``phase.*`` gauges in ``metrics`` -- without
    loading a transport.  An exception propagates as the program raised
    it: a lone rank has no peer to abort.
    """
    comm = _AloneRank(NOOP if metrics is None else metrics.scope(0))
    value = program(comm, *args)
    breakdown = comm.clock.breakdown()
    if metrics is not None:
        record_rank_metrics(comm.metrics, breakdown, comm.clock.now, comm.stats)
    return SpmdResult(
        outcomes=[RankOutcome(0, value, comm.clock.now, breakdown, comm.stats)],
        machine=IDEAL,
        topology=IDEAL.topology(1),
        report=RunReport(n_ranks=1, completed=[0]),
        metrics=metrics,
    )
