"""SPMD runner: execute one rank program per logical processor.

A *rank program* is any callable ``program(comm, *args) -> result``
taking a :class:`~repro.vmp.comm.Communicator` as its first argument --
the same shape as an mpi4py ``main(comm)``.  :func:`run_spmd` launches
one OS thread per rank over a shared in-process fabric.  Threads (not
processes) are the right default here: payloads move by deep copy, the
GIL serializes the NumPy-light control flow anyway, and modeled time --
not wall time -- is what the benchmarks report.  The ``backend``
parameter routes the *same program object* to real OS processes
(``"mp"``, :mod:`repro.vmp.process_backend`) or real message passing
under an MPI launcher (``"mpi"``, :mod:`repro.vmp.mpi_backend`), all
three returning a uniform :class:`SpmdResult` with bit-identical
trajectories.

Failure handling: if any rank raises, the rank is registered in the
fabric's dead-rank registry; blocked peers wake immediately with a
structured :class:`~repro.vmp.faults.RankFailure` naming the culprit
(fail-fast, instead of hanging until a timeout).  The caller receives
the original exception with a :class:`~repro.vmp.faults.RunReport`
attached as ``run_report``, recording which ranks failed, when (modeled
clock at death), and which survivors aborted.  Deterministic fault
injection -- crashes, message delays/drops, stalls -- is driven by a
:class:`~repro.vmp.faults.FaultPlan` passed to :func:`run_spmd`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.obs.metrics import NOOP, MetricsRegistry
from repro.obs.spans import SpanCollector
from repro.util.rng import SeedSequenceFactory
from repro.util.timer import COMM_CATEGORIES, COMPUTE_CATEGORIES, WAIT_CATEGORIES
from repro.vmp.comm import CommStats, Communicator, Fabric, record_comm_counters
from repro.vmp.faults import (
    AbortRecord,
    FaultPlan,
    InjectedRankCrash,
    RankFailure,
    RankFailureRecord,
    RunReport,
)
from repro.vmp.machines import IDEAL, MachineModel
from repro.vmp.topology import Topology

__all__ = ["BACKENDS", "BackendRunResult", "SpmdResult", "run_spmd"]


@dataclass
class RankOutcome:
    """Result and accounting of one rank."""

    rank: int
    value: Any
    model_time: float
    breakdown: dict[str, float]
    stats: CommStats


@dataclass
class BackendRunResult:
    """Rank-ordered outcome of an mp or mpi run, as its launcher returns it.

    ``breakdowns`` holds each rank's modeled-clock category split and
    ``stats`` its :class:`~repro.vmp.comm.CommStats`; ``report`` is the
    run's :class:`~repro.vmp.faults.RunReport` (all-completed -- failed
    runs raise instead of returning).  :func:`run_spmd` presents it as
    an ordinary :class:`SpmdResult`.
    """

    values: list[Any]
    model_times: list[float]
    report: RunReport
    breakdowns: list[dict[str, float]]
    stats: list[CommStats]


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

    def comm_fraction_by_level(self) -> dict[str, float]:
        """Rank-0 comm fraction split per communication level.

        One entry per comm category (``comm`` for domain-level halo
        traffic, ``ensemble`` for ensemble-level traffic in two-level
        layouts), each counting its overhead plus matching wait
        categories.  The plain ``halo_wait`` of the overlap pipeline
        belongs to the domain level.  Values sum to
        :meth:`comm_fraction`.
        """
        o = self.outcomes[0]
        if o.model_time == 0:
            return {c: 0.0 for c in COMM_CATEGORIES}
        by_level: dict[str, float] = {}
        for cat in COMM_CATEGORIES:
            waits = [w for w in WAIT_CATEGORIES if w.startswith(f"{cat}_")]
            if cat == "comm":
                waits.append("halo_wait")
            seconds = o.breakdown.get(cat, 0.0) + sum(
                o.breakdown.get(w, 0.0) for w in waits
            )
            by_level[cat] = seconds / o.model_time
        return by_level


@dataclass
class _RankBox:
    value: Any = None
    error: BaseException | None = None
    comm: Communicator | None = None
    done: bool = field(default=False)


#: Execution backends selectable via ``run_spmd(backend=...)``.
BACKENDS = ("thread", "mp", "mpi")


def _record_rank_metrics(scope, breakdown: dict, model_time: float,
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


def _result_from_backend(
    res: BackendRunResult, machine: MachineModel, topo: Topology, metrics
) -> SpmdResult:
    """Present a :class:`BackendRunResult` as a uniform :class:`SpmdResult`."""
    outcomes = [
        RankOutcome(r, value, res.model_times[r], res.breakdowns[r], res.stats[r])
        for r, value in enumerate(res.values)
    ]
    if metrics is not None:
        for o in outcomes:
            _record_rank_metrics(
                metrics.scope(o.rank), o.breakdown, o.model_time, o.stats
            )
    return SpmdResult(
        outcomes=outcomes,
        machine=machine,
        topology=topo,
        trace=None,
        report=res.report,
        metrics=metrics,
        spans=None,
    )


def _run_spmd_dispatch(
    backend: str,
    program: Callable[..., Any],
    n_ranks: int,
    machine: MachineModel,
    topo: Topology,
    seed: int,
    args: Sequence[Any],
    trace: bool,
    fault_plan: FaultPlan | None,
    recv_timeout: float | None,
    metrics: MetricsRegistry | None,
    spans: bool,
) -> SpmdResult:
    """Route a run to the mp or mpi backend, normalizing the result."""
    if trace or spans:
        raise ValueError(
            f"message tracing and phase spans need the in-process clock "
            f"observers of the thread backend; backend={backend!r} cannot "
            f"export them (see the DESIGN.md support matrix)"
        )
    if backend == "mp":
        from repro.vmp import process_backend

        mp_kwargs = {}
        if recv_timeout is not None:
            mp_kwargs["recv_timeout"] = recv_timeout
        res = process_backend.run_multiprocessing(
            program, n_ranks, machine=machine, topology=topo, seed=seed,
            args=args, fault_plan=fault_plan, **mp_kwargs,
        )
        return _result_from_backend(res, machine, topo, metrics)
    # mpi
    if fault_plan is not None:
        raise ValueError(
            "fault injection is a thread/mp-only feature: an injected "
            "crash under real MPI aborts the whole job instead of "
            "exercising recovery (see DESIGN.md)"
        )
    from repro.vmp import mpi_backend

    if mpi_backend.in_mpi_world():
        res = mpi_backend.run_mpi_world(
            program, n_ranks=n_ranks, machine=machine, topology=topo,
            seed=seed, args=args, recv_timeout=recv_timeout,
        )
    else:
        res = mpi_backend.run_mpiexec(
            program, n_ranks, machine=machine, topology=topo, seed=seed,
            args=args, recv_timeout=recv_timeout,
        )
    return _result_from_backend(res, machine, topo, metrics)


def run_spmd(
    program: Callable[..., Any],
    n_ranks: int,
    machine: MachineModel = IDEAL,
    topology: Topology | None = None,
    seed: int = 0,
    args: Sequence[Any] = (),
    trace: bool = False,
    fault_plan: FaultPlan | None = None,
    recv_timeout: float | None = None,
    metrics: MetricsRegistry | None = None,
    spans: bool = False,
    backend: str = "thread",
) -> SpmdResult:
    """Run ``program(comm, *args)`` on ``n_ranks`` simulated processors.

    Parameters
    ----------
    program:
        The rank program.  All ranks execute the same callable with the
        same extra ``args``; rank-dependent behaviour comes from
        ``comm.rank`` (ordinary SPMD style).
    n_ranks:
        Number of logical processors.
    machine:
        Cost model used to charge the modeled clocks.
    topology:
        Interconnect; defaults to the machine's native topology.
    seed:
        Root seed; each rank receives an independent child stream at
        ``comm.stream``.
    fault_plan:
        Deterministic fault injection (crashes, delays, stalls); see
        :mod:`repro.vmp.faults`.  Thread and mp backends only.
    recv_timeout:
        Wall-clock bound on every blocking receive; expiry raises a
        structured :class:`~repro.vmp.faults.RankFailure` in the
        waiting rank.  ``None`` waits indefinitely (the dead-rank
        registry still fails survivors fast on peer death).
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry` to record into;
        each rank gets its own scope.  ``None`` (default) records
        nothing.  On the mp/mpi backends the registry receives the
        end-of-run comm counters and phase gauges (recorders cannot
        cross process boundaries mid-run).
    spans:
        When True, attach a :class:`~repro.obs.spans.SpanCollector` to
        every rank's modeled clock; the result's ``spans`` field then
        holds the per-rank compute/comm/idle phase history, exportable
        via ``SpmdResult.chrome_trace()``.  Thread backend only.
    backend:
        Execution backend: ``"thread"`` (default; one preemptive OS
        thread per rank over the in-process fabric, serialized only by
        the GIL), ``"mp"`` (real OS processes via
        :mod:`repro.vmp.process_backend`), or ``"mpi"`` (real message
        passing via :mod:`repro.vmp.mpi_backend`; runs in the current
        MPI world under ``mpiexec``, else launches one).  All three
        run the identical program object and produce bit-identical
        trajectories.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if n_ranks < 1:
        raise ValueError("need at least one rank")
    if n_ranks > machine.max_nodes:
        raise ValueError(
            f"{machine.name} supports at most {machine.max_nodes} nodes, asked for {n_ranks}"
        )
    topo = topology if topology is not None else machine.topology(n_ranks)
    if backend != "thread":
        return _run_spmd_dispatch(
            backend, program, n_ranks, machine, topo, seed, args, trace,
            fault_plan, recv_timeout, metrics, spans,
        )
    fabric = Fabric(n_ranks, machine, topo, trace=trace)
    factory = SeedSequenceFactory(seed)
    boxes = [_RankBox() for _ in range(n_ranks)]
    collectors = [SpanCollector(r) for r in range(n_ranks)] if spans else None

    def runner(rank: int) -> None:
        comm = Communicator(
            fabric,
            rank,
            factory.rank_stream(rank),
            recv_timeout=recv_timeout,
            fault_state=fault_plan.for_rank(rank) if fault_plan is not None else None,
            metrics=metrics.scope(rank) if metrics is not None else NOOP,
        )
        if collectors is not None:
            comm.clock.observer = collectors[rank]
        boxes[rank].comm = comm
        try:
            boxes[rank].value = program(comm, *args)
            boxes[rank].done = True
        except BaseException as exc:  # noqa: BLE001 - must propagate everything
            # Our own failure, or a RankFailure because we detected a
            # peer's: mark_dead propagates the *original* culprit to
            # ranks still blocked on us.
            boxes[rank].error = exc
            fabric.mark_dead(rank, exc)

    if n_ranks == 1:
        runner(0)
    else:
        threads = [
            threading.Thread(target=runner, args=(r,), name=f"vmp-rank-{r}", daemon=True)
            for r in range(n_ranks)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    report = RunReport(n_ranks=n_ranks)
    for r, box in enumerate(boxes):
        model_time = box.comm.clock.now if box.comm is not None else 0.0
        if box.done:
            report.completed.append(r)
        elif isinstance(box.error, RankFailure):
            report.aborted.append(
                AbortRecord(
                    rank=r,
                    failed_rank=box.error.failed_rank,
                    via=box.error.via,
                    model_time=model_time,
                )
            )
        else:
            report.failures.append(
                RankFailureRecord(
                    rank=r,
                    error=repr(box.error),
                    model_time=model_time,
                    injected=isinstance(box.error, InjectedRankCrash),
                )
            )

    # Primary exception: a rank's own failure outranks the RankFailure
    # aborts it triggered in its peers.
    primary = next(
        (b.error for b in boxes
         if b.error is not None and not isinstance(b.error, RankFailure)),
        None,
    ) or next((b.error for b in boxes if b.error is not None), None)
    if primary is not None:
        primary.run_report = report
        raise primary

    outcomes = []
    for r, box in enumerate(boxes):
        comm = box.comm
        assert comm is not None
        breakdown = comm.clock.breakdown()
        if metrics is not None:
            _record_rank_metrics(comm.metrics, breakdown, comm.clock.now, comm.stats)
        outcomes.append(
            RankOutcome(r, box.value, comm.clock.now, breakdown, comm.stats)
        )
    return SpmdResult(
        outcomes=outcomes,
        machine=machine,
        topology=topo,
        trace=fabric.trace_events,
        report=report,
        metrics=metrics,
        spans=(
            [s for c in collectors for s in c.spans()]
            if collectors is not None
            else None
        ),
    )
