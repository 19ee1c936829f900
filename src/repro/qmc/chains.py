"""The one run loop of every rank program, and the chain layouts on it.

Every layout of every run kind is a rank program whose state is a
:class:`_RankState` driven by :func:`_run_decomposed` (thermalize ->
sweep -> measure -> health), under one sweep-telemetry wrapper
(:meth:`_RankState.sweep`).  The domain-decomposed drivers
(:mod:`repro.qmc.parallel`) extend that state with their halo exchange
and checkpoints; this module holds the loop, the lean state and the
layouts that need neither:

* :func:`chain_program` -- whole lattices, all on one rank: the serial
  (one chain) and replica (``n`` independent chains) layouts of every
  run kind, the no-link, no-ghost case.  A serial sampler
  (:mod:`repro.qmc.worldline`, :mod:`~repro.qmc.worldline2d`,
  :mod:`~repro.qmc.tfim`, :mod:`~repro.qmc.classical_ising`,
  :mod:`~repro.qmc.cluster`) is a move set plus the estimators its
  class names in ``ESTIMATORS``, and a chain is one such sampler on its
  own stream measuring the series asked for, scalar or vector.
  :func:`run_chain` runs one sampler, in place, as a one-chain run:
  the samplers have no run loop of their own.  Chains send nothing,
  so their rank runs alone (:func:`repro.vmp.world.run_alone`), with no
  fabric and no transport loaded.

The loop owns the reductions: a measurement leaves its rank-local
partial sums pending, and one allreduce carries every pending row when
a global value is due.  A serial run loads neither the drivers nor the
health engine: :mod:`repro.obs.health` is imported only by a run that
asks for health checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro import kernels
from repro.obs.metrics import ACCEPTANCE_EDGES, NOOP_HEALTH
from repro.qmc.worldline import SweepBatch, TableSweeps
from repro.util.rng import SeedSequenceFactory
from repro.vmp.world import run_alone

if TYPE_CHECKING:  # runtime import would cycle through repro.run.__init__
    from repro.obs.health import HealthRules
    from repro.run.checkpoint import CheckpointConfig

__all__ = ["REDUCE_BATCH", "ChainConfig", "chain_program", "run_chain"]


def _validate_schedule(cfg) -> None:
    """Config-time checks every driver config shares: the sweep schedule
    and the ``mode`` string (names only -- availability of a compiled
    backend is resolved at state init / Simulation start, where the
    structured error can name the run)."""
    if cfg.n_sweeps < 1:
        raise ValueError("n_sweeps must be >= 1 (need at least one sweep)")
    if cfg.n_thermalize < 0:
        raise ValueError("n_thermalize must be >= 0")
    if cfg.measure_every < 1:
        raise ValueError("measure_every must be >= 1")
    kernels.check_kernel_name(cfg.mode)


class _SweepMetrics:
    """The ``sweep.*`` handles of one chain of telemetry: a decomposed
    rank's, or one chain's of a chain rank (:class:`_ChainState`).
    Kernel time lands in a counter tagged by the resolved backend."""

    def __init__(self, metrics, kernel: str):
        self.sweeps = metrics.counter("sweep.count")
        self.attempted = metrics.counter("sweep.attempted")
        self.accepted = metrics.counter("sweep.accepted")
        self.model = metrics.counter("sweep.model_seconds")
        self.wall = metrics.counter("sweep.wall_seconds")
        self.acceptance = metrics.histogram("sweep.acceptance", ACCEPTANCE_EDGES)
        self.kernel = metrics.counter(f"sweep.kernel_seconds.{kernel}")

    def record(self, attempted: int, accepted: int, model_seconds: float,
               wall_seconds: float) -> None:
        """Count one sweep of ``attempted`` moves, ``accepted`` of them."""
        self.sweeps.inc()
        self.attempted.inc(attempted)
        self.accepted.inc(accepted)
        self.model.inc(model_seconds)
        self.wall.inc(wall_seconds)
        if attempted:
            self.acceptance.observe(accepted / attempted)


class _RankState:
    """What :meth:`sweep` and :func:`_run_decomposed` need of any rank
    state, decomposed or not: the communicator, the config with the
    sweep schedule, the resolved ``kernel``, the move counters and the
    telemetry handles.  A subclass supplies ``series`` and
    ``health_series``, :meth:`_sweep_stages`, :meth:`measure`,
    :meth:`series_columns` and :meth:`result`; a decomposed one
    (:class:`repro.qmc.parallel._DecomposedState`) adds its halo
    exchange and checkpoint pair.
    """

    #: Names of the measured series, in :meth:`series_columns` order;
    #: they are the bundle keys and the result-dict keys of the series.
    series: tuple[str, ...]
    #: The scalar series the health monitor tracks.
    health_series: tuple[str, ...]

    def __init__(self, comm, cfg, kernel: str):
        self.comm = comm
        self.cfg = cfg
        self.kernel = kernel
        #: Cumulative Metropolis accounting across the rank's lifetime
        #: (always maintained -- the CLI summary prints acceptance
        #: without telemetry flags).
        self.n_attempted = 0
        self.n_accepted = 0
        #: True once the overlapped schedule is engaged: it needs real
        #: neighbors (P > 1) and a non-degenerate interior; thin
        #: subdomains fall back to lockstep and leave this False, which
        #: every program reports in its result dict.
        self.overlap_active = False
        # Pre-bound metric handles keep the enabled hot path at one bool
        # test plus float adds, and the disabled path at one bool test.
        self._obs = bool(comm.metrics.enabled)
        if self._obs:
            self._m = _SweepMetrics(comm.metrics, kernel)

    # -- sweeping ------------------------------------------------------------
    def _sweep_stages(self) -> None:
        """One full lattice sweep: every independence class, each behind
        its halo exchange; maintains ``n_attempted`` / ``n_accepted``."""
        raise NotImplementedError

    def _timed(self, kernel, *args):
        """Run one kernel call, charging its wall time to the backend's
        ``sweep.kernel_seconds`` counter when telemetry is on."""
        if not self._obs:
            return kernel(*args)
        t0 = perf_counter()
        out = kernel(*args)
        self._m.kernel.inc(perf_counter() - t0)
        return out

    def sweep(self) -> None:
        """One sweep (:meth:`_sweep_stages`) plus its sweep-level
        telemetry, the rank's moves summed over its chains."""
        obs = self._obs
        if obs:
            t0_wall = perf_counter()
            t0_model = self.comm.clock.now
            att0, acc0 = np.sum(self.n_attempted), np.sum(self.n_accepted)
        self._sweep_stages()
        if obs:
            self._m.record(
                int(np.sum(self.n_attempted) - att0),
                int(np.sum(self.n_accepted) - acc0),
                self.comm.clock.now - t0_model,
                perf_counter() - t0_wall,
            )

    # -- measurement / result ------------------------------------------------
    def measure(self) -> np.ndarray:
        """This rank's partial sums of the current configuration, as one
        float64 vector; it reads no ghost that is stale after a full
        sweep, so it posts nothing.  The run loop sums the vectors over
        the ranks, many measurements to an allreduce."""
        raise NotImplementedError

    def series_columns(self, totals: np.ndarray) -> tuple:
        """Turn ``(k, n)`` rank-summed :meth:`measure` rows into the
        ``k`` values of each ``series`` name (identical on every rank
        of the communicator)."""
        raise NotImplementedError

    def result(self) -> dict:
        """The program-specific entries of the rank's result dict."""
        raise NotImplementedError


def _health_monitor(health: "HealthRules | None", rank: int):
    """The run-health monitor of rank ``rank``: inert unless ``health``
    rules are given."""
    if health is None:
        return NOOP_HEALTH
    from repro.obs.health import HealthMonitor

    return HealthMonitor(health, rank=rank)


#: Pending measurement rows reduce together at the latest when this
#: many have piled up: 128 rows of 4 doubles are 4 KB, one slot of the mp
#: backend's shared-memory ring.
REDUCE_BATCH = 128


def _run_decomposed(
    state: _RankState,
    checkpoint: "CheckpointConfig | None",
    health: "HealthRules | None",
    *,
    monitor=None,
) -> dict:
    """The run loop of every rank program.

    Resume (or thermalize), then per sweep: sweep, measure every
    ``measure_every``-th, checkpoint every ``checkpoint.every``-th,
    health-check at ``health.interval``, snapshot the metrics at their
    interval; finally assemble the rank's result dict (the series, the
    state's :meth:`~_RankState.result`, the requested ``mode`` and
    the ``kernel`` it resolved to, the move counters, whether the
    overlapped schedule was charged, and the health report).

    Reductions run in batches: a measurement only appends its rank-local
    row, and one allreduce of the ``(k, n)`` array of pending rows runs
    when a global value is due -- at :data:`REDUCE_BATCH` rows, before
    a checkpoint write, before a health check and at the end of the
    run.  The sum is element-wise and in the same rank order whatever
    ``k``, so no series bit depends on the cadence.

    ``monitor`` replaces the default per-rank health monitor: a rank of
    several chains feeds one monitor a chain (:class:`_ChainHealth`).
    """
    comm, cfg = state.comm, state.cfg
    metrics = comm.metrics
    interval = metrics.interval if metrics.enabled else 0
    if monitor is None:
        monitor = _health_monitor(health, comm.rank)
    check_every = 0
    if health is not None:
        from repro.obs.health import clock_comm_seconds

        check_every = health.interval
    series: dict[str, list] = {name: [] for name in state.series}
    pending: list[tuple[int, np.ndarray]] = []  # (sweep, measure() row)

    def reduce_pending() -> None:
        if not pending:
            return
        totals = comm.allreduce(np.array([row for _, row in pending]))
        columns = dict(zip(state.series, state.series_columns(totals)))
        for name, column in columns.items():
            series[name].extend(column)
        if monitor.enabled:
            monitor.t_model = comm.clock.now
            for i, (s, _) in enumerate(pending):
                for name in state.health_series:
                    monitor.observe(name, columns[name][i], s)
        pending.clear()

    first_sweep = 0
    if checkpoint is not None and checkpoint.resume:
        # Thermalization is already in the restored trajectory.
        first_sweep, series = state.restore_rank_state(checkpoint.directory)
    else:
        for _ in range(cfg.n_thermalize):
            state.sweep()
    for s in range(first_sweep, cfg.n_sweeps):
        state.sweep()
        if s % cfg.measure_every == 0:
            pending.append((s, state.measure()))
            if len(pending) == REDUCE_BATCH:
                reduce_pending()
        if (
            checkpoint is not None
            and checkpoint.every
            and (s + 1) % checkpoint.every == 0
        ):
            reduce_pending()
            state.save_rank_state(checkpoint.directory, s + 1, series)
        if check_every and (s + 1) % check_every == 0:
            reduce_pending()
            monitor.check(
                s + 1,
                attempted=state.n_attempted,
                accepted=state.n_accepted,
                model_seconds=comm.clock.now,
                comm_seconds=clock_comm_seconds(comm.clock),
            )
        if interval and (s + 1) % interval == 0:
            comm.sync_metrics()
            metrics.snapshot(sweep=s + 1, t_model=comm.clock.now)
    reduce_pending()
    out = {name: np.array(values) for name, values in series.items()}
    out.update(state.result())
    out.update(
        mode=cfg.mode,
        kernel=state.kernel,
        n_attempted=state.n_attempted,
        n_accepted=state.n_accepted,
        overlap_active=state.overlap_active,
    )
    if monitor.enabled:
        out["health_events"] = monitor.event_docs()
        out["health_summary"] = monitor.summary()
    return out


# ======================================================================
# whole-lattice chains: the serial and replica layouts
# ======================================================================


@dataclass(frozen=True)
class ChainConfig:
    """Run parameters of :func:`chain_program`.

    ``build(stream, mode)`` constructs one serial sampler on its random
    stream: a move set (``resolve_sweep(mode)``, ``spins`` and the
    ``n_attempted`` / ``n_accepted`` counters) whose class maps series
    names to estimator methods in ``ESTIMATORS``.  ``series`` names what
    each chain measures, ``health_series`` the scalar ones of them the
    health monitors track; ``mode`` is a sweep mode of the samplers
    (``"auto"``, ``"scalar"``, ``"vectorized"`` or a backend).  Chain
    ``i`` is built on ``SeedSequenceFactory(seed).rank_stream(index)``
    of ``streams[i] = (seed, index)``: ``(seed, i)`` for chain ``i`` of
    a replica run, ``((seed, 0),)`` for a serial run.
    """

    build: Callable[[Any, str], Any]
    series: tuple[str, ...]
    health_series: tuple[str, ...]
    n_sweeps: int
    n_thermalize: int = 0
    measure_every: int = 1
    mode: str = "auto"
    streams: tuple[tuple[int, int], ...] = ((0, 0),)

    def __post_init__(self):
        _validate_schedule(self)


class _ChainState(_RankState):
    """Whole lattices on one rank: the no-link, no-ghost case.

    R chains, chain ``i`` on stream ``cfg.streams[i]``, each the
    trajectory it has alone: world-line samplers of one geometry swept
    as one lattice (:class:`~repro.qmc.worldline.SweepBatch`; R = 1 is
    the sampler's own sweep), others (the TFIM) in turn.  The estimators
    draw nothing, so each is evaluated once here to lay out the
    measurement row: a scalar takes one column, an array ``w``.  The
    chains' rows sit side by side, so the series carry a chain axis
    after the measurement axis (``(n, R)``, ``(n, R, w)``), as ``spins``
    and the counters do.  Each chain records its sweep telemetry into
    its own scope (``scopes`` of a
    :class:`~repro.obs.metrics.MetricsFanout`), the sweep's wall time
    split evenly.
    """

    def __init__(self, comm, cfg: ChainConfig):
        self.samplers = [
            cfg.build(SeedSequenceFactory(seed).rank_stream(index), cfg.mode)
            for seed, index in cfg.streams
        ]
        q = self.samplers[0]
        unknown = [name for name in cfg.series if name not in q.ESTIMATORS]
        if unknown:
            raise ValueError(f"{type(q).__name__} has no estimator {unknown[0]!r};"
                             f" it measures {', '.join(q.ESTIMATORS)}")
        if isinstance(q, TableSweeps):
            kernel, self._sweep = SweepBatch(self.samplers).resolve_sweep(cfg.mode)
        else:  # no common tiling: each chain sweeps alone, in turn
            sweeps = [s.resolve_sweep(cfg.mode) for s in self.samplers]
            kernel = sweeps[0][0]
            self._sweep = lambda: [sweep() for _, sweep in sweeps]
        super().__init__(comm, cfg, kernel)
        self._chain_m = []
        if self._obs:  # each chain records its own sweeps, not the rank
            scopes = getattr(comm.metrics, "scopes", [comm.metrics])
            self._chain_m = [_SweepMetrics(m, kernel) for m in scopes]
            self._obs = False
        self.series = cfg.series
        self.health_series = cfg.health_series
        self._estimators = [getattr(s, s.ESTIMATORS[name])
                            for s in self.samplers for name in cfg.series]
        self._columns, width = [], 0
        for estimator in self._estimators[:len(cfg.series)]:
            shape = np.shape(estimator())
            self._columns.append(slice(width, width + shape[0]) if shape else width)
            width += shape[0] if shape else 1
        self._vector = any(isinstance(c, slice) for c in self._columns)

    def _sweep_stages(self) -> None:
        before = [(q.n_attempted, q.n_accepted) for q in self.samplers]
        t0 = perf_counter()
        self._sweep()
        share = (perf_counter() - t0) / len(self.samplers)
        for q, (att0, acc0), m in zip(self.samplers, before, self._chain_m):
            m.record(q.n_attempted - att0, q.n_accepted - acc0, 0.0, share)
            m.kernel.inc(share)
        self.n_attempted = [q.n_attempted for q in self.samplers]
        self.n_accepted = [q.n_accepted for q in self.samplers]

    def measure(self) -> np.ndarray:
        row = [f() for f in self._estimators]
        return np.hstack(row) if self._vector else np.array(row, dtype=np.float64)

    def series_columns(self, totals: np.ndarray) -> tuple:
        totals = totals.reshape(len(totals), len(self.samplers), -1)
        return tuple(totals[..., c] for c in self._columns)

    def result(self) -> dict:
        return {"spins": np.stack([q.spins for q in self.samplers])}


class _ChainHealth(list):
    """The health monitors of a rank of several chains, one per chain,
    fed as one: values and counters carry the chain axis.  Every
    monitor also records the chains' Gelman--Rubin R-hat of each series
    ``rhat`` names, from their streaming moments, once every chain has
    two values."""

    enabled = True

    def __init__(self, monitors, rhat=()):
        from repro.obs.online import Welford

        super().__init__(monitors)
        self._moments = {name: [Welford() for _ in self] for name in rhat}

    @property
    def t_model(self) -> float:
        return self[0].t_model

    @t_model.setter
    def t_model(self, now: float) -> None:
        for m in self:
            m.t_model = now

    def observe(self, name: str, values, sweep: int) -> None:
        for m, value in zip(self, values):
            m.observe(name, value, sweep)
        chains = self._moments.get(name)
        if chains is None:
            return
        for moments, value in zip(chains, values):
            moments.push(value)
        if chains[0].count >= 2:
            from repro.obs.online import gelman_rubin_from_moments

            rhat = gelman_rubin_from_moments(*zip(*(c.moments() for c in chains)))
            for m in self:
                m.observe_rhat(name, rhat, sweep)

    def check(self, sweep: int, *, attempted, accepted, **clock) -> None:
        for m, att, acc in zip(self, attempted, accepted):
            m.check(sweep, attempted=att, accepted=acc, **clock)

    def event_docs(self) -> list[dict]:
        return [doc for m in self for doc in m.event_docs()]

    def summary(self) -> list[dict]:
        return [m.summary() for m in self]


def chain_program(
    comm, cfg: ChainConfig, health: "HealthRules | None" = None
) -> dict:
    """SPMD rank program of the serial and replica layouts: the chains
    of ``cfg.streams``, all on this one rank (:class:`_ChainState`); a
    larger communicator is a ``ValueError``.  Nothing is pooled or sent:
    of ``comm`` it reads only the rank, size, clock and metrics scope,
    ``sync_metrics()`` and a one-rank ``allreduce``, so runs need no
    fabric (:func:`~repro.vmp.world.run_alone`).
    The value carries a chain axis (series, ``spins``, counters, health
    summaries; health events chain after chain), which
    :func:`_chain_values` splits into what each chain returns alone.
    """
    if comm.size > 1:
        raise ValueError("chain_program runs its chains on one rank, not "
                         f"{comm.size}: give ChainConfig a stream per chain")
    monitor = NOOP_HEALTH
    if health is not None:
        from repro.obs.health import HealthMonitor

        # A chain's monitor is stamped with its stream index: its rank in its run.
        monitor = _ChainHealth(HealthMonitor(health, rank=index) for _, index in cfg.streams)
    return _run_decomposed(_ChainState(comm, cfg), None, health, monitor=monitor)


def _chain_values(value: dict, series, spins: str = "spins") -> list[dict]:
    """A value with a chain axis -- a :func:`chain_program` rank's, or a
    replica strip rank's, whose spins are ``"owned_spins"`` -- as one
    value per chain, each what a run of that chain alone returns;
    ``series`` names its series."""
    chains = [{**value, **{name: value[name][:, i] for name in series},
               **{key: value[key][i] for key in (spins, "n_attempted", "n_accepted")}}
              for i in range(len(value[spins]))]
    events = iter(value.get("health_events", ()))  # chain after chain
    for chain, summary in zip(chains, value.get("health_summary", ())):
        chain["health_summary"] = summary
        chain["health_events"] = list(islice(events, summary["n_events"]))
    return chains


def run_chain(
    sampler,
    series,
    n_sweeps: int,
    n_thermalize: int = 0,
    measure_every: int = 1,
    mode: str = "auto",
) -> dict:
    """Run a serial sampler, in place, as the chain of a one-rank
    :func:`chain_program`, run alone (:func:`~repro.vmp.world.run_alone`:
    no fabric, the ideal machine).

    It draws from the stream it was built on, so its ``spins``, counters
    and ``check_invariants()`` describe the end of the run.  The
    schedule is the drivers' (a bad one is a ``ValueError`` naming the
    field); ``series`` are keys of the sampler's ``ESTIMATORS``.
    Returns the chain's value: one array per series name, ``spins``,
    ``n_attempted`` / ``n_accepted`` and the ``kernel`` that ran.
    """
    cfg = ChainConfig(
        build=lambda _stream, _mode: sampler,
        series=tuple(series),
        health_series=(),
        n_sweeps=n_sweeps,
        n_thermalize=n_thermalize,
        measure_every=measure_every,
        mode=mode,
    )
    value = run_alone(chain_program, (cfg,)).values[0]
    return _chain_values(value, cfg.series)[0]
