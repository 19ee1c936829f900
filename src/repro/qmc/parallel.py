"""The SPMD drivers of the QMC kernels: every layout is a rank program.

Three programs, each an ordinary rank program runnable under
:func:`repro.vmp.run_spmd` (threads), the multiprocessing backend, or
-- the API being mpi4py-shaped -- real MPI, and all of them one rank
state (:class:`_DecomposedState`) driven by one run loop
(:func:`_run_decomposed`: thermalize -> sweep -> measure -> health),
under one sweep-telemetry wrapper (:meth:`_DecomposedState.sweep`):

* :func:`worldline_strip_program` -- the world-line XXZ chain split
  into contiguous site strips.  Updates proceed stage-by-stage through
  the eight independence classes of the corner moves (stride-4 grids in
  both bond and interval index) and the two straight-line column
  parities.  Each sweep draws one *shared* uniform block, sliced per
  stage, so the trajectory is bit-identical across rank counts and
  across the kernel backends (``mode="scalar"`` is the per-move one).

* :func:`ising_block_program` -- the anisotropic classical Ising model
  (and therefore the TFIM) split into 2-D spatial blocks over a process
  grid.  Given the same per-site uniforms the parallel trajectory is
  **bit-identical** to the serial one (same-color sites do not
  interact), which the integration tests assert literally.

* :func:`chain_program` -- one whole lattice per rank, the serial (one
  rank) and replica (``n`` independent chains) layouts of every run
  kind: the no-link, no-ghost case.  A serial sampler
  (:mod:`repro.qmc.worldline`, :mod:`~repro.qmc.worldline2d`,
  :mod:`~repro.qmc.tfim`, :mod:`~repro.qmc.classical_ising`,
  :mod:`~repro.qmc.cluster`) is a move set plus the estimators its
  class names in ``ESTIMATORS``, and a chain is one such sampler
  measuring the series asked for, scalar or vector.  :func:`run_chain`
  runs one sampler, in place, as the chain of a one-rank run: the
  samplers have no run loop of their own.

Both decomposed drivers take their shared uniforms from one stream per
run (:meth:`_DecomposedState._sweep_draw`): every rank builds it
once from ``sweep_seed`` and skips ahead to its share -- the strip's
next whole block per sweep, a block rank's own rows of the sweep's
global field.

Halo protocol (both decomposed drivers): ghost copies of the boundary
data travel as ONE aggregated contiguous-buffer message per neighbor
*rank* -- two packed spin columns for the strip, the parity-packed
boundary planes for the Ising blocks (both of them where east and west
are the same rank) -- instead of one message per boundary column/plane
(under ``alpha + n * beta`` per message, aggregation cuts the latency
term and leaves the bandwidth term).  Each state only *describes* its
traffic as a ``_links`` table: per stage key, the :class:`_HaloLink`
tuples that stage posts (an axis the decomposition does not split wraps
locally); :meth:`_DecomposedState._exchange` is the one place that posts
and completes them, in the lockstep or the overlapped schedule, and
:func:`_run_decomposed` is the one run loop all programs (including
:func:`repro.qmc.two_level.two_level_program` and :func:`chain_program`,
whose states post nothing) share.  That loop also owns the reductions:
a measurement leaves its rank-local partial sums pending, and one
allreduce carries every pending row when a global value is due.

Halo schedule: a ghost ships only when it is stale and about to be
read.  A stage's ``_links`` entry holds a link iff the stage reads a
ghost column/plane its owner has written, un-mirrored, since the link's
last refresh -- a function of the stage list and the decomposition
alone, so both sides compute it independently and trajectories equal
refreshing everything everywhere.  Strip facts are per *seam* (the
boundary before global column ``c``, even): ``G0 = c-2, G1 = c-1`` are
the left ghost pair of the rank right of it, ``G2 = c, G3 = c+1`` the
right pair of the rank left of it, and corner class ``a`` acts through
``d = (a - c) % 4``:

===========  ===========  ================================
stage        reads        leaves stale
===========  ===========  ================================
corner d=0   G1           G2, G3  (bond ``c``)
corner d=1   --           G0, G3  (bonds ``c-3``, ``c+1``)
corner d=2   G2           G0, G1  (bond ``c-2``)
corner d=3   G0 G1 G2 G3  --  (seam bond ``c-1``: mirrored)
column p=0   G1           G0, G2
column p=1   G2           G1, G3
measurement  G2           --
===========  ===========  ================================

Every ghost is stale at sweep start (so nothing depends on whether a
measurement ran, on the start configuration or on a bundle's ghost
values); staleness is kept per column, refreshed per pair.  A seam at
``c % 4 == 0`` posts ``L...R.L..R.`` over the ten stages plus the
measurement (L/R: its left/right pair), one at ``2`` posts
``R.L......R.``: 4 one-directional messages per rank per sweep on the
usual geometry, none for any measurement.  A rank receives by the seams
at its ``start`` / ``stop`` and sends by the same tables read from the
other side.  The block colors already ship only the sites they read,
which leaves exactly the color-1 ghost sites stale after a sweep; every
boundary bond has one color-1 end, and the rank owning that end counts
the bond against its fresh color-0 ghost partner, so the block
measurement posts nothing either.

Ownership conventions (world-line strip, global column indices):

* rank ``r`` owns columns ``[start, stop)`` plus two ghost columns on
  each side; block sizes are even and ``>= 4``.
* corner moves at the seam bonds ``start - 1`` and ``stop - 1`` are
  executed redundantly by *both* adjacent ranks.  Shared stage uniforms
  plus identical ghost neighborhoods make the two decisions identical,
  which eliminates the boundary write-back message entirely.
* straight-line move at column ``c`` is executed by its owner only and
  writes only ``c``.

Overlapped schedule (``overlap=True`` on either driver config): a
charge schedule of the one execution order, for the modeled machine's
message coprocessor.  A stage with a halo in flight posts it as
offloaded isend/irecv (cost convention: :mod:`repro.vmp.comm`), charges
the clock its *interior* moves -- those reading no ghost, which that
machine would run meanwhile -- under ``interior``, waits
(``halo_wait``), runs its whole table in the one kernel call lockstep
makes, and charges the rest under ``boundary``.  The same comm calls in
the same order, and nothing executes differently: trajectories are
lockstep's by construction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

import numpy as np

from repro import kernels
from repro.kernels.chain_tables import (
    column_log_weights,
    column_tables,
    corner_products,
    corner_tables,
)
from repro.lattice.decomposition import BlockDecomposition, StripDecomposition
from repro.qmc.classical_ising import FLOPS_PER_SPIN_UPDATE
from repro.qmc.plaquette import PlaquetteTable
from repro.qmc.worldline import FLOPS_PER_CORNER_MOVE, SweepBatch
from repro.obs.health import NOOP_HEALTH, HealthMonitor, clock_comm_seconds
from repro.obs.metrics import ACCEPTANCE_EDGES
from repro.util.rng import SeedSequenceFactory
from repro.vmp.machines import IDEAL
from repro.vmp.scheduler import run_spmd

if TYPE_CHECKING:  # runtime import would cycle through repro.run.__init__
    from repro.obs.health import HealthRules
    from repro.run.checkpoint import CheckpointConfig

__all__ = [
    "WL_STAGES",
    "N_WL_STAGES",
    "REDUCE_BATCH",
    "WorldlineStripConfig",
    "worldline_strip_program",
    "IsingBlockConfig",
    "ising_block_program",
    "ChainConfig",
    "chain_program",
    "run_chain",
]

# Tag bases for the two drivers (distinct from the collective range).
_TAG_WL = 4096
_TAG_ISING = 8192

#: How the decomposed drivers address their shared sweep uniforms, as a
#: checkpoint records it: one skip-ahead stream per run (``"sweep"``
#: kind), sweep ``k`` at position ``k * per-sweep count``.  Bundles of
#: the earlier one-generator-per-sweep addressing carry no such entry
#: and are refused on resume.
_SWEEP_STREAM = "run-stream"


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

#: Update stages of one world-line sweep: the eight independence
#: classes of the corner moves -- (bond a, interval b) stride-4 grids
#: with (a + b) odd, which are entirely unshaded plaquettes -- followed
#: by the two straight-line column parities.  One shared uniform block
#: is drawn per sweep and sliced per stage.
WL_STAGES = tuple(
    [("corner", a, b) for a in range(4) for b in range(4) if (a + b) % 2 == 1]
    + [("column", p, None) for p in (0, 1)]
)
N_WL_STAGES = len(WL_STAGES)

#: The module docstring's halo-schedule table, G0..G3 as 0..3 -> (reads,
#: leaves stale); tests/qmc/test_halo_schedule.py holds every entry
#: against the kernels' own gather/flip tables.
_SEAM_FACTS = {
    ("corner", 0): ((1,), (2, 3)),
    ("corner", 1): ((), (0, 3)),
    ("corner", 2): ((2,), (0, 1)),
    ("corner", 3): ((0, 1, 2, 3), ()),
    ("column", 0): ((1,), (0, 2)),
    ("column", 1): ((2,), (1, 3)),
    ("measure", 0): ((2,), ()),
}


def _seam_schedule(seam: int) -> list[list[bool]]:
    """Per sweep stage, then the measurement: is the [left, right] ghost
    pair at the seam before global column ``seam`` refreshed first?
    O(stages), whatever the strip."""
    stale = [True] * 4
    schedule = []
    for kind, a, _ in (*WL_STAGES, ("measure", 0, None)):
        reads, writes = _SEAM_FACTS[kind, (a - seam) % 4 if kind == "corner" else a]
        post = [any(stale[g] for g in reads if g // 2 == pair) for pair in (0, 1)]
        for g in range(4):
            stale[g] = (stale[g] and not post[g // 2]) or g in writes
        schedule.append(post)
    return schedule


# ======================================================================
# the decomposed-run spine: one state base, one halo exchange, one loop
# ======================================================================


class _HaloLink(NamedTuple):
    """One direction of a halo refresh along one decomposed axis.

    The owned boundary sites ``send`` travel to rank ``dest`` while the
    opposite neighbor's (``source``) boundary lands in the ``ghost``
    sites -- both flat indices into the rank's ghosted spin array, in
    the one site order the two ends share.  The halo schedule may want
    only one half: the link sends iff ``dest`` is a rank and receives
    iff ``source`` is one.  Both ``None`` marks an axis the
    decomposition does not split: ``send`` wraps into ``ghost``
    locally, for free.  ``tag`` is the link's offset inside the
    exchange's tag block.
    """

    dest: int | None
    source: int | None
    send: np.ndarray
    ghost: np.ndarray
    tag: int


def _per_neighbor(links, end: str, sites: str) -> list[tuple[int, int, np.ndarray]]:
    """Coalesce the links of one stage by the rank at their ``end``:
    one ``(rank, tag offset, flat site index)`` per neighbor, the sites
    concatenated in link order.  The sender groups by ``dest``, the
    receiver by ``source``; link ``i`` of the one names link ``i`` of
    the other, so buffer layout and tag agree without negotiation."""
    by_rank: dict[int, list[_HaloLink]] = {}
    for ln in links:
        rank = getattr(ln, end)
        if rank is not None:
            by_rank.setdefault(rank, []).append(ln)
    return [
        (rank, group[0].tag,
         np.concatenate([getattr(ln, sites) for ln in group]))
        for rank, group in by_rank.items()
    ]


class _SweepMetrics:
    """The ``sweep.*`` handles of one chain of telemetry: a rank's, or one
    chain's of a batched rank (:class:`_ChainState`).  Kernel time lands
    in a counter tagged by the resolved backend."""

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


class _DecomposedState:
    """What every domain-decomposed rank state shares.

    Owns the communicator and config, the shared-randomness sweep
    counter, the Metropolis accounting, kernel-backend resolution, the
    per-sweep telemetry, the halo exchange and the checkpoint pair.  A
    subclass supplies the geometry: the class attributes below, its
    ghosted spin array (the attribute named by ``_array``), the
    ``_links`` table (per stage key, the :class:`_HaloLink` tuples the
    halo schedule posts before that stage, grouped by axis) followed by
    a call to :meth:`_plan_exchanges`, :meth:`_sweep_stages`,
    :meth:`measure`, :meth:`series_columns` and :meth:`result`.  A state
    with no geometry to exchange or checkpoint (:class:`_ChainState`)
    supplies the last four only.
    """

    #: Attribute holding the ghosted spin array -- also its bundle key --
    #: and what a resume error calls it.
    _array: str
    _array_label: str
    #: Names of the measured series, in :meth:`series_columns` order;
    #: they are the bundle keys and the result-dict keys of the series.
    series: tuple[str, ...]
    #: The scalar series the health monitor tracks.
    health_series: tuple[str, ...]
    #: Halo tag block of exchange ``n``: ``base + (n % period) * stride``.
    _tag_schedule: tuple[int, int, int]
    #: Checkpoint fingerprint: the driver's name and the config fields
    #: (geometry, couplings) a resume must match exactly, next to the
    #: rank count, sweep seed and thermalization length.
    _driver: str
    _fingerprint: tuple[str, ...]

    #: Uniforms one sweep takes from the run's sweep stream, all ranks
    #: together (the subclass sets it at construction).
    _per_sweep: int

    def __init__(self, comm, cfg):
        # Resolve the kernel backend once per rank (every backend, the
        # per-move "scalar" included, is trajectory-identical).
        self._init_rank(comm, cfg, kernels.resolve_kernel(cfg.mode))
        self._kops = kernels.get_ops(self.kernel)
        self.sweep_index = 0
        self._n_exchanges = 0
        # The run's one sweep stream, built once (see _sweep_draw), and
        # the position it stands at.
        self._sweep_gen = SeedSequenceFactory(cfg.sweep_seed).stream(
            "sweep", 0).generator
        self._sweep_pos = 0

    # -- shared randomness ---------------------------------------------------
    def _sweep_draw(self, offset: int, shape) -> np.ndarray:
        """This sweep's ``shape`` uniforms from ``offset`` into its share
        of the run's sweep stream; advances ``sweep_index``.

        Every rank builds the same stream from ``sweep_seed``, and sweep
        ``k`` owns its ``_per_sweep`` doubles from position
        ``k * _per_sweep`` on.  PCG64 spends one step per double, so
        ``advance`` skips exactly the numbers other ranks (or other
        sweeps) draw, and the position is a function of ``sweep_index``
        alone: a restore sets that and nothing else.
        """
        target = self.sweep_index * self._per_sweep + offset
        self._sweep_gen.bit_generator.advance(target - self._sweep_pos)
        u = self._sweep_gen.random(shape)
        self._sweep_pos = target + u.size
        self.sweep_index += 1
        return u

    def _init_rank(self, comm, cfg, kernel: str) -> None:
        """What :meth:`sweep` and :func:`_run_decomposed` need of any
        rank state, decomposed or not (:class:`_ChainState` calls this
        instead of the constructor): the communicator, the config with
        the sweep schedule, the resolved ``kernel``, the move counters
        and the telemetry handles."""
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

    # -- halo exchange -------------------------------------------------------
    def _plan_exchanges(self) -> None:
        """Compile ``_links`` into what :meth:`_exchange` executes: per
        stage key the sends and the receives, one per neighbor rank
        (:func:`_per_neighbor`), and the one local wrap of its unsplit
        links.  Geometry is static, so this runs once, at construction.
        """
        #: The ghosted spin array, flat: what every link indexes.
        self._flat = getattr(self, self._array).reshape(-1)
        self._plans = {}
        for stage, axes in self._links.items():
            links = [ln for axis in axes for ln in axis]
            wraps = [ln for ln in links if ln.dest is None and ln.source is None]
            self._plans[stage] = (
                _per_neighbor(links, "dest", "send"),
                _per_neighbor(links, "source", "ghost"),
                (np.concatenate([ln.ghost for ln in wraps]),
                 np.concatenate([ln.send for ln in wraps])) if wraps else None,
            )

    def _exchange(self, stage, offload: bool = False) -> list:
        """Post the halo links scheduled before ``stage``: ONE aggregated
        message per neighbor rank, none where the schedule has nothing
        stale.

        Lockstep (``offload=False``) sends, then receives, with blocking
        calls and returns nothing pending.  The overlapped schedule
        (``offload=True``) posts the same payloads to the same
        neighbors under the same tags as offloaded ``isend``/``irecv``
        and returns the ``(request, ghost sites)`` pairs, in the
        lockstep receive order, for :meth:`_exchange_wait` -- so the
        modeled clock advances through identical arrival stamps.
        Every call advances the tag block, posted or not:
        tags stay in step across ranks.
        """
        comm, flat = self.comm, self._flat
        base, period, stride = self._tag_schedule
        tag = base + (self._n_exchanges % period) * stride
        self._n_exchanges += 1
        sends, recvs, wrap = self._plans[stage]
        for dest, offset, sites in sends:
            # offloaded, this is isend minus its finished Request
            comm.send(flat[sites], dest, tag=tag + offset, offload=offload)
        if wrap is not None:
            flat[wrap[0]] = flat[wrap[1]]
        if offload:
            return [
                (comm.irecv(source=source, tag=tag + offset, offload=True), sites)
                for source, offset, sites in recvs
            ]
        for source, offset, sites in recvs:
            flat[sites] = comm.recv(source=source, tag=tag + offset)
        return []

    def _exchange_wait(self, pending: list) -> None:
        """Wait for each offloaded halo message, unpack its ghosts."""
        for req, sites in pending:
            self._flat[sites] = req.wait()

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
        """One sweep (:meth:`_sweep_stages`) plus its sweep-level telemetry."""
        obs = self._obs
        if obs:
            t0_wall = perf_counter()
            t0_model = self.comm.clock.now
            att0, acc0 = self.n_attempted, self.n_accepted
        self._sweep_stages()
        if obs:
            self._m.record(
                self.n_attempted - att0,
                self.n_accepted - acc0,
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

    # -- checkpoint/restart --------------------------------------------------
    def _checkpoint_expect(self) -> dict:
        """Geometry/seed fingerprint a resume must match exactly; it
        names the sweep-stream scheme, so a bundle written under another
        addressing of the sweep uniforms is refused, not resumed on other
        numbers."""
        cfg = self.cfg
        return {
            "driver": self._driver,
            "n_ranks": self.comm.size,
            **{name: getattr(cfg, name) for name in self._fingerprint},
            "sweep_seed": cfg.sweep_seed,
            "sweep_stream": _SWEEP_STREAM,
            "n_thermalize": cfg.n_thermalize,
        }

    def save_rank_state(self, directory, sweeps_done: int, series: dict) -> None:
        """Snapshot this rank's complete resumable state to its bundle.

        Captures the ghosted local spins, the sweep and halo-exchange
        counters, the rank's RNG stream, and the accumulated series --
        everything a restarted rank needs to continue the trajectory
        bit-identically (``mode`` and ``overlap`` are deliberately
        absent: all kernels and both schedules share trajectories, so
        resumes may switch).
        """
        from repro.run.checkpoint import pack_rng_state, save_rank_checkpoint

        meta = self._checkpoint_expect()
        meta["sweeps_done"] = int(sweeps_done)
        meta["sweep_index"] = int(self.sweep_index)
        meta["n_exchanges"] = int(self._n_exchanges)
        arrays = {self._array: getattr(self, self._array)}
        for name in self.series:
            arrays[name] = np.asarray(series[name], dtype=np.float64)
        arrays["rng_state"] = pack_rng_state(self.comm.stream.generator)
        save_rank_checkpoint(
            directory, self.comm.rank, meta, arrays, metrics=self.comm.metrics
        )

    def restore_rank_state(self, directory) -> tuple[int, dict]:
        """Restore this rank from its bundle; returns ``(sweeps_done, series)``."""
        from repro.run.checkpoint import load_rank_checkpoint, restore_rng_state

        meta, arrays = load_rank_checkpoint(
            directory, self.comm.rank, expect=self._checkpoint_expect(),
            metrics=self.comm.metrics,
        )
        spins = getattr(self, self._array)
        if arrays[self._array].shape != spins.shape:
            raise ValueError(
                f"checkpoint {self._array_label} {arrays[self._array].shape} "
                f"!= this rank's {spins.shape}"
            )
        spins[...] = arrays[self._array]  # in place: views stay valid
        self.sweep_index = int(meta["sweep_index"])
        self._n_exchanges = int(meta["n_exchanges"])
        restore_rng_state(self.comm.stream.generator, arrays["rng_state"])
        return (
            int(meta["sweeps_done"]),
            {name: list(arrays[name]) for name in self.series},
        )


def _health_monitor(health: "HealthRules | None", rank: int, replica=None):
    """The run-health monitor of world rank ``rank`` (of ``replica``):
    inert unless ``health`` rules are given."""
    if health is None:
        return NOOP_HEALTH
    return HealthMonitor(health, rank=rank, replica=replica)


#: Pending measurement rows reduce together at the latest when this
#: many have piled up: 128 rows of 4 doubles are 4 KB, one slot of the mp
#: backend's shared-memory ring.
REDUCE_BATCH = 128


def _run_decomposed(
    state: _DecomposedState,
    checkpoint: "CheckpointConfig | None",
    health: "HealthRules | None",
    *,
    monitor=None,
    on_measure=None,
    before_save=None,
) -> dict:
    """The run loop of every decomposed program.

    Resume (or thermalize), then per sweep: sweep, measure every
    ``measure_every``-th, checkpoint every ``checkpoint.every``-th,
    health-check at ``health.interval``, snapshot the metrics at their
    interval; finally assemble the rank's result dict (the series, the
    state's :meth:`~_DecomposedState.result`, the requested ``mode`` and
    the ``kernel`` it resolved to, the move counters, whether the
    overlapped schedule was charged, and the health report).

    Reductions run in batches: a measurement only appends its rank-local
    row, and one allreduce of the ``(k, n)`` array of pending rows runs
    when a global value is due -- at :data:`REDUCE_BATCH` rows, before
    a checkpoint write, before a health check, before ``on_measure``
    and at the end of the run.  The sum is element-wise and in the same
    rank order whatever ``k``, so no series bit depends on the cadence.

    The keyword arguments are the composed two-level program's hooks:
    ``monitor`` replaces the default per-rank health monitor (it stamps
    world rank and replica), ``on_measure(sweep, series)`` runs after
    each measurement and ``before_save()`` before each checkpoint write.
    """
    comm, cfg = state.comm, state.cfg
    metrics = comm.metrics
    interval = metrics.interval if metrics.enabled else 0
    if monitor is None:
        monitor = _health_monitor(health, comm.rank)
    check_every = health.interval if health is not None else 0
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
            if on_measure is not None:
                reduce_pending()
                on_measure(s, series)
            elif len(pending) == REDUCE_BATCH:
                reduce_pending()
        if (
            checkpoint is not None
            and checkpoint.every
            and (s + 1) % checkpoint.every == 0
        ):
            reduce_pending()
            if before_save is not None:
                before_save()
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
# world-line strip driver
# ======================================================================


@dataclass(frozen=True)
class WorldlineStripConfig:
    """Run parameters of the strip-decomposed world-line chain.

    ``sweep_seed`` drives the shared per-stage uniforms that make the
    trajectory independent of the rank count; ``mode`` names the kernel
    backend -- the batched NumPy ops (default), the per-move ``scalar``
    loops or their compiled ``numba`` form -- all of which produce
    bit-identical trajectories.  ``overlap`` charges the modeled clock
    the overlapped schedule (offloaded halo posts, the interior moves'
    time hidden behind the wire); what executes is the lockstep order,
    so the knob is absent from the checkpoint fingerprint and resumes
    may toggle it.
    """

    n_sites: int
    jz: float
    jxy: float
    beta: float
    n_slices: int
    n_sweeps: int
    n_thermalize: int = 0
    measure_every: int = 1
    mode: str = "vectorized"
    sweep_seed: int = 12345
    overlap: bool = False

    def __post_init__(self):
        if self.n_sites % 4:
            raise ValueError("parallel world-line driver needs L % 4 == 0")
        if self.n_slices % 4:
            raise ValueError("parallel world-line driver needs n_slices % 4 == 0")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        _validate_schedule(self)


class _StripState(_DecomposedState):
    """Per-rank world-line state: owned columns plus two ghosts per side.

    Local layout along axis 0: ``[ghost(start-2), ghost(start-1),
    owned..., ghost(stop), ghost(stop+1)]``; local index of global
    column ``g`` is ``g - start + 2``.  Two-wide ghosts are exactly the
    neighborhood a redundant seam corner move needs (it reads columns
    ``seam - 1 .. seam + 2``).
    """

    _array = "loc"
    _array_label = "strip block"
    series = ("energy", "magnetization")
    health_series = series
    _tag_schedule = (_TAG_WL, 16, 2)
    _driver = "worldline_strip"
    _fingerprint = ("n_sites", "n_slices", "jz", "jxy", "beta")

    def __init__(self, comm, cfg: WorldlineStripConfig):
        super().__init__(comm, cfg)
        self.L = cfg.n_sites
        self.T = cfg.n_slices
        self.n_trotter = cfg.n_slices // 2
        self.dtau = cfg.beta / self.n_trotter
        self.table = PlaquetteTable.build(cfg.jz, cfg.jxy, self.dtau)
        # What the two strip ops price a move from (see repro.kernels).
        self._corner_weights = corner_products(self.table.weights)
        self._logw = column_log_weights(self.table.weights)
        decomp = StripDecomposition(self.L, comm.size, require_even=True)
        self.decomp = decomp
        piece = decomp.piece(comm.rank)
        self.start, self.stop = piece.start, piece.stop
        self.n_owned = n = piece.n_owned
        if comm.size > 1 and n < 4:
            raise ValueError(
                "strip world-line driver needs >= 4 owned columns per rank"
            )
        # Neel start, straight world lines (legal everywhere).
        g = np.arange(self.start - 2, self.stop + 2)
        self.loc = loc = np.repeat(
            (g % 2).astype(np.int8)[:, None], self.T, axis=1
        )
        # The two boundary columns a neighbor mirrors travel as one
        # contiguous ``(2, T)`` int8 buffer (one alpha charge instead of
        # two), at the stages the halo schedule names: at the seam
        # ``start`` this rank holds the left ghost pair and feeds its
        # left neighbor's right pair, at ``stop`` the reverse.  Single-
        # rank runs wrap locally (both seams are column 0 there).
        right, left = (
            (piece.right_rank, piece.left_rank) if comm.size > 1 else (None, None)
        )
        cols = np.arange(loc.size).reshape(loc.shape)  # flat index of (column, t)
        rightward = _HaloLink(
            right, left, cols[n : n + 2].ravel(), cols[0:2].ravel(), 0)
        leftward = _HaloLink(
            left, right, cols[2:4].ravel(), cols[n + 2 : n + 4].ravel(), 1)
        self._links = {}
        for key, (recv_l, send_l), (send_r, recv_r) in zip(
            (*range(N_WL_STAGES), "measure"),
            _seam_schedule(self.start), _seam_schedule(self.stop),
        ):
            self._links[key] = [[
                ln._replace(dest=ln.dest if sends else None,
                            source=ln.source if receives else None)
                for ln, sends, receives in (
                    (rightward, send_r, recv_l), (leftward, send_l, recv_r))
                if sends or receives
            ]]
        self._plan_exchanges()
        # One shared uniform block per sweep, sliced per stage: corner
        # classes consume an (L/4, T/4) lattice, column parities L/2.
        sizes = [
            (self.L // 4) * (self.T // 4) if kind == "corner" else self.L // 2
            for kind, _, _ in WL_STAGES
        ]
        self._u_offsets = np.concatenate(([0], np.cumsum(sizes)))
        self._per_sweep = int(self._u_offsets[-1])
        self._build_stage_caches()
        if cfg.overlap and comm.size > 1:
            self._plan_overlap()

    # -- static per-stage geometry ----------------------------------------

    def _build_stage_caches(self) -> None:
        """Precompute the index tables of every stage (geometry is static).

        Corner class (a, b): local bonds ``j`` in ``[1, n+1]`` (global
        bonds ``start-1 .. stop-1``, the two ends being the redundant
        seam bonds) with global bond index ``== a (mod 4)``, crossed
        with intervals ``t == b (mod 4)``.  ``uflat`` indexes the
        class's ``(L/4, T/4)`` slice of the sweep's uniforms, raveled.

        The fused gather / flip tables -- flat indices into
        ``loc.reshape(-1)``, a packed ``(n_moves, 16)`` environment and
        ``(4, n_moves)`` flip cells per corner class, ``(4, 2, n_cols,
        T/2)`` per column parity -- are the serial sampler's
        (:mod:`repro.kernels.chain_tables`) on the ``n + 4`` local
        rows: a move's rows ``j-1 .. j+2`` never wrap there, and strip
        starts are even, so a bond's local parity is its global one.
        """
        n, T, L = self.n_owned, self.T, self.L
        #: One table per entry of :data:`WL_STAGES`, in stage order; none
        #: is empty (L % 4 == T % 4 == 0 and an even n_owned >= 4).
        self._stage_cache: list[dict] = []
        #: Per column parity, the ``(4, n)`` flat corner indices of the
        #: shaded plaquettes :meth:`local_dlog_sum` reads.
        self._dlog_tables: list[np.ndarray] = []
        for kind, a, b in WL_STAGES:
            if kind != "corner":
                continue
            j0 = 1 + ((a - (self.start - 1)) % 4)
            J, Tt = np.meshgrid(
                np.arange(j0, n + 2, 4, dtype=np.intp),
                np.arange(b, T, 4, dtype=np.intp),
                indexing="ij",
            )
            J, Tt = J.ravel(), Tt.ravel()
            gb = (self.start - 2 + J) % L
            env, flip = corner_tables(n + 4, T, J, Tt)
            self._stage_cache.append({
                "j": J,
                "uflat": (gb - a) // 4 * (T // 4) + (Tt - b) // 4,
                "env": env,
                "flip": flip,
            })
        for p in (0, 1):
            first = self.start + ((p - self.start) % 2)
            gc = np.arange(first, self.stop, 2, dtype=np.intp)
            lc = gc - self.start + 2
            # Bond-columns lc-1 and lc; a column flip XORs the codes of
            # the first with 10 (bits 1,3) and of the second with 5.
            gather = column_tables(n + 4, T, lc)
            self._stage_cache.append({
                "lc": lc,
                "uc": (gc - p) // 2,
                "gather": gather,
            })
            # The second halves are the shaded plaquettes at this
            # parity's owned bonds: the energy measurement's gather.
            self._dlog_tables.append(gather[:, 1].reshape(4, -1))

    def _plan_overlap(self) -> None:
        """Per stage, the moves the overlapped schedule charges as
        interior -- the ones that read no ghost row.

        A corner move at local bond ``J`` reads rows ``J-1 .. J+2``, so
        it is interior iff ``3 <= J <= n-1`` (owned rows are
        ``2 .. n+1``); a column move at local column ``lc`` reads
        ``lc-1 .. lc+1``, interior iff ``3 <= lc <= n``.  Every corner
        move is attempted, so a corner cache gains the count,
        ``n_interior``; only straight columns are, so a column cache
        gains the mask, ``interior``.  Degenerate geometries (a class
        with no interior moves -- thin strips) disable the overlap with
        a warning and fall back to the lockstep schedule.
        """
        n = self.n_owned
        rank = self.comm.rank
        for (kind, a, b), cache in zip(WL_STAGES, self._stage_cache):
            if kind == "corner":
                rows, hi = cache["j"], n - 1
                what = f"corner class ({a}, {b}) has no interior moves"
            else:
                rows, hi = cache["lc"], n
                what = f"column parity {a} has no interior columns"
            interior = (rows >= 3) & (rows <= hi)
            if not interior.any():
                warnings.warn(
                    f"strip overlap disabled: {what} on rank {rank} ({n} "
                    f"owned columns); falling back to the lockstep exchange",
                    stacklevel=3,
                )
                return
            if kind == "corner":
                cache["n_interior"] = int(np.count_nonzero(interior))
            else:
                cache["interior"] = interior
        self.overlap_active = True

    # -- shared randomness --------------------------------------------------
    def _sweep_uniforms(self) -> np.ndarray:
        """This sweep's uniforms; every rank draws the identical block.

        The next ``_per_sweep`` numbers of the run's sweep stream hold
        the ten stage lattices as slices of a single draw (corner
        classes consume the compact ``(L/4, T/4)`` class grid, column
        parities ``L/2`` values).  Every kernel and all rank counts
        index the same numbers, the source of bit-identity.
        """
        return self._sweep_draw(0, self._per_sweep)

    def _charge_moves(self, n_moves: int, flops_per_move: float,
                      category: str) -> None:
        """Charge the modeled compute time of ``n_moves`` moves; a zero
        share charges nothing, so it opens no clock category."""
        if n_moves:
            self.comm.charge_seconds(
                self.comm.machine.compute_time(flops_per_move * n_moves), category
            )

    # -- corner moves --------------------------------------------------------
    def _corner_class(self, cache: dict, u: np.ndarray) -> int:
        """One corner class; returns the accepted-move count.

        The gather -> XOR-code -> accept -> scatter body is the
        ``strip_corner`` op of the resolved kernel backend (see
        :mod:`repro.kernels`), batched or per move; every backend
        prices a move from the same weight-product tables, keeping
        accept decisions bit-identical.
        """
        return self._timed(
            self._kops["strip_corner"], self._flat, self._corner_weights,
            cache["env"], cache["flip"], u[cache["uflat"]],
        )

    # -- straight-line column moves -----------------------------------------
    def _column_parity(self, cache: dict, u: np.ndarray, straight: np.ndarray) -> int:
        """Straight-line moves of one parity over its ``straight``
        columns (at least one); returns the accepted-move count.

        The backend's ``strip_column`` op prices the flips over the
        cached bond-column gather (post-flip codes are pre-flip codes
        XORed with 10 / 5, so no speculative column flips); the log of
        the stage's uniforms is taken here with NumPy so every backend
        compares against identical values.
        """
        log_uu = np.log(np.maximum(u[cache["uc"]], 1e-300))
        return self._timed(
            self._kops["strip_column"], self.loc, self._logw, cache["lc"],
            cache["gather"], straight, log_uu,
        )

    def _sweep_stages(self) -> None:
        """One full sweep: 10 stages, each behind the halo links the
        schedule posts for it (none at most stages), each one kernel
        call over its whole table.

        The overlapped schedule differs in what the clock is charged,
        not in what runs: a stage with a halo in flight charges its
        interior moves (the ones reading no ghost) before the wait and
        the rest after it, under ``interior`` / ``boundary``.  Which
        columns are straight is read from the owned columns themselves,
        so a column stage's interior count is known before the wait.
        """
        u_sweep = self._sweep_uniforms()
        for s_idx, (kind, _, _) in enumerate(WL_STAGES):
            cache = self._stage_cache[s_idx]
            u = u_sweep[self._u_offsets[s_idx] : self._u_offsets[s_idx + 1]]
            pending = self._exchange(s_idx, offload=self.overlap_active)
            if kind == "corner":
                n_moves, flops = cache["j"].size, FLOPS_PER_CORNER_MOVE
                n_int = cache["n_interior"] if pending else 0
            else:
                rows = self.loc[cache["lc"]]
                straight = (rows == rows[:, :1]).all(axis=1)
                n_moves, flops = int(np.count_nonzero(straight)), 2.0 * self.T
                n_int = (
                    int(np.count_nonzero(straight & cache["interior"]))
                    if pending else 0
                )
            if pending:
                self._charge_moves(n_int, flops, "interior")
                self._exchange_wait(pending)
            if kind == "corner":
                self.n_accepted += self._corner_class(cache, u)
            elif n_moves:
                self.n_accepted += self._column_parity(cache, u, straight)
            self.n_attempted += n_moves
            self._charge_moves(
                n_moves - n_int, flops, "boundary" if pending else "compute"
            )

    # -- measurement ---------------------------------------------------------
    def local_dlog_sum(self) -> float:
        """Sum of d ln W over shaded plaquettes at owned bonds (one
        partial sum per bond parity, even first: the series' bits)."""
        flat = self.loc.reshape(-1)
        total = 0.0
        for table in self._dlog_tables:
            s00, s10, s01, s11 = flat[table]
            total += float(np.sum(self.table.dlog[s00 + 2 * s10 + 4 * s01 + 8 * s11]))
        return total

    def measure(self) -> np.ndarray:
        """Owned-bond d ln W sum and slice-0 S^z of the owned columns."""
        self._exchange("measure")  # scheduled empty; takes its tag block
        owned = self.loc[2 : self.n_owned + 2, 0]
        return np.array(
            [self.local_dlog_sum(), owned.sum() - self.n_owned / 2.0]
        )

    def series_columns(self, totals: np.ndarray) -> tuple:
        """Energy estimate and slice-0 total S^z of the whole chain."""
        return -totals[:, 0] / self.n_trotter, totals[:, 1]

    def result(self) -> dict:
        return {
            "owned_spins": self.loc[2 : self.n_owned + 2].copy(),
            "start": self.start,
            "stop": self.stop,
            "beta": self.cfg.beta,
            "dtau": self.dtau,
        }


def worldline_strip_program(
    comm,
    cfg: WorldlineStripConfig,
    checkpoint: "CheckpointConfig | None" = None,
    health: "HealthRules | None" = None,
) -> dict:
    """SPMD rank program: strip-decomposed world-line XXZ chain.

    Returns, on every rank, a dict with the energy and magnetization
    time series (identical across ranks thanks to allreduce) plus this
    rank's final owned spin block (for invariant checks) and
    ``overlap_active`` -- whether this rank charged the overlapped
    schedule (a requested overlap falls back to lockstep on thin
    strips).

    ``checkpoint`` enables distributed checkpoint/restart: with
    ``every > 0`` each rank snapshots its bundle after every
    ``every``-th sweep; with ``resume=True`` each rank restores its
    bundle first (skipping thermalization, already in the trajectory)
    and continues **bit-identically** to the uninterrupted run.

    ``health`` (a :class:`~repro.obs.health.HealthRules`) turns on the
    streaming run-health monitor: measured observables feed online
    estimators and the declarative rules fire at ``health.interval``
    sweeps, with the resulting events/summary returned in the value
    dict.  The monitor draws no random number and sends nothing of its
    own -- a check only pulls the pending measurement reduction forward
    -- so the trajectory and every series are bit-identical with health
    on or off.
    """
    return _run_decomposed(_StripState(comm, cfg), checkpoint, health)


# ======================================================================
# block-decomposed classical Ising / TFIM driver
# ======================================================================


@dataclass(frozen=True)
class IsingBlockConfig:
    """Run parameters of the block-decomposed anisotropic Ising sampler.

    The lattice is ``(lx, ly, lt)`` with couplings ``(kx, ky, kt)``; set
    ``ly = 2, ky = 0`` axes as needed for lower-dimensional problems --
    or use the TFIM helpers in :mod:`repro.run` which fill these in.
    ``sweep_seed`` drives the shared per-sweep uniforms that make
    parallel runs bit-identical to serial ones; ``mode`` names the kernel
    backend (batched ``numpy``, the default; per-site ``scalar``;
    ``numba``), all of which produce bit-identical trajectories.  ``overlap``
    charges the modeled clock the overlapped schedule (offloaded halo
    posts, the interior sites' share of a color hidden behind the
    wire); what executes is the lockstep order.
    """

    lx: int
    ly: int
    lt: int
    kx: float
    ky: float
    kt: float
    n_sweeps: int
    n_thermalize: int = 0
    measure_every: int = 1
    sweep_seed: int = 12345
    mode: str = "vectorized"
    overlap: bool = False

    def __post_init__(self):
        for name, k in (("lx", self.kx), ("ly", self.ky), ("lt", self.kt)):
            v = getattr(self, name)
            if v == 1:
                if k != 0.0:
                    raise ValueError(f"extent-1 axis {name} must have zero coupling")
            elif v < 2 or v % 2:
                raise ValueError(f"{name} must be even and >= 2 (or inert 1), got {v}")
        _validate_schedule(self)


class _BlockState(_DecomposedState):
    """Per-rank block of the (lx, ly, lt) classical lattice.

    The block lives inside a ghosted array ``g`` with one ghost plane
    per spatial side; ``spins`` is the interior view.  Ghost corners
    are never read (no diagonal couplings).
    """

    _array = "g"
    _array_label = "block"
    series = ("magnetization", "bond_sums")
    health_series = ("magnetization",)
    _tag_schedule = (_TAG_ISING, 8, 4)
    _driver = "ising_block"
    _fingerprint = ("lx", "ly", "lt", "kx", "ky", "kt")

    def __init__(self, comm, cfg: IsingBlockConfig):
        super().__init__(comm, cfg)
        grid = None
        if cfg.ly == 1:
            grid = (comm.size, 1)  # inert y axis: decompose x only
        elif cfg.lx == 1:
            grid = (1, comm.size)
        decomp = BlockDecomposition(
            cfg.lx, cfg.ly, comm.size, process_grid=grid, require_even=False
        )
        # Evenness is needed only along axes the process grid actually
        # splits (so checkerboard parities align across rank boundaries).
        for p in decomp.pieces:
            bx, by = p.shape
            if decomp.px > 1 and bx % 2:
                raise ValueError(f"odd x-block of {bx} columns on rank {p.rank}")
            if decomp.py > 1 and by % 2:
                raise ValueError(f"odd y-block of {by} columns on rank {p.rank}")
        self.decomp = decomp
        p = decomp.piece(comm.rank)
        self.piece = p
        self.bx, self.by = p.shape
        self.lt = cfg.lt
        self.couplings = np.array([cfg.kx, cfg.ky, cfg.kt])
        # Cold start matching AnisotropicIsing's default; ghost planes
        # are overwritten by the first exchange.
        self.g = np.ones((self.bx + 2, self.by + 2, self.lt), dtype=np.int8)
        self.spins = self.g[1:-1, 1:-1]
        # Global parity of each local site (for checkerboard colors).
        gx = np.arange(p.x_start, p.x_stop)
        gy = np.arange(p.y_start, p.y_stop)
        gt = np.arange(self.lt)
        parity = (gx[:, None, None] + gy[None, :, None] + gt[None, None, :]) % 2
        self.color_masks = [(parity == c) for c in (0, 1)]
        self._n_sites = self._per_sweep = cfg.lx * cfg.ly * cfg.lt
        self._n_color_sites = [int(m.sum()) for m in self.color_masks]
        # Link tables per stage: the two checkerboard colors.  The
        # measurement has none (see :meth:`measure`).
        self._links = {c: self._build_links(c) for c in (0, 1)}
        self._plan_exchanges()
        # Per spatial axis, the boundary bonds this rank counts: its
        # color-1 face sites (what the color-0 links send) against their
        # ghost partners (where the color-1 links land, opposite face
        # first); None for an extent-1 axis.
        self._face_bonds = [
            (np.concatenate([ln.send for ln in before]),
             np.concatenate([ln.ghost for ln in reversed(after)]))
            if before else None
            for before, after in zip(self._links[0], self._links[1])
        ]
        # Overlapped schedule: per color, the count of interior sites
        # (no neighbour in a ghost plane: off the first and last plane of
        # every axis the process grid splits) -- the share of a color's
        # compute the clock is charged before the halo wait.
        if cfg.overlap and comm.size > 1:
            inner = tuple(
                slice(1, -1) if parts > 1 else slice(None)
                for parts in (decomp.px, decomp.py)
            )
            self._n_int = [int(m[inner].sum()) for m in self.color_masks]
            if not any(self._n_int):
                warnings.warn(
                    f"rank {comm.rank}: block {self.bx}x{self.by} is too"
                    " thin for halo overlap (every site is"
                    " ghost-adjacent); falling back to the lockstep"
                    " exchange",
                    stacklevel=2,
                )
            else:
                self.overlap_active = True

    # -- halo description -----------------------------------------------------
    def _build_links(self, color: int) -> list[list[_HaloLink]]:
        """The x-axis and y-axis link pairs of one stage.

        ``color`` is the checkerboard color about to be updated: only
        the opposite-parity boundary sites -- the ones that color
        actually reads, and the only ones written since they last
        shipped -- are packed, halving the wire bytes at the same
        message count.  The parity of an x-boundary site is
        ``(gx + yt) % 2``, of a y-boundary site ``(gy + xt) % 2``;
        sender and receiver evaluate the same *global* plane
        coordinate and flatten in C order, so the site orders agree.
        Axes the process grid does not split wrap locally; an extent-1
        axis (zero coupling, no bonds) has an empty pair: its ghosts
        are never refreshed and never read.
        """

        def sites(plane: np.ndarray, par: np.ndarray, coord: int) -> np.ndarray:
            return plane[par == ((coord + color + 1) % 2)]

        p, cfg = self.piece, self.cfg
        g = np.arange(self.g.size).reshape(self.g.shape)  # flat site index
        s = g[1:-1, 1:-1]
        gt = np.arange(self.lt)
        yt = (np.arange(p.y_start, p.y_stop)[:, None] + gt) % 2
        xt = (np.arange(p.x_start, p.x_stop)[:, None] + gt) % 2
        east, west = (p.east, p.west) if self.decomp.px > 1 else (None, None)
        north, south = (p.north, p.south) if self.decomp.py > 1 else (None, None)
        return [
            [
                _HaloLink(east, west, sites(s[-1], yt, p.x_stop - 1),
                          sites(g[0, 1:-1], yt, p.x_start - 1), 0),
                _HaloLink(west, east, sites(s[0], yt, p.x_start),
                          sites(g[-1, 1:-1], yt, p.x_stop), 1),
            ] if cfg.lx > 1 else [],
            [
                _HaloLink(north, south, sites(s[:, -1], xt, p.y_stop - 1),
                          sites(g[1:-1, 0], xt, p.y_start - 1), 2),
                _HaloLink(south, north, sites(s[:, 0], xt, p.y_start),
                          sites(g[1:-1, -1], xt, p.y_stop), 3),
            ] if cfg.ly > 1 else [],
        ]

    def _sweep_uniforms(self) -> np.ndarray:
        """This sweep's per-site uniforms: this rank's block of the
        global ``(lx, ly, lt)`` field every rank derives from the shared
        sweep stream -- the source of serial/parallel bit-identity.  The
        stream skips ahead to the rank's first x-row of this sweep's
        field and draws its rows only, so a rank's random work is its
        share of the lattice.
        """
        p, ly = self.piece, self.cfg.ly
        u = self._sweep_draw(p.x_start * ly * self.lt, (self.bx, ly, self.lt))
        return u[:, p.y_start : p.y_stop]

    def _update_color(self, mask: np.ndarray, log_u: np.ndarray) -> int:
        """One color's Metropolis update through the configured
        backend's ``block_color`` op; returns the accepted-flip count."""
        return self._timed(
            self._kops["block_color"], self.g, self.couplings, mask, log_u
        )

    def _sweep_stages(self) -> None:
        """Both checkerboard colors, each one kernel call behind its
        color-packed halo exchange.

        The overlapped schedule differs in what the clock is charged,
        not in what runs: each color posts its exchange offloaded,
        charges its interior sites' share of the update (they read no
        ghost) under ``interior`` before the wait and the rest under
        ``boundary`` after it, where lockstep charges both colors at
        once at the end.
        """
        uniforms = self._sweep_uniforms()
        log_u = np.log(np.maximum(uniforms, 1e-300))
        overlap, comm = self.overlap_active, self.comm
        flops_per_color = FLOPS_PER_SPIN_UPDATE * self.spins.size
        for c, mask in enumerate(self.color_masks):
            pending = self._exchange(c, offload=overlap)
            if overlap:
                frac = self._n_int[c] / self._n_color_sites[c]
                comm.charge_seconds(
                    comm.machine.compute_time(flops_per_color * frac), "interior"
                )
                self._exchange_wait(pending)
            self.n_accepted += self._update_color(mask, log_u)
            if overlap:
                comm.charge_seconds(
                    comm.machine.compute_time(flops_per_color * (1.0 - frac)),
                    "boundary",
                )
        if not overlap:
            comm.charge_compute(flops_per_color * 2)
        self.n_attempted += self._n_color_sites[0] + self._n_color_sites[1]

    # -- measurement -----------------------------------------------------------
    def measure(self) -> np.ndarray:
        """Spin sum and (x, y, t) bond sums of the bonds this rank counts.

        After a full sweep a ghost is stale exactly at its color-1
        sites (color 0 shipped before the color-1 stage and has not
        moved since).  Every boundary bond has one color-1 end; the
        rank owning that end counts the bond, reading the partner's
        fresh color-0 ghost.  Each bond is still counted once over the
        ranks and the sums are exact integers, so the totals are the
        ones owned-origin counting gave.  An extent-1 axis bonds every
        site to itself.
        """
        self._n_exchanges += 1  # the tag block its exchange used to take
        s, flat = self.spins, self._flat

        def bonds(a: np.ndarray, b: np.ndarray) -> int:
            return a.size - 2 * np.count_nonzero(a != b)  # exact for +-1

        sums = [s.size - 2 * np.count_nonzero(s < 0)]
        for inner, faces in zip(
            ((s[:-1], s[1:]), (s[:, :-1], s[:, 1:])), self._face_bonds
        ):
            if faces is None:
                sums.append(s.size)
            else:
                own, ghost = faces
                sums.append(bonds(*inner) + bonds(flat[own], flat[ghost]))
        sums.append(
            bonds(s[..., :-1], s[..., 1:]) + bonds(s[..., -1], s[..., 0])
            if self.lt > 1 else s.size
        )
        return np.array(sums, dtype=np.float64)

    def series_columns(self, totals: np.ndarray) -> tuple:
        """Global magnetization per site and (x, y, t) bond sums."""
        return totals[:, 0] / self._n_sites, totals[:, 1:]

    def result(self) -> dict:
        p = self.piece
        return {
            "block": self.spins.copy(),
            "piece": (p.x_start, p.x_stop, p.y_start, p.y_stop),
        }


def ising_block_program(
    comm,
    cfg: IsingBlockConfig,
    checkpoint: "CheckpointConfig | None" = None,
    health: "HealthRules | None" = None,
) -> dict:
    """SPMD rank program: block-decomposed anisotropic Ising sweeps.

    Returns on every rank the (identical) global time series of
    magnetization and per-axis bond sums, plus the rank's owned block
    for bit-identity checks.  ``checkpoint`` enables per-rank
    checkpoint/restart and ``health`` the streaming run-health monitor,
    exactly as in :func:`worldline_strip_program`.
    """
    return _run_decomposed(_BlockState(comm, cfg), checkpoint, health)


# ======================================================================
# whole-lattice chains: the serial and replica layouts
# ======================================================================


@dataclass(frozen=True)
class ChainConfig:
    """Run parameters of :func:`chain_program`.

    ``build(stream, mode)`` constructs the rank's serial sampler on its
    random stream: a move set (``resolve_sweep(mode)``, ``spins`` and
    the ``n_attempted`` / ``n_accepted`` counters) whose class maps
    series names to estimator methods in ``ESTIMATORS``.  ``series``
    names what the chain measures, ``health_series`` the scalar ones of
    them the health monitor tracks; ``mode`` is a sweep mode of the
    samplers (``"auto"``, ``"scalar"``, ``"vectorized"`` or a backend).
    ``seeds``, when given, makes the rank a batch of one chain per seed
    (see :class:`_ChainState`).
    """

    build: Callable[[Any, str], Any]
    series: tuple[str, ...]
    health_series: tuple[str, ...]
    n_sweeps: int
    n_thermalize: int = 0
    measure_every: int = 1
    mode: str = "auto"
    seeds: tuple[int, ...] = ()

    def __post_init__(self):
        _validate_schedule(self)


class _ChainState(_DecomposedState):
    """Whole lattices on one rank: the no-link, no-ghost case.

    One chain on the rank's stream, or with ``cfg.seeds`` a batch of R
    chains, chain ``i`` on the stream a one-rank run at ``seeds[i]``
    has (``SeedSequenceFactory(seeds[i]).rank_stream(0)``) and all of
    them swept by one :class:`~repro.qmc.worldline.SweepBatch` -- each
    chain the trajectory of that run.  The estimators draw nothing, so
    each is evaluated once here, on the start configuration, to lay out
    the measurement row: a scalar takes one column and stays a 1-D
    series, an array of width ``w`` takes ``w`` and is stacked into an
    ``(n_measurements, w)`` series.  A batch measures the R chains'
    rows side by side and its series carry a chain axis after the
    measurement axis (``(n, R)``, ``(n, R, w)``), as its ``spins``
    (``(R, ...)``) and counters (lists) do.  ``comm`` has this rank
    alone, so the run loop's reductions return the rank's own rows and
    ``series_columns`` only splits them.

    A batch records each chain's sweep telemetry into its own scope of
    the :class:`~repro.obs.metrics.MetricsFanout` the run records into,
    the batch's wall time split evenly; it takes no health rules.
    """

    def __init__(self, comm, cfg: ChainConfig):
        streams = [comm.stream] if not cfg.seeds else [
            SeedSequenceFactory(seed).rank_stream(0) for seed in cfg.seeds
        ]
        self.samplers = [cfg.build(stream, cfg.mode) for stream in streams]
        q = self.samplers[0]
        unknown = [name for name in cfg.series if name not in q.ESTIMATORS]
        if unknown:
            raise ValueError(f"{type(q).__name__} has no estimator {unknown[0]!r};"
                             f" it measures {', '.join(q.ESTIMATORS)}")
        self._batched = bool(cfg.seeds)
        batch = SweepBatch(self.samplers) if self._batched else q
        kernel, self._sweep = batch.resolve_sweep(cfg.mode)
        self._init_rank(comm, cfg, kernel)
        if self._batched:
            # Each chain's sweeps go to its own scope (_sweep_stages),
            # not the rank's to every scope.
            self._chain_m = (
                [_SweepMetrics(m, kernel) for m in comm.metrics.scopes]
                if self._obs else []
            )
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
        if not self._batched:
            self._timed(self._sweep)
            self.n_attempted = self.samplers[0].n_attempted
            self.n_accepted = self.samplers[0].n_accepted
            return
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
        if self._batched:
            totals = totals.reshape(len(totals), len(self.samplers), -1)
        return tuple(totals[..., c] for c in self._columns)

    def result(self) -> dict:
        if self._batched:
            return {"spins": np.stack([q.spins for q in self.samplers])}
        return {"spins": self.samplers[0].spins.copy()}


def chain_program(
    comm, cfg: ChainConfig, health: "HealthRules | None" = None
) -> dict:
    """SPMD rank program: one independent whole-lattice chain per rank.

    Chain ``i`` draws from ``comm.stream`` of rank ``i`` -- the ``i``-th
    child stream of the run's seed, so chain 0 is the one-rank run at
    that seed -- and runs the drivers' loop over a communicator of its
    own (``comm.split(comm.rank)``): nothing is pooled across chains,
    the caller concatenates their series in rank order.  Returns the
    chain's series, final ``spins``, move counters, the ``kernel`` that
    ran and, with ``health`` rules, the events and summary of a monitor
    stamped with the chain's world rank.  With ``cfg.seeds`` the rank is
    a batch of chains instead (:class:`_ChainState`), run without health.
    """
    if cfg.seeds and health is not None:
        raise ValueError("a batch of chains runs without health rules")
    return _run_decomposed(
        _ChainState(comm.split(comm.rank), cfg),
        None,
        health,
        monitor=_health_monitor(health, comm.rank),
    )


def run_chain(
    sampler,
    series,
    n_sweeps: int,
    n_thermalize: int = 0,
    measure_every: int = 1,
    mode: str = "auto",
) -> dict:
    """Run a serial sampler, in place, as the chain of a one-rank
    :func:`chain_program` (thread backend, ideal machine).

    It draws from the stream it was built on, so its ``spins``, counters
    and ``check_invariants()`` describe the end of the run.  The
    schedule is the drivers' (a bad one is a ``ValueError`` naming the
    field); ``series`` are keys of the sampler's ``ESTIMATORS``.
    Returns rank 0's value: one array per series name, ``spins``,
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
    return run_spmd(chain_program, 1, machine=IDEAL, args=(cfg,)).values[0]
