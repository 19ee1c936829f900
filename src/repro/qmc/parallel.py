"""The SPMD drivers of the QMC kernels: every layout is a rank program.

Three programs, each an ordinary rank program runnable under
:func:`repro.vmp.run_spmd` (threads), the multiprocessing backend, or
-- the API being mpi4py-shaped -- real MPI, and all of them one rank
state (:class:`_DecomposedState`) driven by one run loop
(:func:`_run_decomposed`: thermalize -> sweep -> measure -> health),
under one sweep-telemetry wrapper (:meth:`_DecomposedState.sweep`):

* :func:`worldline_strip_program` -- the world-line XXZ chain split
  into contiguous site strips.  Updates proceed stage-by-stage through
  the chain's four corner colors
  (:data:`repro.kernels.chain_tables.CORNER_COLORS`, each two stride-4
  classes of moves that never interact) and the two straight-line
  column parities: six kernel calls a rank-sweep.  Each sweep draws one
  *shared* uniform block, sliced per stage, so the trajectory is
  bit-identical across rank counts and across the kernel backends
  (``mode="scalar"`` is the per-move one).

* :func:`ising_block_program` -- the anisotropic classical Ising model
  (and therefore the TFIM) split into 2-D spatial blocks over a process
  grid.  A rank's frame keeps two ghost planes a side on every spatial
  axis of extent > 1 (none on an extent-1 one, so a chain's spins are
  contiguous), refreshed once a sweep before color 0; color 0 also
  updates the inner ghost ring, on its owner's uniforms, so color 1
  reads only fresh ghosts.  A flip is priced by a count: ``log u <
  thr[code]``, ``code`` the int8 count of the neighbour sums and ``thr``
  :func:`~repro.kernels.ising_tables.ising_thresholds`.  Given the same
  per-site uniforms the parallel trajectory is **bit-identical** to the
  serial one (same-color sites do not interact, and a redundant update
  decides as its owner does), which the integration tests assert
  literally.

* :func:`chain_program` -- whole lattices, all on one rank: the serial
  (one chain) and replica (``n`` independent chains) layouts of every
  run kind, the no-link, no-ghost case.  A serial sampler
  (:mod:`repro.qmc.worldline`, :mod:`~repro.qmc.worldline2d`,
  :mod:`~repro.qmc.tfim`, :mod:`~repro.qmc.classical_ising`,
  :mod:`~repro.qmc.cluster`) is a move set plus the estimators its
  class names in ``ESTIMATORS``, and a chain is one such sampler on its
  own stream measuring the series asked for, scalar or vector.
  :func:`run_chain` runs one sampler, in place, as a one-chain run:
  the samplers have no run loop of their own.

Both decomposed drivers take their shared uniforms from one stream per
run (:meth:`_DecomposedState._sweep_draw`): every rank builds it
once from ``sweep_seed`` and skips ahead to its share -- the strip's
next whole block per sweep, a block rank's own rows of the sweep's
global field and one more a side.

A strip rank pays for its moves, not its set-up: everything it derives
from the geometry and couplings -- frame, halo walk and links, stage
tables, pricing tables, the sweep's uniform index -- is one read-only
:class:`_StripPlan`, memoized per process (:func:`_strip_plan`).  A
rank looks its plan up by its own key; a launcher whose ranks share or
inherit its memory builds the run's plans first (:func:`strip_plans`),
so threads share them and forked ranks inherit them, and elsewhere a
rank builds its own on first use.  A sweep then takes the rank's
uniforms of all six stages with one gather by the plan's index and one
log for both column stages, and each stage reads its view of them.

Halo protocol (both decomposed drivers): ghost copies of the boundary
data travel as ONE aggregated contiguous-buffer message per neighbor
*rank* -- the packed ghost columns for the strip, the two-deep
boundary planes for the Ising blocks (both faces where east and west
are the same rank; an x phase, then a y phase that carries the x
ghosts into the corners) -- instead of one message per boundary column/plane
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
read -- a function of the stage list and the decomposition alone, so
both sides compute it independently and trajectories equal refreshing
everything everywhere.  A strip rank holds ``D`` ghost columns a side
and runs every move whose reads are fresh, owned or redundant, so its
ghosts go stale slowly.  :func:`_halo_walk` walks one sweep over the
columns, every ghost stale at sweep start: a column goes stale when the
stage's move that writes it cannot run; a refresh (every ghost, one
message per neighbor rank) goes before a stage whose owned moves would
read a stale column, or a measurement that would; and of the redundant
moves only those run that some later move reads.
``D`` is the smallest even depth at which the walk posts its fewest
refreshes, capped beyond two ranks by the thinnest piece
(:func:`_ghost_depth`):

==========================  =====  =================  =============
ranks, pieces (columns)     ``D``  refreshes a sweep  before stages
==========================  =====  =================  =============
two, any                    10     1                  0
three or more, 10 or more   10     1                  0
three or more, 8            6      2                  0, 3
three or more, 4            4      3                  0, 2, 5
one (local wraps)           2      5                  0, 1, 2, 3, 5
==========================  =====  =================  =============

so a P = 2 run sends one message a rank and sweep, a P >= 3 run of wide
pieces two, and none is posted for a measurement.  The block refreshes
once a sweep too, every ghost plane before color 0 (one message a rank
and split axis), which leaves the outer planes and the inner ones'
color-1 sites stale after a sweep; every boundary bond has one color-1
end, and the rank owning that end counts the bond against its fresh
color-0 ghost partner, so the block measurement posts nothing either.

Ownership conventions (world-line strip, global column indices):

* rank ``r`` owns columns ``[start, stop)`` plus ``D`` ghost columns on
  each side; block sizes are even and ``>= 4``.
* every move that writes an owned column runs on the rank; the corner
  moves at the seam bonds ``start - 1`` and ``stop - 1`` therefore run
  on *both* adjacent ranks, and moves inside the ghosts run where the
  walk keeps them.  Shared stage uniforms plus identical neighborhoods
  make every copy's decision the owner's, which eliminates the boundary
  write-back message entirely.
* a rank counts the bonds ``start .. stop - 1`` and its own columns, so
  every move counts once over the ranks.

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
from functools import lru_cache
from itertools import islice
from time import perf_counter
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

import numpy as np

from repro import kernels
from repro.kernels.chain_tables import (
    CORNER_COLORS,
    column_neighbors,
    column_thresholds,
    corner_products,
    corner_tables,
    plaquette_codes,
    shaded_corners,
)
from repro.kernels.ising_tables import ising_thresholds
from repro.lattice.decomposition import BlockDecomposition, StripDecomposition
from repro.qmc.classical_ising import FLOPS_PER_SPIN_UPDATE
from repro.qmc.plaquette import PlaquetteTable
from repro.qmc.worldline import FLOPS_PER_CORNER_MOVE, SweepBatch, TableSweeps
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
    "strip_halo_traffic",
    "block_halo_traffic",
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

#: Update stages of one strip-driver sweep, in order: the chain's four
#: corner colors (``("corner", k)``: :data:`CORNER_COLORS` ``[k]``, two
#: stride-4 classes whose moves never interact), then the two
#: straight-line column parities.  One shared uniform block is drawn per
#: sweep and sliced per stage.
WL_STAGES = (
    *(("corner", k) for k in range(len(CORNER_COLORS))), ("column", 0), ("column", 1)
)
N_WL_STAGES = len(WL_STAGES)

#: Offsets from a move's local bond (corner) or column (straight line)
#: to the local columns it reads and the ones it writes.
_MOVE_READS = {"corner": np.arange(-1, 3), "column": np.arange(-1, 2)}
_MOVE_WRITES = {"corner": np.arange(2), "column": np.arange(1)}


def _stage_parity(kind: str, index: int) -> int:
    """The parity of the bonds (columns) a stage's moves sit on."""
    return CORNER_COLORS[index][0][0] % 2 if kind == "corner" else index


class _HaloWalk(NamedTuple):
    """The strip's halo schedule on one rank's frame (module docstring,
    "Halo schedule"): per stage, then the measurement, whether every
    ghost is refreshed first and the columns fresh while it runs; per
    stage, the local bonds / columns whose moves run, ascending."""

    refresh: list[bool]
    runs: list[np.ndarray]
    fresh: list[np.ndarray]


@lru_cache(maxsize=64)
def _halo_walk(n_owned: int, depth: int) -> _HaloWalk:
    """Walk one sweep over a frame of ``n_owned`` owned columns and
    ``depth`` ghosts a side (local parity the global one).

    Forward, running every move whose reads are fresh: a column goes
    stale when the stage's move that writes it cannot run, and a refresh
    (every ghost fresh) goes before a stage whose owned moves -- the ones
    writing an owned column -- would read a stale one.  Backward: of the
    redundant moves only those run whose writes a later move that runs
    reads before the next refresh (or the measurement, which reads
    column ``stop``).  Every ghost is stale at sweep start.  Memoized:
    the ranks of a process share it, read-only.
    """
    width = n_owned + 2 * depth
    owned = np.zeros(width, dtype=bool)
    owned[depth : depth + n_owned] = True
    stages = []
    fresh = owned
    for kind, index in WL_STAGES:
        reads, writes = _MOVE_READS[kind], _MOVE_WRITES[kind]
        parity = _stage_parity(kind, index)
        x = np.arange(2 - parity, width - reads[-1], 2)
        ok = fresh[x[:, None] + reads].all(axis=1)
        post = not ok[owned[x[:, None] + writes].any(axis=1)].all()
        if post:
            fresh = np.ones(width, dtype=bool)
            ok[:] = True
        stages.append((x, ok, post))
        fresh = _advance(fresh, kind, parity, x[ok])
    refresh = [post for _, _, post in stages] + [not fresh[depth + n_owned]]
    runs = []
    live = np.zeros(width, dtype=bool)
    live[depth : depth + n_owned + 1] = not refresh[-1]
    for (kind, _), (x, ok, post) in zip(WL_STAGES[::-1], stages[::-1]):
        reads, writes = _MOVE_READS[kind], _MOVE_WRITES[kind]
        run = x[ok & (owned | live)[x[:, None] + writes].any(axis=1)]
        runs.insert(0, run)
        live = live.copy()
        live[(run[:, None] + reads).ravel()] = True
        if post:
            live[:] = False
    fresh_at, fresh = [], owned
    for (kind, index), run, post in zip(WL_STAGES, runs, refresh):
        fresh = np.ones(width, dtype=bool) if post else fresh
        fresh_at.append(fresh)
        fresh = _advance(fresh, kind, _stage_parity(kind, index), run)
    fresh_at.append(np.ones(width, dtype=bool) if refresh[-1] else fresh)
    for table in (*runs, *fresh_at):
        table.flags.writeable = False
    return _HaloWalk(refresh, runs, fresh_at)


def _advance(fresh: np.ndarray, kind: str, parity: int, run: np.ndarray) -> np.ndarray:
    """The columns fresh after a stage that ran the moves ``run``: those
    it does not write, and those it writes by a move that ran."""
    kept = np.arange(fresh.size) % 2 != parity if kind == "column" else (
        np.zeros(fresh.size, dtype=bool))
    kept[(run[:, None] + _MOVE_WRITES[kind]).ravel()] = True
    return fresh & kept


def _ghost_depth(widths: list[int]) -> int:
    """Ghost columns a side of a strip cut into pieces of ``widths``:
    the smallest even depth at which :func:`_halo_walk` posts its fewest
    refreshes -- one a sweep, unless the thinnest piece caps the depth.
    Beyond two ranks it does, since a ghost must come from an adjacent
    rank; on two, every ghost column is the neighbor's or the rank's own
    (:func:`_ghost_owners`).  One rank posts nothing at any depth -- its
    refresh is a local wrap -- and keeps the moves' own reach, 2."""
    if len(widths) == 1:
        return 2
    cap = min(widths) if len(widths) > 2 else None
    best, depth = (N_WL_STAGES + 2, 0), 2
    while cap is None or depth <= cap:
        best = min(best, (sum(_halo_walk(min(widths), depth).refresh), depth))
        if best[0] == 1:  # the sweep's first stage always refreshes
            break
        depth += 2
    return best[1]


def _ghost_owners(decomp: StripDecomposition, rank: int, depth: int):
    """``(ghost, owner, column)`` per ghost column of ``rank`` at
    ``depth``, ascending: its local index, the rank that owns it and
    that rank's local index of it."""
    piece = decomp.piece(rank)
    out = []
    for x in (*range(depth), *range(piece.n_owned + depth, piece.n_owned + 2 * depth)):
        g = (piece.start - depth + x) % decomp.n_columns
        owner = decomp.owner_of(g)
        out.append((x, owner, g - decomp.piece(owner).start + depth))
    return out


def strip_halo_traffic(n_sites: int, n_slices: int, n_ranks: int) -> tuple[int, int, int]:
    """``(refreshes, messages, sites)``: what rank 0 of the strip driver
    posts a sweep on ``n_ranks`` ranks -- ``refreshes`` halo refreshes
    of ``messages`` aggregated messages (one per neighbor rank) of
    ``sites`` spins each.  The performance model's strip workload
    charges this schedule."""
    decomp = StripDecomposition(n_sites, n_ranks, require_even=True)
    widths = [p.n_owned for p in decomp.pieces]
    depth = _ghost_depth(widths)
    refreshes = sum(_halo_walk(min(widths), depth).refresh[:N_WL_STAGES])
    remote = [o for _, o, _ in _ghost_owners(decomp, 0, depth) if o != 0]
    messages = len(set(remote))
    return refreshes, messages, len(remote) * n_slices // messages if messages else 0


# ======================================================================
# the decomposed-run spine: one state base, one halo exchange, one loop
# ======================================================================


class _HaloLink(NamedTuple):
    """One direction of a halo refresh along one decomposed axis.

    The owned boundary sites ``send`` travel to rank ``dest`` while the
    opposite neighbor's (``source``) boundary lands in the ``ghost``
    sites -- both flat indices into the rank's ghosted spin array, in
    the one site order the two ends share.  A link may be one half: it
    sends iff ``dest`` is a rank and receives iff ``source`` is one
    (the strip's are).  Both ``None`` is a local copy of ``send`` into
    ``ghost``, for free: an axis the decomposition does not split, or
    the ghosts a strip rank owns itself.  ``tag`` is the link's offset
    inside the exchange's tag block.
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


def _compile_links(links: dict) -> dict:
    """``_links`` as :meth:`_DecomposedState._exchange` executes it: per
    stage key one phase per axis with links, in axis order, each the
    sends and the receives, one per neighbor rank (:func:`_per_neighbor`),
    and the one local wrap ``(ghost, source)`` of its unsplit links."""
    compiled = {}
    for stage, axes in links.items():
        phases = []
        for group in filter(None, axes):
            wraps = [ln for ln in group if ln.dest is None and ln.source is None]
            phases.append((
                _per_neighbor(group, "dest", "send"),
                _per_neighbor(group, "source", "ghost"),
                (np.concatenate([ln.ghost for ln in wraps]),
                 np.concatenate([ln.send for ln in wraps])) if wraps else None,
            ))
        compiled[stage] = tuple(phases)
    return compiled


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


class _DecomposedState:
    """What every domain-decomposed rank state shares.

    Owns the communicator and config, the shared-randomness sweep
    counter, the Metropolis accounting, kernel-backend resolution, the
    per-sweep telemetry, the halo exchange and the checkpoint pair.  A
    subclass supplies the geometry: the class attributes below, its
    ghosted spin array (the attribute named by ``_array``) and its flat
    view ``_flat``, the ``_phases`` :meth:`_exchange` runs
    (:func:`_compile_links` of a ``_links`` table: per stage key, the
    :class:`_HaloLink` tuples the halo schedule posts before that
    stage, grouped by axis), :meth:`_sweep_stages`, :meth:`measure`, :meth:`series_columns` and :meth:`result`.  A state
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
    def _sweep_draw(self, spans) -> None:
        """Fill this sweep's uniforms: per ``(offset, out)`` of ``spans``,
        ``out.size`` doubles from ``offset`` into its share of the run's
        sweep stream, into the C-contiguous ``out``; advances
        ``sweep_index``.

        Every rank builds the same stream from ``sweep_seed``, and sweep
        ``k`` owns its ``_per_sweep`` doubles from position
        ``k * _per_sweep`` on.  PCG64 spends one step per double, so
        ``advance`` skips exactly the numbers other ranks (or other
        sweeps) draw -- or steps back to a span drawn twice -- and the
        position is a function of ``sweep_index`` alone: a restore sets
        that and nothing else.
        """
        gen, base = self._sweep_gen, self.sweep_index * self._per_sweep
        for offset, out in spans:
            gen.bit_generator.advance(base + offset - self._sweep_pos)
            gen.random(out=out)
            self._sweep_pos = base + offset + out.size
        self.sweep_index += 1

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
    def _exchange(self, stage, offload: bool = False) -> list:
        """Post the halo links scheduled before ``stage``: ONE aggregated
        message per neighbor rank and phase, none where the schedule has
        nothing stale.  Phases run in order, each complete before the
        next sends: a later axis ships the ghosts an earlier one filled.

        Lockstep (``offload=False``) sends, then receives, with blocking
        calls and returns nothing pending.  The overlapped schedule
        (``offload=True``) posts the same payloads to the same
        neighbors under the same tags as offloaded ``isend``/``irecv``;
        it waits out every phase but the last at once and returns the
        last one's ``(request, ghost sites)`` pairs, in the lockstep
        receive order, for :meth:`_exchange_wait` -- so the modeled
        clock advances through identical arrival stamps.
        Every call advances the tag block, posted or not:
        tags stay in step across ranks; a stage with nothing stale
        returns at once.
        """
        n = self._n_exchanges
        self._n_exchanges += 1
        phases = self._phases[stage]
        if not phases:
            return []
        comm, flat = self.comm, self._flat
        base, period, stride = self._tag_schedule
        tag = base + (n % period) * stride
        pending: list = []
        for sends, recvs, wrap in phases:
            self._exchange_wait(pending)
            for dest, offset, sites in sends:
                # offloaded, this is isend minus its finished Request
                comm.send(flat[sites], dest, tag=tag + offset, offload=offload)
            if wrap is not None:
                flat[wrap[0]] = flat[wrap[1]]
            if offload:
                pending = [
                    (comm.irecv(source=source, tag=tag + offset, offload=True), sites)
                    for source, offset, sites in recvs
                ]
            else:
                for source, offset, sites in recvs:
                    flat[sites] = comm.recv(source=source, tag=tag + offset)
        return pending

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


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, marked read-only: a plan's tables are shared."""
    a.flags.writeable = False
    return a


class _StripPlan(NamedTuple):
    """What one strip rank derives from ``(n_sites, n_slices, jz, jxy,
    beta, n_ranks, rank)`` alone (module docstring): read-only, shared
    by every rank state of that key.

    * the frame: owned columns ``[start, stop)``, ``depth`` ghosts a
      side, the halo ``walk`` and its refresh ``links`` per stage key,
      compiled to the ``phases`` :meth:`_DecomposedState._exchange`
      runs;
    * ``stages``: per :data:`WL_STAGES` entry, the gather / flip tables
      of its moves and what it counts (:func:`_strip_stages`), with the
      overlapped schedule's interior share; ``overlap_blocker`` names
      the first stage that has none, if any does;
    * the sweep's one gather: ``u_index`` picks every stage's uniforms
      out of the sweep's block at once, stage after stage, so stage
      ``s`` reads ``u_spans[s] = (a, b, shape)`` of it; the column
      stages' come last, from ``n_corner_u`` on, and share one log;
    * the pricing tables: the plaquette ``table`` (weights, d ln W) and
      the column thresholds ``thr``; ``dlog_corners`` is the
      measurement's shaded corners, the ``n_even`` of even owned bonds
      first.  The 1 MB corner products the corner op looks moves up in
      stay the kernel layer's per-process memo
      (:func:`~repro.kernels.chain_tables.corner_products`), fetched by
      the rank state: a launcher that builds plans holds none.
    """

    start: int
    stop: int
    n_owned: int
    depth: int
    walk: _HaloWalk
    links: MappingProxyType
    phases: MappingProxyType
    stages: tuple
    overlap_blocker: str | None
    per_sweep: int
    u_index: np.ndarray
    u_spans: tuple
    n_corner_u: int
    table: PlaquetteTable
    thr: np.ndarray
    dlog_corners: np.ndarray
    n_even: int


def strip_plans(cfg: "WorldlineStripConfig", n_ranks: int) -> tuple:
    """The :class:`_StripPlan` of every rank of a strip run of ``cfg``
    on ``n_ranks`` ranks, in rank order, built into the memo: a
    launcher whose ranks share or inherit its memory (threads, forked
    processes) calls it first, so the ranks' own lookups all hit."""
    key = (cfg.n_sites, cfg.n_slices, cfg.jz, cfg.jxy, cfg.beta, n_ranks)
    return tuple(_strip_plan(*key, rank) for rank in range(n_ranks))


@lru_cache(maxsize=1)
def _run_plans(n_sites: int, n_slices: int, jz: float, jxy: float, beta: float,
               n_ranks: int) -> dict:
    """The memo of one run's plans, rank -> plan, filled on lookup.  It
    holds one key at a time, so a process keeps at most one run's plans
    alive, however many runs it launches."""
    return {}


def _strip_plan(n_sites: int, n_slices: int, jz: float, jxy: float, beta: float,
                n_ranks: int, rank: int) -> _StripPlan:
    """Rank ``rank``'s :class:`_StripPlan`, built on the first lookup of
    its key in this process."""
    plans = _run_plans(n_sites, n_slices, jz, jxy, beta, n_ranks)
    plan = plans.get(rank)
    if plan is None:
        plan = plans[rank] = _build_strip_plan(
            n_sites, n_slices, jz, jxy, beta, n_ranks, rank)
    return plan


def _build_strip_plan(n_sites: int, n_slices: int, jz: float, jxy: float,
                      beta: float, n_ranks: int, rank: int) -> _StripPlan:
    """Build rank ``rank``'s :class:`_StripPlan`."""
    L, T = n_sites, n_slices
    decomp = StripDecomposition(L, n_ranks, require_even=True)
    piece = decomp.piece(rank)
    n = piece.n_owned
    if n_ranks > 1 and n < 4:
        raise ValueError("strip world-line driver needs >= 4 owned columns per rank")
    d = _ghost_depth([p.n_owned for p in decomp.pieces])
    walk = _halo_walk(n, d)
    refresh = _strip_refresh(decomp, rank, d, T)
    links = MappingProxyType({
        key: ((refresh,) if post else ((),))
        for key, post in zip((*range(N_WL_STAGES), "measure"), walk.refresh)
    })
    phases = _compile_links(links)
    for sends, recvs, wrap in (p for ps in phases.values() for p in ps):
        for sites in (*(s for _, _, s in (*sends, *recvs)), *(wrap or ())):
            _frozen(sites)
    stages, blocker = _strip_stages(L, T, piece.start, n, d, walk.runs)
    # The sweep's uniform block holds the six stage lattices in stage
    # order: a corner color's (L/2, T/4) grid, a column parity's L/2.
    sizes = [L * T // 8 if kind == "corner" else L // 2 for kind, _ in WL_STAGES]
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    picks, spans, a = [], [], 0
    for off, stage in zip(offsets.tolist(), stages):
        pick = stage["uflat"] if stage["kind"] == "corner" else stage["uc"]
        picks.append(off + pick.ravel())
        spans.append((a, a + pick.size, pick.shape))
        a += pick.size
    pt = PlaquetteTable.build(jz, jxy, beta / (T // 2))
    _frozen(pt.weights)
    _frozen(pt.dlog)
    width = n + 2 * d
    even, odd = (shaded_corners(width, T, np.arange(d + p, d + n, 2)) for p in (0, 1))
    return _StripPlan(
        start=piece.start, stop=piece.stop, n_owned=n, depth=d, walk=walk,
        links=links, phases=MappingProxyType(phases),
        stages=stages, overlap_blocker=blocker,
        per_sweep=int(offsets[-1]),
        u_index=_frozen(np.concatenate(picks)),
        u_spans=tuple(spans),
        n_corner_u=spans[N_WL_STAGES - 2][0],
        table=pt,
        thr=_frozen(column_thresholds(pt.weights, T)),
        dlog_corners=_frozen(np.concatenate([even, odd])),
        n_even=len(even),
    )


def _strip_refresh(decomp: StripDecomposition, rank: int, depth: int,
                   n_slices: int) -> tuple:
    """The refresh's :class:`_HaloLink` tuples on ``rank``'s frame.

    A refresh ships every ghost column from the rank that owns it: one
    contiguous int8 buffer per neighbor rank, laid out in the
    receiver's ghost order, which both ends derive from the
    decomposition.  Ghosts a rank owns itself (every ghost of a single
    rank; the deep ones of a two-rank ring) copy locally.
    """
    piece = decomp.piece(rank)
    # flat index of (column, t) in the rank's frame
    cols = np.arange((piece.n_owned + 2 * depth) * n_slices).reshape(-1, n_slices)
    none = _frozen(np.empty(0, dtype=np.intp))
    mine = _ghost_owners(decomp, rank, depth)
    refresh = []
    # sends rightward first, receives from the left first
    for peer in dict.fromkeys((piece.right_rank, piece.left_rank)):
        if peer != rank:
            wanted = [y for _, o, y in _ghost_owners(decomp, peer, depth) if o == rank]
            send = _frozen(cols[wanted].ravel())
            refresh.append(_HaloLink(peer, None, send, none, 0))
    for owner in dict.fromkeys((piece.left_rank, piece.right_rank, rank)):
        ghost = _frozen(cols[[x for x, o, _ in mine if o == owner]].ravel())
        if owner != rank:
            refresh.append(_HaloLink(None, owner, none, ghost, 0))
        elif ghost.size:
            source = _frozen(cols[[y for _, o, y in mine if o == owner]].ravel())
            refresh.append(_HaloLink(None, None, source, ghost, 0))
    return tuple(refresh)


def _strip_stages(L: int, T: int, start: int, n: int, d: int, runs) -> tuple:
    """``(stages, blocker)``: the index tables of every stage of a frame
    of ``n`` owned columns from global column ``start`` and ``d`` ghosts
    a side, and the overlapped schedule's blocker.

    A stage's moves are the walk's ``runs``: local bonds (corner color)
    or columns (column parity) ``x``, ascending, the owned moves and
    the redundant ones it keeps.  Corner color ``k`` takes bond ``x`` at
    the intervals of the class its global bond falls in, bond-major;
    ``uflat`` is the ``(bonds, T/4)`` index of those moves into the
    color's ``(L/2, T/4)`` slice of the sweep's uniforms (bond ``g //
    2``, interval ``t // 4``), ``uc`` a column's (``g // 2``) in its
    parity's ``L/2``.  ``counted`` is the slice of ``x`` this rank
    counts: the bonds ``start .. stop - 1`` (the seam bond ``start - 1``
    is its left neighbor's ``stop - 1``) and the owned columns.  Where
    it leaves some out (``grouped``), the stage's uniforms come one row
    per bond (per column), so the op returns one count per bond
    (column): one kernel call runs the stage and counts it.

    The fused gather / flip tables -- flat indices into
    ``loc.reshape(-1)``, a packed ``(n_moves, 16)`` environment ``env``
    and ``(4, n_moves)`` ``flip`` cells per corner color, the ``(n_cols,
    T)`` plaquette neighbors ``nbr`` per column parity -- are the serial
    sampler's (:mod:`repro.kernels.chain_tables`) on the ``n + 2 d``
    local rows: a move the walk runs reads no row outside them, so
    nothing wraps.

    The overlapped schedule charges a stage's *interior* moves -- those
    reading no ghost row -- before its halo wait.  A corner move at
    local bond ``J`` reads rows ``J-1 .. J+2``, so it is interior iff ``d
    + 1 <= J <= d + n - 3`` (owned rows are ``d .. d + n - 1``); a column
    move at ``lc`` reads ``lc-1 .. lc+1``, interior iff ``d + 1 <= lc <=
    d + n - 2``.  Every corner move is attempted, so a corner stage
    holds the count, ``n_interior``; only straight columns are, so a
    column stage holds the mask, ``interior``.  ``blocker`` describes
    the first stage with no interior move (thin strips), else None.
    """
    width, per_bond = n + 2 * d, T // 4
    origin = start - d  # global column of local column 0
    stages, blocker = [], None
    for (kind, index), x in zip(WL_STAGES, runs):
        g = (origin + x) % L
        counted = slice(*np.searchsorted(x, [d, d + n]).tolist())
        # One count per bond (column) only where some go uncounted.
        grouped = counted != slice(0, x.size)
        stage = {"kind": kind, "counted": counted, "grouped": grouped}
        if kind == "corner":
            (a, b), (_, b2) = CORNER_COLORS[index]
            t = np.where(g % 4 == a, b, b2)[:, None] + np.arange(0, T, 4)
            env, flip = corner_tables(width, T, np.repeat(x, per_bond), t.ravel())
            uflat = (g // 2)[:, None] * per_bond + t // 4
            interior = (x > d) & (x <= d + n - 3)
            stage.update(
                uflat=_frozen(uflat if grouped else uflat.ravel()),
                attempted=(counted.stop - counted.start) * per_bond,
                env=_frozen(env),
                flip=_frozen(flip),
                n_moves=env.shape[0],
                n_interior=int(np.count_nonzero(interior)) * per_bond,
            )
            what = f"corner color {index} has no interior moves"
        else:
            interior = _frozen((x > d) & (x <= d + n - 2))
            stage.update(
                lc=x,
                uc=_frozen((g // 2)[:, None] if grouped else g // 2),
                nbr=_frozen(column_neighbors(width, T, x)),
                interior=interior,
            )
            what = f"column parity {index} has no interior columns"
        if blocker is None and not interior.any():
            blocker = what
        stages.append(MappingProxyType(stage))
    return tuple(stages), blocker


class _StripState(_DecomposedState):
    """Per-rank world-line state: owned columns plus ``depth`` ghosts a side.

    Local layout along axis 0: ``[ghost(start-depth) .. ghost(start-1),
    owned..., ghost(stop) .. ghost(stop+depth-1)]``; local index of
    global column ``g`` is ``g - start + depth``.  The depth is the
    halo schedule's (:func:`_ghost_depth`): even, so a local bond's
    parity is its global one, and at least 2, the neighborhood a seam
    corner move reads (columns ``seam - 2 .. seam + 1``).  The rank's
    geometry and tables are the memoized :class:`_StripPlan` of its
    key; the state holds the spins, the sweep's uniform buffers and
    their per-stage views, and its counters.
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
        self._plan = plan = _strip_plan(cfg.n_sites, cfg.n_slices, cfg.jz, cfg.jxy,
                                        cfg.beta, comm.size, comm.rank)
        self.T = cfg.n_slices
        self.n_trotter = cfg.n_slices // 2
        self.dtau = cfg.beta / self.n_trotter
        self.start, self.stop = plan.start, plan.stop
        self.n_owned, self.depth = n, d = plan.n_owned, plan.depth
        self._phases, self._per_sweep = plan.phases, plan.per_sweep
        self._corner_weights = corner_products(plan.table.weights)
        # Neel start, straight world lines (legal everywhere).
        g = np.arange(self.start - d, self.stop + d)
        self.loc = np.repeat((g % 2).astype(np.int8)[:, None], self.T, axis=1)
        self._flat = self.loc.reshape(-1)
        # The sweep's buffers -- its drawn block, the rank's gather of it
        # and the log of the column stages' share -- and each stage's
        # view of the gather (a column stage's of the log).
        self._u_draw = np.empty(plan.per_sweep)
        self._u = np.empty(plan.u_index.size)
        c = plan.n_corner_u
        self._u_cols = self._u[c:]
        self._log_u = np.empty(self._u_cols.size)
        self._u_stage = [
            self._u[a:b].reshape(shape) if kind == "corner"
            else self._log_u[a - c : b - c].reshape(shape)
            for (kind, _), (a, b, shape) in zip(WL_STAGES, plan.u_spans)
        ]
        if cfg.overlap and comm.size > 1:
            if plan.overlap_blocker is None:
                self.overlap_active = True
            else:
                warnings.warn(
                    f"strip overlap disabled: {plan.overlap_blocker} on rank "
                    f"{comm.rank} ({n} owned columns); falling back to the "
                    f"lockstep exchange",
                    stacklevel=2,
                )

    # -- shared randomness --------------------------------------------------
    def _sweep_uniforms(self) -> np.ndarray:
        """This sweep's uniforms; every rank draws the identical block.

        The next ``_per_sweep`` numbers of the run's sweep stream hold
        the six stage lattices as slices of a single draw (corner colors
        consume an ``(L/2, T/4)`` grid, column parities ``L/2`` values).
        Every kernel and all rank counts index the same numbers, the
        source of bit-identity.
        """
        self._sweep_draw([(0, self._u_draw)])
        return self._u_draw

    def _charge_moves(self, n_moves: int, flops_per_move: float,
                      category: str) -> None:
        """Charge the modeled compute time of ``n_moves`` moves; a zero
        share charges nothing, so it opens no clock category."""
        if n_moves:
            self.comm.charge_seconds(
                self.comm.machine.compute_time(flops_per_move * n_moves), category
            )

    def _sweep_stages(self) -> None:
        """One full sweep: 6 stages, each behind the halo refresh the
        walk posts for it (one, before the first, on pieces as wide as
        the ghost depth), each one kernel call over its whole table.

        One gather takes the rank's uniforms of all six stages out of
        the sweep's block, and one log the column stages' share (taken
        here with NumPy, so every backend compares against identical
        values); each stage reads its view of them.  Where a stage runs
        moves this rank does not count, its kernel call returns one
        accepted count per bond (column) and the counters take the
        ``counted`` ones, so a move run on two ranks counts once.  The
        overlapped schedule differs in what the clock is charged, not in
        what runs: a stage with a halo in flight charges its interior
        moves (the ones reading no ghost) before the wait and the rest
        after it, under ``interior`` / ``boundary``.  Which columns are
        straight is read from the columns themselves -- per stage, since
        a refresh may sit between the two column stages -- so a column
        stage's interior count is known before the wait.
        """
        plan, loc = self._plan, self.loc
        # the plan's indices are in range by construction: "clip" skips
        # the bounds pass
        self._sweep_uniforms().take(plan.u_index, out=self._u, mode="clip")
        np.maximum(self._u_cols, 1e-300, out=self._log_u)
        np.log(self._log_u, out=self._log_u)
        offload = self.overlap_active
        for s_idx, (stage, u) in enumerate(zip(plan.stages, self._u_stage)):
            pending = self._exchange(s_idx, offload)
            counted = stage["counted"]
            if stage["kind"] == "corner":
                n_moves, flops = stage["n_moves"], FLOPS_PER_CORNER_MOVE
                n_int = stage["n_interior"] if pending else 0
            else:
                lc = stage["lc"]
                rows = loc[lc]
                straight = (rows == rows[:, :1]).all(axis=1)
                n_moves, flops = int(np.count_nonzero(straight)), 2.0 * self.T
                n_int = (
                    int(np.count_nonzero(straight & stage["interior"]))
                    if pending else 0
                )
            if pending:
                self._charge_moves(n_int, flops, "interior")
                self._exchange_wait(pending)
            accepted = 0
            if stage["kind"] == "corner":
                accepted = self._timed(
                    self._kops["strip_corner"], self._flat, self._corner_weights,
                    stage["env"], stage["flip"], u,
                )
                self.n_attempted += stage["attempted"]
            else:
                if n_moves:
                    accepted = self._timed(
                        self._kops["strip_column"], loc, plan.thr,
                        lc, stage["nbr"], straight, u,
                    )
                self.n_attempted += int(np.count_nonzero(straight[counted]))
            if stage["grouped"] and n_moves:
                accepted = int(accepted[counted].sum())
            self.n_accepted += accepted
            # The clock prices the work done, the redundant moves too.
            self._charge_moves(
                n_moves - n_int, flops, "boundary" if pending else "compute"
            )

    # -- measurement ---------------------------------------------------------
    def local_dlog_sum(self) -> float:
        """Sum of d ln W over shaded plaquettes at owned bonds: one
        gather of both bond parities, summed a parity at a time, even
        first (the series' bits)."""
        plan = self._plan
        dlog = plan.table.dlog[plaquette_codes(self._flat, plan.dlog_corners)]
        return 0.0 + float(dlog[: plan.n_even].sum()) + float(
            dlog[plan.n_even :].sum())

    def owned(self) -> np.ndarray:
        """The owned columns of ``loc`` (a view)."""
        return self.loc[self.depth : self.depth + self.n_owned]

    def measure(self) -> np.ndarray:
        """Owned-bond d ln W sum and slice-0 S^z of the owned columns."""
        self._exchange("measure")  # scheduled empty; takes its tag block
        return np.array(
            [self.local_dlog_sum(), self.owned()[:, 0].sum() - self.n_owned / 2.0]
        )

    def series_columns(self, totals: np.ndarray) -> tuple:
        """Energy estimate and slice-0 total S^z of the whole chain."""
        return -totals[:, 0] / self.n_trotter, totals[:, 1]

    def result(self) -> dict:
        return {
            "owned_spins": self.owned().copy(),
            "start": self.start,
            "stop": self.stop,
            "beta": self.cfg.beta,
            "dtau": self.dtau,
        }

    def _checkpoint_expect(self) -> dict:
        """The shared fingerprint plus the halo schedule: ghost depth and
        stage set, so a bundle of another schedule (whose ``loc`` and
        exchange counter mean something else) is refused."""
        return {
            **super()._checkpoint_expect(),
            "strip_schedule": {
                "ghost_depth": self.depth,
                "stages": [f"{kind} {index}" for kind, index in WL_STAGES],
            },
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
    posts, the interior sites' share of color 0 hidden behind the
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


#: Ghost planes a side of every spatial axis of extent > 1 in a block
#: rank's frame: the inner one color 0 updates redundantly, and the outer
#: one that update reads.
_BLOCK_DEPTH = 2


def _block_decomposition(lx: int, ly: int, n_ranks: int) -> BlockDecomposition:
    """The block driver's split of ``lx x ly`` over ``n_ranks``: along
    the one axis of extent > 1 if the other is inert, else the most
    square grid; pieces even along every axis the grid splits (so
    checkerboard parities align across rank boundaries)."""
    grid = (n_ranks, 1) if ly == 1 else (1, n_ranks) if lx == 1 else None
    decomp = BlockDecomposition(lx, ly, n_ranks, process_grid=grid)
    for p in decomp.pieces:
        bx, by = p.shape
        if decomp.px > 1 and bx % 2:
            raise ValueError(f"odd x-block of {bx} columns on rank {p.rank}")
        if decomp.py > 1 and by % 2:
            raise ValueError(f"odd y-block of {by} columns on rank {p.rank}")
    return decomp


def block_halo_traffic(lx: int, ly: int, lt: int, n_ranks: int):
    """``(refreshes, messages, sites, updates, interior)``: what rank 0
    of the block driver (the largest piece) posts and prices a sweep of
    the ``(lx, ly, lt)`` lattice on ``n_ranks`` ranks -- one refresh of
    ``messages`` aggregated messages (one per neighbor rank and phase)
    of ``sites`` spins each on average; ``updates`` site updates, color
    0's box (the owned sites and the inner ghost ring it updates
    redundantly) and the owned box; ``interior`` of them priced before
    the halo wait under ``overlap`` -- color 0's box off the last split
    axis's two ghost-bound planes a side.  The performance model's block
    workload charges this schedule."""
    decomp = _block_decomposition(lx, ly, n_ranks)
    shape = decomp.piece(0).shape
    rims = [int(n > 1) for n in (lx, ly)]
    parts = [decomp.px, decomp.py]
    box = [b + 2 * r for b, r in zip(shape, rims)]
    # a phase ships 2 * depth planes of its axis across the frame of the
    # axes before it, to one rank per side (the same one on a 2-wide axis)
    neighbors = [min(n - 1, 2) for n in parts]
    planes = [
        2 * _BLOCK_DEPTH * rims[0] * shape[1] * lt,
        2 * _BLOCK_DEPTH * rims[1] * (shape[0] + 2 * _BLOCK_DEPTH * rims[0]) * lt,
    ]
    messages = sum(neighbors)
    sites = sum(n and p for n, p in zip(neighbors, planes))
    split = [a for a in (0, 1) if parts[a] > 1]
    inner = list(box)
    if split:
        inner[split[-1]] = shape[split[-1]] - 2
    updates = (box[0] * box[1] + shape[0] * shape[1]) * lt
    return 1, messages, sites / messages if messages else 0, updates, (
        max(0, inner[0]) * max(0, inner[1]) * lt)


class _BlockState(_DecomposedState):
    """Per-rank block of the (lx, ly, lt) classical lattice in its frame.

    The frame ``g`` keeps :data:`_BLOCK_DEPTH` ghost planes a side on
    every spatial axis of extent > 1 and none on an extent-1 axis, so a
    chain's spins are one contiguous ``(bx, 1, lt)`` slab; ``spins`` is
    the owned view.  One refresh a sweep, before color 0, fills every
    ghost (module docstring, "Halo schedule").  Color 0 updates its box
    -- the owned sites and the inner ghost ring around them -- so color
    1, which updates the owned box, reads only fresh ghosts.
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
        self.decomp = decomp = _block_decomposition(cfg.lx, cfg.ly, comm.size)
        p = decomp.piece(comm.rank)
        self.piece = p
        self.bx, self.by = bx, by = p.shape
        self.lt = lt = cfg.lt
        self._thr = ising_thresholds(cfg.kx, cfg.ky, cfg.kt)
        # Ghost planes a side per spatial axis, and the inner ring of
        # them color 0 updates (its box's rim).
        self._depth = dx, dy = [_BLOCK_DEPTH if n > 1 else 0 for n in (cfg.lx, cfg.ly)]
        rx, ry = dx // 2, dy // 2
        # Cold start matching AnisotropicIsing's default; ghost planes
        # are overwritten by the first refresh.
        self.g = np.ones((bx + 2 * dx, by + 2 * dy, lt), dtype=np.int8)
        self.spins = self.g[dx : dx + bx, dy : dy + by]
        # The color-0 sites of color 0's box (global parity), and both
        # colors' sites of the owned box inside it.
        x = np.arange(p.x_start - rx, p.x_stop + rx)
        y = np.arange(p.y_start - ry, p.y_stop + ry)
        self._box = box = (x[:, None, None] + y[None, :, None] + np.arange(lt)) % 2 == 0
        self._owned = (slice(rx, rx + bx), slice(ry, ry + by))
        self.color_masks = [box[self._owned], ~box[self._owned]]
        self._n_sites = self._per_sweep = cfg.lx * cfg.ly * lt
        # Color 0's box draws the global field's rows x_start - 1 ..
        # x_stop (wrapped), one span per run of consecutive rows, and
        # takes the columns y_start - 1 .. y_stop of each.
        rows = x % cfg.lx
        cut = np.flatnonzero(np.diff(rows) != 1) + 1
        self._u_spans = [
            (int(rows[a]) * cfg.ly * lt, a, b)
            for a, b in zip((0, *cut), (*cut, rows.size))
        ]
        cols = y % cfg.ly
        self._u_cols = (
            slice(cols[0], cols[-1] + 1) if (np.diff(cols) == 1).all() else cols
        )
        # The one refresh; either color's stage names it, and a sweep
        # posts it before color 0 only.
        self._links = dict.fromkeys((0, 1), self._refresh_links())
        self._flat = self.g.reshape(-1)
        self._phases = _compile_links(self._links)
        # Per spatial axis, the bonds this rank counts as the frame's
        # plane pairs from the inner ghost plane to the owned faces, and
        # the mask of the counted ones: every inner pair, and a face pair
        # where its owned end is color 1 -- its partner, color 0, is
        # fresh after a sweep; None for an extent-1 axis.
        c1, self._axis_bonds = self.color_masks[1], []
        for axis, d in enumerate(self._depth):
            if not d:
                self._axis_bonds.append(None)
                continue
            planes = [slice(dx, dx + bx), slice(dy, dy + by)]
            n = (bx, by)[axis]
            planes[axis] = slice(d - 1, d + n)
            lo = self.g[tuple(planes)]
            planes[axis] = slice(d, d + n + 1)
            hi = self.g[tuple(planes)]
            counted = np.ones(lo.shape, dtype=bool)
            ends = [slice(None)] * 3
            for pair, face in ((0, 0), (n, n - 1)):
                ends[axis] = pair
                counted[tuple(ends)] = np.take(c1, face, axis=axis)
            self._axis_bonds.append((lo, hi, counted, int(counted.sum())))
        # Overlapped schedule: the color-0 sites of its box that neither
        # sit in nor neighbour a ghost the refresh's last phase is still
        # receiving -- the share of color 0's compute the clock is
        # charged before the halo wait.
        if cfg.overlap and comm.size > 1:
            flight = np.zeros(self.g.size, dtype=bool)
            for _, _, sites in self._phases[0][-1][1]:
                flight[sites] = True
            flight = flight.reshape(self.g.shape)
            near = flight.copy()  # in flight, or next to it
            if dx:
                near[1:] |= flight[:-1]
                near[:-1] |= flight[1:]
            if dy:
                near[:, 1:] |= flight[:, :-1]
                near[:, :-1] |= flight[:, 1:]
            self._n_int = int(np.count_nonzero(
                box & ~near[dx - rx : dx + bx + rx, dy - ry : dy + by + ry]))
            self._n_box = int(np.count_nonzero(box))
            if not self._n_int:
                warnings.warn(
                    f"rank {comm.rank}: block {bx}x{by} is too"
                    " thin for halo overlap (every site is"
                    " ghost-adjacent); falling back to the lockstep"
                    " exchange",
                    stacklevel=2,
                )
            else:
                self.overlap_active = True

    # -- halo description -----------------------------------------------------
    def _refresh_links(self) -> list[list[_HaloLink]]:
        """The refresh, as its x-phase and y-phase link pairs.

        Each link ships the :data:`_BLOCK_DEPTH` owned planes of one face
        into the opposite neighbour's ghost planes, whole and in C order:
        x planes over the owned y range, then y planes over the whole x
        extent of the frame, x ghosts included -- so the y phase fills
        the corners.  Axes the process grid does not split copy locally;
        an extent-1 axis has no ghosts and no links.
        """
        p, (dx, dy), d = self.piece, self._depth, _BLOCK_DEPTH
        bx, by = self.bx, self.by
        flat = np.arange(self.g.size).reshape(self.g.shape)
        east, west = (p.east, p.west) if self.decomp.px > 1 else (None, None)
        north, south = (p.north, p.south) if self.decomp.py > 1 else (None, None)
        ys = slice(dy, dy + by)
        return [
            [
                _HaloLink(east, west, flat[bx + dx - d : bx + dx, ys].ravel(),
                          flat[:dx, ys].ravel(), 0),
                _HaloLink(west, east, flat[dx : dx + d, ys].ravel(),
                          flat[bx + dx :, ys].ravel(), 1),
            ] if dx else [],
            [
                _HaloLink(north, south, flat[:, by + dy - d : by + dy].ravel(),
                          flat[:, :dy].ravel(), 2),
                _HaloLink(south, north, flat[:, dy : dy + d].ravel(),
                          flat[:, by + dy :].ravel(), 3),
            ] if dy else [],
        ]

    def _sweep_uniforms(self) -> np.ndarray:
        """This sweep's per-site uniforms over color 0's box: the rank's
        rows of the global ``(lx, ly, lt)`` field every rank derives from
        the shared sweep stream, one more a side on a ghosted axis
        (wrapped) -- the source of serial/parallel bit-identity, a
        redundant update deciding on its owner's number.  The stream
        skips ahead to each run of those rows and draws it alone, so a
        rank's random work is its share of the lattice and a rim.
        """
        u = np.empty((self._u_spans[-1][2], self.cfg.ly, self.lt))
        self._sweep_draw([(offset, u[a:b]) for offset, a, b in self._u_spans])
        return u[:, self._u_cols]

    def _update_color(self, mask: np.ndarray, log_u: np.ndarray) -> int:
        """One color's Metropolis update of the sites of ``mask``, a box
        at the frame's centre (the owned one, or color 0's), through the
        configured backend's ``block_color`` op; returns the count of
        accepted flips the rank owns."""
        rim = ((mask.shape[0] - self.bx) // 2, (mask.shape[1] - self.by) // 2)
        return self._timed(
            self._kops["block_color"], self.g, self._thr, mask, log_u, rim
        )

    def _sweep_stages(self) -> None:
        """The refresh, then both checkerboard colors, one kernel call
        each: color 0 over its box, color 1 over the owned sites.

        The clock prices the work done, color 0's redundant ring
        included.  The overlapped schedule differs in what it is
        charged, not in what runs: the refresh posts offloaded, color
        0's interior sites (they read no ghost in flight) are charged
        under ``interior`` before the wait and the rest of it under
        ``boundary`` after; lockstep charges the sweep at once at the
        end.
        """
        log_u = self._sweep_uniforms()
        np.log(np.maximum(log_u, 1e-300, out=log_u), out=log_u)
        overlap, comm = self.overlap_active, self.comm
        box, owned = self._box, self._owned
        flops = FLOPS_PER_SPIN_UPDATE * box.size
        pending = self._exchange(0, offload=overlap)
        if overlap:
            frac = self._n_int / self._n_box
            comm.charge_seconds(comm.machine.compute_time(flops * frac), "interior")
            self._exchange_wait(pending)
        self.n_accepted += self._update_color(box, log_u)
        if overlap:
            comm.charge_seconds(
                comm.machine.compute_time(flops * (1.0 - frac)), "boundary"
            )
            flops = 0.0
        self.n_accepted += self._update_color(self.color_masks[1], log_u[owned])
        comm.charge_compute(flops + FLOPS_PER_SPIN_UPDATE * self.spins.size)
        self.n_attempted += self.spins.size

    # -- measurement -----------------------------------------------------------
    def measure(self) -> np.ndarray:
        """Spin sum and (x, y, t) bond sums of the bonds this rank counts.

        After a full sweep the outer ghost planes are stale and so are
        the inner ones' color-1 sites (color 0 updated the ring, color 1
        only the owned box).  Every boundary bond has one color-1 end;
        the rank owning that end counts the bond, reading the partner's
        fresh color-0 ghost.  Each bond is still counted once over the
        ranks and the sums are exact integers, so the totals are the
        ones owned-origin counting gave.  An extent-1 axis bonds every
        site to itself.
        """
        s = self.spins
        sums = [s.sum(dtype=np.int64)]
        for pairs in self._axis_bonds:
            if pairs is None:
                sums.append(s.size)
            else:  # exact for +-1: a bond is 1 less 2 if its ends differ
                lo, hi, counted, n = pairs
                sums.append(n - 2 * np.count_nonzero((lo != hi) & counted))
        if self.lt > 1:
            sums.append(s.size - 2 * (np.count_nonzero(s[..., :-1] != s[..., 1:])
                                      + np.count_nonzero(s[..., -1] != s[..., 0])))
        else:
            sums.append(s.size)
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

    def _checkpoint_expect(self) -> dict:
        """The shared fingerprint plus the halo schedule: ghost depth and
        refreshes a sweep, so a bundle of another frame (whose ``g`` and
        exchange counter mean something else) is refused."""
        return {
            **super()._checkpoint_expect(),
            "block_schedule": {"ghost_depth": _BLOCK_DEPTH, "refreshes": 1},
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


class _ChainState(_DecomposedState):
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
        self._init_rank(comm, cfg, kernel)
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
    """The health monitors of a chain rank, one per chain, fed as one:
    values and counters carry the chain axis."""

    enabled = True
    t_model = 0.0  # chains model no time; check() hands each monitor the clock

    def observe(self, name: str, values, sweep: int) -> None:
        for m, value in zip(self, values):
            m.observe(name, value, sweep)

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
    larger communicator is a ``ValueError``.  Nothing is pooled or sent.
    The value carries a chain axis (series, ``spins``, counters, health
    summaries; health events chain after chain), which
    :func:`_chain_values` splits into what each chain returns alone.
    """
    if comm.size > 1:
        raise ValueError("chain_program runs its chains on one rank, not "
                         f"{comm.size}: give ChainConfig a stream per chain")
    # A chain's monitor is stamped with its stream index: its rank in its run.
    monitor = NOOP_HEALTH if health is None else _ChainHealth(
        HealthMonitor(health, rank=index) for _, index in cfg.streams)
    return _run_decomposed(_ChainState(comm, cfg), None, health, monitor=monitor)


def _chain_values(value: dict, series) -> list[dict]:
    """A :func:`chain_program` value as one value per chain, each what a
    run of that chain alone returns; ``series`` names its series."""
    chains = [{**value, **{name: value[name][:, i] for name in series},
               **{key: value[key][i] for key in ("spins", "n_attempted", "n_accepted")}}
              for i in range(len(value["spins"]))]
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
    :func:`chain_program` (thread backend, ideal machine).

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
    value = run_spmd(chain_program, 1, machine=IDEAL, args=(cfg,)).values[0]
    return _chain_values(value, cfg.series)[0]
