"""The SPMD drivers of the QMC kernels: the domain-decomposed layouts.

Two programs, each an ordinary rank program runnable under
:func:`repro.vmp.run_spmd` (threads), the multiprocessing backend, or
-- the API being mpi4py-shaped -- real MPI, and both one rank state
(:class:`_DecomposedState`) driven by the run loop every layout shares
(:func:`repro.qmc.chains._run_decomposed`: thermalize -> sweep ->
measure -> health), under its one sweep-telemetry wrapper.  The serial
and replica layouts (:func:`repro.qmc.chains.chain_program`) run on
that loop too, without loading this module:

* :func:`worldline_strip_program` -- the world-line XXZ chain split
  into contiguous site strips.  Updates proceed stage-by-stage through
  the chain's four corner colors
  (:data:`repro.kernels.chain_tables.CORNER_COLORS`, each two stride-4
  classes of moves that never interact) and the two straight-line
  column parities: six kernel calls a rank-sweep.  Each sweep draws one
  *shared* uniform block, sliced per stage, so the trajectory is
  bit-identical across rank counts and across the kernel backends
  (``mode="scalar"`` is the per-move one).  A two-level run stacks R
  independent replicas in every rank, swept by the same six calls.

* :func:`ising_block_program` -- the anisotropic classical Ising model
  (and therefore the TFIM) split into 2-D spatial blocks over a process
  grid.  A rank's frame keeps the walk's two ghost planes a side on
  every spatial axis of extent > 1 (none on an extent-1 one, so a
  chain's spins are contiguous), refreshed once a sweep before color 0;
  color 0 also updates the inner ghost ring, on its owner's uniforms,
  so color 1 reads only fresh ghosts.  A flip is priced by a count:
  ``log u < thr[code]``, ``code`` the int8 count of the neighbour sums and ``thr``
  :func:`~repro.kernels.ising_tables.ising_thresholds`.  Given the same
  per-site uniforms the parallel trajectory is **bit-identical** to the
  serial one (same-color sites do not interact, and a redundant update
  decides as its owner does), which the integration tests assert
  literally.

Both decomposed drivers take their shared uniforms from one stream per
run (:meth:`_DecomposedState._sweep_draw`): every rank builds it
once from ``sweep_seed`` and skips ahead to its share -- the strip's
next whole block per sweep, a block rank's own rows of the sweep's
global field and one more a side.

A rank pays for its moves, not its set-up: everything it derives from
its geometry -- frame, halo schedule and phases, stage and pricing
tables, the sweep's uniform index -- is one read-only plan
(:class:`_StripPlan`, :class:`_BlockPlan`) in a per-process memo of one
run's plans, looked up by the rank's own key (:func:`_rank_plan`).  A
launcher whose ranks share or inherit its memory builds the run's plans
first (:func:`rank_plans`), so threads share them and forked ranks
inherit them; elsewhere a rank builds its own on first use.  A strip
sweep takes its uniforms of all six stages with one gather by its
plan's index and one log for both column stages.

Halo protocol: ghost copies of the boundary data travel as ONE
aggregated contiguous-buffer message per neighbor *rank* and split
axis, an axis at a time -- a later axis ships the frame's full extent
of the earlier ones, so the block's y phase carries the x ghosts into
the corners -- instead of one message per boundary column/plane (under
``alpha + n * beta`` per message, aggregation cuts the latency term and
leaves the bandwidth term); an axis the decomposition does not split
wraps locally.  A plan only *describes* its traffic, as the phases of
each stage key (:func:`_axis_refresh`); :meth:`_DecomposedState._exchange`
is the one place that posts and completes them, in the lockstep or the
overlapped schedule, and :func:`_run_decomposed` is the one run loop
all programs (:func:`~repro.qmc.chains.chain_program`'s, whose states
post nothing, included) share.  That loop
also owns the reductions: a measurement leaves its rank-local partial
sums pending, and one allreduce carries every pending row when a global
value is due.

Halo schedule: a ghost ships only when it is stale and about to be
read -- a function of the driver's stencil and the decomposition alone,
so both sides compute it independently and trajectories equal
refreshing everything everywhere.  A stencil (:class:`_Stencil`) is a
sweep's stages along a split axis in cells -- a strip column; a block
plane's sites of one color, cell ``2 x + c`` -- each by the cells its
moves sit on, read and write.  A rank holds ``D`` ghost cells a side
and runs every move whose reads are fresh, owned or redundant, so its
ghosts go stale slowly.  :func:`_halo_walk` walks one sweep, every
ghost stale at its start: a cell goes stale when its stage writes its
class and no move that ran wrote it; a refresh (every ghost, one
message per neighbor rank) goes before a stage whose owned moves would
read a stale cell, or a measurement that would; and of the redundant
moves only those run that some later move reads.  ``D`` is the smallest
depth at which the walk posts its fewest refreshes, capped beyond two
ranks by the thinnest piece; one rank keeps the moves' own reach
(:func:`_ghost_depth`).  It is a knob of neither driver.  The strip's:

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
pieces two, and none is posted for a measurement.  On the block the
walk posts two refreshes at a depth of one plane and one at two, so
``D`` is two planes on every axis of extent > 1; the refresh goes
before color 0, which runs on the owned planes and the inner ghost
ring, and color 1 on the owned ones.  The outer planes and the inner
ones' color-1 sites are stale after a sweep, and the measurement reads
none of them: every boundary bond has one color-1 end, and the rank
owning that end counts the bond against its fresh color-0 partner.

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

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, NamedTuple

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
from repro.qmc.chains import _ChainHealth, _RankState, _run_decomposed, _validate_schedule
from repro.qmc.classical_ising import FLOPS_PER_SPIN_UPDATE
from repro.qmc.plaquette import PlaquetteTable
from repro.qmc.worldline import FLOPS_PER_CORNER_MOVE
from repro.util.rng import SeedSequenceFactory

if TYPE_CHECKING:  # runtime import would cycle through repro.run.__init__
    from repro.obs.health import HealthRules
    from repro.run.checkpoint import CheckpointConfig

__all__ = [
    "WL_STAGES",
    "N_WL_STAGES",
    "halo_traffic",
    "WorldlineStripConfig",
    "worldline_strip_program",
    "IsingBlockConfig",
    "ising_block_program",
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


#: Update stages of one strip-driver sweep, in order: the chain's four
#: corner colors (``("corner", k)``: :data:`CORNER_COLORS` ``[k]``, two
#: stride-4 classes whose moves never interact), then the two
#: straight-line column parities.  One shared uniform block is drawn per
#: sweep and sliced per stage.
WL_STAGES = (
    *(("corner", k) for k in range(len(CORNER_COLORS))), ("column", 0), ("column", 1)
)
N_WL_STAGES = len(WL_STAGES)


class _Stencil(NamedTuple):
    """A driver's moves along one split axis, in cells (module docstring,
    "Halo schedule").  Per stage in sweep order, ``(step, phase, reads,
    writes)``: its moves sit on the cells ``x = phase (mod step)``, move
    ``x`` reading the cells ``x + reads`` and writing ``x + writes``.  A
    plane is ``per_plane`` cells; the measurement reads the owned cells
    and ``measure``'s, each an offset from the first owned cell if
    negative, else from one past the last."""

    stages: tuple
    per_plane: int
    measure: tuple[int, ...]


#: The strip's stencil, a cell per column: corner color ``k``'s bonds read
#: columns ``x-1 .. x+2`` and write ``x, x+1``, column parity ``p``'s
#: columns read ``x-1 .. x+1``; the measurement reads column ``stop``.
_STRIP_STENCIL = _Stencil(tuple(
    (2, CORNER_COLORS[k][0][0] % 2, (-1, 0, 1, 2), (0, 1)) if kind == "corner"
    else (2, k, (-1, 0, 1), (0,)) for kind, k in WL_STAGES), per_plane=1, measure=(0,))

#: The block's, along either spatial axis: cell ``2 x + c`` holds plane
#: ``x``'s color-``c`` sites, whose neighbours are the other color's on
#: planes ``x - 1 .. x + 1``; the measurement reads the color-0 partners
#: of the face bonds it counts, on planes ``start - 1`` and ``stop``.
_BLOCK_STENCIL = _Stencil(((2, 0, (-1, 0, 1, 3), (0,)), (2, 1, (-3, -1, 0, 1), (0,))),
                          per_plane=2, measure=(-2, 0))


class _HaloWalk(NamedTuple):
    """A halo schedule on one rank's frame along one axis (module
    docstring, "Halo schedule"): per stage, then the measurement,
    whether every ghost is refreshed first and the cells fresh while it
    runs; per stage, the cells whose moves run, ascending."""

    refresh: list[bool]
    runs: list[np.ndarray]
    fresh: list[np.ndarray]


@lru_cache(maxsize=64)
def _halo_walk(stencil: _Stencil, n_owned: int, depth: int) -> _HaloWalk:
    """Walk one sweep of ``stencil`` over a frame of ``n_owned`` owned
    cells and ``depth`` ghosts a side (local phases the global ones).

    Forward, running every move whose reads are fresh: a cell goes stale
    when the stage's write class covers it and no move that ran wrote
    it, and a refresh (every ghost fresh) goes before a stage whose owned
    moves -- the ones writing an owned cell -- would read a stale one.
    Backward: of the redundant moves only those run whose writes a later
    move that runs reads before the next refresh (or the measurement).
    Every ghost is stale at sweep start.  Memoized: the ranks of a
    process share it, read-only.
    """
    width = n_owned + 2 * depth
    cells = np.arange(width)
    owned = (cells >= depth) & (cells < depth + n_owned)
    measured = owned.copy()
    measured[[(depth if o < 0 else depth + n_owned) + o for o in stencil.measure]] = True
    stages = []
    fresh = owned
    for step, phase, reads, writes in stencil.stages:
        x = cells[(cells % step == phase) & (cells + min(reads) >= 0)
                  & (cells + max(reads) < width)]
        ok = fresh[x[:, None] + reads].all(axis=1)
        post = not ok[owned[x[:, None] + writes].any(axis=1)].all()
        if post:
            fresh = np.ones(width, dtype=bool)
            ok[:] = True
        stages.append((x, ok, post))
        fresh = _advance(fresh, step, phase, writes, x[ok])
    refresh = [post for _, _, post in stages] + [not fresh[measured].all()]
    runs = []
    live = measured & (not refresh[-1])
    for (_, _, reads, writes), (x, ok, post) in zip(stencil.stages[::-1], stages[::-1]):
        run = x[ok & (owned | live)[x[:, None] + writes].any(axis=1)]
        runs.insert(0, run)
        live = live.copy()
        live[(run[:, None] + reads).ravel()] = True
        if post:
            live[:] = False
    fresh_at, fresh = [], owned
    for (step, phase, _, writes), run, post in zip(stencil.stages, runs, refresh):
        fresh = np.ones(width, dtype=bool) if post else fresh
        fresh_at.append(fresh)
        fresh = _advance(fresh, step, phase, writes, run)
    fresh_at.append(np.ones(width, dtype=bool) if refresh[-1] else fresh)
    for table in (*runs, *fresh_at):
        table.flags.writeable = False
    return _HaloWalk(refresh, runs, fresh_at)


def _advance(fresh: np.ndarray, step: int, phase: int, writes: tuple,
             run: np.ndarray) -> np.ndarray:
    """The cells fresh after a stage that ran the moves ``run``: those
    outside its write class, and those a move that ran wrote."""
    kept = ~np.isin((np.arange(fresh.size) - phase) % step, np.mod(writes, step))
    kept[(run[:, None] + writes).ravel()] = True
    return fresh & kept


def _ghost_depth(stencil: _Stencil, widths: list[int]) -> int:
    """Ghost cells a side of an axis cut into pieces of ``widths`` cells:
    the smallest depth, a multiple of the stages' step, at which
    :func:`_halo_walk` posts its fewest refreshes -- one a sweep, unless
    the thinnest piece caps the depth.  Beyond two ranks it does, since
    a ghost must come from an adjacent rank; on two, every ghost is the
    neighbor's or the rank's own (:func:`_ghost_owners`).  One rank
    posts nothing at any depth -- its refresh is a local wrap -- and
    keeps the moves' own reach."""
    step = math.lcm(*(stage[0] for stage in stencil.stages))
    if len(widths) == 1:
        reach = max(abs(o) for stage in stencil.stages for o in stage[2])
        return -(-reach // step) * step
    cap = min(widths) if len(widths) > 2 else None
    best, depth = (len(stencil.stages) + 2, 0), step
    while cap is None or depth <= cap:
        best = min(best, (sum(_halo_walk(stencil, min(widths), depth).refresh), depth))
        if best[0] == 1:  # the sweep's first stage always refreshes
            break
        depth += step
    return best[1]


def _ghost_owners(decomp: StripDecomposition, rank: int, depth: int):
    """``(ghost, owner, plane)`` per ghost plane of ``rank`` at
    ``depth``, ascending: its local index, the rank that owns it and
    that rank's local index of it."""
    piece = decomp.piece(rank)
    out = []
    for x in (*range(depth), *range(piece.n_owned + depth, piece.n_owned + 2 * depth)):
        g = (piece.start - depth + x) % decomp.n_columns
        owner = decomp.owner_of(g)
        out.append((x, owner, g - decomp.piece(owner).start + depth))
    return out


def _axis_refresh(flat: np.ndarray, depths: list[int], axis: int,
                  decomp: StripDecomposition, coord: int, world) -> tuple:
    """A refresh's phase along ``axis`` on a frame of flat site indices
    ``flat`` and ``depths`` ghost planes a side, as
    :meth:`_DecomposedState._exchange` runs it: ``(sends, receives,
    wrap)``, a ``(rank, tag offset, sites)`` per neighbor rank each way
    and the local copy ``(ghost, source)`` or None.  ``decomp`` cuts the
    axis, the rank sits at its ``coord`` and ``world`` maps a coordinate
    to the rank there.

    Every ghost plane ships from its owner, over the frame's full extent
    on the axes before ``axis`` (so a later phase carries an earlier
    one's ghosts into the corners) and the owned extent on those after:
    one int8 buffer per neighbor rank, in the receiver's ghost order, a
    side at a time, which both ends derive from the decomposition.
    Ghosts a rank owns itself (an uncut axis's, the deep ones of a
    two-rank ring) copy locally.
    """
    d, piece = depths[axis], decomp.piece(coord)
    index = [slice(None) if b < axis else slice(e, n - e)
             for b, (e, n) in enumerate(zip(depths, flat.shape))]

    def sites(ghosts, owner, at):
        """The flat sites of the ghost planes of ``ghosts`` (as
        :func:`_ghost_owners` lists them) that ``owner`` holds, at their
        local (``at = 0``) or owner's (``at = 2``) plane, a side at a
        time."""
        parts = []
        for side in (ghosts[:d], ghosts[d:]):
            index[axis] = [g[at] for g in side if g[1] == owner]
            parts.append(flat[tuple(index)].ravel())
        return _frozen(np.concatenate(parts))

    mine = _ghost_owners(decomp, coord, d)
    # sends rightward first, receives from the left first
    sends = tuple((world(peer), axis, sites(_ghost_owners(decomp, peer, d), coord, 2))
                  for peer in dict.fromkeys((piece.right_rank, piece.left_rank))
                  if peer != coord)
    recvs = tuple((world(owner), axis, sites(mine, owner, 0))
                  for owner in dict.fromkeys((piece.left_rank, piece.right_rank))
                  if owner != coord)
    wrap = sites(mine, coord, 0), sites(mine, coord, 2)
    return sends, recvs, wrap if wrap[0].size else None


class _Frame(NamedTuple):
    """A rank's ghosted frame (module docstring, "Halo schedule"): per
    spatial axis the rank's piece, its ghost planes a side and its walk
    (None, 0 and None on an inert axis), the frame's ``shape``; per
    stage key, then ``"measure"``, whether the refresh posts first and
    the ``phases`` :meth:`_DecomposedState._exchange` runs there, one per
    axis with ghosts (:func:`_axis_refresh`)."""

    pieces: tuple
    depths: tuple[int, ...]
    walks: tuple
    shape: tuple[int, ...]
    refresh: tuple[bool, ...]
    phases: MappingProxyType


def _halo_frame(stencil: _Stencil, axes: list, n_trailing: int) -> _Frame:
    """The :class:`_Frame` of a rank with spatial ``axes``, each
    ``(decomp, coord, world)`` as :func:`_axis_refresh` takes them or
    None if inert (extent 1), and an unsplit trailing axis of
    ``n_trailing``: per axis ``stencil``'s depth and walk on its pieces;
    the refresh, a phase per axis, posts where any axis's walk does."""
    k = stencil.per_plane
    pieces = tuple(ax and ax[0].piece(ax[1]) for ax in axes)
    depths, walks = [], []
    for ax, piece in zip(axes, pieces):
        d = _ghost_depth(stencil, [k * p.n_owned for p in ax[0].pieces]) if ax else 0
        walks.append(ax and _halo_walk(stencil, k * piece.n_owned, d))
        depths.append(d // k)
    shape = (*(p.n_owned + 2 * d if p else 1 for p, d in zip(pieces, depths)), n_trailing)
    flat = np.arange(math.prod(shape)).reshape(shape)
    phases = tuple(_axis_refresh(flat, depths, a, *ax) for a, ax in enumerate(axes) if ax)
    keys = (*range(len(stencil.stages)), "measure")
    refresh = tuple(any(w.refresh[i] for w in walks if w) for i in range(len(keys)))
    return _Frame(pieces, tuple(depths), tuple(walks), shape, refresh, MappingProxyType(
        {key: phases if post else () for key, post in zip(keys, refresh)}))


def halo_traffic(driver: str, geometry: tuple, n_ranks: int) -> tuple:
    """``(refreshes, messages, sites, *priced)``, read off the compiled
    phases of rank 0 of ``driver`` -- ``"worldline_strip"`` of
    ``geometry = (n_sites, n_slices)``, ``"ising_block"`` of ``(lx, ly,
    lt)`` -- on ``n_ranks`` ranks: a sweep's refreshes (local wraps
    included), each of ``messages`` messages (one per neighbor rank and
    phase) of ``sites`` spins on average.  The block prices its compute
    too, ``priced = (updates, interior)`` (:class:`_BlockPlan`).  The
    performance model's workloads charge this schedule."""
    if driver == "ising_block":
        plan = _build_block_plan(*geometry, n_ranks, 0)
        frame, priced = plan.frame, plan.priced
    else:
        frame, priced = _strip_frame(*geometry, n_ranks, 0), ()
    posted = [phases for phases in frame.phases.values() if phases]
    sent = [sites.size for sends, _, _ in posted[0] for _, _, sites in sends] if posted else []
    return (len(posted), len(sent), sum(sent) / len(sent) if sent else 0, *priced)


# ======================================================================
# the decomposed rank state: its plan, one halo exchange, checkpoints
# ======================================================================


@lru_cache(maxsize=1)
def _run_plans(driver: str, key: tuple, n_ranks: int) -> dict:
    """The memo of one run's rank plans, rank -> plan, filled on lookup.
    It holds one run's key at a time, whatever its driver, so a process
    keeps at most one run's plans alive, however many runs it launches."""
    return {}


def _rank_plan(state: type, cfg, n_ranks: int, rank: int):
    """Rank ``rank``'s plan of a run of ``cfg`` on ``n_ranks`` ranks of
    rank state ``state``, built from the config fields it names
    (``_plan_key``) on the first lookup of its key in this process."""
    key = tuple(getattr(cfg, name) for name in state._plan_key)
    plans = _run_plans(state._driver, key, n_ranks)
    if rank not in plans:
        build = _build_strip_plan if state._driver == "worldline_strip" else _build_block_plan
        plans[rank] = build(*key, n_ranks, rank)
    return plans[rank]


def rank_plans(cfg, n_ranks: int) -> tuple:
    """The plan of every rank of a strip (block) run of ``cfg`` on
    ``n_ranks`` ranks, in rank order, built into the memo: a launcher
    whose ranks share or inherit its memory (threads, forked processes)
    calls it first, so the ranks' own lookups all hit."""
    state = _StripState if isinstance(cfg, WorldlineStripConfig) else _BlockState
    return tuple(_rank_plan(state, cfg, n_ranks, rank) for rank in range(n_ranks))


class _DecomposedState(_RankState):
    """What every domain-decomposed rank state adds to the run loop's
    (:class:`~repro.qmc.chains._RankState`).

    Resolves the kernel backend and owns the shared-randomness sweep
    counter, the halo exchange and the checkpoint pair.  Its geometry is
    the rank's plan (:func:`_rank_plan`): the ``frame`` whose ``phases``
    :meth:`_exchange` runs, the uniforms a sweep takes, what keeps the
    overlapped schedule off (``overlap_blocker``) and the checkpoint's
    ``schedule`` entry.  A subclass supplies the class attributes below
    and the base's, its ghosted spin array (the attribute named by
    ``_array``) and its flat view ``_flat``, :meth:`_sweep_stages`,
    :meth:`measure`, :meth:`series_columns` and :meth:`result`.
    """

    #: Attribute holding the ghosted spin array -- also its bundle key --
    #: and what a resume error calls it.
    _array: str
    _array_label: str
    #: Halo tag block of exchange ``n``: ``base + (n % period) * stride``.
    _tag_schedule: tuple[int, int, int]
    #: Checkpoint fingerprint: the driver's name and the config fields
    #: (geometry, couplings) a resume must match exactly, next to the
    #: rank count, sweep seed and thermalization length.
    _driver: str
    _fingerprint: tuple[str, ...]
    #: The config fields a rank plan is built from, with the rank count.
    _plan_key: tuple[str, ...]

    def __init__(self, comm, cfg, chains: int = 1):
        # Resolve the kernel backend once per rank (every backend, the
        # per-move "scalar" included, is trajectory-identical).
        super().__init__(comm, cfg, kernels.resolve_kernel(cfg.mode))
        self._kops = kernels.get_ops(self.kernel)
        self._plan = plan = _rank_plan(type(self), cfg, comm.size, comm.rank)
        self._phases, self._per_sweep = plan.frame.phases, plan.per_sweep
        if cfg.overlap and comm.size > 1:
            if plan.overlap_blocker is None:
                self.overlap_active = True
            else:
                warnings.warn(f"{self._driver} overlap disabled on rank {comm.rank}: "
                              f"{plan.overlap_blocker}; falling back to the lockstep "
                              "exchange", stacklevel=3)
        self.sweep_index = 0
        self._n_exchanges = 0
        # The run's sweep streams, built once (see _sweep_draw): chain r
        # draws the r-th of its seed, so chain 0's is a one-chain run's.
        # And the position they stand at.
        seeds = SeedSequenceFactory(cfg.sweep_seed)
        self._sweep_gens = [seeds.stream("sweep", r).generator for r in range(chains)]
        self._sweep_pos = 0

    # -- shared randomness ---------------------------------------------------
    def _sweep_draw(self, spans) -> None:
        """Fill this sweep's uniforms: per ``(offset, rows)`` of
        ``spans``, the C-contiguous ``rows[r]`` of chain ``r`` with its
        doubles from ``offset`` into its share of that chain's sweep
        stream; advances ``sweep_index``.

        Every rank builds the same streams from ``sweep_seed``, and sweep
        ``k`` owns its ``_per_sweep`` doubles of each from position
        ``k * _per_sweep`` on.  PCG64 spends one step per double, so
        ``advance`` skips exactly the numbers other ranks (or other
        sweeps) draw -- or steps back to a span drawn twice -- and the
        position is a function of ``sweep_index`` alone: a restore sets
        that and nothing else.
        """
        gens, base = self._sweep_gens, self.sweep_index * self._per_sweep
        for offset, rows in spans:
            for gen, out in zip(gens, rows):
                gen.bit_generator.advance(base + offset - self._sweep_pos)
                gen.random(out=out)
            self._sweep_pos = base + offset + out.size
        self.sweep_index += 1

    # -- halo exchange -------------------------------------------------------
    def _exchange(self, stage, offload: bool = False) -> list:
        """Post the halo phases scheduled before ``stage``: ONE aggregated
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

    # -- checkpoint/restart --------------------------------------------------
    def _checkpoint_expect(self) -> dict:
        """Geometry/seed fingerprint a resume must match exactly; it
        names the sweep-stream scheme, so a bundle written under another
        addressing of the sweep uniforms is refused, not resumed on other
        numbers, and the plan's halo schedule, so one of another frame
        (whose spins and exchange counter mean something else) is too."""
        cfg = self.cfg
        return {
            "driver": self._driver,
            "n_ranks": self.comm.size,
            **{name: getattr(cfg, name) for name in self._fingerprint},
            "sweep_seed": cfg.sweep_seed,
            "sweep_stream": _SWEEP_STREAM,
            "n_thermalize": cfg.n_thermalize,
            **self._plan.schedule,
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
    may toggle it.  ``replicas`` stacks that many independent chains in
    every rank (:class:`_StripState`); the value then carries a chain
    axis.
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
    replicas: int = 1

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError("need at least one replica")
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
    beta, replicas, n_ranks, rank)`` alone (module docstring): read-only,
    shared by every rank state of that key.  Its tables address the
    rank's ``replicas`` chains stacked chain-major, each frame
    ``stride`` sites after the last (:func:`_chains`).

    * the ``frame`` (:func:`_strip_frame`): the rank's piece, ``D``
      ghost columns a side, the halo walk and the refresh's phases per
      stage key, each message carrying every chain's ghosts;
      :attr:`schedule` is its checkpoint entry;
    * ``stages``: per :data:`WL_STAGES` entry, the gather / flip tables
      of its moves and what it counts (:func:`_strip_stages`), with the
      overlapped schedule's interior share; ``overlap_blocker`` names
      the first stage that has none, if any does;
    * the sweep's one gather: ``u_index`` picks every stage's uniforms
      out of the chains' sweep blocks (a row a chain) at once, stage
      after stage and chain after chain within a stage, so stage ``s``
      reads ``u_spans[s] = (a, b, shape)`` of it; the column stages'
      come last, from ``n_corner_u`` on, and share one log;
    * the pricing tables: the plaquette ``table`` (weights, d ln W) and
      the column thresholds ``thr``; ``dlog_corners`` is the
      measurement's shaded corners, per chain the ``n_even`` of even
      owned bonds first.  The 1 MB corner products the corner op looks
      moves up in stay the kernel layer's per-process memo
      (:func:`~repro.kernels.chain_tables.corner_products`), fetched by
      the rank state: a launcher that builds plans holds none.
    """

    frame: _Frame
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

    @property
    def schedule(self) -> dict:
        return {"strip_schedule": {"ghost_depth": self.frame.depths[0], "stages": [
            f"{kind} {index}" for kind, index in WL_STAGES]}}


def _strip_frame(n_sites: int, n_slices: int, n_ranks: int, rank: int) -> _Frame:
    """Rank ``rank``'s frame of the strip: :data:`_STRIP_STENCIL` over the
    chain's even pieces, a column a cell."""
    decomp = StripDecomposition(n_sites, n_ranks, require_even=True)
    if n_ranks > 1 and decomp.piece(rank).n_owned < 4:
        raise ValueError("strip world-line driver needs >= 4 owned columns per rank")
    return _halo_frame(_STRIP_STENCIL, [(decomp, rank, lambda r: r)], n_slices)


def _chains(a: np.ndarray, replicas: int, stride: int, axis: int = 0) -> np.ndarray:
    """Index table ``a`` into one chain's sites, for ``replicas`` chains
    stacked ``stride`` sites apart: chain after chain along ``axis``."""
    return _frozen(np.concatenate([a + r * stride for r in range(replicas)], axis=axis))


def _build_strip_plan(n_sites: int, n_slices: int, jz: float, jxy: float,
                      beta: float, replicas: int, n_ranks: int, rank: int) -> _StripPlan:
    """Build rank ``rank``'s :class:`_StripPlan`."""
    L, T, R = n_sites, n_slices, replicas
    frame = _strip_frame(L, T, n_ranks, rank)
    (piece,), (d,) = frame.pieces, frame.depths
    n = piece.n_owned
    stride = (n + 2 * d) * T

    def stacked(sites):
        return _chains(sites, R, stride)

    frame = frame._replace(phases=MappingProxyType({key: tuple(
        (tuple((peer, off, stacked(s)) for peer, off, s in sends),
         tuple((peer, off, stacked(s)) for peer, off, s in recvs),
         wrap and (stacked(wrap[0]), stacked(wrap[1])))
        for sends, recvs, wrap in phases) for key, phases in frame.phases.items()}))
    stages, blocker = _strip_stages(L, T, piece.start, n, d, frame.walks[0].runs, R)
    # A chain's uniform block holds the six stage lattices in stage
    # order: a corner color's (L/2, T/4) grid, a column parity's L/2.
    sizes = [L * T // 8 if kind == "corner" else L // 2 for kind, _ in WL_STAGES]
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    rows = np.arange(R)[:, None] * offsets[-1]
    picks, spans, a = [], [], 0
    for off, stage in zip(offsets.tolist(), stages):
        pick = stage["uflat"] if stage["kind"] == "corner" else stage["uc"]
        picks.append((rows + off + pick.ravel()).ravel())
        # A grouped stage's op counts a row a bond (column), chain after
        # chain; any other's a row a chain -- one chain's row is 1-D, as
        # a flat run's, and counted by one int.
        if stage["grouped"]:
            shape = (R * pick.shape[0], *pick.shape[1:])
        else:
            shape = (R, pick.size) if R > 1 else (pick.size,)
        spans.append((a, a + R * pick.size, shape))
        a += R * pick.size
    pt = PlaquetteTable.build(jz, jxy, beta / (T // 2))
    _frozen(pt.weights)
    _frozen(pt.dlog)
    width = n + 2 * d
    even, odd = (shaded_corners(width, T, np.arange(d + p, d + n, 2)) for p in (0, 1))
    return _StripPlan(
        frame=frame,
        stages=stages, overlap_blocker=blocker,
        per_sweep=int(offsets[-1]),
        u_index=_frozen(np.concatenate(picks)),
        u_spans=tuple(spans),
        n_corner_u=spans[N_WL_STAGES - 2][0],
        table=pt,
        thr=_frozen(column_thresholds(pt.weights, T)),
        dlog_corners=stacked(np.concatenate([even, odd])),
        n_even=len(even),
    )


def _strip_stages(L: int, T: int, start: int, n: int, d: int, runs, R: int) -> tuple:
    """``(stages, blocker)``: the index tables of every stage of a frame
    of ``n`` owned columns from global column ``start`` and ``d`` ghosts
    a side, for ``R`` chains stacked chain-major, and the overlapped
    schedule's blocker.

    A stage's moves are the walk's ``runs``: local bonds (corner color)
    or columns (column parity) ``x``, ascending, the owned moves and
    the redundant ones it keeps.  Corner color ``k`` takes bond ``x`` at
    the intervals of the class its global bond falls in, bond-major;
    ``uflat`` is the ``(bonds, T/4)`` index of one chain's moves into
    the color's ``(L/2, T/4)`` slice of its sweep uniforms (bond ``g //
    2``, interval ``t // 4``), ``uc`` a column's (``g // 2``) in its
    parity's ``L/2``.  ``counted`` is the slice of ``x`` this rank
    counts: the bonds ``start .. stop - 1`` (the seam bond ``start - 1``
    is its left neighbor's ``stop - 1``) and the owned columns.  Where
    it leaves some out (``grouped``), the stage's uniforms come one row
    per bond (per column), so the op returns one count per bond
    (column): one kernel call runs the stage and counts it.

    The fused gather / flip tables -- flat indices into the stacked
    spins, a packed ``(n_moves, 16)`` environment ``env`` and ``(4,
    n_moves)`` ``flip`` cells per corner color, the rows ``lc`` and the
    ``(n_cols, T)`` plaquette neighbors ``nbr`` per column parity -- are
    the serial sampler's (:mod:`repro.kernels.chain_tables`) on the ``n
    + 2 d`` local rows of each chain: a move the walk runs reads no row
    outside them, so nothing wraps.

    The overlapped schedule charges a stage's *interior* moves -- those
    reading owned rows only (:data:`_STRIP_STENCIL`) -- before its halo
    wait.  Every corner move is attempted, so a corner stage holds the
    count, ``n_interior``; only straight columns are, so a column stage
    holds the mask, ``interior``.  ``blocker`` describes the first stage
    with no interior move (thin strips), else None.
    """
    width, per_bond = n + 2 * d, T // 4
    origin = start - d  # global column of local column 0
    stages, blocker = [], None
    for (kind, index), (_, _, reads, _), x in zip(WL_STAGES, _STRIP_STENCIL.stages, runs):
        g = (origin + x) % L
        interior = ((x[:, None] + reads >= d) & (x[:, None] + reads < d + n)).all(1)
        counted = slice(*np.searchsorted(x, [d, d + n]).tolist())
        # One count per bond (column) only where some go uncounted.
        grouped = counted != slice(0, x.size)
        stage = {"kind": kind, "counted": counted, "grouped": grouped}
        if kind == "corner":
            (a, b), (_, b2) = CORNER_COLORS[index]
            t = np.where(g % 4 == a, b, b2)[:, None] + np.arange(0, T, 4)
            env, flip = corner_tables(width, T, np.repeat(x, per_bond), t.ravel())
            uflat = (g // 2)[:, None] * per_bond + t // 4
            stage.update(
                uflat=_frozen(uflat if grouped else uflat.ravel()),
                attempted=(counted.stop - counted.start) * per_bond,
                env=_chains(env, R, width * T),
                flip=_chains(flip, R, width * T, axis=1),
                n_moves=R * env.shape[0],
                n_interior=R * int(np.count_nonzero(interior)) * per_bond,
            )
            what = f"corner color {index} has no interior moves ({n} owned columns)"
        else:
            stage.update(
                lc=_chains(x, R, width),
                uc=_frozen((g // 2)[:, None] if grouped else g // 2),
                nbr=_chains(column_neighbors(width, T, x), R, width * T),
                interior=_frozen(np.tile(interior, R)),
            )
            what = f"column parity {index} has no interior columns ({n} owned columns)"
        if blocker is None and not interior.any():
            blocker = what
        stages.append(MappingProxyType(stage))
    return tuple(stages), blocker


class _StripState(_DecomposedState):
    """Per-rank world-line state: ``replicas`` chains, each its owned
    columns plus ``depth`` ghosts a side.

    Local layout along a chain's column axis: ``[ghost(start-depth) ..
    ghost(start-1), owned..., ghost(stop) .. ghost(stop+depth-1)]``;
    local index of global column ``g`` is ``g - start + depth``.  The
    depth is the halo schedule's (:func:`_ghost_depth`): even, so a
    local bond's parity is its global one, and at least 2, the
    neighborhood a seam corner move reads (columns ``seam - 2 .. seam +
    1``).  The rank's geometry and tables are the memoized
    :class:`_StripPlan` of its key; the state holds the spins, the
    sweep's uniform buffers and their per-stage views, and its counters.

    The chains are stacked as one ``(R, width, T)`` array, swept a stage
    at a time by one kernel call for all of them; chain ``r`` draws its
    own sweep stream.  With R > 1 the spins (``loc``), the counters and
    the series carry a chain axis (``(n, R)`` series, as a chain rank's:
    :func:`~repro.qmc.chains._chain_values` splits them); one chain's are a
    strip's.
    """

    _array = "loc"
    _array_label = "strip block"
    series = ("energy", "magnetization")
    health_series = series
    _tag_schedule = (_TAG_WL, 16, 2)
    _driver = "worldline_strip"
    _fingerprint = ("n_sites", "n_slices", "jz", "jxy", "beta")
    _plan_key = (*_fingerprint, "replicas")

    def __init__(self, comm, cfg: WorldlineStripConfig):
        super().__init__(comm, cfg, cfg.replicas)
        plan = self._plan
        self.T = cfg.n_slices
        self.n_trotter = cfg.n_slices // 2
        self.dtau = cfg.beta / self.n_trotter
        (piece,), (self.depth,) = plan.frame.pieces, plan.frame.depths
        self.start, self.stop, self.n_owned = piece.start, piece.stop, piece.n_owned
        self._corner_weights = corner_products(plan.table.weights)
        # Neel start, straight world lines (legal everywhere).
        g = np.arange(self.start - self.depth, self.stop + self.depth)
        line = np.repeat((g % 2).astype(np.int8)[:, None], self.T, axis=1)
        self._stack = np.repeat(line[None], cfg.replicas, axis=0)
        #: A value's chain index: the chain axis, or one chain's.
        self._chain = slice(None) if cfg.replicas > 1 else 0
        self.loc = self._stack[self._chain]
        self._flat = self._stack.reshape(-1)
        self._rows = self._stack.reshape(-1, self.T)
        #: The moves attempted and accepted: a value's chain index of
        #: per-chain counts (one NumPy integer for one chain).
        self._attempted = self._accepted = np.zeros(cfg.replicas, dtype=np.int64)[self._chain]
        self.n_attempted = self.n_accepted = 0
        # The sweep's buffers -- its drawn blocks, the rank's gather of
        # them and the log of the column stages' share -- and each
        # stage's view of the gather (a column stage's of the log).
        self._u_draw = np.empty((cfg.replicas, plan.per_sweep))
        self._u = np.empty(plan.u_index.size)
        c = plan.n_corner_u
        self._u_cols = self._u[c:]
        self._log_u = np.empty(self._u_cols.size)
        self._u_stage = [
            self._u[a:b].reshape(shape) if kind == "corner"
            else self._log_u[a - c : b - c].reshape(shape)
            for (kind, _), (a, b, shape) in zip(WL_STAGES, plan.u_spans)
        ]

    # -- shared randomness --------------------------------------------------
    def _sweep_uniforms(self) -> np.ndarray:
        """This sweep's uniforms, a row a chain; every rank draws the
        identical rows.

        The next ``_per_sweep`` numbers of a chain's sweep stream hold
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
        the ghost depth), each one kernel call over its whole table, for
        every chain.

        One gather takes the rank's uniforms of all six stages out of
        the chains' blocks, and one log the column stages' share (taken
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
        plan, rows, chain = self._plan, self._rows, self._chain
        n_chains = self.cfg.replicas
        attempted, accepted_total = self._attempted, self._accepted
        # the plan's indices are in range by construction: "clip" skips
        # the bounds pass
        self._sweep_uniforms().take(plan.u_index, out=self._u, mode="clip")
        np.maximum(self._u_cols, 1e-300, out=self._log_u)
        np.log(self._log_u, out=self._log_u)
        offload = self.overlap_active
        for s_idx, (stage, u) in enumerate(zip(plan.stages, self._u_stage)):
            pending = self._exchange(s_idx, offload)
            if stage["kind"] == "corner":
                n_moves, flops = stage["n_moves"], FLOPS_PER_CORNER_MOVE
                n_int = stage["n_interior"] if pending else 0
            else:
                lc = stage["lc"]
                cols = rows[lc]
                straight = (cols == cols[:, :1]).all(axis=1)
                n_moves, flops = int(np.count_nonzero(straight)), 2.0 * self.T
                n_int = (
                    int(np.count_nonzero(straight & stage["interior"]))
                    if pending else 0
                )
            if pending:
                self._charge_moves(n_int, flops, "interior")
                self._exchange_wait(pending)
            counted = stage["counted"]
            accepted = 0
            if stage["kind"] == "corner":
                accepted = self._timed(
                    self._kops["strip_corner"], self._flat, self._corner_weights,
                    stage["env"], stage["flip"], u,
                )
                attempted = attempted + stage["attempted"]
            else:
                if n_moves:
                    accepted = self._timed(
                        self._kops["strip_column"], rows, plan.thr,
                        lc, stage["nbr"], straight, u,
                    )
                attempted = attempted + straight.reshape(
                    n_chains, -1)[chain, counted].sum(axis=-1)
            if stage["grouped"] and n_moves:
                accepted = accepted.reshape(n_chains, -1)[chain, counted].sum(axis=-1)
            accepted_total = accepted_total + accepted
            # The clock prices the work done, the redundant moves too.
            self._charge_moves(
                n_moves - n_int, flops, "boundary" if pending else "compute"
            )
        self._attempted, self._accepted = attempted, accepted_total
        self.n_attempted, self.n_accepted = attempted.tolist(), accepted_total.tolist()

    # -- measurement ---------------------------------------------------------
    def local_dlog_sums(self):
        """The sum of d ln W over shaded plaquettes at owned bonds, at the
        value's chain index: one gather of every chain's both bond
        parities, summed a parity at a time, even first (the series'
        bits)."""
        plan = self._plan
        dlog = plan.table.dlog[plaquette_codes(self._flat, plan.dlog_corners)]
        dlog = dlog.reshape(self.cfg.replicas, -1)[self._chain]
        return (0.0 + dlog[..., : plan.n_even].sum(axis=-1)
                + dlog[..., plan.n_even :].sum(axis=-1))

    def owned(self) -> np.ndarray:
        """The owned columns of ``loc`` (a view)."""
        return self.loc[..., self.depth : self.depth + self.n_owned, :]

    def measure(self) -> np.ndarray:
        """Per chain, the owned-bond d ln W sum; then per chain, the
        slice-0 S^z of the owned columns."""
        self._exchange("measure")  # scheduled empty; takes its tag block
        mag = self.owned()[..., 0].sum(axis=-1) - self.n_owned / 2.0
        return np.array([self.local_dlog_sums(), mag]).ravel()

    def series_columns(self, totals: np.ndarray) -> tuple:
        """Energy estimate and slice-0 total S^z of the whole chain, per
        chain."""
        totals = totals.reshape(len(totals), 2, -1)[..., self._chain]
        return -totals[:, 0] / self.n_trotter, totals[:, 1]

    def result(self) -> dict:
        return {
            "owned_spins": self.owned().copy(),
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

    With ``cfg.replicas`` R > 1 every rank holds R chains, chain ``r``
    on its own sweep stream, and the value carries a chain axis
    (:func:`~repro.qmc.chains._chain_values` splits it).  Health runs a
    monitor a chain, stamped with the rank and the chain as its replica;
    rank 0's also record the chains' Gelman--Rubin R-hat of the energy
    after each measurement, computed in the rank (every rank holds every
    chain's series).  A dead rank fails the run, all its replicas with
    it, as a :class:`~repro.vmp.faults.RankFailure` on every rank.
    """
    monitor = None
    if health is not None and cfg.replicas > 1:
        from repro.obs.health import HealthMonitor

        monitor = _ChainHealth(
            (HealthMonitor(health, rank=comm.rank, replica=r) for r in range(cfg.replicas)),
            rhat=("energy",) if comm.rank == 0 else ())
    return _run_decomposed(_StripState(comm, cfg), checkpoint, health, monitor=monitor)



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


class _BlockPlan(NamedTuple):
    """What one block rank derives from ``(lx, ly, lt, n_ranks, rank)``
    alone: read-only, shared by every rank state of that key.

    * ``decomp`` and the rank's ``piece``; the ``frame``
      (:data:`_BLOCK_STENCIL` along each spatial axis of extent > 1, cut
      as the process grid cuts it) and its checkpoint entry,
      :attr:`schedule`;
    * per color, its sites (``masks``) of the box of frame planes its
      walk runs it on -- color 0's the owned ones and a ring, color 1's
      the owned ones -- and that box's slices of color 0's (``views``),
      whose uniforms a sweep draws: a span ``u_spans`` ``(offset, a,
      b)`` per run of consecutive global rows, the columns ``u_cols`` of
      each; ``color_masks``, both colors' sites of the owned box;
    * ``bonds``: per spatial axis the bonds the rank counts
      (:meth:`_BlockState.measure`) -- the frame index of their low and
      high ends, the mask of counted ones and their count -- None on an
      inert axis;
    * the overlapped schedule's share: ``n_int`` of color 0's ``n_box``
      sites neither in nor next to a ghost the refresh's last phase
      receives (``overlap_blocker`` says why there are none, if so);
      ``priced``, the performance model's ``(updates, interior)``: both
      colors' site updates a sweep, and the sites of color 0's box, of
      either color, clear of that phase's ghosts.
    """

    decomp: BlockDecomposition
    piece: Any
    frame: _Frame
    masks: tuple
    views: tuple
    color_masks: tuple
    u_spans: tuple
    u_cols: Any
    bonds: tuple
    n_int: int
    n_box: int
    overlap_blocker: str | None
    priced: tuple[int, int]
    per_sweep: int

    @property
    def schedule(self) -> dict:
        return {"block_schedule": {"ghost_depth": max(self.frame.depths),
                                   "refreshes": sum(self.frame.refresh)}}


def _build_block_plan(lx: int, ly: int, lt: int, n_ranks: int, rank: int) -> _BlockPlan:
    """Build rank ``rank``'s :class:`_BlockPlan`: an axis's cuts are
    those of a strip of its extent over its side of the process grid."""
    decomp = _block_decomposition(lx, ly, n_ranks)
    p, py = decomp.piece(rank), decomp.py
    gx, gy = divmod(rank, py)
    frame = _halo_frame(_BLOCK_STENCIL, [
        (StripDecomposition(lx, decomp.px), gx, lambda c: c * py + gy) if lx > 1 else None,
        (StripDecomposition(ly, py), gy, lambda c: gx * py + c) if ly > 1 else None,
    ], lt)
    (dx, dy), (bx, by) = frame.depths, p.shape
    origin = (p.x_start - dx, p.y_start - dy)
    owned = (slice(dx, dx + bx), slice(dy, dy + by))
    # cell 2 x + c of a walk is plane x's color c
    boxes = tuple(
        tuple(slice(w.runs[c][0] // 2, w.runs[c][-1] // 2 + 1) if w else slice(0, 1)
              for w in frame.walks)
        for c in (0, 1)
    )

    def coords(box):
        return [np.arange(b.start, b.stop) + o for b, o in zip(box, origin)]

    def color(box):
        """The global color of every site of the frame's ``box``."""
        x, y = coords(box)
        return (x[:, None, None] + y[None, :, None] + np.arange(lt)) % 2

    masks = tuple(_frozen(color(box) == c) for c, box in enumerate(boxes))
    color_masks = tuple(_frozen(color(owned) == c) for c in (0, 1))
    # Color 0's box draws the global field's rows it spans (wrapped), one
    # span per run of consecutive rows, and takes its columns of each.
    x, y = (g % n for g, n in zip(coords(boxes[0]), (lx, ly)))
    cut = np.flatnonzero(np.diff(x) != 1) + 1
    u_spans = tuple((int(x[a]) * ly * lt, a, b) for a, b in zip((0, *cut), (*cut, x.size)))
    u_cols = slice(y[0], y[-1] + 1) if (np.diff(y) == 1).all() else _frozen(y)
    # Per spatial axis, the bonds this rank counts as the frame's plane
    # pairs from the inner ghost plane to the owned faces, and the mask
    # of the counted ones: every inner pair, and a face pair where its
    # owned end is color 1 -- its partner, color 0, is fresh after a
    # sweep.
    bonds = []
    for axis, (d, n) in enumerate(zip(frame.depths, (bx, by))):
        if not d:
            bonds.append(None)
            continue
        lo, hi, shape = list(owned), list(owned), [bx, by, lt]
        lo[axis], hi[axis], shape[axis] = slice(d - 1, d + n), slice(d, d + n + 1), n + 1
        counted, ends = np.ones(shape, dtype=bool), [slice(None)] * 3
        for pair, face in ((0, 0), (n, n - 1)):
            ends[axis] = pair
            counted[tuple(ends)] = np.take(color_masks[1], face, axis=axis)
        bonds.append((tuple(lo), tuple(hi), _frozen(counted), int(counted.sum())))
    # A site clear of the refresh's last phase neither sits in nor
    # neighbours a ghost it is still receiving; rolling around the frame
    # is harmless, as the boxes keep off its edges.
    flight = np.zeros(frame.shape, dtype=bool)
    posted = [phases for phases in frame.phases.values() if phases]
    for _, _, sites in (posted[0][-1][1] if posted else ()):
        flight.reshape(-1)[sites] = True
    near = flight.copy()
    for axis, d in enumerate(frame.depths):
        if d:
            near |= np.roll(flight, 1, axis) | np.roll(flight, -1, axis)
    clear = ~near[boxes[0]]
    n_int = int(np.count_nonzero(masks[0] & clear))
    return _BlockPlan(
        decomp=decomp, piece=p, frame=frame, masks=masks,
        views=tuple(tuple(slice(b.start - b0.start, b.stop - b0.start)
                          for b, b0 in zip(box, boxes[0])) for box in boxes),
        color_masks=color_masks, u_spans=u_spans, u_cols=u_cols, bonds=tuple(bonds),
        n_int=n_int, n_box=int(np.count_nonzero(masks[0])),
        overlap_blocker=None if n_int else (
            f"block {bx}x{by} is too thin (every site is ghost-adjacent)"),
        priced=(sum(m.size for m in masks), int(np.count_nonzero(clear))),
        per_sweep=lx * ly * lt,
    )


class _BlockState(_DecomposedState):
    """Per-rank block of the (lx, ly, lt) classical lattice in its frame.

    The frame ``g`` is the rank's :class:`_BlockPlan`'s: ghost planes a
    side on every spatial axis of extent > 1 and none on an extent-1
    axis, so a chain's spins are one contiguous ``(bx, 1, lt)`` slab;
    ``spins`` is the owned view.  One refresh a sweep, before color 0,
    fills every ghost (module docstring, "Halo schedule").  Color 0
    updates its box -- the owned sites and the inner ghost ring around
    them -- so color 1, which updates the owned box, reads only fresh
    ghosts.
    """

    _array = "g"
    _array_label = "block"
    series = ("magnetization", "bond_sums")
    health_series = ("magnetization",)
    _tag_schedule = (_TAG_ISING, 8, 4)
    _driver = "ising_block"
    _fingerprint = ("lx", "ly", "lt", "kx", "ky", "kt")
    _plan_key = ("lx", "ly", "lt")

    def __init__(self, comm, cfg: IsingBlockConfig):
        super().__init__(comm, cfg)
        plan = self._plan
        self.decomp, self.piece = plan.decomp, plan.piece
        self.bx, self.by = bx, by = plan.piece.shape
        self.lt = cfg.lt
        self._thr = ising_thresholds(cfg.kx, cfg.ky, cfg.kt)
        dx, dy = plan.frame.depths
        # Cold start matching AnisotropicIsing's default; ghost planes
        # are overwritten by the first refresh.
        self.g = np.ones(plan.frame.shape, dtype=np.int8)
        self.spins = self.g[dx : dx + bx, dy : dy + by]
        self._flat = self.g.reshape(-1)
        self.color_masks = plan.color_masks
        self._axis_bonds = [
            pairs and (self.g[pairs[0]], self.g[pairs[1]], *pairs[2:])
            for pairs in plan.bonds
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
        spans = self._plan.u_spans
        u = np.empty((spans[-1][2], self.cfg.ly, self.lt))
        self._sweep_draw([(offset, (u[a:b],)) for offset, a, b in spans])
        return u[:, self._plan.u_cols]

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
        """Both checkerboard colors, one kernel call each over its box,
        each behind the refresh the walk posts for it: one, before color
        0.  A color the walk posts nothing before takes no tag block.

        The clock prices the work done, color 0's redundant ring
        included.  The overlapped schedule differs in what it is
        charged, not in what runs: the refresh posts offloaded, its
        color's interior sites (they read no ghost in flight) are
        charged under ``interior`` before the wait and the rest under
        ``boundary`` after; lockstep charges the sweep at once at the
        end.
        """
        plan, comm = self._plan, self.comm
        log_u = self._sweep_uniforms()
        np.log(np.maximum(log_u, 1e-300, out=log_u), out=log_u)
        flops = 0.0
        for color, (mask, view, post) in enumerate(
                zip(plan.masks, plan.views, plan.frame.refresh)):
            work = FLOPS_PER_SPIN_UPDATE * mask.size
            pending = self._exchange(color, self.overlap_active) if post else []
            if pending:
                share = plan.n_int / plan.n_box
                comm.charge_seconds(comm.machine.compute_time(work * share), "interior")
                self._exchange_wait(pending)
            self.n_accepted += self._update_color(mask, log_u[view])
            if pending:
                comm.charge_seconds(
                    comm.machine.compute_time(work * (1.0 - share)), "boundary")
            else:
                flops += work
        comm.charge_compute(flops)
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
        """Global magnetization per site (a sweep draws one uniform a
        site) and (x, y, t) bond sums."""
        return totals[:, 0] / self._per_sweep, totals[:, 1:]

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
