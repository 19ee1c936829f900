"""Domain-decomposed SPMD drivers for the QMC kernels.

Two production drivers, each an ordinary rank program runnable under
:func:`repro.vmp.run_spmd` (threads), the multiprocessing backend, or
-- the API being mpi4py-shaped -- real MPI:

* :func:`worldline_strip_program` -- the world-line XXZ chain split
  into contiguous site strips.  Updates proceed stage-by-stage through
  the eight independence classes of the corner moves (stride-4 grids in
  both bond and interval index) and the two straight-line column
  parities.  Each sweep draws one *shared* uniform block (every rank
  derives the same numbers from ``sweep_seed``), sliced per stage, so
  the trajectory is bit-identical across rank counts and across the
  ``mode="scalar"`` / ``mode="vectorized"`` kernels.

* :func:`ising_block_program` -- the anisotropic classical Ising model
  (and therefore the TFIM) split into 2-D spatial blocks over a process
  grid.  Given the same per-site uniforms the parallel trajectory is
  **bit-identical** to the serial one (same-color sites do not
  interact), which the integration tests assert literally.

Halo protocol (both drivers): ghost copies of the boundary data are
refreshed by ONE aggregated contiguous-buffer message per neighbor per
exchange -- two packed spin columns for the strip, a parity-packed
boundary plane for the Ising blocks -- instead of one message per
boundary column/plane.  Under the alpha--beta cost model
(``alpha + n * beta`` per message) aggregation cuts the latency term
by the aggregation factor while leaving the bandwidth term unchanged;
see :class:`repro.lattice.decomposition.HaloSpec` for the accounting.

Ownership conventions (world-line strip, global column indices):

* rank ``r`` owns columns ``[start, stop)`` plus two ghost columns on
  each side; block sizes are even and ``>= 4``.
* corner moves at the seam bonds ``start - 1`` and ``stop - 1`` are
  executed redundantly by *both* adjacent ranks.  Shared stage uniforms
  plus identical ghost neighborhoods make the two decisions identical,
  which eliminates the boundary write-back message entirely.
* straight-line move at column ``c`` is executed by its owner only and
  writes only ``c``.

Overlap pipeline (``overlap=True`` on either driver config): each
independence class runs as **pack -> post isend/irecv -> update
interior -> wait -> update boundary** instead of the lockstep exchange
-> full update.  Interior sites touch no ghost data, so they update
while the halo messages are in flight (offloaded-post cost convention,
see :mod:`repro.vmp.comm`); boundary sites update after the wait.
Within one class no move reads data another move writes (stride-4 /
checkerboard separation exceeds the stencil reach) and the shared
uniforms are indexed by *global* coordinates, so the interior-then-
boundary order produces bit-identical trajectories -- the same spins
flip, in a different wall order, charged to the new ``interior`` /
``boundary`` / ``halo_wait`` clock categories.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING

import numpy as np

from repro import kernels
from repro.kernels.chain_tables import CORNER_XMASK
from repro.lattice.decomposition import (
    BlockDecomposition,
    StripDecomposition,
    pack_plane,
    unpack_plane,
)
from repro.qmc.classical_ising import FLOPS_PER_SPIN_UPDATE
from repro.qmc.plaquette import PlaquetteTable
from repro.models.hamiltonians import XXZSquareModel
from repro.qmc.worldline import FLOPS_PER_CORNER_MOVE
from repro.obs.health import NOOP_HEALTH, HealthMonitor, clock_comm_seconds
from repro.obs.metrics import ACCEPTANCE_EDGES
from repro.qmc.worldline2d import FLOPS_PER_SEGMENT_MOVE, WorldlineSquareQmc
from repro.util.rng import SeedSequenceFactory

if TYPE_CHECKING:  # runtime import would cycle through repro.run.__init__
    from repro.obs.health import HealthRules
    from repro.run.checkpoint import CheckpointConfig

__all__ = [
    "WL_STAGES",
    "N_WL_STAGES",
    "WorldlineStripConfig",
    "worldline_strip_program",
    "IsingBlockConfig",
    "ising_block_program",
    "Worldline2DReplicaConfig",
    "worldline2d_replica_program",
    "worldline2d_replica_flops_per_sweep",
]

# Tag bases for the two drivers (distinct from the collective range).
_TAG_WL = 4096
_TAG_ISING = 8192


def _bind_sweep_metrics(state, metrics) -> None:
    """Pre-bind the shared per-sweep metric handles onto a driver state.

    Both decomposed drivers record the same sweep-level telemetry;
    pre-binding keeps the enabled hot path at one bool test plus float
    adds, and the disabled path at a single bool test.  The states
    additionally bind a ``sweep.kernel_seconds.<backend>`` counter once
    their kernel backend is resolved, so per-sweep kernel time lands in
    the metrics tagged by backend.
    """
    state._obs = bool(metrics.enabled)
    if state._obs:
        state._m_sweeps = metrics.counter("sweep.count")
        state._m_attempted = metrics.counter("sweep.attempted")
        state._m_accepted = metrics.counter("sweep.accepted")
        state._m_model = metrics.counter("sweep.model_seconds")
        state._m_wall = metrics.counter("sweep.wall_seconds")
        state._m_acc_hist = metrics.histogram(
            "sweep.acceptance", ACCEPTANCE_EDGES
        )


def _validate_mode(mode: str) -> None:
    """Config-time check of a driver ``mode`` string (names only --
    availability of a compiled backend is resolved at state init /
    Simulation start, where the structured error can name the run)."""
    if mode in ("scalar", "vectorized", "auto"):
        return
    if mode not in kernels.known_backends():
        raise ValueError(
            f"unknown sweep mode {mode!r}; expected 'scalar', 'vectorized', "
            f"'auto', or a kernel backend ({', '.join(kernels.known_backends())})"
        )

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


# ======================================================================
# world-line strip driver
# ======================================================================


@dataclass(frozen=True)
class WorldlineStripConfig:
    """Run parameters of the strip-decomposed world-line chain.

    ``sweep_seed`` drives the shared per-stage uniforms that make the
    trajectory independent of the rank count; ``mode`` selects the
    batched NumPy kernels (default) or the per-move scalar reference,
    which produce bit-identical trajectories.  ``overlap`` switches
    each stage to the five-stage pipeline (pack -> post isend/irecv ->
    update interior -> wait -> update boundary), hiding halo latency
    behind interior moves; trajectories stay bit-identical to the
    lockstep path (the knob is deliberately absent from the checkpoint
    fingerprint, so resumes may toggle it).
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
        if self.n_sweeps < 1:
            raise ValueError("need at least one sweep")
        _validate_mode(self.mode)


class _StripState:
    """Per-rank world-line state: owned columns plus two ghosts per side.

    Local layout along axis 0: ``[ghost(start-2), ghost(start-1),
    owned..., ghost(stop), ghost(stop+1)]``; local index of global
    column ``g`` is ``g - start + 2``.  Two-wide ghosts are exactly the
    neighborhood a redundant seam corner move needs (it reads columns
    ``seam - 1 .. seam + 2``).
    """

    def __init__(self, comm, cfg: WorldlineStripConfig):
        self.comm = comm
        self.cfg = cfg
        self.L = cfg.n_sites
        self.T = cfg.n_slices
        self.n_trotter = cfg.n_slices // 2
        self.dtau = cfg.beta / self.n_trotter
        self.table = PlaquetteTable.build(cfg.jz, cfg.jxy, self.dtau)
        self._logw = np.where(
            self.table.weights > 0,
            np.log(np.maximum(self.table.weights, 1e-300)),
            -np.inf,
        )
        decomp = StripDecomposition(self.L, comm.size, require_even=True)
        self.decomp = decomp
        piece = decomp.piece(comm.rank)
        self.start, self.stop = piece.start, piece.stop
        self.n_owned = piece.n_owned
        self.left, self.right = piece.left_rank, piece.right_rank
        if comm.size > 1 and self.n_owned < 4:
            raise ValueError(
                "strip world-line driver needs >= 4 owned columns per rank"
            )
        # Neel start, straight world lines (legal everywhere).
        g = np.arange(self.start - 2, self.stop + 2)
        self.loc = np.repeat((g % 2).astype(np.int8)[:, None], self.T, axis=1)
        self._t_even = np.arange(0, self.T, 2, dtype=np.intp)
        self._t_odd = np.arange(1, self.T, 2, dtype=np.intp)
        self.sweep_factory = SeedSequenceFactory(cfg.sweep_seed)
        self.sweep_index = 0
        self._n_exchanges = 0
        #: Cumulative Metropolis accounting across the rank's lifetime
        #: (always maintained -- the CLI summary prints acceptance
        #: without telemetry flags).
        self.n_attempted = 0
        self.n_accepted = 0
        # Resolve the kernel backend once per rank ("scalar" bypasses
        # the registry; every registry backend is trajectory-identical).
        self.kernel = kernels.resolve_sweep_mode(cfg.mode)
        self._kops = (
            None if self.kernel == "scalar" else kernels.get_ops(self.kernel)
        )
        _bind_sweep_metrics(self, comm.metrics)
        if self._obs:
            self._m_kernel = comm.metrics.counter(
                f"sweep.kernel_seconds.{self.kernel}"
            )
        # One shared uniform block per sweep, sliced per stage: corner
        # classes consume an (L/4, T/4) lattice, column parities L/2.
        sizes = [
            (self.L // 4) * (self.T // 4) if kind == "corner" else self.L // 2
            for kind, _, _ in WL_STAGES
        ]
        self._u_offsets = np.concatenate(([0], np.cumsum(sizes)))
        self._u_total = int(self._u_offsets[-1])
        self._build_stage_caches()
        #: Overlap pipeline engages only with real neighbors (P > 1) and
        #: a non-degenerate interior in every independence class.
        self.overlap_active = False
        if cfg.overlap and comm.size > 1:
            self._build_overlap_caches()

    # -- static per-stage geometry ----------------------------------------

    def _build_stage_caches(self) -> None:
        """Precompute the index tables of every stage (geometry is static).

        Corner class (a, b): local bonds ``j`` in ``[1, n+1]`` (global
        bonds ``start-1 .. stop-1``, the two ends being the redundant
        seam bonds) with global bond index ``== a (mod 4)``, crossed
        with intervals ``t == b (mod 4)``.  ``ui``/``ut`` index the
        shared ``(L/4, T/4)`` stage-uniform lattice.

        For the batched kernel the four spin gathers of the four
        neighbor plaquettes are fused into flat-index tables of shape
        ``(4, n_moves)`` into ``loc.reshape(-1)``; ``flip`` holds the
        flat positions of the four spins a move toggles.
        """
        n, T, L = self.n_owned, self.T, self.L
        self._corner_cache: dict[tuple[int, int], dict | None] = {}
        for kind, a, b in WL_STAGES:
            if kind != "corner":
                continue
            j0 = 1 + ((a - (self.start - 1)) % 4)
            lj = np.arange(j0, n + 2, 4, dtype=np.intp)
            tt = np.arange(b, T, 4, dtype=np.intp)
            if lj.size == 0 or tt.size == 0:
                self._corner_cache[(a, b)] = None
                continue
            J, Tt = np.meshgrid(lj, tt, indexing="ij")
            J, Tt = J.ravel(), Tt.ravel()
            gb = (self.start - 2 + J) % L
            t1 = (Tt + 1) % T
            tm1 = (Tt - 1) % T
            # Neighbor plaquettes (lb, tt): same row order as the
            # scalar reference's weight product.
            lb = np.stack([J - 1, J + 1, J, J])
            pt = np.stack([Tt, Tt, tm1, t1])
            pt1 = (pt + 1) % T
            self._corner_cache[(a, b)] = {
                "j": J,
                "t": Tt,
                "t1": t1,
                "tm1": tm1,
                "ui": (gb - a) // 4,
                "ut": (Tt - b) // 4,
                "uflat": (gb - a) // 4 * (T // 4) + (Tt - b) // 4,
                "i00": lb * T + pt,
                "i10": (lb + 1) * T + pt,
                "i01": lb * T + pt1,
                "i11": (lb + 1) * T + pt1,
                "flip": np.stack(
                    [J * T + Tt, J * T + t1, (J + 1) * T + Tt, (J + 1) * T + t1]
                ),
            }
        self._column_cache: dict[int, dict] = {}
        for p in (0, 1):
            first = self.start + ((p - self.start) % 2)
            gc = np.arange(first, self.stop, 2, dtype=np.intp)
            cache = {
                "gc": gc,
                "lc": gc - self.start + 2,
                "uc": (gc - p) // 2,
            }
            if gc.size:
                # Bond-columns gc-1 and gc, as (2, n_cols, T/2) flat
                # spin indices; a column flip XORs the off=-1 codes
                # with 10 (bits 1,3) and the off=0 codes with 5.
                i00, i10, i01, i11 = [], [], [], []
                for off in (-1, 0):
                    lb = cache["lc"] + off
                    ts = self._t_even if (p + off) % 2 == 0 else self._t_odd
                    ts1 = (ts + 1) % T
                    i00.append(lb[:, None] * T + ts[None, :])
                    i10.append((lb[:, None] + 1) * T + ts[None, :])
                    i01.append(lb[:, None] * T + ts1[None, :])
                    i11.append((lb[:, None] + 1) * T + ts1[None, :])
                cache.update(
                    c00=np.stack(i00), c10=np.stack(i10),
                    c01=np.stack(i01), c11=np.stack(i11),
                )
            self._column_cache[p] = cache

    @staticmethod
    def _subset_cache(cache: dict, sel: np.ndarray) -> dict | None:
        """The sub-table of a stage cache selected by a boolean mask.

        1-D entries subset along their only axis; the fused gather
        tables subset along their move axis (axis 1).  ``None`` when
        the selection is empty, matching the empty-class convention.
        """
        if not np.any(sel):
            return None
        out = {}
        for k, v in cache.items():
            if isinstance(v, np.ndarray) and v.ndim > 1:
                out[k] = v[:, sel]
            else:
                out[k] = v[sel] if isinstance(v, np.ndarray) else v
        return out

    def _build_overlap_caches(self) -> None:
        """Split every stage cache into interior/boundary sub-tables.

        A corner move at local bond ``J`` reads rows ``J-1 .. J+2``, so
        it is interior iff ``3 <= J <= n-1`` (owned rows are
        ``2 .. n+1``); a column move at local column ``lc`` reads
        ``lc-1 .. lc+1``, interior iff ``3 <= lc <= n``.  Degenerate
        geometries (a populated class with no interior moves -- thin
        strips) disable the overlap with a warning and fall back to the
        lockstep path.
        """
        n = self.n_owned
        self._corner_split: dict[tuple[int, int], tuple[dict | None, dict | None]] = {}
        self._column_split: dict[int, tuple[dict | None, dict | None]] = {}
        rank = self.comm.rank
        for kind, a, b in WL_STAGES:
            if kind == "corner":
                cache = self._corner_cache[(a, b)]
                if cache is None:
                    self._corner_split[(a, b)] = (None, None)
                    continue
                part = self.decomp.overlap_partition(
                    ("wl-corner", rank, a, b), cache["j"], 3, n - 1
                )
                if part.all_boundary:
                    warnings.warn(
                        f"strip overlap disabled: corner class ({a}, {b}) has "
                        f"no interior moves on rank {rank} ({n} owned "
                        f"columns); falling back to the lockstep exchange",
                        stacklevel=3,
                    )
                    self.overlap_active = False
                    return
                self._corner_split[(a, b)] = (
                    self._subset_cache(cache, part.interior),
                    self._subset_cache(cache, part.boundary),
                )
            else:
                cache = self._column_cache[a]
                if cache["lc"].size == 0:
                    self._column_split[a] = (None, None)
                    continue
                part = self.decomp.overlap_partition(
                    ("wl-col", rank, a), cache["lc"], 3, n
                )
                if part.all_boundary:
                    warnings.warn(
                        f"strip overlap disabled: column parity {a} has no "
                        f"interior columns on rank {rank} ({n} owned "
                        f"columns); falling back to the lockstep exchange",
                        stacklevel=3,
                    )
                    self.overlap_active = False
                    return
                self._column_split[a] = (
                    self._subset_cache(cache, part.interior),
                    self._subset_cache(cache, part.boundary),
                )
        self.overlap_active = True

    # -- indexing helpers -------------------------------------------------
    def _codes(self, li: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Corner codes of plaquettes at *local* bond index li, interval t."""
        s = self.loc
        t1 = (t + 1) % self.T
        return (
            s[li, t].astype(np.intp)
            + 2 * s[li + 1, t].astype(np.intp)
            + 4 * s[li, t1].astype(np.intp)
            + 8 * s[li + 1, t1].astype(np.intp)
        )

    def _code1(self, j: int, t: int) -> int:
        """Scalar corner code at one local bond/interval."""
        s = self.loc
        t1 = (t + 1) % self.T
        return (
            int(s[j, t])
            + 2 * int(s[j + 1, t])
            + 4 * int(s[j, t1])
            + 8 * int(s[j + 1, t1])
        )

    # -- communication -----------------------------------------------------
    def exchange_ghosts(self) -> None:
        """Refresh all four ghost columns: ONE message per neighbor.

        The two boundary columns a neighbor needs travel as a single
        contiguous ``(2, T)`` int8 buffer -- the aggregated-halo
        protocol (one alpha charge instead of two).  Single-rank runs
        wrap locally.
        """
        n = self.n_owned
        loc = self.loc
        if self.comm.size == 1:
            loc[0:2] = loc[n : n + 2]
            loc[n + 2 : n + 4] = loc[2:4]
            return
        tag = _TAG_WL + (self._n_exchanges % 16) * 2
        self._n_exchanges += 1
        comm = self.comm
        comm.send(np.ascontiguousarray(loc[n : n + 2]), self.right, tag=tag)
        comm.send(np.ascontiguousarray(loc[2:4]), self.left, tag=tag + 1)
        loc[0:2] = comm.recv(source=self.left, tag=tag)
        loc[n + 2 : n + 4] = comm.recv(source=self.right, tag=tag + 1)

    def _exchange_begin(self) -> tuple | None:
        """Overlap stage 1-2: pack boundary columns, post offloaded sends/recvs.

        Same payloads, destinations, and tag schedule as
        :meth:`exchange_ghosts`; the packing copy
        (``ascontiguousarray``) happens here, before any interior
        update, so the in-flight data is the pre-stage state exactly as
        in the lockstep path.  Single-rank runs wrap locally and return
        ``None``.
        """
        n = self.n_owned
        loc = self.loc
        if self.comm.size == 1:
            loc[0:2] = loc[n : n + 2]
            loc[n + 2 : n + 4] = loc[2:4]
            return None
        tag = _TAG_WL + (self._n_exchanges % 16) * 2
        self._n_exchanges += 1
        comm = self.comm
        comm.isend(
            np.ascontiguousarray(loc[n : n + 2]), self.right, tag=tag,
            offload=True,
        )
        comm.isend(
            np.ascontiguousarray(loc[2:4]), self.left, tag=tag + 1,
            offload=True,
        )
        r_left = comm.irecv(source=self.left, tag=tag, offload=True)
        r_right = comm.irecv(source=self.right, tag=tag + 1, offload=True)
        return (r_left, r_right)

    def _exchange_complete(self, reqs: tuple | None) -> None:
        """Overlap stage 4: wait for the halo and unpack the ghost columns.

        Waits in the same left-then-right order the lockstep path
        receives in, so the modeled clock advances through identical
        arrival stamps.
        """
        if reqs is None:
            return
        r_left, r_right = reqs
        n = self.n_owned
        self.loc[0:2] = r_left.wait()
        self.loc[n + 2 : n + 4] = r_right.wait()

    # -- shared randomness --------------------------------------------------
    def _sweep_uniforms(self) -> np.ndarray:
        """This sweep's uniforms; every rank draws the identical block.

        One generator per sweep yields the ten stage lattices as slices
        of a single draw (corner classes consume the compact
        ``(L/4, T/4)`` class grid, column parities ``L/2`` values).
        Both modes and all rank counts index the same numbers, the
        source of bit-identity; amortizing the generator construction
        over the sweep keeps the shared-randomness cost off the
        vectorized kernels' critical path.
        """
        gen = self.sweep_factory.stream("wl-sweep", self.sweep_index).generator
        return gen.random(self._u_total)

    def _stage_slice(self, u_sweep: np.ndarray, stage_idx: int) -> np.ndarray:
        u = u_sweep[self._u_offsets[stage_idx] : self._u_offsets[stage_idx + 1]]
        if WL_STAGES[stage_idx][0] == "corner":
            return u.reshape(self.L // 4, self.T // 4)
        return u

    # -- corner moves --------------------------------------------------------
    def _corner_class_vectorized(
        self, cache: dict | None, u: np.ndarray, category: str = "compute"
    ) -> None:
        """One corner class (or an interior/boundary sub-table) batched.

        The gather -> XOR-code -> accept -> scatter body is the
        ``strip_corner`` op of the resolved kernel backend (see
        :mod:`repro.kernels`); every backend reproduces the scalar
        reference's weight-product order, keeping accept decisions
        bit-identical.  ``category`` attributes the compute charge
        (``interior``/``boundary`` under the overlap pipeline).
        """
        if cache is None:
            return
        flat = self.loc.reshape(-1)
        uu = u.reshape(-1)[cache["uflat"]]
        n_acc = self._kops["strip_corner"](
            flat, self.table.weights,
            cache["i00"], cache["i10"], cache["i01"], cache["i11"],
            CORNER_XMASK, cache["flip"], uu,
        )
        self.n_attempted += cache["j"].size
        self.n_accepted += n_acc
        self.comm.charge_seconds(
            self.comm.machine.compute_time(
                FLOPS_PER_CORNER_MOVE * cache["j"].size
            ),
            category,
        )

    def _corner_class_scalar(
        self, cache: dict | None, u: np.ndarray, category: str = "compute"
    ) -> None:
        """Per-move reference loop; identical op order to the batched kernel."""
        if cache is None:
            return
        w = self.table.weights
        loc = self.loc
        T = self.T
        n_acc = 0
        for j, tt, ai, at in zip(
            cache["j"].tolist(),
            cache["t"].tolist(),
            cache["ui"].tolist(),
            cache["ut"].tolist(),
        ):
            t1 = (tt + 1) % T
            tm1 = (tt - 1) % T
            old = (
                w[self._code1(j - 1, tt)]
                * w[self._code1(j + 1, tt)]
                * w[self._code1(j, tm1)]
                * w[self._code1(j, t1)]
            )
            loc[j, tt] ^= 1
            loc[j, t1] ^= 1
            loc[j + 1, tt] ^= 1
            loc[j + 1, t1] ^= 1
            new = (
                w[self._code1(j - 1, tt)]
                * w[self._code1(j + 1, tt)]
                * w[self._code1(j, tm1)]
                * w[self._code1(j, t1)]
            )
            if new > 0.0 and u[ai, at] * old < new:
                n_acc += 1
            else:
                loc[j, tt] ^= 1
                loc[j, t1] ^= 1
                loc[j + 1, tt] ^= 1
                loc[j + 1, t1] ^= 1
        self.n_attempted += cache["j"].size
        self.n_accepted += n_acc
        self.comm.charge_seconds(
            self.comm.machine.compute_time(
                FLOPS_PER_CORNER_MOVE * cache["j"].size
            ),
            category,
        )

    # -- straight-line column moves -----------------------------------------
    def _col_log_weight1(self, l: int, g: int) -> float:
        """ln W of the two bond-columns adjacent to one local column."""
        total = 0.0
        for off in (-1, 0):
            ts = self._t_even if ((g + off) % 2 == 0) else self._t_odd
            lb = np.full(ts.size, l + off, dtype=np.intp)
            total += float(self._logw[self._codes(lb, ts)].sum())
        return total

    def _column_parity_vectorized(
        self, cache: dict | None, u: np.ndarray, category: str = "compute"
    ) -> None:
        """Straight-line moves of one parity (or an overlap sub-table).

        Straight detection and the flip evaluation run inside the
        backend's ``strip_column`` op over the cached ``(2, n_cols,
        T/2)`` bond-column index matrix (post-flip codes are pre-flip
        codes XORed with 10 / 5, so no speculative column flips); the
        log of the stage's uniforms is taken here with NumPy so every
        backend compares against identical values.
        """
        if cache is None:
            return
        lc = cache["lc"]
        if lc.size == 0:
            return
        log_uu = np.log(np.maximum(u[cache["uc"]], 1e-300))
        n_straight, n_acc = self._kops["strip_column"](
            self.loc, self._logw, lc,
            cache["c00"], cache["c10"], cache["c01"], cache["c11"], log_uu,
        )
        if n_straight == 0:
            return
        self.n_attempted += n_straight
        self.n_accepted += n_acc
        self.comm.charge_seconds(
            self.comm.machine.compute_time(2.0 * self.T * n_straight), category
        )

    def _column_parity_scalar(
        self, cache: dict | None, u: np.ndarray, category: str = "compute"
    ) -> None:
        """Per-column reference loop; identical op order to the batched kernel."""
        if cache is None:
            return
        n_straight = 0
        n_acc = 0
        for g, l, uci in zip(
            cache["gc"].tolist(), cache["lc"].tolist(), cache["uc"].tolist()
        ):
            col = self.loc[l]
            if col.min() != col.max():
                continue
            n_straight += 1
            old_lw = self._col_log_weight1(l, g)
            self.loc[l] ^= 1
            new_lw = self._col_log_weight1(l, g)
            log_ratio = new_lw - old_lw  # -inf - -inf -> nan -> rejected
            if (
                np.isfinite(log_ratio)
                and np.log(np.maximum(u[uci], 1e-300)) < log_ratio
            ):
                n_acc += 1
            else:
                self.loc[l] ^= 1
        self.n_attempted += n_straight
        self.n_accepted += n_acc
        self.comm.charge_seconds(
            self.comm.machine.compute_time(2.0 * self.T * n_straight), category
        )

    def _stage_kernel(self, kind: str, cache: dict | None, u: np.ndarray,
                      category: str = "compute") -> None:
        """Dispatch one stage's (sub-)table to the resolved kernel backend."""
        obs = self._obs
        if obs:
            t0 = perf_counter()
        if kind == "corner":
            if self._kops is None:
                self._corner_class_scalar(cache, u, category)
            else:
                self._corner_class_vectorized(cache, u, category)
        elif self._kops is None:
            self._column_parity_scalar(cache, u, category)
        else:
            self._column_parity_vectorized(cache, u, category)
        if obs:
            self._m_kernel.inc(perf_counter() - t0)

    def sweep(self) -> None:
        """One full sweep: 10 stages, one aggregated ghost exchange each.

        With the overlap pipeline active, each stage instead posts its
        exchange, updates the interior sub-table while the halo is in
        flight, waits, and finishes with the boundary sub-table.
        """
        obs = self._obs
        if obs:
            t0_wall = perf_counter()
            t0_model = self.comm.clock.now
            att0, acc0 = self.n_attempted, self.n_accepted
        u_sweep = self._sweep_uniforms()
        if self.overlap_active:
            for s_idx, (kind, x, y) in enumerate(WL_STAGES):
                reqs = self._exchange_begin()
                u = self._stage_slice(u_sweep, s_idx)
                split = (
                    self._corner_split[(x, y)]
                    if kind == "corner"
                    else self._column_split[x]
                )
                self._stage_kernel(kind, split[0], u, "interior")
                self._exchange_complete(reqs)
                self._stage_kernel(kind, split[1], u, "boundary")
        else:
            for s_idx, (kind, x, y) in enumerate(WL_STAGES):
                self.exchange_ghosts()
                u = self._stage_slice(u_sweep, s_idx)
                cache = (
                    self._corner_cache[(x, y)]
                    if kind == "corner"
                    else self._column_cache[x]
                )
                self._stage_kernel(kind, cache, u)
        self.sweep_index += 1
        if obs:
            att = self.n_attempted - att0
            acc = self.n_accepted - acc0
            self._m_sweeps.inc()
            self._m_attempted.inc(att)
            self._m_accepted.inc(acc)
            self._m_model.inc(self.comm.clock.now - t0_model)
            self._m_wall.inc(perf_counter() - t0_wall)
            if att:
                self._m_acc_hist.observe(acc / att)

    # -- checkpoint/restart --------------------------------------------------
    def _checkpoint_expect(self) -> dict:
        """Geometry/seed fingerprint a resume must match exactly."""
        cfg = self.cfg
        return {
            "driver": "worldline_strip",
            "n_ranks": self.comm.size,
            "n_sites": self.L,
            "n_slices": self.T,
            "jz": cfg.jz,
            "jxy": cfg.jxy,
            "beta": cfg.beta,
            "sweep_seed": cfg.sweep_seed,
            "n_thermalize": cfg.n_thermalize,
        }

    def save_rank_state(self, directory, sweeps_done: int, energies, mags) -> None:
        """Snapshot this rank's complete resumable state to its bundle.

        Captures the ghosted local spins, the sweep and halo-exchange
        counters, the rank's RNG stream, and the accumulated series --
        everything a restarted rank needs to continue the trajectory
        bit-identically (``mode`` is deliberately absent: scalar and
        vectorized kernels share trajectories, so resumes may switch).
        """
        from repro.run.checkpoint import pack_rng_state, save_rank_checkpoint

        meta = self._checkpoint_expect()
        meta["sweeps_done"] = int(sweeps_done)
        meta["sweep_index"] = int(self.sweep_index)
        meta["n_exchanges"] = int(self._n_exchanges)
        save_rank_checkpoint(
            directory,
            self.comm.rank,
            meta,
            {
                "loc": self.loc,
                "energy": np.asarray(energies, dtype=np.float64),
                "magnetization": np.asarray(mags, dtype=np.float64),
                "rng_state": pack_rng_state(self.comm.stream.generator),
            },
            metrics=self.comm.metrics,
        )

    def restore_rank_state(self, directory) -> tuple[int, list, list]:
        """Restore this rank from its bundle; returns (sweeps_done, series...)."""
        from repro.run.checkpoint import load_rank_checkpoint, restore_rng_state

        meta, arrays = load_rank_checkpoint(
            directory, self.comm.rank, expect=self._checkpoint_expect(),
            metrics=self.comm.metrics,
        )
        if arrays["loc"].shape != self.loc.shape:
            raise ValueError(
                f"checkpoint strip block {arrays['loc'].shape} != "
                f"this rank's {self.loc.shape}"
            )
        self.loc[...] = arrays["loc"]
        self.sweep_index = int(meta["sweep_index"])
        self._n_exchanges = int(meta["n_exchanges"])
        restore_rng_state(self.comm.stream.generator, arrays["rng_state"])
        return (
            int(meta["sweeps_done"]),
            arrays["energy"].tolist(),
            arrays["magnetization"].tolist(),
        )

    # -- measurement ---------------------------------------------------------
    def local_dlog_sum(self) -> float:
        """Sum of d ln W over shaded plaquettes at owned bonds."""
        gi = np.arange(self.start, self.stop, dtype=np.intp)
        li = gi - self.start + 2
        total = 0.0
        for parity, ts in ((0, self._t_even), (1, self._t_odd)):
            sel = li[(gi % 2) == parity]
            if sel.size == 0:
                continue
            bb = np.repeat(sel, ts.size)
            tt = np.tile(ts, sel.size)
            total += float(np.sum(self.table.dlog[self._codes(bb, tt)]))
        return total

    def local_magnetization(self) -> float:
        """Owned-column contribution to total S^z on slice 0."""
        return float(self.loc[2 : self.n_owned + 2, 0].sum() - self.n_owned / 2.0)


def worldline_strip_program(
    comm,
    cfg: WorldlineStripConfig,
    checkpoint: "CheckpointConfig | None" = None,
    health: "HealthRules | None" = None,
) -> dict:
    """SPMD rank program: strip-decomposed world-line XXZ chain.

    Returns, on every rank, a dict with the energy and magnetization
    time series (identical across ranks thanks to allreduce) plus this
    rank's final owned spin block (for invariant checks).

    ``checkpoint`` enables distributed checkpoint/restart: with
    ``every > 0`` each rank snapshots its bundle after every
    ``every``-th sweep; with ``resume=True`` each rank restores its
    bundle first (skipping thermalization, already in the trajectory)
    and continues **bit-identically** to the uninterrupted run.

    ``health`` (a :class:`~repro.obs.health.HealthRules`) turns on the
    streaming run-health monitor: measured observables feed online
    estimators and the declarative rules fire at ``health.interval``
    sweeps, with the resulting events/summary returned in the value
    dict.  The monitor is pure observation (no RNG, no comm), so the
    trajectory is bit-identical with health on or off.
    """
    state = _StripState(comm, cfg)
    metrics = comm.metrics
    interval = metrics.interval if metrics.enabled else 0
    monitor = (
        HealthMonitor(health, rank=comm.rank) if health is not None else NOOP_HEALTH
    )
    health_on = monitor.enabled
    check_every = health.interval if health is not None else 0
    energies, mags = [], []
    first_sweep = 0
    if checkpoint is not None and checkpoint.resume:
        first_sweep, energies, mags = state.restore_rank_state(
            checkpoint.directory
        )
    else:
        for _ in range(cfg.n_thermalize):
            state.sweep()
    for s in range(first_sweep, cfg.n_sweeps):
        state.sweep()
        if s % cfg.measure_every == 0:
            state.exchange_ghosts()
            dlog = comm.allreduce(state.local_dlog_sum())
            mag = comm.allreduce(state.local_magnetization())
            energies.append(-dlog / state.n_trotter)
            mags.append(mag)
            if health_on:
                monitor.t_model = comm.clock.now
                monitor.observe("energy", energies[-1], s)
                monitor.observe("magnetization", mag, s)
        if (
            checkpoint is not None
            and checkpoint.every
            and (s + 1) % checkpoint.every == 0
        ):
            state.save_rank_state(checkpoint.directory, s + 1, energies, mags)
        if check_every and (s + 1) % check_every == 0:
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
    owned = state.loc[2 : state.n_owned + 2].copy()
    out = {
        "energy": np.array(energies),
        "magnetization": np.array(mags),
        "owned_spins": owned,
        "start": state.start,
        "stop": state.stop,
        "beta": cfg.beta,
        "dtau": state.dtau,
        "mode": cfg.mode,
        "n_attempted": state.n_attempted,
        "n_accepted": state.n_accepted,
    }
    if health_on:
        out["health_events"] = monitor.event_docs()
        out["health_summary"] = monitor.summary()
    return out


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
    parallel runs bit-identical to serial ones; ``mode`` selects the
    batched checkerboard kernel (default) or the per-site scalar
    reference, which produce bit-identical trajectories.  ``overlap``
    turns on the five-stage halo-overlap pipeline (post offloaded
    sends/recvs, update interior sites, wait, update boundary sites);
    trajectories stay bit-identical to the lockstep path because the
    3-D checkerboard never lets same-color sites neighbor each other.
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
        if self.n_sweeps < 1:
            raise ValueError("need at least one sweep")
        _validate_mode(self.mode)


class _BlockState:
    """Per-rank block of the (lx, ly, lt) classical lattice.

    The block lives inside a ghosted array with one ghost plane per
    spatial side; ``spins`` is the interior view.  Ghost corners are
    never read (no diagonal couplings).
    """

    def __init__(self, comm, cfg: IsingBlockConfig):
        self.comm = comm
        self.cfg = cfg
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
        self._g = np.ones((self.bx + 2, self.by + 2, self.lt), dtype=np.int8)
        self.spins = self._g[1:-1, 1:-1]
        # Global parity of each local site (for checkerboard colors).
        gx = np.arange(p.x_start, p.x_stop)
        gy = np.arange(p.y_start, p.y_stop)
        gt = np.arange(self.lt)
        parity = (gx[:, None, None] + gy[None, :, None] + gt[None, None, :]) % 2
        self.color_masks = [(parity == c) for c in (0, 1)]
        # Plane-parity tables for color-packed halos: the parity of an
        # x-boundary site is (gx + yt_par) % 2, of a y-boundary site
        # (gy + xt_par) % 2.  Sender and receiver evaluate the same
        # global coordinate, so pack/unpack masks agree.
        self._yt_par = (gy[:, None] + gt[None, :]) % 2
        self._xt_par = (gx[:, None] + gt[None, :]) % 2
        self.sweep_factory = SeedSequenceFactory(cfg.sweep_seed)
        self.sweep_index = 0
        self._n_exchanges = 0
        #: Cumulative Metropolis accounting (always maintained; see
        #: :class:`_StripState`).
        self.n_attempted = 0
        self.n_accepted = 0
        self._n_color_sites = [int(m.sum()) for m in self.color_masks]
        #: Overlap pipeline state: per-color interior/boundary masks and
        #: interior site counts (compute-charge split weights).
        self.overlap_active = False
        if cfg.overlap and comm.size > 1:
            part = decomp.overlap_partition(comm.rank)
            if part.all_boundary:
                warnings.warn(
                    f"rank {comm.rank}: block {self.bx}x{self.by} is too"
                    " thin for halo overlap (every site is"
                    " ghost-adjacent); falling back to the lockstep"
                    " exchange",
                    stacklevel=2,
                )
            else:
                int3 = part.interior[:, :, None]
                bnd3 = part.boundary[:, :, None]
                self._int_masks = [m & int3 for m in self.color_masks]
                self._bnd_masks = [m & bnd3 for m in self.color_masks]
                self._n_int = [int(m.sum()) for m in self._int_masks]
                self.overlap_active = True
        # Resolve the kernel backend once per rank (see _StripState).
        self.kernel = kernels.resolve_sweep_mode(cfg.mode)
        self._kops = (
            None if self.kernel == "scalar" else kernels.get_ops(self.kernel)
        )
        _bind_sweep_metrics(self, comm.metrics)
        if self._obs:
            self._m_kernel = comm.metrics.counter(
                f"sweep.kernel_seconds.{self.kernel}"
            )

    # -- halo exchange ------------------------------------------------------
    def _x_mask(self, gx_plane: int, color: int) -> np.ndarray:
        """Sites of an x-boundary plane with global parity ``(color+1) % 2``."""
        return self._yt_par == ((gx_plane + color + 1) % 2)

    def _y_mask(self, gy_plane: int, color: int) -> np.ndarray:
        """Sites of a y-boundary plane with global parity ``(color+1) % 2``."""
        return self._xt_par == ((gy_plane + color + 1) % 2)

    def _exchange_ghosts(self, color: int | None = None) -> None:
        """Aggregated ghost-plane refresh: one packed message per neighbor.

        ``color`` selects the checkerboard color about to be updated;
        only the opposite-parity boundary sites -- the ones that color
        actually reads -- are packed, halving the wire bytes at the
        same message count.  ``color=None`` ships full planes (the
        measurement exchange).  Axes the process grid does not split
        wrap locally for free.
        """
        comm, p, g = self.comm, self.piece, self._g
        s = self.spins
        tag = _TAG_ISING + (self._n_exchanges % 8) * 4
        self._n_exchanges += 1
        if self.decomp.px > 1:
            east_mask = None if color is None else self._x_mask(p.x_stop - 1, color)
            west_mask = None if color is None else self._x_mask(p.x_start, color)
            comm.send(pack_plane(s[-1], east_mask), p.east, tag=tag)
            comm.send(pack_plane(s[0], west_mask), p.west, tag=tag + 1)
            unpack_plane(
                g[0, 1:-1],
                comm.recv(source=p.west, tag=tag),
                None if color is None else self._x_mask(p.x_start - 1, color),
            )
            unpack_plane(
                g[-1, 1:-1],
                comm.recv(source=p.east, tag=tag + 1),
                None if color is None else self._x_mask(p.x_stop, color),
            )
        else:
            g[0, 1:-1] = s[-1]
            g[-1, 1:-1] = s[0]
        if self.decomp.py > 1:
            north_mask = None if color is None else self._y_mask(p.y_stop - 1, color)
            south_mask = None if color is None else self._y_mask(p.y_start, color)
            comm.send(pack_plane(s[:, -1], north_mask), p.north, tag=tag + 2)
            comm.send(pack_plane(s[:, 0], south_mask), p.south, tag=tag + 3)
            unpack_plane(
                g[1:-1, 0],
                comm.recv(source=p.south, tag=tag + 2),
                None if color is None else self._y_mask(p.y_start - 1, color),
            )
            unpack_plane(
                g[1:-1, -1],
                comm.recv(source=p.north, tag=tag + 3),
                None if color is None else self._y_mask(p.y_stop, color),
            )
        else:
            g[1:-1, 0] = s[:, -1]
            g[1:-1, -1] = s[:, 0]

    def _exchange_begin(self, color: int) -> list:
        """Overlap stages 1-2: pack boundary planes, post offloaded messages.

        Same color-packed payloads, neighbors, and tag schedule as
        :meth:`_exchange_ghosts`; axes the process grid does not split
        wrap locally here, before any interior flip, so the shipped (and
        wrapped) data is the pre-color state exactly as in the lockstep
        path.  Returns ``(request, ghost_view, unpack_mask)`` triples in
        the lockstep receive order (west, east, south, north).
        """
        comm, p, g = self.comm, self.piece, self._g
        s = self.spins
        tag = _TAG_ISING + (self._n_exchanges % 8) * 4
        self._n_exchanges += 1
        pending: list = []
        if self.decomp.px > 1:
            east_mask = self._x_mask(p.x_stop - 1, color)
            west_mask = self._x_mask(p.x_start, color)
            comm.isend(pack_plane(s[-1], east_mask), p.east, tag=tag,
                       offload=True)
            comm.isend(pack_plane(s[0], west_mask), p.west, tag=tag + 1,
                       offload=True)
            pending.append((
                comm.irecv(source=p.west, tag=tag, offload=True),
                g[0, 1:-1],
                self._x_mask(p.x_start - 1, color),
            ))
            pending.append((
                comm.irecv(source=p.east, tag=tag + 1, offload=True),
                g[-1, 1:-1],
                self._x_mask(p.x_stop, color),
            ))
        else:
            g[0, 1:-1] = s[-1]
            g[-1, 1:-1] = s[0]
        if self.decomp.py > 1:
            north_mask = self._y_mask(p.y_stop - 1, color)
            south_mask = self._y_mask(p.y_start, color)
            comm.isend(pack_plane(s[:, -1], north_mask), p.north,
                       tag=tag + 2, offload=True)
            comm.isend(pack_plane(s[:, 0], south_mask), p.south,
                       tag=tag + 3, offload=True)
            pending.append((
                comm.irecv(source=p.south, tag=tag + 2, offload=True),
                g[1:-1, 0],
                self._y_mask(p.y_start - 1, color),
            ))
            pending.append((
                comm.irecv(source=p.north, tag=tag + 3, offload=True),
                g[1:-1, -1],
                self._y_mask(p.y_stop, color),
            ))
        else:
            g[1:-1, 0] = s[:, -1]
            g[1:-1, -1] = s[:, 0]
        return pending

    def _exchange_complete(self, pending: list) -> None:
        """Overlap stage 4: wait for each halo message, unpack its plane."""
        for req, ghost_view, mask in pending:
            unpack_plane(ghost_view, req.wait(), mask)

    def local_field(self) -> np.ndarray:
        """``sum_a K_a (s_+a + s_-a)`` for every owned site, via the ghosts."""
        g = self._g
        s = self.spins
        kx, ky, kt = self.couplings
        field = kx * (g[2:, 1:-1] + g[:-2, 1:-1])
        field = field + ky * (g[1:-1, 2:] + g[1:-1, :-2])
        field += kt * (np.roll(s, 1, axis=2) + np.roll(s, -1, axis=2))
        return field

    def _sweep_uniforms(self) -> np.ndarray:
        """This sweep's per-site uniforms, *sliced from the global field*.

        Every rank generates the same global (lx, ly, lt) uniform lattice
        from the shared sweep seed and takes its own block -- the source
        of serial/parallel bit-identity.  (A production code would use a
        counter-based generator to skip the unused portion; regenerating
        is the simple deterministic equivalent.)
        """
        gen = self.sweep_factory.stream("scratch", self.sweep_index).generator
        full = gen.random((self.cfg.lx, self.cfg.ly, self.lt))
        p = self.piece
        self.sweep_index += 1
        return full[p.x_start : p.x_stop, p.y_start : p.y_stop]

    def _update_color_scalar(self, mask: np.ndarray, log_u: np.ndarray) -> int:
        """Per-site reference loop; float op order matches the batched kernel.

        ``mask`` selects the sites to visit (a full color, or its
        interior/boundary half under the overlap pipeline -- same-color
        sites never neighbor each other, so any visit order yields the
        identical trajectory).  Returns the number of accepted flips.
        """
        g = self._g
        s = self.spins
        kx, ky, kt = self.couplings
        lt = self.lt
        n_acc = 0
        for x, y, t in zip(*(idx.tolist() for idx in np.nonzero(mask))):
            sp = s[x, y, t]
            f = kx * (g[x + 2, y + 1, t] + g[x, y + 1, t])
            f = f + ky * (g[x + 1, y + 2, t] + g[x + 1, y, t])
            f += kt * (s[x, y, (t + 1) % lt] + s[x, y, (t - 1) % lt])
            if log_u[x, y, t] < -2.0 * sp * f:
                s[x, y, t] = -sp
                n_acc += 1
        return n_acc

    def _accept_vectorized(self, mask: np.ndarray, log_u: np.ndarray) -> int:
        """Batched Metropolis over ``mask`` via the resolved backend's
        ``block_color`` op; returns the accepted-flip count."""
        return self._kops["block_color"](self._g, self.couplings, mask, log_u)

    def _update_color(self, mask: np.ndarray, log_u: np.ndarray) -> int:
        """One (sub-)color update through the configured kernel, with
        per-backend kernel-time telemetry."""
        obs = self._obs
        if obs:
            t0 = perf_counter()
        if self._kops is None:
            n_acc = self._update_color_scalar(mask, log_u)
        else:
            n_acc = self._accept_vectorized(mask, log_u)
        if obs:
            self._m_kernel.inc(perf_counter() - t0)
        return n_acc

    def sweep(self) -> None:
        """Both checkerboard colors, one color-packed halo exchange each.

        With the overlap pipeline active each color instead posts its
        exchange, updates interior sites while the halo is in flight
        (interior reads no ghosts, so stale planes are harmless), waits,
        and finishes with the ghost-adjacent boundary sites.  The field
        recompute after the wait sees no changed neighbors of boundary
        sites -- same-color sites are never adjacent -- so the accept
        decisions match the lockstep path bit for bit.
        """
        obs = self._obs
        if obs:
            t0_wall = perf_counter()
            t0_model = self.comm.clock.now
        uniforms = self._sweep_uniforms()
        log_u = np.log(np.maximum(uniforms, 1e-300))
        n_acc = 0
        if self.overlap_active:
            flops_per_color = FLOPS_PER_SPIN_UPDATE * self.spins.size
            machine = self.comm.machine
            for c in range(2):
                pending = self._exchange_begin(color=c)
                n_acc += self._update_color(self._int_masks[c], log_u)
                frac = self._n_int[c] / self._n_color_sites[c]
                self.comm.charge_seconds(
                    machine.compute_time(flops_per_color * frac), "interior"
                )
                self._exchange_complete(pending)
                n_acc += self._update_color(self._bnd_masks[c], log_u)
                self.comm.charge_seconds(
                    machine.compute_time(flops_per_color * (1.0 - frac)),
                    "boundary",
                )
        else:
            for c, mask in enumerate(self.color_masks):
                self._exchange_ghosts(color=c)
                n_acc += self._update_color(mask, log_u)
            self.comm.charge_compute(
                FLOPS_PER_SPIN_UPDATE * self.spins.size * 2
            )
        att = self._n_color_sites[0] + self._n_color_sites[1]
        self.n_attempted += att
        self.n_accepted += n_acc
        if obs:
            self._m_sweeps.inc()
            self._m_attempted.inc(att)
            self._m_accepted.inc(n_acc)
            self._m_model.inc(self.comm.clock.now - t0_model)
            self._m_wall.inc(perf_counter() - t0_wall)
            if att:
                self._m_acc_hist.observe(n_acc / att)

    # -- checkpoint/restart --------------------------------------------------
    def _checkpoint_expect(self) -> dict:
        """Geometry/seed fingerprint a resume must match exactly."""
        cfg = self.cfg
        return {
            "driver": "ising_block",
            "n_ranks": self.comm.size,
            "lx": cfg.lx,
            "ly": cfg.ly,
            "lt": cfg.lt,
            "kx": cfg.kx,
            "ky": cfg.ky,
            "kt": cfg.kt,
            "sweep_seed": cfg.sweep_seed,
            "n_thermalize": cfg.n_thermalize,
        }

    def save_rank_state(self, directory, sweeps_done: int, mags, bonds) -> None:
        """Snapshot this rank's ghosted block, counters, RNG, and series."""
        from repro.run.checkpoint import pack_rng_state, save_rank_checkpoint

        meta = self._checkpoint_expect()
        meta["sweeps_done"] = int(sweeps_done)
        meta["sweep_index"] = int(self.sweep_index)
        meta["n_exchanges"] = int(self._n_exchanges)
        save_rank_checkpoint(
            directory,
            self.comm.rank,
            meta,
            {
                "g": self._g,
                "magnetization": np.asarray(mags, dtype=np.float64),
                "bond_sums": np.asarray(bonds, dtype=np.float64).reshape(-1, 3),
                "rng_state": pack_rng_state(self.comm.stream.generator),
            },
            metrics=self.comm.metrics,
        )

    def restore_rank_state(self, directory) -> tuple[int, list, list]:
        """Restore this rank from its bundle; returns (sweeps_done, series...)."""
        from repro.run.checkpoint import load_rank_checkpoint, restore_rng_state

        meta, arrays = load_rank_checkpoint(
            directory, self.comm.rank, expect=self._checkpoint_expect(),
            metrics=self.comm.metrics,
        )
        if arrays["g"].shape != self._g.shape:
            raise ValueError(
                f"checkpoint block {arrays['g'].shape} != this rank's "
                f"{self._g.shape}"
            )
        self._g[...] = arrays["g"]  # in place: self.spins stays a view
        self.sweep_index = int(meta["sweep_index"])
        self._n_exchanges = int(meta["n_exchanges"])
        restore_rng_state(self.comm.stream.generator, arrays["rng_state"])
        return (
            int(meta["sweeps_done"]),
            arrays["magnetization"].tolist(),
            [row for row in arrays["bond_sums"]],
        )

    # -- measurement -----------------------------------------------------------
    def local_bond_sums(self) -> np.ndarray:
        """(x, y, t) bond sums counting each owned-origin bond once."""
        self._exchange_ghosts(color=None)
        g = self._g
        s = self.spins.astype(np.int64)
        bx = float(np.sum(s * g[2:, 1:-1].astype(np.int64)))
        by = float(np.sum(s * g[1:-1, 2:].astype(np.int64)))
        bt = float(np.sum(s * np.roll(s, -1, axis=2)))
        return np.array([bx, by, bt])

    def local_spin_sum(self) -> float:
        return float(self.spins.sum())


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
    state = _BlockState(comm, cfg)
    metrics = comm.metrics
    interval = metrics.interval if metrics.enabled else 0
    monitor = (
        HealthMonitor(health, rank=comm.rank) if health is not None else NOOP_HEALTH
    )
    health_on = monitor.enabled
    check_every = health.interval if health is not None else 0
    n_sites = cfg.lx * cfg.ly * cfg.lt
    mags, bonds = [], []
    first_sweep = 0
    if checkpoint is not None and checkpoint.resume:
        first_sweep, mags, bonds = state.restore_rank_state(checkpoint.directory)
    else:
        for _ in range(cfg.n_thermalize):
            state.sweep()
    for s in range(first_sweep, cfg.n_sweeps):
        state.sweep()
        if s % cfg.measure_every == 0:
            m = comm.allreduce(state.local_spin_sum()) / n_sites
            b = comm.allreduce(state.local_bond_sums())
            mags.append(m)
            bonds.append(b)
            if health_on:
                monitor.t_model = comm.clock.now
                monitor.observe("magnetization", m, s)
        if (
            checkpoint is not None
            and checkpoint.every
            and (s + 1) % checkpoint.every == 0
        ):
            state.save_rank_state(checkpoint.directory, s + 1, mags, bonds)
        if check_every and (s + 1) % check_every == 0:
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
    out = {
        "magnetization": np.array(mags),
        "bond_sums": np.array(bonds),
        "block": state.spins.copy(),
        "piece": (state.piece.x_start, state.piece.x_stop,
                  state.piece.y_start, state.piece.y_stop),
        "mode": cfg.mode,
        "n_attempted": state.n_attempted,
        "n_accepted": state.n_accepted,
    }
    if health_on:
        out["health_events"] = monitor.event_docs()
        out["health_summary"] = monitor.summary()
    return out


# ======================================================================
# replica-parallel 2-D world-line driver
# ======================================================================


@dataclass(frozen=True)
class Worldline2DReplicaConfig:
    """Run parameters of the replica-parallel 2-D world-line sampler.

    Each rank runs an independent Markov chain of the full ``lx x ly``
    lattice using the batched conflict-free kernels of
    :class:`~repro.qmc.worldline2d.WorldlineSquareQmc`; measurements
    are allreduce-averaged across replicas.  This is the strategy the
    paper used when the lattice fits in one node's memory: perfect
    compute scaling, one collective per measurement.
    """

    lx: int
    ly: int
    beta: float
    n_slices: int
    jz: float = 1.0
    jxy: float = 1.0
    n_sweeps: int = 50
    n_thermalize: int = 0
    measure_every: int = 1
    mode: str = "auto"

    def __post_init__(self):
        XXZSquareModel(self.lx, self.ly, jz=self.jz, jxy=self.jxy)  # validates
        if self.n_sweeps < 1:
            raise ValueError("need at least one sweep")
        if self.measure_every < 1:
            raise ValueError("measure_every must be >= 1")
        _validate_mode(self.mode)


def worldline2d_replica_flops_per_sweep(sampler) -> float:
    """Modeled FLOPs one replica charges per full lattice sweep.

    One segment proposal per (bond, activation interval) plus the
    straight-column pass over every space--time site -- the same
    accounting :func:`repro.vmp.performance.worldline2d_workload` uses,
    so executed-driver timings and the analytic model stay comparable.
    """
    segment = sampler.n_bonds * sampler.n_trotter * FLOPS_PER_SEGMENT_MOVE
    column = 2.0 * sampler.n_sites * sampler.n_slices
    return segment + column


def worldline2d_replica_program(comm, cfg: Worldline2DReplicaConfig) -> dict:
    """SPMD rank program: independent-replica batched 2-D world lines.

    Returns, on every rank, replica-averaged energy and squared
    staggered magnetization series (identical across ranks thanks to
    allreduce) plus this rank's final configuration and acceptance.
    """
    model = XXZSquareModel(cfg.lx, cfg.ly, jz=cfg.jz, jxy=cfg.jxy)
    metrics = comm.metrics
    interval = metrics.interval if metrics.enabled else 0
    sampler = WorldlineSquareQmc(
        model, cfg.beta, cfg.n_slices, stream=comm.stream,
        metrics=metrics if metrics.enabled else None,
    )
    flops_per_sweep = worldline2d_replica_flops_per_sweep(sampler)
    for _ in range(cfg.n_thermalize):
        sampler.sweep(mode=cfg.mode)
        comm.charge_compute(flops_per_sweep)
    energies, m2s = [], []
    for s in range(cfg.n_sweeps):
        sampler.sweep(mode=cfg.mode)
        comm.charge_compute(flops_per_sweep)
        if s % cfg.measure_every == 0:
            e = comm.allreduce(sampler.energy_estimate()) / comm.size
            m2 = comm.allreduce(sampler.staggered_magnetization_sq()) / comm.size
            energies.append(e)
            m2s.append(m2)
        if interval and (s + 1) % interval == 0:
            comm.sync_metrics()
            metrics.snapshot(sweep=s + 1, t_model=comm.clock.now)
    return {
        "energy": np.array(energies),
        "m_stag_sq": np.array(m2s),
        "spins": sampler.spins.copy(),
        "acceptance": sampler.acceptance_rate,
        "beta": cfg.beta,
        "dtau": sampler.dtau,
        "n_attempted": sampler.n_attempted,
        "n_accepted": sampler.n_accepted,
    }
