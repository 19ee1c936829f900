"""World-line QMC for the spin-1/2 XXZ model on the square lattice.

The 2-D generalization of :mod:`repro.qmc.worldline` -- the flagship
application of early parallel QMC (the 2-D Heisenberg antiferromagnet
and its relation to high-T_c parent compounds).  The Suzuki--Trotter
breakup uses the **four bond colors** of the square lattice (even/odd
x-bonds, even/odd y-bonds): one color acts per imaginary-time interval,
so the time axis has ``T = 4 M`` intervals with ``dtau = beta / M``.
Within one interval the active color's bonds tile *all* sites, giving
the same shaded-plaquette structure as the chain:

* interval ``t`` activates color ``t % 4``;
* every site belongs to exactly one active bond per interval, found via
  the precomputed ``partner[site, color]`` table;
* shaded plaquettes carry the exact two-site weights of
  :class:`~repro.qmc.plaquette.PlaquetteTable` (Marshall-rotated: the
  square lattice is bipartite, so the rotation is exact).

Monte Carlo moves:

* **segment flips** -- the 2-D generalization of the chain's corner
  flip.  Between two *consecutive activations* of a bond ``b = (i, j)``
  (intervals ``t0`` and ``t0 + 4``), flip both sites' spins on the four
  slices in between (``t0+1 .. t0+4``), deflecting a world line from
  ``i`` to ``j`` across that window.  Exactly eight shaded plaquettes
  are read: bond ``b`` at ``t0`` and ``t0+4``, plus the active
  plaquettes of ``i`` and ``j`` at the three intermediate intervals;
  any particle-number violation gives zero weight and auto-rejects.
  (The naive two-slice pair flip of the 1-D sampler is *always* illegal
  here, because at intervals ``t0 +- 1`` each site is paired with a
  different partner -- in 1-D the window between activations is two
  slices, which is exactly the corner flip.)
* **window flips** (extent-2 axes only) -- the segment flip of a
  *doubled* pair, whose world-line exchange windows may start and end
  on bonds of different colors.
* **straight-line flips** -- flip a site's full time column when its
  world line is straight (changes S^z_total by one).

The same period-accurate limitation as the chain applies: spatial
winding is not sampled (see :meth:`WorldlineSquareQmc.winding_numbers`).

A sweep is the chain sampler's table-driven sweep
(:class:`repro.qmc.worldline.TableSweeps`): this module only lays the
move set out as rows for the registry's ``strip_corner`` /
``strip_column`` ops and owns no kernel of its own.  The (bond,
activation-interval) proposals are partitioned *statically* into
classes

    bond color (4)  x  spatial bond parity (2 x 2)  x  mod-8 interval (2)

that are conflict-free when ``lx % 4 == ly % 4 == 0``: no two moves of
one class share a read plaquette and no move writes spins another move
reads (same-color bonds tile the lattice into disjoint pairs, the 2x2
spatial parity -- stride-4 along the bond axis, stride-2 across it --
separates read neighborhoods by more than one lattice spacing, and the
mod-8 interval classes keep the six read slices ``t0 .. t0+5`` of
concurrent moves disjoint).  That grid is what the batched ``numpy``
op needs; the per-move ``scalar`` / ``numba`` loops take the same rows
one move at a time on every even lattice.  Each class is one
(unpacked) ``strip_corner`` row: flat gather indices of the plaquettes
every move reads, the XOR mask that turns each plaquette's code into
its post-flip value (so a move is priced without flipping anything),
and the 4 + 4 cells an accepted move flips.  Odd Trotter numbers get
one row per activation interval, still batched over bonds.  An
extent-2 axis joins each site pair twice (*doubled* bonds), so its
segment moves read seven plaquettes and its pairs add the mixed-color
window moves.  Straight-line column flips are two ``strip_column``
rows, one per sublattice, each column priced by how many of its T
plaquette partners' spins differ from its own.

The sampler records nothing about itself: a run's sweep telemetry and
health checks belong to the rank state that drives it
(:func:`repro.qmc.chains.chain_program`), as for every other layout.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.chain_tables import column_thresholds, unpacked_rows
from repro.models.hamiltonians import XXZSquareModel
from repro.qmc.plaquette import PlaquetteTable, codes_from_flat, corner_flat_indices
from repro.qmc.worldline import TableSweeps
from repro.util.rng import RankStream, SeedSequenceFactory

__all__ = [
    "WorldlineSquareQmc",
    "FLOPS_PER_SEGMENT_MOVE",
]

#: Modeled floating-point work of one segment-flip attempt: 8 affected
#: plaquettes evaluated old and new (16 table lookups), two 8-term
#: weight products, one ratio/compare, and gather index arithmetic.
#: The parallel drivers and the vmp performance model charge this per
#: attempted move, matching the arithmetic an optimized vector kernel
#: of the paper's era would execute.
FLOPS_PER_SEGMENT_MOVE = 48.0


class WorldlineSquareQmc(TableSweeps):
    """Four-color world-line sampler on the periodic square lattice."""

    N_COLORS = 4
    #: Series name -> estimator method; ``S(pi, pi) = N <m_stag_sq>``.
    ESTIMATORS = {
        "energy": "energy_estimate",
        "magnetization": "magnetization",
        "m_stag_sq": "staggered_magnetization_sq",
    }

    def __init__(
        self,
        model: XXZSquareModel,
        beta: float,
        n_slices: int,
        seed: int | None = 0,
        stream: RankStream | None = None,
    ):
        if not model.periodic:
            raise ValueError("the 2-D world-line sampler uses periodic lattices")
        if beta <= 0:
            raise ValueError("beta must be positive")
        if n_slices < 2 * self.N_COLORS or n_slices % self.N_COLORS:
            raise ValueError(
                "n_slices must be a multiple of 4 and >= 8 (T = 4M, M >= 2: "
                "segment moves span the window between two activations)"
            )
        self.model = model
        self.beta = float(beta)
        self.n_slices = int(n_slices)
        self.n_trotter = n_slices // self.N_COLORS  # M
        self.dtau = beta / self.n_trotter
        self.n_sites = model.n_sites
        self.lattice = model.lattice
        self.table = PlaquetteTable.build(model.jz, model.jxy, self.dtau)
        self.stream = stream if stream is not None else SeedSequenceFactory(
            seed if seed is not None else 0
        ).rank_stream(0)

        self._build_bond_tables()
        # Neel product state, straight world lines (legal for all couplings).
        sub = np.array(
            [self.lattice.sublattice(s) for s in range(self.n_sites)], dtype=np.int8
        )
        self.spins = np.ascontiguousarray(np.repeat(sub[:, None], self.n_slices, axis=1))
        self._sublattice = sub
        self._stag_signs = np.where(sub == 0, 1.0, -1.0)
        self._build_shaded_gather()
        self._build_class_tables()
        self.n_attempted = 0
        self.n_accepted = 0

    # ------------------------------------------------------------------
    # geometry tables
    # ------------------------------------------------------------------
    def _build_bond_tables(self) -> None:
        bonds = self.lattice.bonds()
        self.bond_sites = np.array([(a, b) for a, b, _c in bonds], dtype=np.intp)
        self.bond_colors = np.array([c for _a, _b, c in bonds], dtype=np.intp)
        self.n_bonds = len(bonds)
        # partner[site, color] = the site paired with `site` under that
        # color's tiling; bond_of[site, color] = that bond's index.
        self.partner = np.full((self.n_sites, self.N_COLORS), -1, dtype=np.intp)
        self.bond_of = np.full((self.n_sites, self.N_COLORS), -1, dtype=np.intp)
        for idx, (a, b, c) in enumerate(bonds):
            for s, o in ((a, b), (b, a)):
                if self.partner[s, c] != -1:
                    raise AssertionError(
                        f"site {s} appears in two color-{c} bonds; breakup broken"
                    )
                self.partner[s, c] = o
                self.bond_of[s, c] = idx
        if np.any(self.partner < 0):
            raise AssertionError("color tiling incomplete; need even extents")
        # Pairs connected by more than one bond color (extent-2 axes wrap
        # both directions onto the same neighbor).  Their world-line
        # exchange windows may start and end on *different* colors, so
        # they get the mixed-color window moves in the sweep.
        pair_colors: dict[tuple[int, int], list[int]] = {}
        for a, b, c in bonds:
            pair_colors.setdefault((min(a, b), max(a, b)), []).append(c)
        self.doubled_pairs = {
            pair: sorted(colors)
            for pair, colors in pair_colors.items()
            if len(colors) > 1
        }

    # ------------------------------------------------------------------
    # precomputed gather tables (measurement + vectorized kernels)
    # ------------------------------------------------------------------
    def _build_shaded_gather(self) -> None:
        """Flat-index gather table over ALL shaded plaquettes.

        One ``(plaquette -> 4 flat spin indices)`` table replaces the
        per-color per-bond Python loop of the measurement path: one
        vectorized gather yields every shaded corner code.  Ordering is
        (color, bond-within-color, activation interval), kept stable so
        estimators are reproducible.
        """
        T = self.n_slices
        aa, bb, tt, ax = [], [], [], []
        for c in range(self.N_COLORS):
            ts = np.arange(c, T, self.N_COLORS, dtype=np.intp)
            bonds_c = np.nonzero(self.bond_colors == c)[0]
            aa.append(np.repeat(self.bond_sites[bonds_c, 0], ts.size))
            bb.append(np.repeat(self.bond_sites[bonds_c, 1], ts.size))
            tt.append(np.tile(ts, bonds_c.size))
            ax.append(np.full(bonds_c.size * ts.size, c < 2, dtype=bool))
        a = np.concatenate(aa)
        b = np.concatenate(bb)
        t = np.concatenate(tt)
        self._shaded_gather = corner_flat_indices(a, b, t, T)
        #: True where the shaded plaquette sits on an x-bond (winding axis).
        self._shaded_axis_x = np.concatenate(ax)

    @property
    def can_vectorize(self) -> bool:
        """The 2x2 spatial parity classes are conflict-free, as the
        batched ``numpy`` op needs, when both extents are multiples of
        4 (which also excludes doubled-bond pairs)."""
        return self.lattice.lx % 4 == 0 and self.lattice.ly % 4 == 0

    @property
    def _grid_rule(self) -> str:
        return (
            "lx % 4 == 0 and ly % 4 == 0 "
            f"(got {self.lattice.lx}x{self.lattice.ly})"
        )

    def _build_class_tables(self) -> None:
        """The sweep's strip-op rows, in the one order it takes them.

        Segment rows come in class order -- color, 2x2 spatial parity,
        then the two mod-8 interval classes (single intervals for odd
        M) -- with moves in (bond, interval) C order.  A move at bond
        ``(i, j)``, interval ``t0`` reads the bond at ``t0`` and ``t0 +
        4``, then the active plaquettes of ``i`` and ``j`` at ``t0 + 1,
        + 2, + 3`` -- a doubled pair's plaquette once, not twice.  The
        doubled pairs' window rows follow.  The hot path does no index
        arithmetic at all, only gathers, table lookups and scatters.
        """
        T, C = self.n_slices, self.N_COLORS
        coords = np.array([self.lattice.coords(s) for s in range(self.n_sites)])
        offs = np.array([0, C, 1, 1, 2, 2, 3, 3], dtype=np.intp)[:, None, None]
        win = np.arange(1, C + 1, dtype=np.intp)[:, None, None]
        rows = []
        for c in range(C):
            bonds_c = np.nonzero(self.bond_colors == c)[0]
            x, y = coords[self.bond_sites[bonds_c, 0]].T
            if c < 2:  # x-bond: stride 4 along x, stride 2 along y
                subkey = 2 * ((x // 2) % 2) + y % 2
            else:  # y-bond: stride 2 along x, stride 4 along y
                subkey = 2 * (x % 2) + (y // 2) % 2
            t0s = np.arange(c, T, C, dtype=np.intp)
            if self.n_trotter % 2 == 0:
                interval_classes = (t0s[0::2], t0s[1::2])
            else:  # the two mod-8 classes do not tile: one interval a row
                interval_classes = t0s[:, None]
            for sub in range(4):
                sel = bonds_c[subkey == sub]
                i, j = self.bond_sites[sel].T
                aff = np.stack([sel, sel] + [
                    self.bond_of[s, (c + off) % C] for off in (1, 2, 3) for s in (i, j)
                ])
                keep = np.ones(aff.shape, dtype=bool)
                keep[3::2] = aff[3::2] != aff[2::2]
                pa, pb = self.bond_sites[aff, 0], self.bond_sites[aff, 1]  # (8, B)
                for t0 in interval_classes:
                    n = sel.size * t0.size
                    corners = np.stack(corner_flat_indices(
                        pa[:, :, None], pb[:, :, None], (t0 + offs) % T, T
                    ))  # (4, 8, B, m)
                    flip = np.concatenate(
                        [s[:, None] * T + (t0 + win) % T for s in (i, j)]
                    )  # the 4 + 4 window cells, (8, B, m)
                    rows += unpacked_rows(corners.reshape(4, 8, n),
                                          np.repeat(keep, t0.size, axis=1),
                                          flip.reshape(8, n))
        rows += self._window_rows()
        self._corner_tables = [(self.table.weights, *row) for row in rows]
        self._n_corner_moves = sum(flip.shape[1] for _, flip in rows)
        # Straight-line columns: one class per sublattice (a column flip
        # reads only the column's own active plaquettes, whose other
        # corners live on the opposite sublattice).  A column touches
        # one plaquette per interval, its active bond's: the neighbor
        # spin of interval t is the color-(t % 4) partner's at slice t
        # (a doubled pair's partner twice over, at different intervals).
        partner = self.partner[:, np.arange(T) % C] * T + np.arange(T)
        thr = column_thresholds(self.table.weights, T)
        self._column_tables = []
        for parity in (0, 1):
            sites = np.nonzero(self._sublattice == parity)[0]
            self._column_tables.append((thr, sites, partner[sites]))

    def _window_rows(self) -> list:
        """Rows of the doubled pairs' mixed-color window moves, one per
        (K, F) shape: between consecutive activations ``t1``, ``t2`` of
        a pair's bonds whose colors differ, flip both sites on slices
        ``t1+1 .. t2``, reading the two bounding plaquettes and the
        active plaquettes of both sites strictly inside (each once)."""
        T, C = self.n_slices, self.N_COLORS
        by_shape: dict[tuple[int, int], list] = {}
        for (i, j), colors in self.doubled_pairs.items():
            acts = sorted(t for c in colors for t in range(c, T, C))
            for t1, t2 in zip(acts, acts[1:] + acts[:1]):
                if t1 % C == t2 % C:
                    continue  # one bond's window: a segment move
                window = (t1 + np.arange(1, (t2 - t1) % T + 1)) % T
                read = dict.fromkeys([(self.bond_of[i, t1 % C], t1),
                                      (self.bond_of[i, t2 % C], t2)])
                read.update(dict.fromkeys(
                    (self.bond_of[s, tau % C], tau) for tau in window[:-1] for s in (i, j)
                ))
                by_shape.setdefault((len(read), window.size), []).append(
                    (list(read), np.concatenate([i * T + window, j * T + window])))
        rows = []
        for moves in by_shape.values():
            bond, tau = np.array([read for read, _ in moves]).transpose(2, 1, 0)
            corners = np.stack(corner_flat_indices(
                self.bond_sites[bond, 0], self.bond_sites[bond, 1], tau, T))
            rows += unpacked_rows(corners, np.ones(bond.shape, dtype=bool),
                                  np.stack([flip for _, flip in moves], axis=1))
        return rows

    def shaded_codes(self) -> np.ndarray:
        """Codes of all shaded plaquettes -- one precomputed-table gather."""
        sf = self.spins.reshape(-1)
        bl, br, tl, tr = self._shaded_gather
        return codes_from_flat(sf, bl, br, tl, tr).astype(np.intp)

    def winding_numbers(self) -> tuple[int, int]:
        """Total spatial winding ``(W_x, W_y)`` of the world lines.

        Each jump plaquette displaces one world line by one lattice
        spacing along its bond axis (+1 for a->b, code 9; -1 for b->a,
        code 6); periodicity in imaginary time forces the summed
        displacement along each axis to be a multiple of the extent.
        The local move set conserves the winding sector (segment flips
        deflect a line out and back; column flips move no line sideways)
        -- the documented period-accurate limitation, asserted by the
        invariant tests -- except along an extent-2 axis, around which
        a doubled pair's window flip carries a line out on one bond and
        back on the other.
        """
        codes = self.shaded_codes()
        jumps = (codes == 9).astype(np.int64) - (codes == 6).astype(np.int64)
        ax = self._shaded_axis_x
        wx = int(jumps[ax].sum())
        wy = int(jumps[~ax].sum())
        lx, ly = self.lattice.lx, self.lattice.ly
        if wx % lx or wy % ly:
            raise AssertionError("fractional winding: broken world line")
        return wx // lx, wy // ly

    def config_log_weight(self) -> float:
        w = self.table.weights[self.shaded_codes()]
        if np.any(w <= 0):
            return float("-inf")
        return float(np.sum(np.log(w)))

    def check_invariants(self) -> None:
        """Assert every conserved property of the local move set: legal
        shaded plaquettes, per-slice magnetization conservation, and
        confinement to the starting (zero) winding sector along every
        axis longer than 2 (see :meth:`winding_numbers`)."""
        if np.any(self.table.weights[self.shaded_codes()] <= 0):
            raise AssertionError("illegal shaded plaquette")
        mags = self.spins.sum(axis=0)
        if np.any(mags != mags[0]):
            raise AssertionError("slice magnetization not conserved")
        wx, wy = self.winding_numbers()
        if (wx and self.lattice.lx > 2) or (wy and self.lattice.ly > 2):
            raise AssertionError("left the zero-winding sector")

    # ------------------------------------------------------------------
    # estimators
    # ------------------------------------------------------------------
    def energy_estimate(self) -> float:
        d = self.table.dlog[self.shaded_codes()]
        return float(-np.sum(d) / self.n_trotter)

    def magnetization(self) -> float:
        return float(self.spins[:, 0].sum() - self.n_sites / 2.0)

    def staggered_magnetization_sq(self) -> float:
        m_st = (self._stag_signs[:, None] * (self.spins - 0.5)).sum(axis=0)
        return float(np.mean((m_st / self.n_sites) ** 2))
