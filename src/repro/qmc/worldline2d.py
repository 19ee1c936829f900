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
* **straight-line flips** -- flip a site's full time column when its
  world line is straight (changes S^z_total by one).

The same period-accurate limitation as the chain applies: spatial
winding is not sampled (see :meth:`WorldlineSquareQmc.winding_numbers`).

Two sweep implementations are provided and cross-checked, mirroring the
1-D sampler's design:

* ``sweep(mode="scalar")`` -- the reference path: per-bond Python loops
  over segment moves, scalar window and column flips.  Works on every
  legal geometry.
* ``sweep(mode="vectorized")`` -- the table-driven sweep the chain
  sampler runs (:class:`repro.qmc.worldline.TableSweeps`): this module
  only lays the move set out as rows for the registry's
  ``strip_corner`` / ``strip_column`` ops and owns no kernel of its
  own.  The (bond, activation-interval) proposals are partitioned
  *statically* into independence classes

      bond color (4)  x  spatial bond parity (2 x 2)  x  mod-8 interval (2)

  such that no two moves of one class share a read plaquette and no
  move writes spins another move reads: same-color bonds tile the
  lattice into disjoint pairs, the 2x2 spatial parity (stride-4 along
  the bond axis, stride-2 across it) separates read neighborhoods by
  more than one lattice spacing, and the mod-8 interval classes keep
  the six read slices ``t0 .. t0+5`` of concurrent moves disjoint.
  Each class is one (unpacked) ``strip_corner`` row: flat gather indices
  of the eight plaquettes every move reads, the XOR mask that turns each
  plaquette's code into its post-flip value (so a move is priced
  without flipping anything), and the 4 + 4 cells an accepted move
  flips.  Straight-line column flips are two ``strip_column`` rows,
  one per sublattice.  Requires ``lx % 4 == 0`` and ``ly % 4 == 0``
  (which also excludes the doubled-bond extent-2 geometries); odd
  Trotter numbers get one row per activation interval, still batched
  over bonds.

Because moves within a class have disjoint read/write footprints,
parallel acceptance equals sequential acceptance in any order -- both
modes sample exactly the same distribution, which the statistical
cross-check tests assert against each other and against exact
references.

The sampler records nothing about itself: a run's sweep telemetry and
health checks belong to the rank state that drives it
(:func:`repro.qmc.parallel.chain_program`), as for every other layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels.chain_tables import column_log_weights
from repro.models.hamiltonians import XXZSquareModel
from repro.qmc.plaquette import PlaquetteTable, codes_from_flat, corner_flat_indices
from repro.qmc.worldline import TableSweeps
from repro.util.rng import RankStream, SeedSequenceFactory

__all__ = [
    "WorldlineSquareQmc",
    "Worldline2DMeasurement",
    "FLOPS_PER_SEGMENT_MOVE",
]

#: Modeled floating-point work of one segment-flip attempt: 8 affected
#: plaquettes evaluated old and new (16 table lookups), two 8-term
#: weight products, one ratio/compare, and gather index arithmetic.
#: The parallel drivers and the vmp performance model charge this per
#: attempted move, matching the arithmetic an optimized vector kernel
#: of the paper's era would execute.
FLOPS_PER_SEGMENT_MOVE = 48.0


@dataclass
class Worldline2DMeasurement:
    """Time series from a 2-D world-line run."""

    beta: float
    dtau: float
    energy: np.ndarray
    magnetization: np.ndarray
    m_stag_sq: np.ndarray  # squared staggered magnetization per site

    @property
    def n_measurements(self) -> int:
        return len(self.energy)

    def susceptibility(self, n_sites: int) -> float:
        m = self.magnetization
        return float(self.beta * (np.mean(m**2) - np.mean(m) ** 2) / n_sites)

    def staggered_structure_factor(self, n_sites: int) -> float:
        """``S(pi, pi) = N <m_st^2>`` -- the 2-D AFM order diagnostic."""
        return float(n_sites * np.mean(self.m_stag_sq))


class WorldlineSquareQmc(TableSweeps):
    """Four-color world-line sampler on the periodic square lattice."""

    N_COLORS = 4

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
        if self.can_vectorize:
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
        # they get the scalar multi-color window moves in the sweep.
        pair_colors: dict[tuple[int, int], list[int]] = {}
        for a, b, c in bonds:
            pair_colors.setdefault((min(a, b), max(a, b)), []).append(c)
        self.doubled_pairs = {
            pair: sorted(colors)
            for pair, colors in pair_colors.items()
            if len(colors) > 1
        }

    def _affected_for(self, bond: int) -> list[tuple[int, int]]:
        """Deduped (plaquette_bond, interval_offset) pairs read by a
        segment flip at ``bond``.

        Offsets are relative to the lower activation interval ``t0``:
        the bond's own plaquettes at 0 and +4, and the active plaquettes
        of both sites at offsets +1, +2, +3.  The set is
        configuration-independent, so it is precomputed per bond.
        """
        i, j = self.bond_sites[bond]
        c = int(self.bond_colors[bond])
        out: list[tuple[int, int]] = [(bond, 0), (bond, self.N_COLORS)]
        for off in (1, 2, 3):
            color = (c + off) % self.N_COLORS
            for s in (i, j):
                pair = (int(self.bond_of[s, color]), off)
                if pair not in out:
                    out.append(pair)
        return out

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
        """The 2x2 spatial parity classes need both extents to be
        multiples of 4 (which also excludes doubled-bond pairs)."""
        return self.lattice.lx % 4 == 0 and self.lattice.ly % 4 == 0

    @property
    def _grid_rule(self) -> str:
        return (
            "lx % 4 == 0 and ly % 4 == 0 "
            f"(got {self.lattice.lx}x{self.lattice.ly})"
        )

    def _build_class_tables(self) -> None:
        """The sweep's static conflict-free classes as strip-op rows.

        Corner rows come in class order -- color, 2x2 spatial parity,
        then the two mod-8 interval classes (single intervals for odd
        M) -- with moves in (bond, interval) C order.  The eight
        plaquettes of a move at bond ``(i, j)``, interval ``t0`` are
        in the scalar reference's weight-product order: the bond at
        ``t0`` and ``t0 + 4``, then the active plaquettes of ``i`` and
        ``j`` at ``t0 + 1, + 2, + 3``.  The flip window covers the top
        corners of the first (mask 12), the bottom corners of the
        second (3) and one whole side of each of the others: the left
        (5) when the flipped site is that bond's first site, else the
        right (10).  The hot path does no index arithmetic at all,
        only gathers, table lookups and scatters.
        """
        T, C = self.n_slices, self.N_COLORS
        coords = np.array([self.lattice.coords(s) for s in range(self.n_sites)])
        offs = np.array([0, C, 1, 1, 2, 2, 3, 3], dtype=np.intp)[:, None, None]
        win = np.arange(1, C + 1, dtype=np.intp)[:, None, None]
        self._corner_tables = []
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
                site = np.stack([i, i, i, j, i, j, i, j])
                aff = np.stack([sel, sel] + [
                    self.bond_of[s, (c + off) % C] for off in (1, 2, 3) for s in (i, j)
                ])
                pa, pb = self.bond_sites[aff, 0], self.bond_sites[aff, 1]  # (8, B)
                xmask = np.where(pa == site, 5, 10).astype(np.int8)
                xmask[0], xmask[1] = 12, 3
                for t0 in interval_classes:
                    n = sel.size * t0.size
                    gather = corner_flat_indices(
                        pa[:, :, None], pb[:, :, None], (t0 + offs) % T, T
                    )  # each (8, B, m)
                    flip = np.concatenate(
                        [s[:, None] * T + (t0 + win) % T for s in (i, j)]
                    )  # the 4 + 4 window cells, (8, B, m)
                    self._corner_tables.append((
                        (*(g.reshape(8, n) for g in gather),
                         np.repeat(xmask, t0.size, axis=1)),
                        flip.reshape(8, n),
                    ))
        self._n_corner_moves = self.n_bonds * self.n_trotter
        self._corner_weights = self.table.weights  # K = 8: unpacked rows
        # Straight-line columns: one class per sublattice (a column flip
        # reads only the column's own active plaquettes, whose other
        # corners live on the opposite sublattice).  Each column's
        # intervals split into the T/2 where the site is its active
        # bond's second site (half 0, mask 10) and the T/2 where it is
        # the first (half 1, mask 5): first in exactly two colors.
        colors = np.arange(T, dtype=np.intp) % C
        self._column_tables = []
        for parity in (0, 1):
            sites = np.nonzero(self._sublattice == parity)[0]
            first = self.bond_sites[self.bond_of[sites], 0] == sites[:, None]  # (S, C)
            tt = np.argsort(first[:, colors], axis=1, kind="stable")
            tt = tt.reshape(sites.size, 2, T // 2).transpose(1, 0, 2)
            bond = self.bond_of[sites[:, None], tt % C]  # (2, S, T/2)
            self._column_tables.append((sites, np.stack(corner_flat_indices(
                self.bond_sites[bond, 0], self.bond_sites[bond, 1], tt, T
            ))))
        self._logw = column_log_weights(self.table.weights)

    # ------------------------------------------------------------------
    # plaquette codes
    # ------------------------------------------------------------------
    def _codes(self, bond: np.ndarray | int, t: np.ndarray) -> np.ndarray:
        """Corner codes of plaquettes at (bond, interval t) -- vectorized in t."""
        a = self.bond_sites[bond, 0]
        b = self.bond_sites[bond, 1]
        t1 = (t + 1) % self.n_slices
        s = self.spins
        return (
            s[a, t].astype(np.intp)
            + 2 * s[b, t].astype(np.intp)
            + 4 * s[a, t1].astype(np.intp)
            + 8 * s[b, t1].astype(np.intp)
        )

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
        invariant tests.
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
        confinement to the starting (zero) winding sector."""
        if np.any(self.table.weights[self.shaded_codes()] <= 0):
            raise AssertionError("illegal shaded plaquette")
        mags = self.spins.sum(axis=0)
        if np.any(mags != mags[0]):
            raise AssertionError("slice magnetization not conserved")
        if self.winding_numbers() != (0, 0):
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

    # ------------------------------------------------------------------
    # moves
    # ------------------------------------------------------------------
    def _segment_window(self, t0: np.ndarray) -> np.ndarray:
        """Flipped slices of segment moves at activation intervals t0:
        shape (len(t0), 4) of slice indices t0+1 .. t0+4 (periodic)."""
        return (t0[:, None] + np.arange(1, self.N_COLORS + 1)[None, :]) % self.n_slices

    def segment_flip_class(self, bond: int, t0: np.ndarray) -> None:
        """Segment flips at one bond for a set of activation intervals.

        The supplied ``t0`` values must be conflict-free: a move at t0
        reads slices t0..t0+5, so within one call they must be >= 8
        apart (``sweep`` passes the two mod-8 classes separately; for
        odd Trotter numbers it falls back to one-at-a-time calls).
        """
        c = int(self.bond_colors[bond])
        if np.any(t0 % self.N_COLORS != c):
            raise ValueError(f"t0 must be activation intervals of bond {bond}")
        affected = self._affected_for(bond)
        w = self.table.weights

        def weight_products() -> np.ndarray:
            prod = np.ones(t0.size)
            for ab, off in affected:
                prod = prod * w[self._codes(ab, (t0 + off) % self.n_slices)]
            return prod

        old = weight_products()
        i, j = self.bond_sites[bond]
        window = self._segment_window(t0)  # (n, 4)
        self.spins[i, window] ^= 1
        self.spins[j, window] ^= 1
        new = weight_products()
        u = self.stream.uniform(size=t0.size)
        reject = ~(new > 0.0) | (u * old >= new)
        rw = window[reject]
        self.spins[i, rw] ^= 1
        self.spins[j, rw] ^= 1
        self.n_attempted += t0.size
        self.n_accepted += int(t0.size - reject.sum())

    def attempt_window_flip(self, i: int, j: int, t1: int, t2: int) -> bool:
        """Generalized exchange of sites i, j over slices t1+1 .. t2.

        ``t1`` and ``t2`` must be activation intervals of bonds
        *connecting* i and j (possibly of different colors -- the case
        that only exists on extent-2 lattices with doubled bonds, where
        it is required for ergodicity).  Scalar Metropolis step.
        """
        T = self.n_slices
        c1, c2 = t1 % self.N_COLORS, t2 % self.N_COLORS
        if self.partner[i, c1] != j or self.partner[i, c2] != j:
            raise ValueError(
                f"intervals {t1},{t2} do not activate bonds connecting {i},{j}"
            )
        length = (t2 - t1) % T
        if length == 0:
            raise ValueError("window must have positive length")
        # Affected plaquettes: the bounding pair-bond plaquettes plus the
        # active plaquettes of both sites strictly inside the window.
        # Dedup through a set (membership tests on the list were O(n^2)
        # in the window length); insertion order keeps the weight
        # product deterministic.
        affected: list[tuple[int, int]] = [
            (int(self.bond_of[i, c1]), t1),
            (int(self.bond_of[i, c2]), t2),
        ]
        seen = set(affected)
        for step in range(1, length):
            tau = (t1 + step) % T
            color = tau % self.N_COLORS
            for s in (i, j):
                pair = (int(self.bond_of[s, color]), tau)
                if pair not in seen:
                    seen.add(pair)
                    affected.append(pair)
        w = self.table.weights

        def prod() -> float:
            p = 1.0
            for ab, tau in affected:
                p *= float(w[self._codes(ab, np.array([tau], dtype=np.intp))][0])
            return p

        old = prod()
        window = (t1 + 1 + np.arange(length)) % T
        self.spins[i, window] ^= 1
        self.spins[j, window] ^= 1
        new = prod()
        self.n_attempted += 1
        if new <= 0.0 or (new < old and self.stream.uniform() >= new / old):
            self.spins[i, window] ^= 1
            self.spins[j, window] ^= 1
            return False
        self.n_accepted += 1
        return True

    def attempt_column_flip(self, site: int) -> bool:
        """Straight-line move at one site (scalar; legality pre-checked)."""
        col = self.spins[site]
        if col.min() != col.max():
            return False
        ts = np.arange(self.n_slices, dtype=np.intp)
        bonds = self.bond_of[site, ts % self.N_COLORS]
        old_codes = self._codes(bonds, ts)
        self.spins[site] ^= 1
        new_codes = self._codes(bonds, ts)
        w_new = self.table.weights[new_codes]
        self.n_attempted += 1
        if np.any(w_new <= 0):
            self.spins[site] ^= 1
            return False
        log_ratio = float(
            np.sum(np.log(w_new)) - np.sum(np.log(self.table.weights[old_codes]))
        )
        if log_ratio < 0 and self.stream.uniform() >= np.exp(log_ratio):
            self.spins[site] ^= 1
            return False
        self.n_accepted += 1
        return True

    def sweep_scalar(self) -> None:
        """Reference sweep: per-bond segment moves (time-batched into
        the two conflict-free mod-8 classes when the Trotter number is
        even), scalar window flips on doubled pairs, scalar column
        flips on every site."""
        for bond in range(self.n_bonds):
            c = int(self.bond_colors[bond])
            t0_all = np.arange(c, self.n_slices, self.N_COLORS, dtype=np.intp)
            if self.n_trotter % 2 == 0:
                self.segment_flip_class(bond, t0_all[0::2])
                self.segment_flip_class(bond, t0_all[1::2])
            else:
                for t in t0_all:
                    self.segment_flip_class(bond, np.array([t], dtype=np.intp))
        # Doubled pairs additionally need the mixed-color minimal windows
        # (between consecutive activations of *any* connecting bond).
        for (i, j), colors in self.doubled_pairs.items():
            activations = sorted(
                t
                for c in colors
                for t in range(c, self.n_slices, self.N_COLORS)
            )
            for k, t1 in enumerate(activations):
                t2 = activations[(k + 1) % len(activations)]
                if t1 % self.N_COLORS == t2 % self.N_COLORS:
                    continue  # same color: already covered by segment flips
                self.attempt_window_flip(i, j, t1, t2)
        for site in range(self.n_sites):
            self.attempt_column_flip(site)

    # ------------------------------------------------------------------
    def run(
        self,
        n_sweeps: int,
        n_thermalize: int = 0,
        measure_every: int = 1,
        mode: str = "auto",
    ) -> Worldline2DMeasurement:
        """Thermalize, sweep, measure (``mode`` as in :meth:`sweep`)."""
        if n_sweeps < 1:
            raise ValueError("need at least one measured sweep")
        sweep = self.resolve_sweep(mode)[1]  # resolved once, not per sweep
        for _ in range(n_thermalize):
            sweep()
        energy, mags, mstag = [], [], []
        for s in range(n_sweeps):
            sweep()
            if s % measure_every == 0:
                energy.append(self.energy_estimate())
                mags.append(self.magnetization())
                mstag.append(self.staggered_magnetization_sq())
        return Worldline2DMeasurement(
            beta=self.beta,
            dtau=self.dtau,
            energy=np.array(energy),
            magnetization=np.array(mags),
            m_stag_sq=np.array(mstag),
        )
