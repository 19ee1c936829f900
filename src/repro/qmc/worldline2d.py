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
* ``sweep(mode="vectorized")`` -- batched conflict-free kernels.  The
  (bond, activation-interval) proposals are partitioned *statically*
  into independence classes

      bond color (4)  x  spatial bond parity (2 x 2)  x  mod-8 interval (2)

  such that no two moves of one class share a read plaquette and no
  move writes spins another move reads: same-color bonds tile the
  lattice into disjoint pairs, the 2x2 spatial parity (stride-4 along
  the bond axis, stride-2 across it) separates read neighborhoods by
  more than one lattice spacing, and the mod-8 interval classes keep
  the six read slices ``t0 .. t0+5`` of concurrent moves disjoint.
  Each class executes as ONE masked-Metropolis array kernel over
  precomputed flat-index gather tables (see
  :func:`repro.qmc.plaquette.corner_flat_indices`): gather all corner
  codes, form old/new weight products by table lookup, accept with a
  single vectorized uniform draw, scatter the accepted flips.  Straight
  -line column flips batch the same way over the two sublattices.
  Requires ``lx % 4 == 0`` and ``ly % 4 == 0`` (which also excludes the
  doubled-bond extent-2 geometries); odd Trotter numbers fall back to
  one-interval-at-a-time kernels that are still batched over bonds.

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

from repro import kernels
from repro.models.hamiltonians import XXZSquareModel
from repro.qmc.plaquette import PlaquetteTable, codes_from_flat, corner_flat_indices
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


class WorldlineSquareQmc:
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
        """Batched kernels need the 2x2 spatial parity classes to tile:
        both extents multiples of 4 (also excludes doubled-bond pairs)."""
        return self.lattice.lx % 4 == 0 and self.lattice.ly % 4 == 0

    def _build_class_tables(self) -> None:
        """Static conflict-free class decomposition of all segment moves.

        For every (color, 2x2 spatial parity) class, precompute the flat
        gather indices of the 8 affected plaquettes of every (bond, t0)
        proposal -- shape ``(B, M, 8)`` per corner -- plus the flip
        windows ``(B, M, 4)``.  The sweep slices the M axis into the two
        mod-8 interval classes (or single intervals for odd M) and runs
        one array kernel per slice: the hot path does no index
        arithmetic at all, only gathers, table lookups and scatters.
        """
        T, M = self.n_slices, self.n_trotter
        lx, ly = self.lattice.lx, self.lattice.ly
        coords = np.array([self.lattice.coords(s) for s in range(self.n_sites)])
        offs = np.array([0, self.N_COLORS, 1, 1, 2, 2, 3, 3], dtype=np.intp)
        self._seg_classes = []
        for c in range(self.N_COLORS):
            bonds_c = np.nonzero(self.bond_colors == c)[0]
            x = coords[self.bond_sites[bonds_c, 0], 0]
            y = coords[self.bond_sites[bonds_c, 0], 1]
            if c < 2:  # x-bond: stride 4 along x, stride 2 along y
                subkey = 2 * ((x // 2) % 2) + y % 2
            else:  # y-bond: stride 2 along x, stride 4 along y
                subkey = 2 * (x % 2) + (y // 2) % 2
            t0s = np.arange(c, T, self.N_COLORS, dtype=np.intp)  # (M,)
            for sub in range(4):
                sel = bonds_c[subkey == sub]
                i = self.bond_sites[sel, 0]
                j = self.bond_sites[sel, 1]
                B = sel.size
                aff = np.empty((B, 8), dtype=np.intp)
                aff[:, 0] = sel
                aff[:, 1] = sel
                for k, off in enumerate((1, 2, 3)):
                    cc = (c + off) % self.N_COLORS
                    aff[:, 2 + 2 * k] = self.bond_of[i, cc]
                    aff[:, 3 + 2 * k] = self.bond_of[j, cc]
                pa = self.bond_sites[aff, 0]  # (B, 8)
                pb = self.bond_sites[aff, 1]
                tau = (t0s[:, None] + offs[None, :]) % T  # (M, 8)
                bl, br, tl, tr = corner_flat_indices(
                    pa[:, None, :], pb[:, None, :], tau[None, :, :], T
                )  # each (B, M, 8)
                win = (
                    t0s[None, :, None] + np.arange(1, self.N_COLORS + 1)
                ) % T  # (1, M, 4)
                self._seg_classes.append(
                    {
                        "bonds": sel,
                        "t0s": t0s,
                        "bl": bl, "br": br, "tl": tl, "tr": tr,
                        "wi": i[:, None, None] * T + win,
                        "wj": j[:, None, None] * T + win,
                    }
                )
        # Straight-line column kernels: one class per sublattice (column
        # flips read only the column's own active plaquettes, whose other
        # corners live on the opposite sublattice).
        ts = np.arange(T, dtype=np.intp)
        self._col_classes = []
        for parity in (0, 1):
            sites = np.nonzero(self._sublattice == parity)[0]
            bonds_col = self.bond_of[sites[:, None], ts[None, :] % self.N_COLORS]
            ca = self.bond_sites[bonds_col, 0]  # (S, T)
            cb = self.bond_sites[bonds_col, 1]
            bl, br, tl, tr = corner_flat_indices(ca, cb, ts[None, :], T)
            self._col_classes.append(
                {"sites": sites, "bl": bl, "br": br, "tl": tl, "tr": tr}
            )
        w = self.table.weights
        self._logw = np.where(w > 0, np.log(np.maximum(w, 1e-300)), -np.inf)

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

    @property
    def acceptance_rate(self) -> float:
        return self.n_accepted / self.n_attempted if self.n_attempted else 0.0

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

    # ------------------------------------------------------------------
    # batched conflict-free kernels
    # ------------------------------------------------------------------
    def _run_segment_kernel(self, cls: dict, sl: slice, ops=None) -> None:
        """One masked-Metropolis kernel call: every segment move of one
        conflict-free class (``sl`` selects the mod-8 interval class on
        the precomputed M axis).

        The uniform draw happens here (one block per class, same
        generator sequence for every backend); the gather -> accept ->
        scatter body is the backend op.  All flipped spin indices
        within a call are distinct (same-color bonds are site-disjoint;
        in-class intervals are >= 8 slices apart), so in-place updates
        are exact for both the batched and the compiled sequential
        backends.
        """
        if ops is None:
            ops = kernels.get_ops("numpy")
        bl, br = cls["bl"][:, sl], cls["br"][:, sl]
        tl, tr = cls["tl"][:, sl], cls["tr"][:, sl]
        wi, wj = cls["wi"][:, sl], cls["wj"][:, sl]
        sf = self.spins.reshape(-1)
        u = self.stream.uniform(size=bl.shape[:2])
        n_acc = ops["wl2d_segment"](
            sf, self.table.weights, bl, br, tl, tr, wi, wj, u
        )
        self.n_attempted += u.size
        self.n_accepted += n_acc

    def _run_column_kernel(self, cls: dict, ops=None) -> None:
        """Batched straight-line flips across all legal sites of one
        sublattice (log-space weights: T plaquettes per column).

        Straight detection and the uniform draw stay here so the draw
        *size* is backend-independent; the flip evaluation is the
        backend op.
        """
        if ops is None:
            ops = kernels.get_ops("numpy")
        sites = cls["sites"]
        cols = self.spins[sites]
        straight = np.nonzero(cols.min(axis=1) == cols.max(axis=1))[0]
        if straight.size == 0:
            return
        bl, br = cls["bl"][straight], cls["br"][straight]
        tl, tr = cls["tl"][straight], cls["tr"][straight]
        flip = sites[straight]
        u = self.stream.uniform(size=flip.size)
        log_u = np.log(np.maximum(u, 1e-300))
        n_acc = ops["wl2d_column"](
            self.spins, self._logw, bl, br, tl, tr, flip, log_u
        )
        self.n_attempted += flip.size
        self.n_accepted += n_acc

    def sweep_vectorized(self, kernel: str = "numpy") -> None:
        """Batched sweep: 4 colors x 4 spatial parities x 2 interval
        classes of segment kernels, then the two sublattice column
        kernels.  Proposal set identical to the scalar sweep; the
        ``kernel`` registry backend supplies the class-update ops
        (trajectories are bit-identical across backends)."""
        if not self.can_vectorize:
            raise ValueError(
                "vectorized sweep needs lx % 4 == 0 and ly % 4 == 0; got "
                f"{self.lattice.lx}x{self.lattice.ly}; fall back to the "
                "per-bond reference with sweep(mode='scalar') / "
                "run(mode='scalar') or resize the lattice "
                "(the CLI --kernel flag only selects among batched "
                "backends, so it needs the same divisibility)"
            )
        ops = kernels.get_ops(kernel)
        even_m = self.n_trotter % 2 == 0
        for cls in self._seg_classes:
            if even_m:
                self._run_segment_kernel(cls, slice(0, None, 2), ops)
                self._run_segment_kernel(cls, slice(1, None, 2), ops)
            else:
                # Odd Trotter number: the two mod-8 classes do not tile;
                # fall back to one interval at a time, still bond-batched.
                for m in range(self.n_trotter):
                    self._run_segment_kernel(cls, slice(m, m + 1), ops)
        for cls in self._col_classes:
            self._run_column_kernel(cls, ops)

    def resolve_sweep(self, mode: str = "auto"):
        """``(kernel, sweep)``: the kernel ``mode`` (see :meth:`sweep`)
        resolves to on this geometry -- ``"scalar"`` or a backend name --
        and a zero-argument sweep bound to it."""
        if mode == "auto" and not self.can_vectorize:
            mode = "scalar"  # the geometry gate: off-grid lattices
        kernel = kernels.resolve_sweep_mode(mode)
        if kernel == "scalar":
            return kernel, self.sweep_scalar
        return kernel, lambda: self.sweep_vectorized(kernel)

    def sweep(self, mode: str = "auto") -> None:
        """One full sweep: every (bond, activation) segment move once,
        then straight-line attempts on every site.

        ``mode`` selects the implementation: ``"scalar"`` runs the
        per-bond reference, a kernel-backend name (``"numpy"``,
        ``"numba"``, ...; ``"vectorized"`` is a legacy alias for
        ``"numpy"``) runs the batched conflict-free kernels through
        that backend, and ``"auto"`` asks the registry for the best
        available backend whenever the geometry allows.  Every mode
        proposes the same move set; the batched backends are
        bit-identical to each other.
        """
        self.resolve_sweep(mode)[1]()

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
