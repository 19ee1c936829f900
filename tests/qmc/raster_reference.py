"""The samplers' raster moves: the move-by-move oracle of the table sweeps.

:class:`~repro.qmc.worldline.WorldlineChainQmc` and
:class:`~repro.qmc.worldline2d.WorldlineSquareQmc` sweep by running the
registry's strip ops over rows built once per geometry.  The classes
here add back the moves those rows were checked against: each move
built from the sampler's geometry one plaquette at a time, priced by
flipping the spins and regathering, and accepted with its own uniform
draw.  ``tests/integration/test_fused_move_equivalence.py`` replays
every move of every row against them, and the detailed-balance tests
compare their local ratios with global weight ratios.

``sweep_scalar`` is the raster-order sweep the samplers once answered
``mode="scalar"`` with: a valid sampler of its own, with its own
random-number protocol, kept for the statistical cross-checks.
"""

from __future__ import annotations

import numpy as np

from repro.qmc.worldline import WorldlineChainQmc
from repro.qmc.worldline2d import WorldlineSquareQmc


def _flip_log_ratio(q, site: int, bonds: np.ndarray, ts: np.ndarray) -> float:
    """``log(pi'/pi)`` of flipping row ``site`` of ``q.spins`` read off
    the shaded plaquettes ``q._codes(bonds, ts)``, flipped and
    regathered (and flipped back); ``-inf`` if one becomes illegal."""
    w = q.table.weights
    old = w[q._codes(bonds, ts)]
    q.spins[site] ^= 1
    new = w[q._codes(bonds, ts)]
    q.spins[site] ^= 1
    if np.any(new <= 0):
        return float("-inf")
    return float(np.sum(np.log(new)) - np.sum(np.log(old)))


class RasterChainQmc(WorldlineChainQmc):
    """The chain sampler plus its raster corner and column moves."""

    def _codes(self, i: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Corner codes of shaded plaquettes at bonds ``i``, intervals ``t``."""
        s = self.spins
        j = (i + 1) % self.L
        t1 = (t + 1) % self.n_slices
        return (
            s[i, t].astype(np.intp)
            + 2 * s[j, t].astype(np.intp)
            + 4 * s[i, t1].astype(np.intp)
            + 8 * s[j, t1].astype(np.intp)
        )

    def _affected_by_corner(self, i: int, t: int) -> list[tuple[int, int]]:
        """Shaded plaquettes read by a corner flip at unshaded (i, t)."""
        T = self.n_slices
        out = [(i, (t - 1) % T), (i, (t + 1) % T)]
        if self.periodic:
            out.append(((i - 1) % self.L, t))
            out.append(((i + 1) % self.L, t))
        else:
            if i - 1 >= 0:
                out.append((i - 1, t))
            if i + 1 <= self.n_bonds - 1:
                out.append((i + 1, t))
        return out

    def _weight_product(self, plaqs: list[tuple[int, int]]) -> float:
        s = self.spins
        w = self.table.weights
        L, T = self.L, self.n_slices
        prod = 1.0
        for i, t in plaqs:
            j = (i + 1) % L
            t1 = (t + 1) % T
            code = s[i, t] + 2 * s[j, t] + 4 * s[i, t1] + 8 * s[j, t1]
            prod *= float(w[code])
        return prod

    def _metropolis(self, ratio: float) -> bool:
        self.n_attempted += 1
        if ratio >= 1.0 or self.stream.uniform() < ratio:
            self.n_accepted += 1
            return True
        return False

    def attempt_corner_flip(self, i: int, t: int) -> bool:
        """Scalar corner flip at unshaded plaquette (bond i, interval t)."""
        if (i + t) % 2 == 0:
            raise ValueError(f"plaquette ({i}, {t}) is shaded, not unshaded")
        affected = self._affected_by_corner(i, t)
        w_old = self._weight_product(affected)
        j = (i + 1) % self.L
        t1 = (t + 1) % self.n_slices
        idx = ([i, i, j, j], [t, t1, t, t1])
        self.spins[idx] ^= 1
        w_new = self._weight_product(affected)
        if w_new <= 0.0 or not self._metropolis(w_new / w_old):
            self.spins[idx] ^= 1  # undo
            return False
        return True

    def column_log_ratio(self, site: int) -> float:
        """``log(pi'/pi)`` of flipping the time column of ``site``, from
        the weights of its shaded plaquettes regathered after the flip
        (``-inf`` where one is illegal)."""
        affected = []
        for b in (site - 1, site):
            bb = b % self.L if self.periodic else b
            if not self.periodic and not 0 <= b <= self.n_bonds - 1:
                continue
            for t in range(self.n_slices):
                if (bb + t) % 2 == 0:
                    affected.append((bb, t))
        # Log-space product: T plaquettes can under/overflow in linear space.
        codes_i = np.array([a for a, _ in affected], dtype=np.intp)
        codes_t = np.array([b for _, b in affected], dtype=np.intp)
        return _flip_log_ratio(self, site, codes_i, codes_t)

    def attempt_column_flip(self, site: int) -> bool:
        """Straight-line move: flip the full time column of ``site``."""
        col = self.spins[site]
        if col.min() != col.max():
            return False  # world line not straight: move undefined
        log_ratio = self.column_log_ratio(site)
        if log_ratio == -np.inf:
            return False
        if not self._metropolis(float(np.exp(min(log_ratio, 0.0))) if log_ratio < 0 else 1.0):
            return False
        self.spins[site] ^= 1
        return True

    def sweep_scalar(self) -> None:
        """Every unshaded plaquette and column once, in raster order."""
        for t in range(self.n_slices):
            for i in range(self.n_bonds):
                if (i + t) % 2 == 1:
                    self.attempt_corner_flip(i, t)
        for site in range(self.L):
            self.attempt_column_flip(site)


class RasterSquareQmc(WorldlineSquareQmc):
    """The square-lattice sampler plus its raster segment, window and
    column moves."""

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

    def _affected_for(self, bond: int) -> list[tuple[int, int]]:
        """Deduped (plaquette_bond, interval_offset) pairs read by a
        segment flip at ``bond``: the bond's own plaquettes at offsets 0
        and +4, and the active plaquettes of both sites at +1, +2, +3."""
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

    def _segment_window(self, t0: np.ndarray) -> np.ndarray:
        """Flipped slices of segment moves at activation intervals t0:
        shape (len(t0), 4) of slice indices t0+1 .. t0+4 (periodic)."""
        return (t0[:, None] + np.arange(1, self.N_COLORS + 1)[None, :]) % self.n_slices

    def segment_flip_class(self, bond: int, t0: np.ndarray) -> None:
        """Segment flips at one bond for a set of activation intervals.

        The supplied ``t0`` values must be conflict-free: a move at t0
        reads slices t0..t0+5, so within one call they must be >= 8
        apart.
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
        # The bounding pair-bond plaquettes plus the active plaquettes of
        # both sites strictly inside the window, each once, in order.
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

    def column_log_ratio(self, site: int) -> float:
        """``log(pi'/pi)`` of flipping the time column of ``site``, from
        its active plaquette at every interval, regathered after the flip
        (``-inf`` where one is illegal)."""
        ts = np.arange(self.n_slices, dtype=np.intp)
        return _flip_log_ratio(self, site, self.bond_of[site, ts % self.N_COLORS], ts)

    def attempt_column_flip(self, site: int) -> bool:
        """Straight-line move at one site (scalar; legality pre-checked)."""
        col = self.spins[site]
        if col.min() != col.max():
            return False
        log_ratio = self.column_log_ratio(site)
        self.n_attempted += 1
        if log_ratio == -np.inf:
            return False
        if log_ratio < 0 and self.stream.uniform() >= np.exp(log_ratio):
            return False
        self.spins[site] ^= 1
        self.n_accepted += 1
        return True

    def sweep_scalar(self) -> None:
        """Per-bond segment moves (time-batched into the two
        conflict-free mod-8 classes when the Trotter number is even),
        window flips on doubled pairs, column flips on every site."""
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
