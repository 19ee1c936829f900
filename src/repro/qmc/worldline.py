"""World-line quantum Monte Carlo for spin-1/2 XXZ chains.

The configuration space is the checkerboard space--time lattice of the
Suzuki--Trotter decomposition: Ising variables ``S[i, t] in {0, 1}``
(1 = up) on ``L`` sites times ``T = 2M`` imaginary-time slices, with
``dtau = beta / M``.  Bond ``i`` (sites ``i, i+1``) is *active* during
interval ``[t, t+1]`` iff ``(i + t)`` is even; each active bond-interval
is a shaded plaquette carrying the exact two-site weight of
:class:`~repro.qmc.plaquette.PlaquetteTable`.  Up spins trace out
world lines that are continuous in time and may exchange across shaded
plaquettes ("jumps" / kinks).

Monte Carlo moves (all satisfying detailed balance individually):

* **corner flips** -- flip the four corner spins of an *unshaded*
  plaquette, deflecting a world line sideways.  Exactly four shaded
  plaquettes are affected; illegal results carry zero weight and
  reject themselves.
* **edge flips** (open chains) -- flip the two time-adjacent spins of a
  boundary site during its free-evolution interval (two affected
  plaquettes).
* **straight-line flips** -- flip an entire time column whose world
  line is straight, changing total magnetization by one.  This is what
  makes the uniform susceptibility measurable.

Known, period-accurate limitation: spatial winding is not sampled; on
periodic chains the simulation is confined to the zero-winding sector
(corrections fall exponentially with L).  Validation tests therefore
use *open* chains, where no winding sector exists.

Two sweep implementations are provided and cross-checked: a scalar
reference (any geometry) and a vectorized eight-color sweep requiring
``L % 4 == 0`` (periodic) and ``T % 4 == 0``, following the
vectorize-the-inner-loop idiom of the HPC guides.  The vectorized
sweep is the P = 1, no-ghost case of the strip driver: it runs the
registry's ``strip_corner`` / ``strip_column`` ops over index tables
built once at construction (:mod:`repro.kernels.chain_tables`).  That
stage loop and the mode dispatch around it are :class:`TableSweeps`,
which the square-lattice sampler shares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import kernels
from repro.kernels.chain_tables import (
    column_log_weights,
    column_tables,
    corner_products,
    corner_tables,
)
from repro.models.hamiltonians import XXZChainModel
from repro.qmc.plaquette import PlaquetteTable
from repro.util.correlation import mean_circular_correlation
from repro.util.rng import RankStream, SeedSequenceFactory

__all__ = [
    "TableSweeps",
    "WorldlineChainQmc",
    "WorldlineMeasurement",
    "FLOPS_PER_CORNER_MOVE",
]

#: Modeled floating-point work of one corner-flip attempt (4 plaquette
#: weight lookups old+new, one ratio, one compare, index arithmetic).
#: Used by the parallel drivers / performance model; the value matches
#: the arithmetic of an optimized Fortran inner loop of the era.
FLOPS_PER_CORNER_MOVE = 24.0


@dataclass
class WorldlineMeasurement:
    """Time series measured during a world-line run (one entry per measurement).

    ``energy`` is the total-energy estimator ``-(1/M) sum_p dlnW_p``;
    ``magnetization`` the conserved-per-slice total S^z; ``m_stag_sq``
    the squared staggered magnetization per site, slice-averaged;
    ``szsz`` rows are the distance-resolved correlation function
    ``C(r) = <S^z_0 S^z_r>`` averaged over sites and slices.
    """

    beta: float
    dtau: float
    energy: np.ndarray
    magnetization: np.ndarray
    m_stag_sq: np.ndarray
    szsz: np.ndarray  # (n_measurements, L//2 + 1)

    @property
    def n_measurements(self) -> int:
        return len(self.energy)

    def susceptibility(self, n_sites: int) -> float:
        """Uniform susceptibility ``beta (<M^2> - <M>^2) / L``."""
        m = self.magnetization
        return float(self.beta * (np.mean(m**2) - np.mean(m) ** 2) / n_sites)


class TableSweeps:
    """Sweep dispatch and the table-driven sweep of a world-line sampler.

    The sampler supplies ``spins`` (sites x slices, C-contiguous int8),
    ``stream``, the ``n_attempted`` / ``n_accepted`` counters,
    ``sweep_scalar``, and ``can_vectorize`` with ``_grid_rule`` saying
    what that asks of the geometry.  Where ``can_vectorize`` holds it
    also builds the static tables of its move set in the layout of the
    strip ops: ``_corner_tables``, one ``(gather, flip)`` row per
    conflict-free class of plaquette-window flips (``_n_corner_moves``
    in all, the size of the sweep's one corner draw), priced from
    ``_corner_weights`` (packed or unpacked, see ``strip_corner``), and
    ``_column_tables``, one ``(sites, gather)`` row per class of
    straight columns, priced from the ``(3, 16)`` log weights ``_logw``.
    """

    def _sweep_fused(self, ops) -> None:
        """Every class of one sweep through the backend's strip ops.

        Moves within a class have disjoint read and write footprints,
        so parallel acceptance equals sequential acceptance in any
        order -- the property the domain-decomposed driver and the
        compiled kernel backends rely on.  The uniform draws stay here
        (one block for all corner classes, one per column class sized
        to its straight columns), identical across backends.
        """
        corner, column = ops["strip_corner"], ops["strip_column"]
        flat = self.spins.reshape(-1)
        weights = self._corner_weights
        # One draw split by class is the per-class draws concatenated.
        u = self.stream.uniform(size=self._n_corner_moves)
        lo = 0
        for gather, flip in self._corner_tables:
            hi = lo + flip.shape[1]
            self.n_accepted += corner(flat, weights, gather, flip, u[lo:hi])
            lo = hi
        self.n_attempted += lo
        # A column flip writes its own column only: one pass finds the
        # straight world lines of every class.
        lines = (self.spins == self.spins[:, :1]).all(axis=1)
        for sites, gather in self._column_tables:
            straight = lines[sites]
            n_straight = int(np.count_nonzero(straight))
            if n_straight == 0:
                continue
            log_uu = np.zeros(sites.size)  # bent columns' slots are ignored
            log_uu[straight] = np.log(
                np.maximum(self.stream.uniform(size=n_straight), 1e-300)
            )
            self.n_accepted += column(
                self.spins, self._logw, sites, gather, straight, log_uu
            )
            self.n_attempted += n_straight

    def _require_vectorizable(self) -> None:
        if not self.can_vectorize:
            raise ValueError(
                f"vectorized sweep needs {self._grid_rule}; this geometry "
                "runs the per-move reference, mode='scalar' (CLI: --kernel "
                "scalar), which mode='auto' selects for it"
            )

    def sweep_vectorized(self, kernel: str = "numpy") -> None:
        """One table-driven sweep (needs :attr:`can_vectorize`).

        ``kernel`` names the registry backend supplying the class ops;
        every backend produces the bit-identical trajectory.
        """
        self._require_vectorizable()
        self._sweep_fused(kernels.get_ops(kernel))

    def resolve_sweep(self, mode: str = "auto"):
        """``(kernel, sweep)``: the kernel ``mode`` (see :meth:`sweep`)
        resolves to on this geometry -- ``"scalar"`` or a backend name --
        and a zero-argument sweep bound to it.  A batched backend on a
        geometry off its grid is a ``ValueError`` here, not at the first
        sweep."""
        if mode == "auto" and not self.can_vectorize:
            mode = "scalar"  # the geometry gate: off-grid lattices
        kernel = kernels.resolve_kernel(mode)
        if kernel == "scalar":
            return kernel, self.sweep_scalar
        self._require_vectorizable()
        ops = kernels.get_ops(kernel)
        return kernel, lambda: self._sweep_fused(ops)

    def sweep(self, mode: str = "auto") -> None:
        """One full sweep.

        ``mode="auto"`` (the default, and the historical behavior)
        runs the registry's best available kernel backend when the
        geometry allows and the scalar reference otherwise;
        ``"scalar"`` forces the reference; a backend name ("numpy",
        "numba", ...; "vectorized" aliases "numpy") forces that
        backend.  Every mode proposes the same move set; the batched
        backends are bit-identical to each other.
        """
        self.resolve_sweep(mode)[1]()

    @property
    def acceptance_rate(self) -> float:
        return self.n_accepted / self.n_attempted if self.n_attempted else 0.0


class WorldlineChainQmc(TableSweeps):
    """World-line sampler for one XXZ chain at fixed (beta, n_slices)."""

    def __init__(
        self,
        model: XXZChainModel,
        beta: float,
        n_slices: int,
        seed: int | None = 0,
        stream: RankStream | None = None,
    ):
        if model.field != 0.0:
            raise ValueError(
                "world-line driver samples at zero field; susceptibility "
                "comes from magnetization fluctuations"
            )
        if beta <= 0:
            raise ValueError("beta must be positive")
        if n_slices < 4 or n_slices % 2:
            raise ValueError("n_slices must be even and >= 4 (T = 2M)")
        self.model = model
        self.beta = float(beta)
        self.n_slices = int(n_slices)  # T
        self.n_trotter = n_slices // 2  # M
        self.dtau = beta / self.n_trotter
        self.L = model.n_sites
        self.periodic = model.periodic
        self.table = PlaquetteTable.build(model.jz, model.jxy, self.dtau)
        self.stream = stream if stream is not None else SeedSequenceFactory(
            seed if seed is not None else 0
        ).rank_stream(0)
        # Neel product state, straight world lines: legal for every (Jz, Jxy).
        self.spins = np.fromfunction(
            lambda i, t: (i % 2).astype(np.int8), (self.L, self.n_slices), dtype=int
        ).astype(np.int8)
        self._init_tables()
        self.n_attempted = 0
        self.n_accepted = 0

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def n_bonds(self) -> int:
        return self.L if self.periodic else self.L - 1

    def _init_tables(self) -> None:
        """Precompute the static flat-index tables into ``spins.reshape(-1)``.

        ``_shaded`` gathers the four corners of every shaded plaquette
        (bond-major, the measurement path's summation order).  On
        vectorizable geometries the sweep tables follow: the eight
        corner independence classes -- (bond a, interval b) stride-4
        grids with (a + b) odd, in (a, b) order -- as packed
        ``strip_corner`` rows, and the two column parities as
        ``strip_column`` rows, the periodic wrap folded in; with them
        the weight tables the two ops read.
        """
        L, T = self.L, self.n_slices
        i, t = np.nonzero(
            (np.arange(self.n_bonds)[:, None] + np.arange(T)[None, :]) % 2 == 0
        )
        j, t1 = (i + 1) % L, (t + 1) % T
        self._shaded = np.stack([i * T + t, j * T + t, i * T + t1, j * T + t1])
        self._stag_signs = np.where(np.arange(L) % 2 == 0, 1.0, -1.0)[:, None]
        if not self.can_vectorize:
            return
        self._corner_tables = []
        for a, b in ((a, b) for a in range(4) for b in range(4) if (a + b) % 2):
            gi, gt = np.meshgrid(
                np.arange(a, L, 4, dtype=np.intp),
                np.arange(b, T, 4, dtype=np.intp),
                indexing="ij",
            )
            self._corner_tables.append(corner_tables(L, T, gi.ravel(), gt.ravel()))
        self._n_corner_moves = L * T // 2
        self._corner_weights = corner_products(self.table.weights)
        self._column_tables = [
            (cols, column_tables(L, T, cols))
            for cols in (np.arange(p, L, 2, dtype=np.intp) for p in (0, 1))
        ]
        self._logw = column_log_weights(self.table.weights)

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

    def shaded_codes(self) -> np.ndarray:
        """Corner codes of every shaded plaquette (measurement path)."""
        s = self.spins.reshape(-1)[self._shaded]
        return s[0] + (s[1] << 1) + (s[2] << 2) + (s[3] << 3)

    def config_log_weight(self) -> float:
        """log of the configuration weight; ``-inf`` if illegal."""
        w = self.table.weights[self.shaded_codes()]
        if np.any(w <= 0):
            return float("-inf")
        return float(np.sum(np.log(w)))

    def check_invariants(self) -> None:
        """Assert world-line continuity: every shaded plaquette is legal
        and each slice carries the same magnetization."""
        if np.any(self.table.weights[self.shaded_codes()] <= 0):
            raise AssertionError("illegal shaded plaquette in configuration")
        mags = self.spins.sum(axis=0)
        if self.periodic and np.any(mags != mags[0]):
            raise AssertionError("slice magnetization not conserved")

    # ------------------------------------------------------------------
    # estimators
    # ------------------------------------------------------------------
    def energy_estimate(self) -> float:
        """Total-energy estimator of the current configuration."""
        d = self.table.dlog[self.shaded_codes()]
        return float(-np.sum(d) / self.n_trotter)

    def magnetization(self) -> float:
        """Total S^z (identical on every slice for legal configurations)."""
        return float(self.spins[:, 0].sum() - self.L / 2.0)

    def staggered_magnetization_sq(self) -> float:
        """Slice-averaged squared staggered magnetization per site."""
        m_st = (self._stag_signs * (self.spins - 0.5)).sum(axis=0) / self.L
        return float(np.mean(m_st**2))

    def szsz_time_correlation(self, method: str = "auto") -> np.ndarray:
        """Imaginary-time autocorrelation ``G(k) = <S^z_i(0) S^z_i(tau_k)>``.

        Returned for slice separations ``k = 0 .. T/2``; the physical
        time of slice ``k`` is ``tau_k = k * beta / T``.  Averaged over
        sites and reference slices (translation invariance in both).
        The time axis is always periodic (trace boundary condition), so
        the default path is the single-FFT circular correlation; the
        roll-loop reference survives as ``method="loop"``.
        """
        sz = self.spins - 0.5
        max_k = self.n_slices // 2
        if method in ("auto", "fft"):
            return mean_circular_correlation(sz, axis=1, max_lag=max_k)
        if method != "loop":
            raise ValueError(f"unknown correlation method {method!r}")
        out = np.empty(max_k + 1)
        for k in range(out.size):
            out[k] = float(np.mean(sz * np.roll(sz, -k, axis=1)))
        return out

    def szsz_correlation(self, method: str = "auto") -> np.ndarray:
        """``C(r) = <S^z_i S^z_{i+r}>`` for r = 0..L//2 (sites+slices averaged).

        Periodic chains use the single-FFT circular correlation instead
        of one ``np.roll`` pass per distance (O(L T log L) total instead
        of O(L^2 T)); open chains keep the truncated-sum loop, which is
        not a circular convolution.  ``method="loop"`` forces the loop
        reference on any geometry, ``method="fft"`` demands the FFT path
        (periodic only) -- the agreement tests compare the two exactly.
        """
        sz = self.spins - 0.5
        max_r = self.L // 2
        if method == "auto":
            method = "fft" if self.periodic else "loop"
        if method == "fft":
            if not self.periodic:
                raise ValueError("FFT correlation path requires a periodic chain")
            return mean_circular_correlation(sz, axis=0, max_lag=max_r)
        if method != "loop":
            raise ValueError(f"unknown correlation method {method!r}")
        out = np.empty(max_r + 1)
        for r in range(max_r + 1):
            rolled = np.roll(sz, -r, axis=0)
            if self.periodic:
                out[r] = float(np.mean(sz * rolled))
            else:
                n = self.L - r
                out[r] = float(np.mean(sz[:n] * rolled[:n]))
        return out

    # ------------------------------------------------------------------
    # scalar reference moves
    # ------------------------------------------------------------------
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
        # Innermost scalar hot path: plain int arithmetic on the corner
        # code, no per-plaquette array allocations.
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

    def attempt_edge_flip(self, site: int, t: int) -> bool:
        """Open-chain edge move: flip (site, t), (site, t+1) during the
        site's free-evolution interval."""
        if self.periodic:
            raise ValueError("edge moves exist only on open chains")
        if site == 0:
            bond = 0
        elif site == self.L - 1:
            bond = self.n_bonds - 1
        else:
            raise ValueError("edge moves act on the boundary sites only")
        if (bond + t) % 2 == 0:
            raise ValueError(f"interval {t} is not free evolution for site {site}")
        T = self.n_slices
        affected = [(bond, (t - 1) % T), (bond, (t + 1) % T)]
        w_old = self._weight_product(affected)
        idx = ([site, site], [t, (t + 1) % T])
        self.spins[idx] ^= 1
        w_new = self._weight_product(affected)
        if w_new <= 0.0 or not self._metropolis(w_new / w_old):
            self.spins[idx] ^= 1
            return False
        return True

    def attempt_column_flip(self, site: int) -> bool:
        """Straight-line move: flip the full time column of ``site``."""
        col = self.spins[site]
        if col.min() != col.max():
            return False  # world line not straight: move undefined
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
        old_codes = self._codes(codes_i, codes_t)
        self.spins[site] ^= 1
        new_codes = self._codes(codes_i, codes_t)
        w_new = self.table.weights[new_codes]
        if np.any(w_new <= 0):
            self.spins[site] ^= 1
            return False
        log_ratio = float(
            np.sum(np.log(w_new)) - np.sum(np.log(self.table.weights[old_codes]))
        )
        if not self._metropolis(float(np.exp(min(log_ratio, 0.0))) if log_ratio < 0 else 1.0):
            self.spins[site] ^= 1
            return False
        return True

    def sweep_scalar(self) -> None:
        """Reference sweep: every unshaded plaquette, edge interval and
        column once, in deterministic raster order."""
        for t in range(self.n_slices):
            for i in range(self.n_bonds):
                if (i + t) % 2 == 1:
                    self.attempt_corner_flip(i, t)
        if not self.periodic:
            for t in range(self.n_slices):
                if (0 + t) % 2 == 1:
                    self.attempt_edge_flip(0, t)
                if (self.n_bonds - 1 + t) % 2 == 1:
                    self.attempt_edge_flip(self.L - 1, t)
        for site in range(self.L):
            self.attempt_column_flip(site)

    # ------------------------------------------------------------------
    # vectorized sweep (periodic, L % 4 == 0, T % 4 == 0)
    # ------------------------------------------------------------------
    @property
    def can_vectorize(self) -> bool:
        return self.periodic and self.L % 4 == 0 and self.n_slices % 4 == 0

    @property
    def _grid_rule(self) -> str:
        return (
            "a periodic chain with L % 4 == 0 and n_slices % 4 == 0 "
            f"(got L={self.L}, T={self.n_slices}, periodic={self.periodic})"
        )

    # ------------------------------------------------------------------
    # run driver
    # ------------------------------------------------------------------
    def run(
        self,
        n_sweeps: int,
        n_thermalize: int = 0,
        measure_every: int = 1,
        mode: str = "auto",
    ) -> WorldlineMeasurement:
        """Thermalize, then sweep and measure (``mode`` as in :meth:`sweep`).

        Returns the raw time series; error analysis is the caller's job
        (see :mod:`repro.stats`).
        """
        if n_sweeps < 1:
            raise ValueError("need at least one measured sweep")
        sweep = self.resolve_sweep(mode)[1]  # resolved once, not per sweep
        for _ in range(n_thermalize):
            sweep()
        energies, mags, mstag, corr = [], [], [], []
        for s in range(n_sweeps):
            sweep()
            if s % measure_every == 0:
                energies.append(self.energy_estimate())
                mags.append(self.magnetization())
                mstag.append(self.staggered_magnetization_sq())
                corr.append(self.szsz_correlation())
        return WorldlineMeasurement(
            beta=self.beta,
            dtau=self.dtau,
            energy=np.array(energies),
            magnetization=np.array(mags),
            m_stag_sq=np.array(mstag),
            szsz=np.array(corr),
        )
