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
* **straight-line flips** -- flip an entire time column whose world
  line is straight, changing total magnetization by one.  This is what
  makes the uniform susceptibility measurable.

Known, period-accurate limitation: spatial winding is not sampled; on
periodic chains the simulation is confined to the zero-winding sector
(corrections fall exponentially with L).  Validation tests therefore
use *open* chains, where no winding sector exists.

A sweep is the P = 1, no-ghost case of the strip driver: the
registry's ``strip_corner`` / ``strip_column`` ops run over index
tables built once at construction (:func:`repro.kernels.chain_tables.
chain_rows`), eight corner classes and two column parities in one
fixed order, on every geometry.  The per-move backends (``scalar``,
``numba``) take the moves one at a time and run any chain; the batched
``numpy`` op needs every class conflict-free: ``L % 4 == 0``
(periodic) and ``T % 4 == 0``.  That stage loop and the kernel
dispatch around it are :class:`TableSweeps`, which the square-lattice
sampler shares.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.kernels.chain_tables import chain_rows
from repro.models.hamiltonians import XXZChainModel
from repro.qmc.plaquette import PlaquetteTable
from repro.util.correlation import mean_circular_correlation
from repro.util.rng import RankStream, SeedSequenceFactory

__all__ = [
    "TableSweeps",
    "WorldlineChainQmc",
    "FLOPS_PER_CORNER_MOVE",
]

#: Modeled floating-point work of one corner-flip attempt (4 plaquette
#: weight lookups old+new, one ratio, one compare, index arithmetic).
#: Used by the parallel drivers / performance model; the value matches
#: the arithmetic of an optimized Fortran inner loop of the era.
FLOPS_PER_CORNER_MOVE = 24.0


class TableSweeps:
    """Kernel dispatch and the table-driven sweep of a world-line sampler.

    The sampler supplies ``spins`` (sites x slices, C-contiguous int8),
    ``stream``, the ``n_attempted`` / ``n_accepted`` counters,
    ``can_vectorize`` with ``_grid_rule`` saying what the batched
    ``numpy`` op asks of the geometry, and the static tables of its
    whole move set in the argument layout of the strip ops, in the one
    order a sweep takes them: ``_corner_tables``, one ``(weights,
    gather, flip)`` row per class of plaquette-window flips
    (``_n_corner_moves`` in all, the size of the sweep's one corner
    draw; packed or unpacked, see ``strip_corner``), and
    ``_column_tables``, one ``(logw, sites, gather)`` row per class of
    straight columns.
    """

    def _sweep_fused(self, ops) -> None:
        """Every row of one sweep through the backend's strip ops.

        The per-move backends take a row's moves one at a time, in
        order, so any row is theirs.  On :attr:`can_vectorize`
        geometries every row is conflict-free -- no move reads or
        writes what another of its row writes -- so batched acceptance
        equals sequential acceptance and all backends agree bit for
        bit.  The uniform draws stay here (one block for all corner
        rows, one per column row sized to its straight columns).
        """
        corner, column = ops["strip_corner"], ops["strip_column"]
        flat = self.spins.reshape(-1)
        # One draw split by row is the per-row draws concatenated.
        u = self.stream.uniform(size=self._n_corner_moves)
        lo = 0
        for weights, gather, flip in self._corner_tables:
            hi = lo + flip.shape[1]
            self.n_accepted += corner(flat, weights, gather, flip, u[lo:hi])
            lo = hi
        self.n_attempted += lo
        # A column flip writes its own column only: one pass finds the
        # straight world lines of every class.
        lines = (self.spins == self.spins[:, :1]).all(axis=1)
        for logw, sites, gather in self._column_tables:
            straight = lines[sites]
            n_straight = int(np.count_nonzero(straight))
            if n_straight == 0:
                continue
            log_uu = np.zeros(sites.size)  # bent columns' slots are ignored
            log_uu[straight] = np.log(
                np.maximum(self.stream.uniform(size=n_straight), 1e-300)
            )
            self.n_accepted += column(
                self.spins, logw, sites, gather, straight, log_uu
            )
            self.n_attempted += n_straight

    def resolve_sweep(self, mode: str = "auto"):
        """``(kernel, sweep)``: the backend ``mode`` (see :meth:`sweep`)
        resolves to on this geometry and a zero-argument sweep bound to
        it.  ``numpy`` off its grid is a ``ValueError`` here, not at the
        first sweep; ``auto``, where it would pick ``numpy``, runs
        ``scalar`` there instead."""
        kernel = kernels.resolve_kernel(mode)
        if kernel == "numpy" and not self.can_vectorize:
            if mode != "auto":
                raise ValueError(
                    f"vectorized sweep needs {self._grid_rule}; the per-move "
                    "loops run any geometry: mode='scalar' (CLI: --kernel "
                    "scalar), which mode='auto' selects for it"
                )
            kernel = "scalar"
        ops = kernels.get_ops(kernel)
        return kernel, lambda: self._sweep_fused(ops)

    def sweep(self, mode: str = "auto") -> None:
        """One full sweep.

        ``mode="auto"`` (the default) runs the registry's best
        available backend (``scalar`` where that is ``numpy`` and the
        geometry is off its grid); a backend name ("numpy", "numba",
        "scalar"; "vectorized" aliases "numpy") forces that backend.
        Every backend runs the same rows; where ``numpy`` runs, all
        three are bit-identical.
        """
        self.resolve_sweep(mode)[1]()

    @property
    def acceptance_rate(self) -> float:
        return self.n_accepted / self.n_attempted if self.n_attempted else 0.0


class WorldlineChainQmc(TableSweeps):
    """World-line sampler for one XXZ chain at fixed (beta, n_slices)."""

    #: Series name -> estimator method: what a chain of this sampler can
    #: measure (:class:`repro.qmc.parallel.ChainConfig`); ``szsz`` is a
    #: row, ``C(r) = <S^z_0 S^z_r>`` for r = 0 .. L//2.
    ESTIMATORS = {
        "energy": "energy_estimate",
        "magnetization": "magnetization",
        "m_stag_sq": "staggered_magnetization_sq",
        "szsz": "szsz_correlation",
    }

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
        (bond-major, the measurement path's summation order); the sweep
        rows of the whole move set follow (:func:`chain_rows`).
        """
        L, T = self.L, self.n_slices
        i, t = np.nonzero(
            (np.arange(self.n_bonds)[:, None] + np.arange(T)[None, :]) % 2 == 0
        )
        j, t1 = (i + 1) % L, (t + 1) % T
        self._shaded = np.stack([i * T + t, j * T + t, i * T + t1, j * T + t1])
        self._stag_signs = np.where(np.arange(L) % 2 == 0, 1.0, -1.0)[:, None]
        self._corner_tables, self._column_tables = chain_rows(
            L, T, self.periodic, self.table.weights
        )
        self._n_corner_moves = self.n_bonds * T // 2

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
    # the batched numpy op's grid (periodic, L % 4 == 0, T % 4 == 0)
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
    def run(
        self,
        n_sweeps: int,
        n_thermalize: int = 0,
        measure_every: int = 1,
        mode: str = "auto",
    ) -> dict:
        """``run_chain(self, ("energy", "magnetization"), ...)``, kept
        only for ``benchmarks/e2e/child.py::direct_sampler_run``, which
        times it and discards the result; it goes when that probe stops
        calling it.  Everything else calls
        :func:`repro.qmc.parallel.run_chain`."""
        from repro.qmc.parallel import run_chain  # parallel imports this module

        return run_chain(self, ("energy", "magnetization"), n_sweeps,
                         n_thermalize, measure_every, mode)
