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
chain_rows`), four corner colors and two column parities in one
fixed order, on every geometry: six kernel calls a sweep where the
grid allows.  The per-move backends (``scalar``, ``numba``) take the
moves one at a time and run any chain; the batched ``numpy`` op needs
every color conflict-free: ``L % 4 == 0`` (periodic) and ``T % 4 ==
0``.  The kernel dispatch is :class:`TableSweeps`, which the
square-lattice sampler shares, and the one stage loop is
:class:`SweepBatch`'s: R samplers of one geometry swept as one
disconnected lattice, a sampler's own sweep being R = 1.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.kernels.chain_tables import chain_rows, plaquette_codes, shaded_corners
from repro.models.hamiltonians import XXZChainModel
from repro.qmc.plaquette import PlaquetteTable
from repro.util.correlation import mean_circular_correlation
from repro.util.rng import RankStream, SeedSequenceFactory

__all__ = [
    "SweepBatch",
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
    ``_column_tables``, one ``(thr, sites, nbr)`` row per class of
    straight columns (see ``strip_column``).  ``model``, ``beta`` and
    ``n_slices`` fix those tables: samplers equal in all three may share
    a :class:`SweepBatch`.
    """

    def resolve_sweep(self, mode: str = "auto"):
        """``(kernel, sweep)``: the backend ``mode`` (see :meth:`sweep`)
        resolves to on this geometry and a zero-argument sweep bound to
        it -- the stage loop of a :class:`SweepBatch` of this sampler
        alone.  ``numpy`` off its grid is a ``ValueError`` here, not at
        the first sweep; ``auto``, where it would pick ``numpy``, runs
        ``scalar`` there instead."""
        return SweepBatch([self]).resolve_sweep(mode)

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


class SweepBatch:
    """R :class:`TableSweeps` samplers of one geometry, swept as one
    disconnected lattice: one kernel call per row for all R chains.

    With R > 1 the samplers' spins are stacked into one ``(R * rows,
    slices)`` array and each sampler's ``spins`` is rebound to its own
    view of it (assign into it, do not rebind it), so estimators and
    ``check_invariants()`` work unchanged.  Sampler 0's rows are tiled
    R times, chain ``i``'s indices offset by its place in the stack
    (an unpacked row's XOR ``xmask`` is a mask, not an index).  Each
    chain draws from its own ``stream`` in the order of its solo sweep
    and its counters are credited with its own moves, so every chain's
    trajectory is the one it has alone, bit for bit.  R = 1 is a
    sampler's own sweep (:meth:`TableSweeps.resolve_sweep`): its arrays,
    read at every sweep, and the ops' one-chain form.
    """

    def __init__(self, samplers):
        self.samplers = list(samplers)
        q = self.samplers[0]
        geometry = (type(q), q.model, q.beta, q.n_slices)
        for other in self.samplers[1:]:
            if (type(other), other.model, other.beta, other.n_slices) != geometry:
                raise ValueError("a sweep batch needs samplers of one geometry")
        self._stacked = None if len(self.samplers) == 1 else self._stack()

    def _stack(self):
        """``(spins, corner rows, column rows)`` of the stacked chains."""
        q = self.samplers[0]
        rows = q.spins.shape[0]
        spins = np.concatenate([s.spins for s in self.samplers])
        for i, s in enumerate(self.samplers):
            s.spins = spins[i * rows:(i + 1) * rows]
        chain = np.arange(len(self.samplers))

        def tile(index, axis, stride=q.spins.size):
            return np.concatenate([index + stride * i for i in chain], axis=axis)

        corner = []
        for weights, gather, flip in q._corner_tables:
            if isinstance(gather, tuple):
                *corners, xmask = gather
                gather = (*(tile(c, 1) for c in corners),
                          np.concatenate([xmask] * chain.size, axis=1))
            else:
                gather = tile(gather, 0)
            corner.append((weights, gather, tile(flip, 1)))
        column = [
            (thr, tile(sites, 0, rows), tile(nbr, 0))
            for thr, sites, nbr in q._column_tables
        ]
        return spins, corner, column

    def resolve_sweep(self, mode: str = "auto"):
        """``(kernel, sweep)`` as :meth:`TableSweeps.resolve_sweep`
        says, the sweep advancing every chain of the batch."""
        q = self.samplers[0]
        kernel = kernels.resolve_kernel(mode)
        if kernel == "numpy" and not q.can_vectorize:
            if mode != "auto":
                raise ValueError(
                    f"vectorized sweep needs {q._grid_rule}; the per-move "
                    "loops run any geometry: mode='scalar' (CLI: --kernel "
                    "scalar), which mode='auto' selects for it"
                )
            kernel = "scalar"
        ops = kernels.get_ops(kernel)
        return kernel, lambda: self._sweep(ops)

    def _sweep(self, ops) -> None:
        """Every row of one sweep through the backend's strip ops.

        The per-move backends take a row's moves one at a time, in
        order, so any row is theirs.  On ``can_vectorize`` geometries
        every row is conflict-free -- no move reads or writes what
        another of its row writes -- so batched acceptance equals
        sequential acceptance and all backends agree bit for bit; the
        chains of a stack share no site, so that holds for the stack
        too.  The uniform draws stay here: per chain one block for all
        corner rows, then one for the straight columns of all column rows
        -- a column flip leaves every column as straight as it was.
        """
        corner, column = ops["strip_corner"], ops["strip_column"]
        qs, n_chains = self.samplers, len(self.samplers)
        if self._stacked is None:
            q = qs[0]
            spins, corner_rows, column_rows = q.spins, q._corner_tables, q._column_tables
            # One draw split by row is the per-row draws concatenated.
            u = q.stream.uniform(size=q._n_corner_moves)
            accepted = 0
        else:
            spins, corner_rows, column_rows = self._stacked
            u = np.stack([q.stream.uniform(size=q._n_corner_moves) for q in qs])
            accepted = np.zeros(n_chains, dtype=np.int64)
        flat = spins.reshape(-1)
        lo = 0
        for weights, gather, flip in corner_rows:
            hi = lo + flip.shape[1] // n_chains
            accepted = accepted + corner(flat, weights, gather, flip, u[..., lo:hi])
            lo = hi
        # A column flip writes its own column only: one pass finds the
        # straight world lines of every class.
        lines = (spins == spins[:, :1]).all(axis=1)
        if self._stacked is None:
            masks = [lines[sites] for _, sites, _ in column_rows]
            straight = np.concatenate([lines[:0], *masks])  # any rows, even none
            n_straight = [int(np.count_nonzero(straight))]
            log_u = np.zeros(straight.size)  # bent columns' slots are ignored
            if n_straight[0]:
                log_u[straight] = _log(q.stream.uniform(size=n_straight[0]))
        else:
            masks = [lines[sites].reshape(n_chains, -1) for _, sites, _ in column_rows]
            # Chain-major, rows in order within a chain: the solo draw order.
            straight = np.concatenate(masks, axis=1)
            n_straight = np.count_nonzero(straight, axis=1).tolist()
            log_u = np.zeros(straight.shape)
            draws = [q.stream.uniform(size=n) for q, n in zip(qs, n_straight) if n]
            if draws:
                log_u[straight] = _log(np.concatenate(draws))
        n_corner, lo = lo, 0
        for (thr, sites, nbr), mask in zip(column_rows, masks):
            hi = lo + mask.shape[-1]
            if mask.any():
                accepted = accepted + column(
                    spins, thr, sites, nbr, mask.reshape(-1), log_u[..., lo:hi]
                )
            lo = hi
        for q, n, a in zip(qs, n_straight, np.atleast_1d(accepted).tolist()):
            q.n_attempted += n_corner + n
            q.n_accepted += a


def _log(u: np.ndarray) -> np.ndarray:
    """The column ops' ``log(u)``, floored away from ``-inf``."""
    return np.log(np.maximum(u, 1e-300))


class WorldlineChainQmc(TableSweeps):
    """World-line sampler for one XXZ chain at fixed (beta, n_slices)."""

    #: Series name -> estimator method: what a chain of this sampler can
    #: measure (:class:`repro.qmc.chains.ChainConfig`); ``szsz`` is a
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

        ``_shaded`` gathers the four corners of every shaded plaquette,
        one ``(n, 4)`` row each (bond-major, the measurement path's
        summation order); the sweep rows of the whole move set follow
        (:func:`chain_rows`).
        """
        L, T = self.L, self.n_slices
        self._shaded = shaded_corners(L, T, np.arange(self.n_bonds))
        self._stag_signs = np.where(np.arange(L) % 2 == 0, 1.0, -1.0)[:, None]
        self._corner_tables, self._column_tables = chain_rows(
            L, T, self.periodic, self.table.weights
        )
        self._n_corner_moves = self.n_bonds * T // 2

    def shaded_codes(self) -> np.ndarray:
        """Corner codes of every shaded plaquette (measurement path)."""
        return plaquette_codes(self.spins.reshape(-1), self._shaded)

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
        :func:`repro.qmc.chains.run_chain`."""
        from repro.qmc.chains import run_chain  # chains imports this module

        return run_chain(self, ("energy", "magnetization"), n_sweeps,
                         n_thermalize, measure_every, mode)
