"""Tests for the table-driven sweep of the 2-D sampler.

Three layers of evidence that the batched sweep samples exactly the
raster reference sampler's distribution:

1. **Structural**: within every (color, spatial parity, interval)
   class, all flipped spin cells are distinct and no proposal reads a
   plaquette corner another proposal writes -- verified directly on the
   rows the sampler hands the ``strip_corner`` / ``strip_column`` ops.
2. **Coupled trajectories**: with the Metropolis uniforms forced, the
   sampler's sweep body over one table row produces bit-identical
   spins to running the same class's moves one bond at a time through
   the raster reference moves (order independence is exactly
   conflict-freedom).
3. **Statistical**: long per-move and batched runs on 4x4 agree with
   each other and with the momentum-blocked exact reference (the latter
   up to the documented zero-winding-sector restriction, measured small
   at beta = 1/2, plus O(dtau^2) Trotter bias).

Plus invariant confinement after long vectorized runs on even- and
odd-Trotter geometries, and a hand-built wound world line checking the
winding estimator itself.
"""

from collections import Counter

import numpy as np
import pytest

from repro.models.hamiltonians import XXZSquareModel
from repro.models.symmetry_ed import MomentumBlockED
from repro.qmc.chains import run_chain
from repro.qmc.worldline2d import WorldlineSquareQmc
from repro.stats.binning import BinningAnalysis

from tests.conftest import ForcedStream, assert_within, square_corner_moves
from tests.qmc.raster_reference import RasterSquareQmc
from tests.qmc.test_worldline2d import move_vectors


def make(lx=4, ly=4, beta=0.75, n_slices=16, seed=0, cls=WorldlineSquareQmc,
         **model_kw):
    model = XXZSquareModel(lx=lx, ly=ly, **model_kw)
    return cls(model, beta, n_slices, seed=seed)


def run_rows(q, corner=(), column=()):
    """The sampler's own sweep body over just these table rows."""
    saved = q._corner_tables, q._column_tables
    q._corner_tables, q._column_tables = list(corner), list(column)
    try:
        q.sweep("numpy")
    finally:
        q._corner_tables, q._column_tables = saved


class TestGeometryGate:
    def test_can_vectorize(self):
        assert make(4, 4).can_vectorize
        assert make(8, 4).can_vectorize
        assert not make(2, 4, n_slices=8).can_vectorize
        assert not make(4, 6, n_slices=8).can_vectorize

    def test_vectorized_sweep_rejected_off_grid(self):
        q = make(2, 4, n_slices=8)
        with pytest.raises(ValueError, match="lx % 4"):
            q.sweep("numpy")

    @pytest.mark.parametrize("mode", ["numpy", "vectorized"])
    def test_batched_backend_off_grid_fails_at_resolve(self, mode):
        """Before any sweep, like the chain, and naming the way out."""
        q = make(2, 4, n_slices=8)
        with pytest.raises(ValueError, match="lx % 4") as exc:
            q.resolve_sweep(mode)
        assert "--kernel scalar" in str(exc.value)
        assert "mode='scalar'" in str(exc.value)
        assert q.n_attempted == 0
        assert q.resolve_sweep("scalar")[0] == q.resolve_sweep("auto")[0] == "scalar"

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown kernel 'simd'"):
            make().sweep(mode="simd")

    def test_auto_dispatch(self):
        # Off-grid geometries run the per-move loops silently.
        q = make(2, 4, n_slices=8)
        q.sweep(mode="auto")
        assert q.n_attempted > 0


class TestClassTables:
    def test_classes_cover_every_proposal_once(self):
        q = make()
        bonds, t0s = map(
            np.concatenate, zip(*(square_corner_moves(q, row[-1]) for row in q._corner_tables))
        )
        assert bonds.size == q.n_bonds * q.n_trotter
        assert np.array_equal(t0s % q.N_COLORS, q.bond_colors[bonds])
        proposals = bonds * q.n_trotter + t0s // q.N_COLORS
        assert np.array_equal(np.sort(proposals), np.arange(bonds.size))
        sites = np.concatenate([sites for _, sites, _ in q._column_tables])
        assert np.array_equal(np.sort(sites), np.arange(q.n_sites))

    @pytest.mark.parametrize("shape", [
        (4, 4, 8), (4, 4, 12), (2, 2, 8), (2, 4, 8), (2, 4, 12), (6, 6, 8)])
    def test_rows_tile_the_move_set_on_every_geometry(self, shape):
        """Each segment, window and column move of the move set is one
        move of one row, on and off the batched grid."""
        lx, ly, T = shape
        q = make(lx, ly, n_slices=T)
        rows = [frozenset(flip[:, m].tolist())
                for *_, flip in q._corner_tables for m in range(flip.shape[1])]
        assert len(rows) == q._n_corner_moves
        rows += [frozenset(range(s * T, (s + 1) * T))
                 for _, sites, _ in q._column_tables for s in sites.tolist()]
        expected = [frozenset(np.flatnonzero(v).tolist()) for v in move_vectors(q)]
        assert Counter(rows) == Counter(expected)

    @pytest.mark.parametrize("shape", [(4, 4, 16), (8, 4, 16), (4, 4, 12)])
    def test_segment_classes_are_conflict_free(self, shape):
        """No in-class proposal writes a cell another reads or writes."""
        lx, ly, T = shape
        q = make(lx, ly, n_slices=T)
        n_cells = q.n_sites * q.n_slices
        n_rows = 16 * (2 if q.n_trotter % 2 == 0 else q.n_trotter)
        assert len(q._corner_tables) == n_rows
        for _, (*gather, xmask), writes in q._corner_tables:  # writes: (8, n)
            flat = writes.reshape(-1)
            assert flat.size == np.unique(flat).size, "overlapping flips"
            owner = np.full(n_cells, -1, dtype=np.int64)
            pid = np.arange(writes.shape[1])[None, :]
            owner[writes] = np.broadcast_to(pid, writes.shape)
            assert xmask.shape == writes.shape
            for corner in gather:
                read_owner = owner[corner]  # (8, n)
                ok = (read_owner < 0) | (
                    read_owner == np.broadcast_to(pid, read_owner.shape)
                )
                assert np.all(ok), "cross-proposal read/write conflict"

    def test_column_classes_are_conflict_free(self):
        q = make()
        T = q.n_slices
        for thr, sites, nbr in q._column_tables:
            writes = (sites[:, None] * T + np.arange(T)[None, :]).reshape(-1)
            assert writes.size == np.unique(writes).size
            owner = np.full(q.n_sites * T, -1, dtype=np.int64)
            owner[writes.reshape(len(sites), T)] = np.arange(len(sites))[:, None]
            pid = np.arange(len(sites))[:, None]
            assert thr.shape == (T + 1,)
            assert nbr.shape == (len(sites), T)  # one neighbor an interval
            read_owner = owner[nbr]
            assert np.all((read_owner < 0) | (read_owner == pid))

    def test_shaded_codes_match_per_plaquette_codes(self):
        q = make(seed=3, cls=RasterSquareQmc)
        run_chain(q, ("energy",), 5, mode="vectorized")
        codes = q.shaded_codes()
        k = 0
        for c in range(4):
            ts = np.arange(c, q.n_slices, 4, dtype=np.intp)
            for bond in np.nonzero(q.bond_colors == c)[0]:
                ref = q._codes(int(bond), ts)
                assert np.array_equal(codes[k : k + ts.size], ref)
                k += ts.size
        assert k == codes.size


@pytest.mark.parametrize("shape", [(4, 4, 16), (8, 4, 16), (4, 4, 12)])
class TestKernelScalarCoupling:
    """Forced-uniform trajectories: kernel == raster moves, per class."""

    def _pair(self, shape, seed):
        lx, ly, T = shape
        a = make(lx, ly, n_slices=T, seed=seed)
        b = make(lx, ly, n_slices=T, seed=seed, cls=RasterSquareQmc)
        for q in (a, b):
            run_chain(q, ("energy",), 3, mode="scalar")  # identical legal start
        assert np.array_equal(a.spins, b.spins)
        return a, b

    def test_segment_kernel_equals_scalar_moves(self, shape):
        a, b = self._pair(shape, seed=41)
        a.stream = ForcedStream(0.0)
        b.stream = ForcedStream(0.0)
        for row in a._corner_tables:
            run_rows(a, corner=[row])
            bonds, t0s = square_corner_moves(b, row[-1])
            for bond in np.unique(bonds):
                b.segment_flip_class(int(bond), t0s[bonds == bond])
            assert np.array_equal(a.spins, b.spins), "kernel != scalar"
        assert a.n_attempted == b.n_attempted
        assert a.n_accepted == b.n_accepted
        a.check_invariants()

    def test_column_kernel_equals_scalar_moves(self, shape):
        a, b = self._pair(shape, seed=43)
        a.stream = ForcedStream(0.0)
        b.stream = ForcedStream(0.0)
        for row in a._column_tables:
            run_rows(a, column=[row])
            for site in row[1]:
                b.attempt_column_flip(int(site))
            assert np.array_equal(a.spins, b.spins)
        assert a.n_attempted == b.n_attempted
        a.check_invariants()

    def test_uniform_one_is_greedy_ascent(self, shape):
        # u = 1 accepts only strictly uphill proposals, so the sweep
        # can never lower the configuration weight.
        a, _ = self._pair(shape, seed=47)
        logw = a.config_log_weight()
        a.stream = ForcedStream(1.0)
        for _ in range(3):
            a.sweep("numpy")
            new_logw = a.config_log_weight()
            assert new_logw >= logw - 1e-9
            logw = new_logw
        a.check_invariants()


class TestWindingEstimator:
    def test_neel_has_zero_winding(self):
        assert make().winding_numbers() == (0, 0)

    def test_hand_built_wound_line(self):
        """A single world line hopping once around the x axis: legal
        configuration, winding (1, 0)."""
        q = make(4, 4, n_slices=32, jz=1.0, jxy=1.0)
        lat = q.lattice
        s = np.zeros_like(q.spins)
        occupancy = {
            lat.site(0, 0): [0, *range(14, 32)],
            lat.site(1, 0): range(1, 6),
            lat.site(2, 0): range(6, 9),
            lat.site(3, 0): range(9, 14),
        }
        for site, ts in occupancy.items():
            for t in ts:
                s[site, t] = 1
        q.spins = s
        assert np.isfinite(q.config_log_weight())
        assert q.winding_numbers() == (1, 0)
        with pytest.raises(AssertionError, match="winding sector"):
            q.check_invariants()

    def test_corrupted_configuration_caught(self):
        q = make(seed=5)
        run_chain(q, ("energy",), 10, mode="vectorized")
        q.spins[0, 0] ^= 1
        with pytest.raises(AssertionError):
            q.check_invariants()


@pytest.mark.slow
class TestInvariantConfinement:
    @pytest.mark.parametrize(
        "shape", [(4, 4, 16), (8, 4, 16), (4, 4, 12), (4, 8, 24)]
    )
    def test_long_vectorized_runs_stay_in_sector(self, shape):
        lx, ly, T = shape
        q = make(lx, ly, beta=1.0, n_slices=T, seed=lx + ly + T)
        meas = run_chain(q, ("energy",), 400, n_thermalize=0, mode="vectorized")
        q.check_invariants()  # legality + slice magnetization + winding
        assert 0.0 < q.acceptance_rate < 1.0
        assert np.all(np.isfinite(meas["energy"]))

    def test_long_scalar_run_matches_invariants_too(self):
        q = make(4, 4, beta=1.0, n_slices=12, seed=9)
        run_chain(q, ("energy",), 150, mode="scalar")
        q.check_invariants()


@pytest.mark.slow
class TestStatisticalAgreement:
    """Per-move vs batched vs momentum-blocked ED on 4x4.

    The local move set is confined to the zero-winding sector while the
    exact trace sums all sectors; at beta = 1/2 that bias was measured
    at ~ +0.15 on E (and negligible on m_stag^2), so the ED comparisons
    carry a documented systematic allowance on top of 3 sigma.  The
    scalar/vectorized cross-check samples identical ensembles and gets
    no allowance.
    """

    BETA, T = 0.5, 16

    @pytest.fixture(scope="class")
    def reference(self):
        return MomentumBlockED(XXZSquareModel(4, 4)).thermal(self.BETA)

    @pytest.fixture(scope="class")
    def runs(self):
        out = {}
        for mode, n_sweeps, seed in (
            ("vectorized", 6000, 101),
            ("scalar", 1500, 103),
        ):
            q = make(4, 4, beta=self.BETA, n_slices=self.T, seed=seed)
            meas = run_chain(q, ("energy", "m_stag_sq"), n_sweeps,
                             n_thermalize=n_sweeps // 10, mode=mode)
            out[mode] = (
                BinningAnalysis.from_series(meas["energy"]),
                BinningAnalysis.from_series(meas["m_stag_sq"]),
            )
            q.check_invariants()
        return out

    def test_modes_agree_with_each_other(self, runs):
        for i, label in ((0, "energy"), (1, "m_stag_sq")):
            v, s = runs["vectorized"][i], runs["scalar"][i]
            err = float(np.hypot(v.error, s.error))
            assert_within(v.mean, s.mean, err, n_sigma=3.0,
                          label=f"scalar vs vectorized {label}")

    @pytest.mark.parametrize("mode", ["vectorized", "scalar"])
    def test_modes_agree_with_ed(self, runs, reference, mode):
        be, bm = runs[mode]
        # Winding-sector + Trotter allowance on E: measured ~ +0.15 at
        # this (beta, dtau); 0.3 still trips on any genuine weight bug.
        assert_within(be.mean, reference.energy, be.error, n_sigma=3.0,
                      atol=0.3, label=f"{mode} energy vs ED")
        assert_within(bm.mean, reference.m_stag_sq, bm.error, n_sigma=3.0,
                      atol=0.003, label=f"{mode} m_stag_sq vs ED")
        n = 16
        assert_within(
            n * bm.mean,
            reference.staggered_structure_factor(n),
            n * bm.error,
            n_sigma=3.0,
            atol=n * 0.003,
            label=f"{mode} S(pi,pi) vs ED",
        )
