"""Tests for the world-line XXZ sampler.

Statistical validations compare against the *matrix-product Trotter
reference* (the exact quantity the sampler estimates at finite dtau),
so the acceptance windows are purely statistical.
"""

import numpy as np
import pytest

from repro.models.hamiltonians import XXZChainModel
from repro.models.trotter_ref import trotter_reference_energy
from repro.qmc.parallel import run_chain
from repro.qmc.worldline import WorldlineChainQmc
from repro.stats.binning import BinningAnalysis
from repro.stats.finite_size import susceptibility

from tests.conftest import assert_within
from tests.qmc.raster_reference import RasterChainQmc


def make(n_sites=4, beta=1.0, n_slices=8, periodic=False, jz=1.0, jxy=1.0, seed=0,
         cls=WorldlineChainQmc):
    model = XXZChainModel(n_sites=n_sites, jz=jz, jxy=jxy, periodic=periodic)
    return cls(model, beta=beta, n_slices=n_slices, seed=seed)


class TestConstruction:
    def test_geometry(self):
        q = make(n_sites=6, n_slices=12)
        assert q.n_trotter == 6
        assert q.dtau == pytest.approx(1.0 / 6.0)
        assert q.spins.shape == (6, 12)

    def test_neel_start_is_legal(self):
        q = make()
        assert np.isfinite(q.config_log_weight())
        q.check_invariants()

    def test_field_rejected(self):
        model = XXZChainModel(n_sites=4, field=0.5, periodic=False)
        with pytest.raises(ValueError, match="zero field"):
            WorldlineChainQmc(model, 1.0, 8)

    def test_odd_slices_rejected(self):
        with pytest.raises(ValueError):
            make(n_slices=7)

    def test_vectorization_guard(self):
        assert make(n_sites=8, periodic=True, n_slices=8).can_vectorize
        assert not make(n_sites=4, periodic=False).can_vectorize
        with pytest.raises(ValueError, match="vectorized sweep needs"):
            make(n_sites=4, periodic=False).sweep("numpy")


class TestMoves:
    def test_corner_flip_preserves_legality(self):
        q = make(seed=3, cls=RasterChainQmc)
        for _ in range(60):
            q.sweep_scalar()
            q.check_invariants()

    def test_shaded_plaquette_rejected_as_move_target(self):
        q = make(cls=RasterChainQmc)
        with pytest.raises(ValueError, match="shaded"):
            q.attempt_corner_flip(0, 0)  # (0+0) even = shaded

    def test_no_open_chain_edge_flip_is_ever_legal(self):
        """Why the move set has no edge move: flipping a boundary site on
        the two slices around its free interval [t, t+1] changes one
        corner of the shaded plaquette (bond, t-1) below it, so S^z is no
        longer conserved there.  Exhaustively, on the open 4-site chain
        at T = 4: no legal configuration has a legal edge flip."""
        q = make(n_sites=4, n_slices=4)
        L, T = q.L, q.n_slices
        configs = ((np.arange(2 ** (L * T))[:, None] >> np.arange(L * T)) & 1)

        def legal(flat):
            s = flat[:, q._shaded]  # (n, 4 corners, shaded plaquettes)
            codes = s[:, 0] + 2 * s[:, 1] + 4 * s[:, 2] + 8 * s[:, 3]
            return (q.table.weights[codes] > 0).all(axis=1)

        start = configs[legal(configs)]
        assert len(start) > 100
        n_moves = 0
        for site, bond in ((0, 0), (L - 1, L - 2)):
            for t in range(T):
                if (bond + t) % 2 == 0:
                    continue  # the site's bond is active: not a free interval
                flipped = start.copy()
                flipped[:, [site * T + t, site * T + (t + 1) % T]] ^= 1
                assert not legal(flipped).any(), (site, t)
                n_moves += 1
        assert n_moves == 4

    def test_column_flip_requires_straight_line(self):
        q = make(seed=5, cls=RasterChainQmc)
        # Kink up a configuration, find a non-straight column.
        for _ in range(30):
            q.sweep_scalar()
        bent = [i for i in range(q.L) if q.spins[i].min() != q.spins[i].max()]
        if bent:
            assert q.attempt_column_flip(bent[0]) is False

    def test_column_flip_changes_magnetization(self):
        q = make(seed=1, cls=RasterChainQmc)
        before = q.magnetization()
        # Columns start straight (Neel): a successful flip moves M by 1.
        moved = q.attempt_column_flip(0)
        if moved:
            assert abs(q.magnetization() - before) == pytest.approx(1.0)

    def test_acceptance_rate_reasonable(self):
        q = make(beta=0.5, seed=2)
        for _ in range(100):
            q.sweep()
        assert 0.02 < q.acceptance_rate < 0.9


class TestDetailedBalanceProperty:
    def test_corner_flip_acceptance_matches_weight_ratio(self):
        # For each accepted/rejected proposal the weight ratio computed
        # from config_log_weight (global) must equal the local ratio the
        # sampler used -- run moves manually and cross-check.
        q = make(seed=7, cls=RasterChainQmc)
        rng = np.random.default_rng(0)
        for _ in range(40):
            i = int(rng.integers(0, q.n_bonds))
            t = int(rng.integers(0, q.n_slices))
            if (i + t) % 2 == 0:
                continue
            lw_before = q.config_log_weight()
            spins_before = q.spins.copy()
            moved = q.attempt_corner_flip(i, t)
            lw_after = q.config_log_weight()
            if moved:
                assert np.isfinite(lw_after)
            else:
                np.testing.assert_array_equal(q.spins, spins_before)
                assert lw_after == pytest.approx(lw_before)


class TestEstimators:
    def test_energy_estimate_finite(self):
        q = make()
        assert np.isfinite(q.energy_estimate())

    def test_magnetization_neel_is_zero(self):
        assert make().magnetization() == 0.0

    def test_szsz_r0_is_quarter(self):
        q = make(seed=4)
        for _ in range(20):
            q.sweep()
        assert q.szsz_correlation()[0] == pytest.approx(0.25)

    def test_staggered_magnetization_of_neel(self):
        q = make()
        assert q.staggered_magnetization_sq() == pytest.approx(0.25)


@pytest.mark.slow
class TestValidationAgainstTrotterReference:
    def test_open_chain_energy(self):
        model = XXZChainModel(n_sites=4, periodic=False)
        beta, n_slices = 1.0, 8
        q = WorldlineChainQmc(model, beta, n_slices, seed=11)
        meas = run_chain(q, ("energy",), 6000, n_thermalize=500)
        ba = BinningAnalysis.from_series(meas["energy"])
        ref = trotter_reference_energy(model, beta, n_slices // 2)
        assert_within(ba.mean, ref, ba.error, n_sigma=4.5, label="open-chain E")

    def test_periodic_chain_energy_vectorized(self):
        model = XXZChainModel(n_sites=8, periodic=True)
        beta, n_slices = 0.5, 8
        q = WorldlineChainQmc(model, beta, n_slices, seed=13)
        assert q.can_vectorize
        meas = run_chain(q, ("energy",), 5000, n_thermalize=400)
        ba = BinningAnalysis.from_series(meas["energy"])
        ref = trotter_reference_energy(model, beta, n_slices // 2)
        # Winding sectors are absent from the sampler; at L=8, beta=0.5
        # the bias is far below the statistical resolution.
        assert_within(ba.mean, ref, ba.error, n_sigma=4.5, label="PBC E")

    def test_xxz_anisotropy(self):
        model = XXZChainModel(n_sites=4, jz=0.5, jxy=1.0, periodic=False)
        q = WorldlineChainQmc(model, 1.0, 8, seed=17)
        meas = run_chain(q, ("energy",), 6000, n_thermalize=500)
        ba = BinningAnalysis.from_series(meas["energy"])
        ref = trotter_reference_energy(model, 1.0, 4)
        assert_within(ba.mean, ref, ba.error, n_sigma=4.5, label="XXZ E")

    def test_scalar_and_vectorized_agree(self):
        """The table sweep against the raster reference sweep."""
        model = XXZChainModel(n_sites=4, periodic=True)
        qv = WorldlineChainQmc(model, 0.5, 8, seed=19)
        qs = RasterChainQmc(model, 0.5, 8, seed=23)
        ev, es = [], []
        for _ in range(300):
            qv.sweep("numpy")
        for _ in range(3000):
            qv.sweep("numpy")
            ev.append(qv.energy_estimate())
        for _ in range(300):
            qs.sweep_scalar()
        for _ in range(3000):
            qs.sweep_scalar()
            es.append(qs.energy_estimate())
        bv = BinningAnalysis.from_series(np.array(ev))
        bs = BinningAnalysis.from_series(np.array(es))
        err = np.hypot(bv.error, bs.error)
        assert_within(bv.mean, bs.mean, err, n_sigma=4.5,
                      label="scalar vs vectorized")

    def test_susceptibility_against_ed(self):
        from repro.models.ed import ExactDiagonalization

        model = XXZChainModel(n_sites=4, periodic=False)
        beta = 0.5
        ed = ExactDiagonalization(model.build_sparse(), 4)
        chi_ref = ed.thermal(beta).susceptibility
        q = WorldlineChainQmc(model, beta, 12, seed=29)
        meas = run_chain(q, ("magnetization",), 8000, n_thermalize=500)
        chi = susceptibility(meas["magnetization"], beta, 4)
        # Trotter bias on chi is O(dtau^2) ~ 1%; allow combined window.
        assert chi == pytest.approx(chi_ref, abs=0.15 * chi_ref)


@pytest.mark.slow
class TestImaginaryTimeCorrelation:
    def test_matches_ed(self):
        """G(tau) = <Sz_i(tau) Sz_i(0)> vs the exact spectral formula."""
        from repro.models.ed import ExactDiagonalization

        model = XXZChainModel(n_sites=4, periodic=False)
        ed = ExactDiagonalization(model.build_sparse(), 4)
        beta, n_slices = 1.0, 16
        q = WorldlineChainQmc(model, beta, n_slices, seed=2)
        samples = []
        for _ in range(400):
            q.sweep()
        for _ in range(3000):
            q.sweep()
            samples.append(q.szsz_time_correlation())
        g = np.mean(samples, axis=0)
        err = np.std(samples, axis=0, ddof=1) / np.sqrt(len(samples))
        assert g[0] == pytest.approx(0.25)
        for k in (2, 4, 8):
            tau = k * beta / n_slices
            g_ed = np.mean(
                [ed.imaginary_time_correlation_zz(i, tau, beta) for i in range(4)]
            )
            # Correlated samples: inflate the naive error generously.
            assert abs(float(g[k]) - g_ed) < 10 * float(err[k]) + 0.003, f"k={k}"

    def test_symmetric_around_beta_half(self):
        # G(tau) = G(beta - tau) for Hermitian Sz: the slice correlator
        # at separation k equals the one at T - k by construction of the
        # periodic trace -- check the ED formula's symmetry instead.
        from repro.models.ed import ExactDiagonalization

        model = XXZChainModel(n_sites=4, periodic=False)
        ed = ExactDiagonalization(model.build_sparse(), 4)
        beta = 1.3
        a = ed.imaginary_time_correlation_zz(1, 0.3, beta)
        b = ed.imaginary_time_correlation_zz(1, beta - 0.3, beta)
        assert a == pytest.approx(b, rel=1e-10)

    def test_monotone_decay_to_beta_half(self):
        from repro.models.ed import ExactDiagonalization

        model = XXZChainModel(n_sites=4, periodic=False)
        ed = ExactDiagonalization(model.build_sparse(), 4)
        beta = 1.0
        taus = [0.0, 0.2, 0.4, 0.5]
        vals = [ed.imaginary_time_correlation_zz(0, t, beta) for t in taus]
        assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))


class TestCorrelationFastPaths:
    """The FFT measurement paths must reproduce the roll loops exactly."""

    def _randomized(self, periodic):
        q = make(n_sites=8, n_slices=16, periodic=periodic, seed=71)
        for _ in range(40):
            q.sweep()
        return q

    def test_szsz_fft_equals_loop_periodic(self):
        q = self._randomized(periodic=True)
        np.testing.assert_allclose(
            q.szsz_correlation(method="fft"),
            q.szsz_correlation(method="loop"),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            q.szsz_correlation(method="auto"),
            q.szsz_correlation(method="loop"),
            atol=1e-12,
        )

    def test_szsz_open_uses_loop(self):
        q = self._randomized(periodic=False)
        np.testing.assert_allclose(
            q.szsz_correlation(method="auto"),
            q.szsz_correlation(method="loop"),
            atol=1e-12,
        )
        with pytest.raises(ValueError, match="periodic"):
            q.szsz_correlation(method="fft")

    @pytest.mark.parametrize("periodic", [True, False])
    def test_time_correlation_fft_equals_loop(self, periodic):
        # Imaginary time is periodic regardless of the spatial geometry.
        q = self._randomized(periodic=periodic)
        np.testing.assert_allclose(
            q.szsz_time_correlation(method="fft"),
            q.szsz_time_correlation(method="loop"),
            atol=1e-12,
        )

    def test_unknown_method_rejected(self):
        q = self._randomized(periodic=True)
        with pytest.raises(ValueError, match="method"):
            q.szsz_correlation(method="rolls")


class TestPinnedTrajectories:
    """Fixed-seed trajectories recorded at the commit *before* the sweep
    became table-driven over the strip ops: restructuring the sampler
    must not move a single accept decision or RNG draw.

    The digest covers the final spins, the Metropolis counts and the
    energy / staggered-magnetization series (energies rounded to 1e-9
    so a last-ulp ``log`` difference between hosts cannot trip it).
    """

    # (L, T, beta, jz, periodic), on the batched numpy op's grid, sha256
    PINNED = [
        ((64, 16, 1.0, 1.0, True), True,
         "2900900611d9e51ac46fc202ebf34cc285c47ebb8bc8370e5f5ca48abfd64f36"),
        ((8, 8, 0.5, 1.0, True), True,
         "ff9850300f543cdee84123e9d19698781282b1ca1e0b98a88eccea2037486e16"),
        ((16, 32, 2.0, 0.5, True), True,
         "cf3ec0078dc498ccecacad3e5cb8269de4a4a60dc30f7112d9e2ebe03811b51c"),
        # L % 4 != 0 and an open chain: mode="auto" runs the per-move
        # loops over the tables there.  Re-pinned when those replaced
        # the raster reference sweep, which had a trajectory of its own.
        ((10, 8, 1.0, 1.0, True), False,
         "79d48511faabaa68977e0ea2495ffb1aeda6e317e70c2d50d8d72a58c182fe1e"),
        ((6, 8, 1.0, 1.0, False), False,
         "46e3852f975f4c9ca5eab3f148767f5918695f8015f7fad3570b270a4a8f0511"),
    ]

    @pytest.mark.parametrize("case, vectorizes, pinned", PINNED)
    def test_digest_unchanged(self, case, vectorizes, pinned):
        import hashlib

        L, T, beta, jz, periodic = case
        q = make(n_sites=L, n_slices=T, beta=beta, jz=jz, periodic=periodic, seed=11)
        assert q.can_vectorize == vectorizes
        meas = run_chain(q, ("energy", "m_stag_sq"), 40, n_thermalize=10, mode="auto")
        h = hashlib.sha256()
        h.update(q.spins.tobytes())
        h.update(np.round(meas["energy"], 9).tobytes())
        h.update(meas["m_stag_sq"].tobytes())
        h.update(repr((q.n_attempted, q.n_accepted)).encode())
        assert h.hexdigest() == pinned
