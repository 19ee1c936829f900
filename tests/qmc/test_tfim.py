"""Tests for the TFIM quantum-classical mapping sampler."""

import numpy as np
import pytest

from repro.models.ed import ExactDiagonalization
from repro.models.hamiltonians import TFIM1D, TFIM2D
from repro.qmc.tfim import (
    TfimQmc,
    tfim_energy_from_bond_sums,
    tfim_sigma_x_from_time_bonds,
)
from repro.qmc.chains import run_chain
from repro.stats.binning import BinningAnalysis
from repro.stats.finite_size import binder_cumulant

from tests.conftest import assert_within


class TestConstruction:
    def test_couplings(self):
        q = TfimQmc((8,), j=1.0, gamma=0.5, beta=2.0, n_slices=16)
        assert q.dtau == pytest.approx(0.125)
        assert q.k_space == pytest.approx(0.125)
        assert q.k_tau == pytest.approx(-0.5 * np.log(np.tanh(0.0625)))
        assert q.k_tau > 0

    def test_classical_lattice_shape(self):
        assert TfimQmc((4,), 1, 1, 1.0, 8).spins.shape == (4, 8)
        assert TfimQmc((4, 6), 1, 1, 1.0, 8).spins.shape == (4, 6, 8)

    def test_zero_gamma_rejected(self):
        with pytest.raises(ValueError, match="Gamma > 0"):
            TfimQmc((4,), 1.0, 0.0, 1.0, 8)

    def test_odd_slices_rejected(self):
        with pytest.raises(ValueError):
            TfimQmc((4,), 1.0, 1.0, 1.0, 7)

    def test_3d_rejected(self):
        with pytest.raises(ValueError):
            TfimQmc((4, 4, 4), 1.0, 1.0, 1.0, 8)


class TestEstimatorFunctions:
    def test_sigma_x_bounds(self):
        # All-equal time bonds -> tanh; all-unequal -> coth.
        x = 0.1 * 1.0
        assert tfim_sigma_x_from_time_bonds(100, 100, 1.0, 0.1) == pytest.approx(
            np.tanh(x)
        )
        assert tfim_sigma_x_from_time_bonds(-100, 100, 1.0, 0.1) == pytest.approx(
            1 / np.tanh(x)
        )

    def test_energy_decreases_with_space_alignment(self):
        base = dict(n_sites=8, n_slices=16, j=1.0, gamma=1.0, dtau=0.1)
        e_aligned = tfim_energy_from_bond_sums(128, 100, **base)
        e_random = tfim_energy_from_bond_sums(0, 100, **base)
        assert e_aligned < e_random


@pytest.mark.slow
class TestValidationAgainstED:
    @pytest.mark.parametrize("gamma", [0.6, 1.0, 1.4])
    def test_energy_matches_ed(self, gamma):
        n, beta, m = 8, 2.0, 32
        ed = ExactDiagonalization(TFIM1D(n_sites=n, gamma=gamma).build_sparse(), n)
        ref = ed.thermal(beta).energy
        q = TfimQmc((n,), j=1.0, gamma=gamma, beta=beta, n_slices=m, seed=31)
        meas = run_chain(q, ("energy",), 5000, n_thermalize=500)
        ba = BinningAnalysis.from_series(meas["energy"])
        # Trotter bias at dtau=1/16 is below ~0.5% of |E|.
        assert_within(ba.mean, ref, ba.error, n_sigma=4.5, atol=0.01 * abs(ref),
                      label=f"TFIM E (gamma={gamma})")

    def test_sigma_x_matches_ed(self):
        n, beta, gamma, m = 8, 2.0, 0.8, 32
        # ED <sigma^x> via free-energy derivative.
        eps = 1e-5
        f = lambda g: -ExactDiagonalization(
            TFIM1D(n_sites=n, gamma=g).build_sparse(), n
        ).log_partition(beta) / beta
        ref = -(f(gamma + eps) - f(gamma - eps)) / (2 * eps) / n
        q = TfimQmc((n,), j=1.0, gamma=gamma, beta=beta, n_slices=m, seed=37)
        meas = run_chain(q, ("sigma_x",), 5000, n_thermalize=500)
        ba = BinningAnalysis.from_series(meas["sigma_x"])
        assert_within(ba.mean, ref, ba.error, n_sigma=4.5, atol=0.01 * ref,
                      label="TFIM sigma_x")

    def test_2d_energy_matches_ed(self):
        lx, ly, beta, gamma, m = 2, 4, 1.5, 1.2, 24
        ham = TFIM2D(lx=lx, ly=ly, gamma=gamma).build_sparse()
        ed = ExactDiagonalization(ham, lx * ly)
        ref = ed.thermal(beta).energy
        q = TfimQmc((lx, ly), j=1.0, gamma=gamma, beta=beta, n_slices=m, seed=41)
        meas = run_chain(q, ("energy",), 4000, n_thermalize=400)
        ba = BinningAnalysis.from_series(meas["energy"])
        assert_within(ba.mean, ref, ba.error, n_sigma=4.5, atol=0.015 * abs(ref),
                      label="TFIM 2D E")

    def test_free_fermion_large_chain(self):
        from repro.models.tfim_exact import tfim_finite_temperature_energy

        n, beta, gamma, m = 32, 1.0, 1.0, 16
        ref = tfim_finite_temperature_energy(n, beta, 1.0, gamma)
        q = TfimQmc((n,), j=1.0, gamma=gamma, beta=beta, n_slices=m, seed=43)
        meas = run_chain(q, ("energy",), 4000, n_thermalize=400)
        ba = BinningAnalysis.from_series(meas["energy"])
        # dtau = 1/16: Trotter bias ~1%; critical chain so allow wide.
        assert_within(ba.mean, ref, ba.error, n_sigma=5.0, atol=0.02 * abs(ref),
                      label="TFIM L=32 E")


class TestOrderParameter:
    def test_ordered_phase_magnetized(self):
        q = TfimQmc((16,), j=1.0, gamma=0.2, beta=8.0, n_slices=32, seed=47)
        meas = run_chain(q, ("abs_magnetization",), 800, n_thermalize=200)
        assert np.mean(meas["abs_magnetization"]) > 0.8

    def test_disordered_phase_unmagnetized(self):
        q = TfimQmc((16,), j=1.0, gamma=4.0, beta=8.0, n_slices=32, seed=53)
        meas = run_chain(q, ("abs_magnetization",), 800, n_thermalize=200)
        assert np.mean(meas["abs_magnetization"]) < 0.4

    def test_binder_cumulant_bounds(self):
        q = TfimQmc((8,), j=1.0, gamma=1.0, beta=4.0, n_slices=16, seed=59)
        meas = run_chain(q, ("m_squared",), 500, n_thermalize=100)
        u4 = binder_cumulant(np.sqrt(meas["m_squared"]))
        assert -1.0 <= u4 <= 2.0 / 3.0 + 1e-9

    def test_spin_correlation_decays(self):
        q = TfimQmc((16,), j=1.0, gamma=2.0, beta=4.0, n_slices=16, seed=61)
        for _ in range(300):
            q.sweep()
        c = q.spin_correlation()
        assert c[0] == pytest.approx(1.0)
        assert c[len(c) - 1] < c[1]


class TestCorrelationFastPath:
    @pytest.mark.parametrize("shape,axis", [((8,), 0), ((6, 4), 0), ((6, 4), 1)])
    def test_fft_equals_loop(self, shape, axis):
        q = TfimQmc(shape, j=1.0, gamma=1.5, beta=2.0, n_slices=8, seed=67)
        for _ in range(30):
            q.sweep()
        np.testing.assert_allclose(
            q.spin_correlation(axis=axis, method="fft"),
            q.spin_correlation(axis=axis, method="loop"),
            atol=1e-12,
        )

    def test_unknown_method_rejected(self):
        q = TfimQmc((8,), j=1.0, gamma=1.0, beta=1.0, n_slices=8, seed=3)
        with pytest.raises(ValueError, match="method"):
            q.spin_correlation(method="rolls")
