"""Tests for the vectorized checkerboard classical Ising sampler."""

import itertools

import numpy as np
import pytest

from repro.models.ising_exact import onsager_energy_per_site
from repro.qmc.classical_ising import AnisotropicIsing
from repro.qmc.chains import run_chain


class TestConstruction:
    def test_odd_extent_rejected(self):
        with pytest.raises(ValueError):
            AnisotropicIsing((5, 4), (1.0, 1.0))

    def test_coupling_count_mismatch(self):
        with pytest.raises(ValueError):
            AnisotropicIsing((4, 4), (1.0,))

    def test_inert_axis_requires_zero_coupling(self):
        AnisotropicIsing((4, 1, 4), (1.0, 0.0, 1.0))  # ok
        with pytest.raises(ValueError, match="zero coupling"):
            AnisotropicIsing((4, 1, 4), (1.0, 0.5, 1.0))

    def test_cold_and_hot_start(self):
        cold = AnisotropicIsing((4, 4), (0.5, 0.5))
        assert np.all(cold.spins == 1)
        hot = AnisotropicIsing((8, 8), (0.5, 0.5), hot_start=True, seed=1)
        assert set(np.unique(hot.spins)) == {-1, 1}


class TestLocalField:
    def test_aligned_lattice_field(self):
        s = AnisotropicIsing((4, 4), (0.3, 0.7))
        # All spins +1: field = 2*(0.3 + 0.7) everywhere.
        np.testing.assert_allclose(s.local_field(), 2.0)

    def test_single_flip_field(self):
        s = AnisotropicIsing((4, 4), (1.0, 0.0))
        s.spins[0, 0] = -1
        f = s.local_field()
        # Neighbors of (0,0) along x lose 2 each.
        assert f[1, 0] == pytest.approx(0.0)
        assert f[3, 0] == pytest.approx(0.0)
        assert f[2, 0] == pytest.approx(2.0)


class TestSweep:
    def test_zero_coupling_is_random_flips(self):
        s = AnisotropicIsing((8, 8), (0.0, 0.0), seed=2)
        for _ in range(5):
            s.sweep()
        # Free spins: every proposal accepted.
        assert s.acceptance_rate == pytest.approx(1.0)

    def test_strong_coupling_freezes(self):
        s = AnisotropicIsing((8, 8), (10.0, 10.0), seed=3)
        for _ in range(5):
            s.sweep()
        assert np.all(s.spins == 1)

    def test_uniforms_shape_checked(self):
        s = AnisotropicIsing((4, 4), (0.5, 0.5))
        with pytest.raises(ValueError):
            s.sweep(uniforms=np.zeros((2, 2)))

    def test_supplied_uniforms_reproducible(self):
        a = AnisotropicIsing((6, 6), (0.4, 0.4), hot_start=True, seed=5)
        b = AnisotropicIsing((6, 6), (0.4, 0.4), hot_start=True, seed=5)
        u = np.random.default_rng(0).random((6, 6))
        a.sweep(uniforms=u)
        b.sweep(uniforms=u)
        np.testing.assert_array_equal(a.spins, b.spins)


class TestObservables:
    def test_bond_sums_aligned(self):
        s = AnisotropicIsing((4, 6), (1.0, 1.0))
        assert s.bond_sum(0) == 24  # one x-bond per site
        assert s.bond_sum(1) == 24

    def test_reduced_energy_aligned(self):
        s = AnisotropicIsing((4, 4), (0.5, 0.25))
        assert s.reduced_energy() == pytest.approx(-(0.5 * 16 + 0.25 * 16))

    def test_magnetization(self):
        s = AnisotropicIsing((4, 4), (0.0, 0.0))
        assert s.magnetization() == 1.0
        s.spins[:2] = -1
        assert s.magnetization() == 0.0

    def test_run_returns_series(self):
        s = AnisotropicIsing((4, 4), (0.2, 0.2), seed=7)
        obs = run_chain(s, ("magnetization", "bond_sums"), 20, n_thermalize=5,
                        measure_every=2)
        assert obs["magnetization"].shape == (10,)
        assert obs["bond_sums"].shape == (10, 2)
        assert np.all(np.abs(obs["magnetization"]) <= 1.0)


class TestExactDistributionTinyLattice:
    def test_2x2_boltzmann_distribution(self):
        """Empirical stationary distribution on a 2x2 lattice vs exact.

        The strongest possible correctness check of the update rule:
        every one of the 16 configurations must appear with its exact
        Boltzmann probability.  Note the 2x2 periodic lattice double
        counts bonds (both neighbors along an axis coincide), which the
        sampler and this enumeration treat identically.
        """
        k = (0.25, 0.15)
        s = AnisotropicIsing((2, 2), k, seed=11, hot_start=True)

        def reduced_energy(spins):
            e = 0.0
            for a in range(2):
                e -= k[a] * np.sum(spins * np.roll(spins, -1, axis=a))
            return e

        # exact probabilities
        weights = {}
        for bits in itertools.product((-1, 1), repeat=4):
            cfg = np.array(bits, dtype=np.int8).reshape(2, 2)
            weights[bits] = np.exp(-reduced_energy(cfg))
        z = sum(weights.values())

        counts = {b: 0 for b in weights}
        n = 40000
        for _ in range(n):
            s.sweep()
            counts[tuple(s.spins.ravel().tolist())] += 1
        for bits, w in weights.items():
            p_exact = w / z
            p_emp = counts[bits] / n
            # ~4 sigma multinomial window (+ small autocorrelation slack)
            sigma = np.sqrt(p_exact * (1 - p_exact) / n)
            assert abs(p_emp - p_exact) < 6 * sigma + 0.004, (
                f"config {bits}: {p_emp:.4f} vs {p_exact:.4f}"
            )


@pytest.mark.slow
class TestOnsagerValidation:
    def test_energy_above_tc(self):
        beta = 0.3  # T ~ 3.33 > Tc: fast mixing
        s = AnisotropicIsing((16, 16), (beta, beta), seed=13, hot_start=True)
        bonds = run_chain(s, ("bond_sums",), 4000, n_thermalize=500)["bond_sums"]
        # energy per site = -(bx + by)/N (J=1).
        e_mean = float(np.mean(-(bonds[:, 0] + bonds[:, 1]) / 256))
        ref = onsager_energy_per_site(beta)
        # Finite-size corrections at L=16 above Tc are small (<1%).
        assert e_mean == pytest.approx(ref, abs=0.03)

    def test_magnetization_below_tc(self):
        from repro.models.ising_exact import onsager_spontaneous_magnetization

        beta = 0.6  # well below Tc: ordered
        s = AnisotropicIsing((16, 16), (beta, beta), seed=17)
        obs = run_chain(s, ("abs_magnetization",), 3000, n_thermalize=500)
        m = float(np.mean(obs["abs_magnetization"]))
        assert m == pytest.approx(onsager_spontaneous_magnetization(beta), abs=0.02)
