"""Tests for Swendsen--Wang cluster updates."""

import itertools

import numpy as np
import pytest

from repro.models.ising_exact import (
    onsager_critical_temperature,
    onsager_spontaneous_magnetization,
)
from repro.qmc.classical_ising import AnisotropicIsing
from repro.qmc.cluster import SwendsenWangIsing
from repro.qmc.parallel import run_chain
from repro.stats.autocorr import integrated_autocorr_time


class TestConstruction:
    def test_inherits_validation(self):
        with pytest.raises(ValueError):
            SwendsenWangIsing((5, 4), (1.0, 1.0))

    def test_activation_probabilities(self):
        s = SwendsenWangIsing((4, 4), (0.5, 0.0))
        assert s._p_activate[0] == pytest.approx(1 - np.exp(-1.0))
        assert s._p_activate[1] == 0.0


class TestClusterSweep:
    def test_zero_coupling_gives_singleton_clusters(self):
        s = SwendsenWangIsing((6, 6), (0.0, 0.0), seed=1)
        n = s.cluster_sweep()
        assert n == 36
        assert s.mean_cluster_size() == pytest.approx(1.0)

    def test_strong_coupling_gives_one_cluster(self):
        s = SwendsenWangIsing((6, 6), (10.0, 10.0), seed=2)
        n = s.cluster_sweep()
        assert n == 1
        # Single cluster: spins stay globally aligned (up or down).
        assert abs(s.magnetization()) == 1.0

    def test_inert_axis_supported(self):
        s = SwendsenWangIsing((6, 1, 4), (0.5, 0.0, 0.5), seed=3)
        s.sweep()
        assert s.spins.shape == (6, 1, 4)

    def test_spins_remain_pm_one(self):
        s = SwendsenWangIsing((4, 4), (0.4, 0.4), seed=4)
        for _ in range(10):
            s.sweep()
        assert set(np.unique(s.spins)) <= {-1, 1}

    def test_mix_local_runs(self):
        s = SwendsenWangIsing((4, 4), (0.4, 0.4), seed=5, mix_local=True)
        for _ in range(5):
            s.sweep()
        assert s.n_attempted > 0


class TestExactDistribution:
    def test_2x2_boltzmann(self):
        """SW must sample the same Boltzmann distribution as Metropolis."""
        k = (0.3, 0.2)
        s = SwendsenWangIsing((2, 2), k, seed=11, hot_start=True)

        def reduced_energy(spins):
            e = 0.0
            for a in range(2):
                e -= k[a] * np.sum(spins * np.roll(spins, -1, axis=a))
            return e

        weights = {}
        for bits in itertools.product((-1, 1), repeat=4):
            cfg = np.array(bits, dtype=np.int8).reshape(2, 2)
            weights[bits] = np.exp(-reduced_energy(cfg))
        z = sum(weights.values())

        counts = {b: 0 for b in weights}
        n = 30000
        for _ in range(n):
            s.sweep()
            counts[tuple(s.spins.ravel().tolist())] += 1
        for bits, w in weights.items():
            p_exact = w / z
            p_emp = counts[bits] / n
            sigma = np.sqrt(p_exact * (1 - p_exact) / n)
            assert abs(p_emp - p_exact) < 6 * sigma + 0.004


@pytest.mark.slow
class TestPhysicsAndEfficiency:
    def test_magnetization_matches_onsager(self):
        beta = 0.6
        s = SwendsenWangIsing((16, 16), (beta, beta), seed=13)
        obs = run_chain(s, ("abs_magnetization",), 2000, n_thermalize=200)
        m = float(np.mean(obs["abs_magnetization"]))
        assert m == pytest.approx(onsager_spontaneous_magnetization(beta), abs=0.02)

    def test_beats_local_updates_at_criticality(self):
        """The whole point of SW: near-critical tau collapses."""
        beta = 1.0 / 2.3  # just above Tc for L=16
        n_sweeps = 4000
        local = AnisotropicIsing((16, 16), (beta, beta), seed=17, hot_start=True)
        obs_l = run_chain(local, ("magnetization",), n_sweeps, n_thermalize=500)
        tau_local = integrated_autocorr_time(obs_l["magnetization"])

        sw = SwendsenWangIsing((16, 16), (beta, beta), seed=19, hot_start=True)
        obs_c = run_chain(sw, ("magnetization",), n_sweeps, n_thermalize=200)
        tau_sw = integrated_autocorr_time(obs_c["magnetization"])
        assert tau_sw < 0.2 * tau_local, f"SW {tau_sw:.1f} vs local {tau_local:.1f}"

    def test_cluster_size_grows_near_criticality(self):
        sizes = {}
        for beta in (0.25, 1.0 / onsager_critical_temperature()):
            s = SwendsenWangIsing((16, 16), (beta, beta), seed=23, hot_start=True)
            for _ in range(50):
                s.sweep()
            sizes[beta] = s.mean_cluster_size()
        betas = sorted(sizes)
        # Mean size over *all* clusters (singletons included) grows ~2.5x
        # from deep disorder to criticality at L=16.
        assert sizes[betas[1]] > 2 * sizes[betas[0]]


class TestCachedGeometryRegression:
    """Pinned fixed-seed trajectories: the cached neighbor-index tables
    and reused edge-weight workspace must not perturb the RNG order or
    the decomposition."""

    def test_3d_trajectory_pinned(self):
        sw = SwendsenWangIsing((8, 8, 4), (0.35, 0.35, 0.6), seed=7,
                               hot_start=True)
        ncl, mags = [], []
        for _ in range(10):
            ncl.append(sw.cluster_sweep())
            mags.append(int(sw.spins.sum()))
        assert ncl == [65, 30, 25, 21, 14, 13, 10, 7, 5, 7]
        assert mags == [-108, -126, -182, -230, -234, 248, -246, 254, 250,
                        -250]
        spin_hash = int(
            np.dot(sw.spins.ravel().astype(np.int64) + 1,
                   np.arange(sw.n_sites)) % 1000003
        )
        assert spin_hash == 746

    def test_2d_mixed_trajectory_pinned(self):
        sw = SwendsenWangIsing((16, 16), (0.44, 0.44), seed=11,
                               mix_local=True, hot_start=True)
        mags = []
        for _ in range(6):
            sw.sweep()
            mags.append(int(sw.spins.sum()))
        assert mags == [42, -168, -194, 190, -172, -226]
        spin_hash = int(
            np.dot(sw.spins.ravel().astype(np.int64) + 1,
                   np.arange(sw.n_sites)) % 1000003
        )
        assert spin_hash == 3348

    def test_inert_axis_has_no_cached_table(self):
        sw = SwendsenWangIsing((8, 1, 4), (0.3, 0.0, 0.5), seed=2)
        assert sw._rolled_index[1] is None
        assert sw._rolled_index[0] is not None
        sw.cluster_sweep()  # still runs with the axis skipped
