"""Tests for the strip-decomposed world-line driver.

Since the shared-uniform rewrite the strip driver is **bit-identical**
across rank counts and across the scalar/vectorized kernel modes: every
rank draws the same per-(sweep, stage) lattice of uniforms, so seam
bonds are decided identically on both owners with no writeback.  The
checks are exact trajectory equality plus the original invariants
(legality, magnetization conservation) and statistical agreement with
the matrix-product Trotter reference.
"""

import dataclasses

import numpy as np
import pytest

from repro.models.hamiltonians import XXZChainModel
from repro.models.trotter_ref import trotter_reference_energy
from repro.qmc.parallel import WorldlineStripConfig, _StripState, worldline_strip_program
from repro.qmc.plaquette import PlaquetteTable
from repro.stats.binning import BinningAnalysis
from repro.vmp.machines import IDEAL, PARAGON
from repro.vmp.scheduler import run_spmd

from tests.conftest import assert_within


def gather_spins(values):
    return np.concatenate([v["owned_spins"] for v in values], axis=0)


def check_global_invariants(spins, cfg):
    """Legality of every shaded plaquette + slice-magnetization conservation."""
    table = PlaquetteTable.build(cfg.jz, cfg.jxy, cfg.beta / (cfg.n_slices // 2))
    L, T = spins.shape
    for i in range(L):
        for t in range(T):
            if (i + t) % 2 == 0:
                j, t1 = (i + 1) % L, (t + 1) % T
                code = (
                    spins[i, t] + 2 * spins[j, t] + 4 * spins[i, t1] + 8 * spins[j, t1]
                )
                assert table.weights[code] > 0, f"illegal plaquette at ({i},{t})"
    mags = spins.sum(axis=0)
    assert np.all(mags == mags[0]), "slice magnetization not conserved"


SHORT = WorldlineStripConfig(
    n_sites=8, jz=1.0, jxy=1.0, beta=0.5, n_slices=8,
    n_sweeps=300, n_thermalize=50,
)


class TestConfigValidation:
    def test_requires_multiple_of_four(self):
        with pytest.raises(ValueError, match="L % 4"):
            WorldlineStripConfig(n_sites=6, jz=1, jxy=1, beta=1, n_slices=8,
                                 n_sweeps=1)
        with pytest.raises(ValueError, match="n_slices % 4"):
            WorldlineStripConfig(n_sites=8, jz=1, jxy=1, beta=1, n_slices=6,
                                 n_sweeps=1)

    def test_minimum_columns_per_rank(self):
        with pytest.raises(ValueError, match=">= 4 owned columns"):
            run_spmd(worldline_strip_program, 4, machine=IDEAL, args=(SHORT,))
        # 8 columns over 4 ranks = 2 per rank: rejected above; 2 ranks OK.


class TestModeAndRankIdentity:
    """Scalar reference vs vectorized kernels, across rank counts."""

    def test_mode_validated(self):
        with pytest.raises(ValueError, match="mode"):
            WorldlineStripConfig(n_sites=8, jz=1, jxy=1, beta=1, n_slices=8,
                                 n_sweeps=1, mode="simd")

    @pytest.mark.parametrize("p", [1, 2])
    def test_scalar_and_vectorized_trajectories_identical(self, p):
        spins, energies = {}, {}
        for mode in ("scalar", "vectorized"):
            cfg = dataclasses.replace(SHORT, n_sweeps=40, n_thermalize=10,
                                      mode=mode)
            res = run_spmd(worldline_strip_program, p, machine=IDEAL, seed=5,
                           args=(cfg,))
            spins[mode] = gather_spins(res.values)
            energies[mode] = np.asarray(res.values[0]["energy"])
            assert all(v["mode"] == mode for v in res.values)
        np.testing.assert_array_equal(spins["scalar"], spins["vectorized"])
        # Identical op order per stage => *exact* energy equality too.
        np.testing.assert_array_equal(energies["scalar"], energies["vectorized"])

    def test_trajectory_independent_of_rank_count(self):
        cfg = dataclasses.replace(SHORT, n_sites=16, n_sweeps=40,
                                  n_thermalize=10)
        ref_spins = ref_energy = None
        for p in (1, 2, 4):
            res = run_spmd(worldline_strip_program, p, machine=IDEAL, seed=5,
                           args=(cfg,))
            spins = gather_spins(res.values)
            energy = np.asarray(res.values[0]["energy"])
            if ref_spins is None:
                ref_spins, ref_energy = spins, energy
            else:
                np.testing.assert_array_equal(spins, ref_spins)
                # Spins are exact; the energy allreduce sums per-rank
                # partials whose float association depends on P, so the
                # series agrees to the last ULP but not bit-for-bit.
                np.testing.assert_allclose(energy, ref_energy, rtol=1e-12)


COUNTED = dataclasses.replace(SHORT, n_sites=32, beta=1.0, n_sweeps=20, n_thermalize=5)


def _chain_counts(comm, cfg):
    """A one-rank strip run counting its moves as the chain defines
    them: per sweep ``L T / 2`` corner moves plus one column move per
    straight world line (column flips keep a line as straight as it
    was, so the lines after a sweep are the ones its column stages
    tried), and every distinct move whose cells the op changed.  Bond
    ``L - 1`` runs twice a class here, at both ends of the strip; it is
    one move.  Returns the two counts and how many accepted moves ran
    twice."""
    state = _StripState(comm, cfg)
    ops = dict(state._kops)
    L, T = cfg.n_sites, cfg.n_slices
    accepted, twice = [], []

    def corner(flat, weights, env, flip, u):
        before = flat[flip]
        n = ops["strip_corner"](flat, weights, env, flip, u)
        j, t = np.divmod(flip[0, (flat[flip] != before).all(axis=0)], T)
        accepted.append(len(set(zip(((j - 2) % L).tolist(), t.tolist()))))
        twice.append(j.size - accepted[-1])
        return n

    def column(spins, thr, sites, nbr, straight, log_u):
        before = spins[sites]
        n = ops["strip_column"](spins, thr, sites, nbr, straight, log_u)
        accepted.append(int(np.count_nonzero((spins[sites] != before).any(axis=1))))
        return n

    state._kops = {**ops, "strip_corner": corner, "strip_column": column}
    attempted = 0
    for _ in range(cfg.n_thermalize + cfg.n_sweeps):
        state.sweep()
        owned = state.loc[2:L + 2]
        attempted += L * T // 2 + int(np.count_nonzero(owned.min(axis=1) == owned.max(axis=1)))
    assert (state.n_attempted, state.n_accepted) == (attempted, sum(accepted))
    return (attempted, sum(accepted)), sum(twice)


def test_counters_are_the_chains_at_every_rank_count():
    """A seam corner move runs on both ranks beside it and counts once:
    the summed counters equal the chain's own count on every rank
    count, backend and schedule."""
    defined, twice = run_spmd(_chain_counts, 1, machine=IDEAL, args=(COUNTED,)).values[0]
    assert 0 < twice < defined[1] < defined[0]
    for p in (1, 2, 4):
        for backend in ("thread", "mp"):
            for overlap in (False, True):
                res = run_spmd(worldline_strip_program, p, machine=PARAGON,
                               args=(dataclasses.replace(COUNTED, overlap=overlap),),
                               backend=backend)
                assert all(v["overlap_active"] == (overlap and p > 1)
                           for v in res.values)
                assert tuple(sum(v[key] for v in res.values) for key in (
                    "n_attempted", "n_accepted")) == defined, (p, backend, overlap)


@pytest.mark.parametrize("p", [1, 2])
class TestInvariants:
    def test_configuration_stays_legal(self, p):
        res = run_spmd(worldline_strip_program, p, machine=IDEAL, seed=5,
                       args=(SHORT,))
        spins = gather_spins(res.values)
        check_global_invariants(spins, SHORT)

    def test_energy_series_identical_on_all_ranks(self, p):
        res = run_spmd(worldline_strip_program, p, machine=IDEAL, seed=5,
                       args=(SHORT,))
        for v in res.values[1:]:
            np.testing.assert_allclose(v["energy"], res.values[0]["energy"])


@pytest.mark.slow
class TestStatisticalAgreement:
    def test_p1_matches_trotter_reference(self):
        cfg = WorldlineStripConfig(
            n_sites=8, jz=1.0, jxy=1.0, beta=0.5, n_slices=8,
            n_sweeps=4000, n_thermalize=400,
        )
        model = XXZChainModel(n_sites=8, periodic=True)
        ref = trotter_reference_energy(model, cfg.beta, cfg.n_slices // 2)
        res = run_spmd(worldline_strip_program, 1, machine=IDEAL, seed=42,
                       args=(cfg,))
        ba = BinningAnalysis.from_series(res.values[0]["energy"])
        assert_within(ba.mean, ref, ba.error, n_sigma=4.5, label="strip P=1 E")

    def test_p2_matches_trotter_reference(self):
        cfg = WorldlineStripConfig(
            n_sites=8, jz=1.0, jxy=1.0, beta=0.5, n_slices=8,
            n_sweeps=1500, n_thermalize=200,
        )
        model = XXZChainModel(n_sites=8, periodic=True)
        ref = trotter_reference_energy(model, cfg.beta, cfg.n_slices // 2)
        res = run_spmd(worldline_strip_program, 2, machine=IDEAL, seed=43,
                       args=(cfg,))
        ba = BinningAnalysis.from_series(res.values[0]["energy"])
        assert_within(ba.mean, ref, ba.error, n_sigma=4.5, label="strip P=2 E")
        check_global_invariants(gather_spins(res.values), cfg)

    def test_p4_on_longer_chain(self):
        cfg = WorldlineStripConfig(
            n_sites=16, jz=1.0, jxy=1.0, beta=0.5, n_slices=8,
            n_sweeps=500, n_thermalize=100,
        )
        res = run_spmd(worldline_strip_program, 4, machine=PARAGON, seed=44,
                       args=(cfg,))
        check_global_invariants(gather_spins(res.values), cfg)
        assert res.comm_fraction() > 0  # halo traffic was charged
        # Cross-check P=1 on the same system within combined errors.
        res1 = run_spmd(worldline_strip_program, 1, machine=IDEAL, seed=45,
                        args=(cfg,))
        b4 = BinningAnalysis.from_series(res.values[0]["energy"])
        b1 = BinningAnalysis.from_series(res1.values[0]["energy"])
        err = float(np.hypot(b4.error, b1.error))
        assert_within(b4.mean, b1.mean, err, n_sigma=5.0, label="P=4 vs P=1")


# ======================================================================
# the chain program (serial / replica layouts) on the 2-D sampler
# ======================================================================

from repro.models.hamiltonians import XXZSquareModel
from repro.models.symmetry_ed import MomentumBlockED
from repro.qmc.chains import _chain_values, chain_program
from repro.qmc.worldline2d import WorldlineSquareQmc
from repro.util.rng import spawn_streams

from tests.conftest import hand_run, square_chain_config

REPLICA = square_chain_config(n_slices=16, n_sweeps=120, n_thermalize=30)


def _square_sampler(stream=None):
    return WorldlineSquareQmc(XXZSquareModel(4, 4), 0.5, 16, stream=stream)


def _replica_run(cfg, p, seed=0):
    """The ``p`` chains of a replica run at ``seed``: one rank, one
    stream ``(seed, i)`` per chain, one value per chain."""
    cfg = dataclasses.replace(cfg, streams=tuple((seed, i) for i in range(p)))
    return _chain_values(run_spmd(chain_program, 1, args=(cfg,)).values[0],
                         cfg.series)


class TestWorldline2DReplicaConfig:
    def test_geometry_validated(self):
        # The sampler's own error, raised while the rank builds its chains.
        with pytest.raises(ValueError, match="even"):
            _replica_run(square_chain_config(lx=3, n_sweeps=2), 2)

    def test_mode_validated(self):
        with pytest.raises(ValueError, match="mode"):
            square_chain_config(n_sweeps=2, mode="simd")

    def test_chains_are_streams_not_ranks(self):
        with pytest.raises(ValueError, match="one rank"):
            run_spmd(chain_program, 2, args=(square_chain_config(n_sweeps=2),))


class TestWorldline2DReplica:
    @pytest.mark.parametrize("p", [1, 3])
    def test_each_chain_is_the_sampler_run(self, p):
        """Nothing is pooled: chain i's value is what the hand-written
        schedule measures with the sampler on the i-th child stream of
        the seed."""
        values = _replica_run(REPLICA, p, seed=11)
        assert len(values) == p
        for value, stream in zip(values, spawn_streams(11, p)):
            q = _square_sampler(stream)
            meas = hand_run(q, REPLICA.series, REPLICA.n_sweeps, REPLICA.n_thermalize)
            np.testing.assert_array_equal(value["energy"], meas["energy"])
            np.testing.assert_array_equal(value["m_stag_sq"], meas["m_stag_sq"])
            np.testing.assert_array_equal(value["spins"], q.spins)
            assert value["n_attempted"] == q.n_attempted
            assert value["n_accepted"] == q.n_accepted
            assert value["kernel"] == q.resolve_sweep("auto")[0]

    def test_replica_configurations_stay_legal(self):
        for value in _replica_run(REPLICA, 2):
            q = _square_sampler()
            q.spins = value["spins"]
            q.check_invariants()
            assert 0 < value["n_accepted"] < value["n_attempted"]

    @pytest.mark.slow
    def test_replica_average_matches_symmetry_ed(self):
        cfg = square_chain_config(n_slices=16, n_sweeps=1500, n_thermalize=200)
        values = _replica_run(cfg, 4)
        energy = np.mean([v["energy"] for v in values], axis=0)
        ref = MomentumBlockED(XXZSquareModel(4, 4)).thermal(0.5)
        ba = BinningAnalysis.from_series(energy)
        # Same zero-winding-sector + Trotter allowance as the serial
        # agreement tests (see test_worldline2d_vectorized).
        assert_within(ba.mean, ref.energy, ba.error, n_sigma=4.0, atol=0.3,
                      label="replica-averaged energy vs ED")
