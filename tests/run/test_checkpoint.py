"""Tests for exact-resume checkpointing, serial and distributed."""

import json
import pickle

import numpy as np
import pytest

from repro.models.hamiltonians import XXZChainModel, XXZSquareModel
from repro.qmc.classical_ising import AnisotropicIsing
from repro.qmc.parallel import (
    IsingBlockConfig,
    WorldlineStripConfig,
    ising_block_program,
    worldline_strip_program,
)
from repro.qmc.tfim import TfimQmc
from repro.qmc.worldline import WorldlineChainQmc
from repro.qmc.worldline2d import WorldlineSquareQmc
from repro.run.checkpoint import (
    CheckpointConfig,
    load_checkpoint,
    load_rank_checkpoint,
    rank_checkpoint_path,
    save_checkpoint,
    save_rank_checkpoint,
)
from repro.vmp.machines import IDEAL
from repro.vmp.scheduler import run_spmd


def assert_bitwise_resume(make_sampler, run, tmp_path, n_before=20, n_after=30):
    """save at t, resume in a fresh sampler, compare with uninterrupted."""
    a = make_sampler()
    for _ in range(n_before):
        run(a)
    save_checkpoint(a, tmp_path / "state.npz")
    # Uninterrupted continuation.
    for _ in range(n_after):
        run(a)

    b = make_sampler()
    load_checkpoint(b, tmp_path / "state.npz")
    for _ in range(n_after):
        run(b)

    sa = a.classical.spins if hasattr(a, "classical") else a.spins
    sb = b.classical.spins if hasattr(b, "classical") else b.spins
    np.testing.assert_array_equal(sa, sb)


class TestBitwiseResume:
    def test_worldline_chain(self, tmp_path):
        model = XXZChainModel(n_sites=8, periodic=True)
        assert_bitwise_resume(
            lambda: WorldlineChainQmc(model, 0.5, 8, seed=3),
            lambda s: s.sweep(),
            tmp_path,
        )

    def test_worldline_square(self, tmp_path):
        model = XXZSquareModel(lx=2, ly=4)
        assert_bitwise_resume(
            lambda: WorldlineSquareQmc(model, 0.5, 8, seed=5),
            lambda s: s.sweep(),
            tmp_path,
            n_before=5,
            n_after=8,
        )

    def test_classical_ising(self, tmp_path):
        assert_bitwise_resume(
            lambda: AnisotropicIsing((8, 8), (0.3, 0.3), seed=7, hot_start=True),
            lambda s: s.sweep(),
            tmp_path,
        )

    def test_tfim_delegates_to_classical(self, tmp_path):
        assert_bitwise_resume(
            lambda: TfimQmc((8,), 1.0, 1.0, 2.0, 16, seed=9),
            lambda s: s.sweep(),
            tmp_path,
        )


class TestValidation:
    def test_shape_mismatch_rejected(self, tmp_path):
        a = AnisotropicIsing((4, 4), (0.3, 0.3), seed=1)
        save_checkpoint(a, tmp_path / "s.npz")
        b = AnisotropicIsing((6, 6), (0.3, 0.3), seed=1)
        with pytest.raises(ValueError, match="lattice"):
            load_checkpoint(b, tmp_path / "s.npz")

    def test_class_mismatch_rejected(self, tmp_path):
        a = AnisotropicIsing((4, 4), (0.3, 0.3), seed=1)
        save_checkpoint(a, tmp_path / "s.npz")
        model = XXZChainModel(n_sites=4, periodic=True)
        b = WorldlineChainQmc(model, 0.5, 4 + 4, seed=1)
        with pytest.raises(ValueError, match="state"):
            load_checkpoint(b, tmp_path / "s.npz")

    def test_counters_restored(self, tmp_path):
        a = AnisotropicIsing((4, 4), (0.3, 0.3), seed=2, hot_start=True)
        for _ in range(10):
            a.sweep()
        save_checkpoint(a, tmp_path / "s.npz")
        b = AnisotropicIsing((4, 4), (0.3, 0.3), seed=99)
        load_checkpoint(b, tmp_path / "s.npz")
        assert b.n_attempted == a.n_attempted
        assert b.n_accepted == a.n_accepted
        assert b.acceptance_rate == a.acceptance_rate


# ======================================================================
# distributed per-rank checkpoint/restart
# ======================================================================


def _strip_cfg(n_sweeps, mode):
    return WorldlineStripConfig(
        n_sites=16,
        jz=1.0,
        jxy=0.8,
        beta=1.0,
        n_slices=8,
        n_sweeps=n_sweeps,
        n_thermalize=2,
        mode=mode,
        sweep_seed=7,
    )


def _block_cfg(n_sweeps):
    return IsingBlockConfig(
        lx=4, ly=4, lt=4, kx=0.3, ky=0.2, kt=0.4,
        n_sweeps=n_sweeps, n_thermalize=1, sweep_seed=11,
    )


def _bundle_arrays(directory, rank):
    with np.load(rank_checkpoint_path(directory, rank)) as data:
        return {k: data[k].copy() for k in data.files if k != "meta"}


class TestStripDriverResume:
    """Interrupted + resumed == uninterrupted, bit for bit.

    The uninterrupted run writes its own final checkpoint, so the
    comparison covers the complete rank state -- local spins with ghost
    layers, RNG stream bytes, counters -- not just the observable
    series.
    """

    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("mode", ["scalar", "vectorized"])
    def test_resume_is_bit_identical(self, tmp_path, p, mode):
        full = _strip_cfg(n_sweeps=6, mode=mode)
        ref_dir = tmp_path / "ref"
        ref = run_spmd(
            worldline_strip_program, p, IDEAL, seed=3,
            args=(full, CheckpointConfig(ref_dir, every=3)),
        ).values[0]

        # Interrupted run: stops after 3 of 6 sweeps, checkpointing.
        res_dir = tmp_path / "res"
        run_spmd(
            worldline_strip_program, p, IDEAL, seed=3,
            args=(_strip_cfg(n_sweeps=3, mode=mode),
                  CheckpointConfig(res_dir, every=3)),
        )
        resumed = run_spmd(
            worldline_strip_program, p, IDEAL, seed=3,
            args=(full, CheckpointConfig(res_dir, every=3, resume=True)),
        ).values[0]

        np.testing.assert_array_equal(resumed["energy"], ref["energy"])
        np.testing.assert_array_equal(
            resumed["magnetization"], ref["magnetization"]
        )
        np.testing.assert_array_equal(resumed["owned_spins"], ref["owned_spins"])
        # Full rank state including RNG stream bytes and ghost layers.
        for r in range(p):
            a, b = _bundle_arrays(ref_dir, r), _bundle_arrays(res_dir, r)
            assert sorted(a) == sorted(b)
            for key in a:
                np.testing.assert_array_equal(a[key], b[key], err_msg=key)

    def test_cross_mode_resume(self, tmp_path):
        """Scalar checkpoints resume under vectorized kernels (and stay
        bit-identical): the trajectory is mode-independent by design."""
        ref = run_spmd(
            worldline_strip_program, 2, IDEAL, seed=3,
            args=(_strip_cfg(n_sweeps=6, mode="vectorized"),),
        ).values[0]
        d = tmp_path / "ck"
        run_spmd(
            worldline_strip_program, 2, IDEAL, seed=3,
            args=(_strip_cfg(n_sweeps=3, mode="scalar"),
                  CheckpointConfig(d, every=3)),
        )
        resumed = run_spmd(
            worldline_strip_program, 2, IDEAL, seed=3,
            args=(_strip_cfg(n_sweeps=6, mode="vectorized"),
                  CheckpointConfig(d, resume=True)),
        ).values[0]
        np.testing.assert_array_equal(resumed["energy"], ref["energy"])
        np.testing.assert_array_equal(
            resumed["owned_spins"], ref["owned_spins"]
        )

    def test_checkpoint_interval_not_aligned_with_stop(self, tmp_path):
        """A run killed between checkpoints resumes from the last one."""
        ref = run_spmd(
            worldline_strip_program, 2, IDEAL, seed=3,
            args=(_strip_cfg(n_sweeps=7, mode="vectorized"),),
        ).values[0]
        d = tmp_path / "ck"
        # Dies after sweep 5; last bundle is from sweep 4 (every=2).
        run_spmd(
            worldline_strip_program, 2, IDEAL, seed=3,
            args=(_strip_cfg(n_sweeps=5, mode="vectorized"),
                  CheckpointConfig(d, every=2)),
        )
        resumed = run_spmd(
            worldline_strip_program, 2, IDEAL, seed=3,
            args=(_strip_cfg(n_sweeps=7, mode="vectorized"),
                  CheckpointConfig(d, resume=True)),
        ).values[0]
        np.testing.assert_array_equal(resumed["energy"], ref["energy"])
        np.testing.assert_array_equal(
            resumed["magnetization"], ref["magnetization"]
        )


class TestBlockDriverResume:
    def test_resume_is_bit_identical(self, tmp_path):
        full = _block_cfg(n_sweeps=6)
        ref = run_spmd(
            ising_block_program, 2, IDEAL, seed=5, args=(full,)
        ).values[0]
        d = tmp_path / "ck"
        run_spmd(
            ising_block_program, 2, IDEAL, seed=5,
            args=(_block_cfg(n_sweeps=2), CheckpointConfig(d, every=2)),
        )
        resumed = run_spmd(
            ising_block_program, 2, IDEAL, seed=5,
            args=(full, CheckpointConfig(d, resume=True)),
        ).values[0]
        np.testing.assert_array_equal(
            resumed["magnetization"], ref["magnetization"]
        )
        np.testing.assert_array_equal(resumed["bond_sums"], ref["bond_sums"])
        np.testing.assert_array_equal(resumed["block"], ref["block"])

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_resume_mid_stream_at_every_rank_count(self, tmp_path, p):
        """The restored rank rebuilds its sweep stream and skips to
        sweep ``k``: series, blocks and every bundle byte equal the
        uninterrupted run's."""
        ref_dir, res_dir = tmp_path / "ref", tmp_path / "res"
        full = _block_cfg(n_sweeps=7)
        ref = run_spmd(
            ising_block_program, p, IDEAL, seed=5,
            args=(full, CheckpointConfig(ref_dir, every=7)),
        ).values
        run_spmd(
            ising_block_program, p, IDEAL, seed=5,
            args=(_block_cfg(n_sweeps=3), CheckpointConfig(res_dir, every=3)),
        )
        resumed = run_spmd(
            ising_block_program, p, IDEAL, seed=5,
            args=(full, CheckpointConfig(res_dir, every=7, resume=True)),
        ).values
        for a, b in zip(ref, resumed):
            for key in ("magnetization", "bond_sums", "block"):
                np.testing.assert_array_equal(b[key], a[key], err_msg=key)
        for r in range(p):
            a, b = _bundle_arrays(ref_dir, r), _bundle_arrays(res_dir, r)
            assert sorted(a) == sorted(b)
            for key in a:
                np.testing.assert_array_equal(a[key], b[key], err_msg=key)


class TestDistributedValidation:
    def _write_checkpoint(self, directory, p=2):
        run_spmd(
            worldline_strip_program, p, IDEAL, seed=3,
            args=(_strip_cfg(n_sweeps=3, mode="vectorized"),
                  CheckpointConfig(directory, every=3)),
        )

    def _rewrite_bundle(self, path, meta_edit=None, array_edit=None):
        """Round-trip a bundle through an edit (corruption injector)."""
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode())
            arrays = {k: data[k].copy() for k in data.files if k != "meta"}
        if meta_edit:
            meta_edit(meta)
        if array_edit:
            array_edit(arrays)
        np.savez_compressed(
            path,
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            **arrays,
        )

    def _resume(self, directory, p=2):
        return run_spmd(
            worldline_strip_program, p, IDEAL, seed=3,
            args=(_strip_cfg(n_sweeps=6, mode="vectorized"),
                  CheckpointConfig(directory, resume=True)),
        )

    def test_missing_bundle_is_a_clear_error(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="rank 0"):
            self._resume(tmp_path)

    def test_version_mismatch_rejected(self, tmp_path):
        self._write_checkpoint(tmp_path)
        for r in range(2):
            self._rewrite_bundle(
                rank_checkpoint_path(tmp_path, r),
                meta_edit=lambda m: m.update(dist_version=99),
            )
        with pytest.raises(ValueError, match="version"):
            self._resume(tmp_path)

    def test_rank_count_mismatch_rejected(self, tmp_path):
        self._write_checkpoint(tmp_path, p=2)
        with pytest.raises(ValueError, match="n_ranks"):
            self._resume(tmp_path, p=4)

    def test_seed_mismatch_rejected(self, tmp_path):
        self._write_checkpoint(tmp_path)
        for r in range(2):
            self._rewrite_bundle(
                rank_checkpoint_path(tmp_path, r),
                meta_edit=lambda m: m.update(sweep_seed=999),
            )
        with pytest.raises(ValueError, match="sweep_seed"):
            self._resume(tmp_path)

    @pytest.mark.parametrize("driver", ["strip", "block"])
    def test_bundle_of_per_sweep_streams_refused(self, tmp_path, driver):
        """A bundle written when each sweep built its own generator names
        no ``sweep_stream`` scheme; resuming it would continue on other
        numbers, so it gets the structured mismatch error instead."""
        program, short, full = {
            "strip": (worldline_strip_program, _strip_cfg(3, "vectorized"),
                      _strip_cfg(6, "vectorized")),
            "block": (ising_block_program, _block_cfg(3), _block_cfg(6)),
        }[driver]
        run_spmd(program, 2, IDEAL, seed=3,
                 args=(short, CheckpointConfig(tmp_path, every=3)))
        for r in range(2):
            self._rewrite_bundle(
                rank_checkpoint_path(tmp_path, r),
                meta_edit=lambda m: m.pop("sweep_stream"),
            )
        with pytest.raises(ValueError, match="sweep_stream is None"):
            run_spmd(program, 2, IDEAL, seed=3,
                     args=(full, CheckpointConfig(tmp_path, resume=True)))

    def test_wrong_bit_generator_rejected(self, tmp_path):
        self._write_checkpoint(tmp_path)
        alien = np.random.Generator(np.random.MT19937(5)).bit_generator.state
        packed = np.frombuffer(pickle.dumps(alien), dtype=np.uint8)
        for r in range(2):
            self._rewrite_bundle(
                rank_checkpoint_path(tmp_path, r),
                array_edit=lambda a: a.update(rng_state=packed),
            )
        with pytest.raises(ValueError, match="MT19937"):
            self._resume(tmp_path)

    def test_shape_mismatch_rejected(self, tmp_path):
        self._write_checkpoint(tmp_path)
        for r in range(2):
            self._rewrite_bundle(
                rank_checkpoint_path(tmp_path, r),
                array_edit=lambda a: a.update(loc=a["loc"][:, ::2].copy()),
            )
        with pytest.raises(ValueError, match="strip block"):
            self._resume(tmp_path)

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError, match="interval"):
            CheckpointConfig(tmp_path, every=-1)
        with pytest.raises(ValueError, match="does nothing"):
            CheckpointConfig(tmp_path, every=0, resume=False)

    def test_bundle_rank_field_checked(self, tmp_path):
        save_rank_checkpoint(tmp_path, 0, {"driver": "x"}, {"a": np.arange(3)})
        import shutil

        shutil.copy(
            rank_checkpoint_path(tmp_path, 0), rank_checkpoint_path(tmp_path, 1)
        )
        with pytest.raises(ValueError, match="holds rank 0"):
            load_rank_checkpoint(tmp_path, 1)


# ======================================================================
# two-level (ensemble x domain) composed layouts
# ======================================================================


class TestTwoLevelResume:
    """Composed R x P checkpoints: per-replica bundles + layout manifest.

    Each replica checkpoints its strip state into a ``replica####/``
    subdirectory and world rank 0 records the composed geometry in
    ``layout.json``; a resume must validate that manifest before any
    rank state is touched, so a flat checkpoint or a different
    geometry fails with a clear error instead of a bundle mismatch
    deep inside one replica.
    """

    def _tl_cfg(self, n_sweeps, replicas=2, domain_ranks=2):
        from repro.qmc.two_level import TwoLevelConfig

        return TwoLevelConfig(
            replicas=replicas,
            domain_ranks=domain_ranks,
            base=_strip_cfg(n_sweeps=n_sweeps, mode="vectorized"),
        )

    def _run(self, cfg, ckpt=None):
        from repro.qmc.two_level import two_level_program

        return run_spmd(
            two_level_program, cfg.n_ranks, IDEAL, seed=3, args=(cfg, ckpt)
        )

    def test_mid_campaign_resume_is_bit_identical(self, tmp_path):
        full = self._tl_cfg(n_sweeps=6)
        ref = self._run(full)
        d = tmp_path / "ck"
        # Interrupted mid-campaign: 3 of 6 sweeps, then resume.
        self._run(self._tl_cfg(n_sweeps=3), CheckpointConfig(d, every=3))
        resumed = self._run(full, CheckpointConfig(d, resume=True))
        for r_ref, r_got in zip(ref.values, resumed.values):
            # Counters restart at resume (they are not in the bundle,
            # matching the flat strip driver); the trajectory must not.
            for key in ("energy", "magnetization", "owned_spins",
                        "ensemble_energy", "ensemble_magnetization"):
                np.testing.assert_array_equal(r_got[key], r_ref[key],
                                              err_msg=key)

    def test_bundles_live_in_replica_subdirectories(self, tmp_path):
        from repro.qmc.two_level import (
            read_layout_manifest,
            replica_checkpoint_dir,
        )

        d = tmp_path / "ck"
        self._run(self._tl_cfg(n_sweeps=3), CheckpointConfig(d, every=3))
        assert read_layout_manifest(d) == {
            "layout": "two-level", "replicas": 2, "domain_ranks": 2,
        }
        for replica in range(2):
            sub = replica_checkpoint_dir(d, replica)
            for domain_rank in range(2):
                assert rank_checkpoint_path(sub, domain_rank).exists()

    def test_flat_checkpoint_rejected_with_clear_error(self, tmp_path):
        # A genuine flat strip checkpoint: same world size, no manifest.
        d = tmp_path / "flat"
        run_spmd(
            worldline_strip_program, 4, IDEAL, seed=3,
            args=(_strip_cfg(n_sweeps=3, mode="vectorized"),
                  CheckpointConfig(d, every=3)),
        )
        with pytest.raises(ValueError, match="no layout.json manifest"):
            self._run(self._tl_cfg(n_sweeps=6),
                      CheckpointConfig(d, resume=True))

    def test_geometry_mismatch_rejected(self, tmp_path):
        d = tmp_path / "ck"
        self._run(self._tl_cfg(n_sweeps=3), CheckpointConfig(d, every=3))
        # Same world size (4), different composition: 4 x 1 vs 2 x 2.
        with pytest.raises(ValueError, match="layout mismatch"):
            self._run(self._tl_cfg(n_sweeps=6, replicas=4, domain_ranks=1),
                      CheckpointConfig(d, resume=True))

    def test_malformed_manifest_rejected(self, tmp_path):
        from repro.qmc.two_level import read_layout_manifest

        d = tmp_path / "ck"
        d.mkdir()
        (d / "layout.json").write_text(json.dumps({"layout": "strip"}))
        with pytest.raises(ValueError, match="expected 'two-level'"):
            read_layout_manifest(d)


class TestSerialValidationBugfix:
    """Regression: load_checkpoint must fail loudly, not restore halfway."""

    def _rewrite(self, path, meta_edit=None, rng_state=None):
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode())
            spins = data["spins"].copy()
            rng = data["rng_state"].copy()
        if meta_edit:
            meta_edit(meta)
        if rng_state is not None:
            rng = np.frombuffer(pickle.dumps(rng_state), dtype=np.uint8)
        np.savez_compressed(
            path,
            spins=spins,
            rng_state=rng,
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        )

    def test_missing_counters_rejected_not_skipped(self, tmp_path):
        a = AnisotropicIsing((4, 4), (0.3, 0.3), seed=2, hot_start=True)
        for _ in range(5):
            a.sweep()
        path = tmp_path / "s.npz"
        save_checkpoint(a, path)
        self._rewrite(
            path,
            meta_edit=lambda m: (m.pop("n_attempted"), m.pop("n_accepted")),
        )
        b = AnisotropicIsing((4, 4), (0.3, 0.3), seed=99)
        with pytest.raises(ValueError, match="counters"):
            load_checkpoint(b, path)

    def test_wrong_bit_generator_rejected(self, tmp_path):
        a = AnisotropicIsing((4, 4), (0.3, 0.3), seed=2)
        path = tmp_path / "s.npz"
        save_checkpoint(a, path)
        alien = np.random.Generator(np.random.MT19937(5)).bit_generator.state
        self._rewrite(path, rng_state=alien)
        b = AnisotropicIsing((4, 4), (0.3, 0.3), seed=99)
        with pytest.raises(ValueError, match="MT19937"):
            load_checkpoint(b, path)

    def test_failed_load_leaves_sampler_untouched(self, tmp_path):
        a = AnisotropicIsing((4, 4), (0.3, 0.3), seed=2, hot_start=True)
        for _ in range(5):
            a.sweep()
        path = tmp_path / "s.npz"
        save_checkpoint(a, path)
        alien = np.random.Generator(np.random.MT19937(5)).bit_generator.state
        self._rewrite(path, rng_state=alien)
        b = AnisotropicIsing((4, 4), (0.3, 0.3), seed=99, hot_start=True)
        spins_before = b.spins.copy()
        state_before = b.stream.generator.bit_generator.state
        with pytest.raises(ValueError):
            load_checkpoint(b, path)
        np.testing.assert_array_equal(b.spins, spins_before)
        assert b.stream.generator.bit_generator.state == state_before
