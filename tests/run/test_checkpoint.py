"""Tests for exact-resume checkpointing: the per-rank bundles of the SPMD drivers."""

import dataclasses
import json
import pickle
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.qmc.parallel import (
    IsingBlockConfig,
    WorldlineStripConfig,
    ising_block_program,
    worldline_strip_program,
)
from repro.run.checkpoint import (
    CheckpointConfig,
    load_rank_checkpoint,
    rank_checkpoint_path,
    save_rank_checkpoint,
)
from repro.vmp.machines import IDEAL
from repro.vmp.scheduler import run_spmd

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


#: The two rank bundles of ``_strip_cfg(3, "vectorized")`` (IDEAL, seed 3,
#: checkpoint every 3 sweeps) as the strip driver wrote them before its
#: ranks shared read-only plans (commit b12d372), when every rank derived
#: its own tables.
STRIP_BUNDLE_P2 = Path(__file__).parent / "data" / "strip_bundle_p2"

#: The two rank bundles of ``_block_cfg(3)`` (IDEAL, seed 5, checkpoint
#: every 3 sweeps) as the block driver wrote them when it hand-coded its
#: ghost depth, ring and refresh (commit 85e758a), before the halo walk
#: derived them.
BLOCK_BUNDLE_P2 = Path(__file__).parent / "data" / "block_bundle_p2"


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

    def test_bundle_written_before_rank_plans_resumes(self, tmp_path):
        """The rank plan changes no bundle byte and no ``strip_schedule``
        fingerprint: this code writes the committed bundle exactly, and
        resumes it to the uninterrupted run, bit for bit."""
        mid = tmp_path / "mid"
        run_spmd(
            worldline_strip_program, 2, IDEAL, seed=3,
            args=(_strip_cfg(n_sweeps=3, mode="vectorized"),
                  CheckpointConfig(mid, every=3)),
        )
        for r in range(2):
            old_meta, old_arrays = load_rank_checkpoint(STRIP_BUNDLE_P2, r)
            meta, arrays = load_rank_checkpoint(mid, r)
            assert meta == old_meta
            assert sorted(arrays) == sorted(old_arrays)
            for key in arrays:
                np.testing.assert_array_equal(arrays[key], old_arrays[key], err_msg=key)

        full = _strip_cfg(n_sweeps=6, mode="vectorized")
        ref_dir, res_dir = tmp_path / "ref", tmp_path / "res"
        ref = run_spmd(
            worldline_strip_program, 2, IDEAL, seed=3,
            args=(full, CheckpointConfig(ref_dir, every=3)),
        ).values[0]
        shutil.copytree(STRIP_BUNDLE_P2, res_dir)
        resumed = run_spmd(
            worldline_strip_program, 2, IDEAL, seed=3,
            args=(full, CheckpointConfig(res_dir, every=3, resume=True)),
        ).values[0]
        for key in ("energy", "magnetization", "owned_spins"):
            np.testing.assert_array_equal(resumed[key], ref[key], err_msg=key)
        for r in range(2):
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

    def test_bundle_written_before_the_walk_derived_the_frame_resumes(self, tmp_path):
        """The walk-derived frame changes no bundle byte and no
        ``block_schedule`` fingerprint: this code writes the committed
        bundle exactly, and resumes it to the uninterrupted run, bit for
        bit."""
        mid = tmp_path / "mid"
        run_spmd(ising_block_program, 2, IDEAL, seed=5,
                 args=(_block_cfg(n_sweeps=3), CheckpointConfig(mid, every=3)))
        for r in range(2):
            old_meta, old_arrays = load_rank_checkpoint(BLOCK_BUNDLE_P2, r)
            meta, arrays = load_rank_checkpoint(mid, r)
            assert meta == old_meta
            assert meta["block_schedule"] == {"ghost_depth": 2, "refreshes": 1}
            assert sorted(arrays) == sorted(old_arrays)
            for key in arrays:
                np.testing.assert_array_equal(arrays[key], old_arrays[key], err_msg=key)

        full = _block_cfg(n_sweeps=6)
        ref_dir, res_dir = tmp_path / "ref", tmp_path / "res"
        ref = run_spmd(ising_block_program, 2, IDEAL, seed=5,
                       args=(full, CheckpointConfig(ref_dir, every=3))).values
        shutil.copytree(BLOCK_BUNDLE_P2, res_dir)
        resumed = run_spmd(ising_block_program, 2, IDEAL, seed=5,
                           args=(full, CheckpointConfig(res_dir, every=3, resume=True))).values
        for a, b in zip(ref, resumed):
            for key in ("magnetization", "bond_sums", "block"):
                np.testing.assert_array_equal(b[key], a[key], err_msg=key)
        for r in range(2):
            a, b = _bundle_arrays(ref_dir, r), _bundle_arrays(res_dir, r)
            assert sorted(a) == sorted(b)
            for key in a:
                np.testing.assert_array_equal(a[key], b[key], err_msg=key)

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

    def test_bundle_of_the_eight_class_schedule_refused(self, tmp_path):
        """A strip bundle written when a sweep ran eight corner classes
        behind two-wide ghosts names no ``strip_schedule``: its ``loc``
        has two ghost columns a side and its exchange counter counts
        another stage list, so the fingerprint refuses it -- before any
        shape check could."""
        self._write_checkpoint(tmp_path)

        def two_wide(arrays):
            depth = (arrays["loc"].shape[0] - 8) // 2  # 8 owned columns
            arrays["loc"] = arrays["loc"][depth - 2 : depth + 10].copy()

        for r in range(2):
            self._rewrite_bundle(
                rank_checkpoint_path(tmp_path, r),
                meta_edit=lambda m: m.pop("strip_schedule"),
                array_edit=two_wide,
            )
        with pytest.raises(ValueError, match="checkpoint mismatch.*strip_schedule is None"):
            self._resume(tmp_path)

    def test_bundle_of_the_one_plane_block_layout_refused(self, tmp_path):
        """A block bundle written when the frame kept one ghost plane a
        side (and one on an extent-1 axis) and a sweep refreshed before
        each color names no ``block_schedule``: its ``g`` is another
        shape and its exchange counter counts two refreshes a sweep, so
        the fingerprint refuses it -- before any shape check could."""
        run_spmd(ising_block_program, 2, IDEAL, seed=3,
                 args=(_block_cfg(3), CheckpointConfig(tmp_path, every=3)))

        def one_plane(arrays):
            g = arrays["g"]  # (4 + 4, 2 + 4, 4): pieces 4 x 2 on a 1 x 2 grid
            arrays["g"] = g[1:-1, 1:-1].copy()

        for r in range(2):
            self._rewrite_bundle(
                rank_checkpoint_path(tmp_path, r),
                meta_edit=lambda m: m.pop("block_schedule"),
                array_edit=one_plane,
            )
        with pytest.raises(ValueError, match="checkpoint mismatch.*block_schedule is None"):
            run_spmd(ising_block_program, 2, IDEAL, seed=3,
                     args=(_block_cfg(6), CheckpointConfig(tmp_path, resume=True)))

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
# two-level layouts: replicas stacked in the strip ranks
# ======================================================================


class TestTwoLevelResume:
    """R replicas in each of P strip ranks checkpoint as any strip run:
    one bundle a rank, holding every replica's spins and series.  A
    bundle of another replica count is refused by its spin shape, and a
    directory of the earlier R x P layout (a ``replica####/`` bundle
    directory a replica under a ``layout.json`` manifest) by its
    manifest, before any rank state is touched.
    """

    def _cfg(self, n_sweeps, replicas=2):
        return dataclasses.replace(
            _strip_cfg(n_sweeps=n_sweeps, mode="vectorized"), replicas=replicas)

    def _run(self, cfg, ckpt=None):
        return run_spmd(worldline_strip_program, 2, IDEAL, seed=3, args=(cfg, ckpt))

    def test_mid_campaign_resume_is_bit_identical(self, tmp_path):
        full = self._cfg(n_sweeps=6)
        ref = self._run(full)
        d = tmp_path / "ck"
        # Interrupted mid-campaign: 3 of 6 sweeps, then resume.
        self._run(self._cfg(n_sweeps=3), CheckpointConfig(d, every=3))
        assert sorted(p.name for p in d.iterdir()) == ["rank0000.npz", "rank0001.npz"]
        resumed = self._run(full, CheckpointConfig(d, resume=True))
        for r_ref, r_got in zip(ref.values, resumed.values):
            # Counters restart at resume (they are not in the bundle,
            # matching the flat strip driver); the trajectory must not.
            for key in ("energy", "magnetization", "owned_spins"):
                np.testing.assert_array_equal(r_got[key], r_ref[key],
                                              err_msg=key)

    def test_flat_checkpoint_rejected_with_clear_error(self, tmp_path):
        # A genuine flat strip checkpoint: same ranks, one chain.
        d = tmp_path / "flat"
        self._run(self._cfg(n_sweeps=3, replicas=1), CheckpointConfig(d, every=3))
        with pytest.raises(ValueError, match="strip block"):
            self._run(self._cfg(n_sweeps=6), CheckpointConfig(d, resume=True))

    def test_geometry_mismatch_rejected(self, tmp_path):
        d = tmp_path / "ck"
        self._run(self._cfg(n_sweeps=3), CheckpointConfig(d, every=3))
        with pytest.raises(ValueError, match="strip block"):
            self._run(self._cfg(n_sweeps=6, replicas=4),
                      CheckpointConfig(d, resume=True))

    def test_malformed_manifest_rejected(self, tmp_path):
        d = tmp_path / "ck"
        d.mkdir()
        (d / "layout.json").write_text(json.dumps({"layout": "strip"}))
        with pytest.raises(ValueError, match="holds a 'strip' checkpoint"):
            self._run(self._cfg(n_sweeps=6), CheckpointConfig(d, resume=True))

    def test_two_level_directory_of_the_split_layout_refused(self, tmp_path):
        # What the R x P layout wrote: a bundle directory a replica and
        # the manifest naming it.
        d = tmp_path / "ck"
        for replica in range(2):
            self._run(self._cfg(n_sweeps=3, replicas=1),
                      CheckpointConfig(d / f"replica{replica:04d}", every=3))
        (d / "layout.json").write_text(json.dumps(
            {"layout": "two-level", "replicas": 2, "domain_ranks": 2}))
        with pytest.raises(ValueError, match="holds a 'two-level' checkpoint"):
            self._run(self._cfg(n_sweeps=6), CheckpointConfig(d, resume=True))
