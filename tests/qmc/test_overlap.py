"""The halo-overlap pipeline: partition tables, bit-identity, resume.

The overlap knob reorders *when* halo data moves and which sub-table a
kernel updates first; it must never change a single accept decision.
This suite pins:

* the drivers' interior/boundary partition tables (every site of every
  independence class lands in exactly one partition; tables are cached;
  degenerate thin subdomains fall back to lockstep with a warning);
* trajectory bit-identity of overlap on vs off across P in {1, 2, 4},
  scalar/vectorized kernels, and the thread/mp/mpi backends (the mpi
  leg skips where mpi4py/mpiexec are absent; CI's MPI job runs it);
* checkpoint compatibility: the knob is absent from the resume
  fingerprint, so a lockstep checkpoint resumes overlapped (and vice
  versa) bit for bit.

The bit-identity cells run through the shared
``tests.conftest.run_driver_matrix`` / ``assert_bit_identical``
helpers, the one matrix runner every driver-agreement suite uses.
"""

import numpy as np
import pytest

from repro.qmc.parallel import (
    WL_STAGES,
    IsingBlockConfig,
    WorldlineStripConfig,
    _BlockState,
    _StripState,
    ising_block_program,
    worldline_strip_program,
)
from repro.run.checkpoint import CheckpointConfig
from repro.vmp.machines import PARAGON
from repro.vmp.mpi_backend import mpi_available, mpiexec_available
from repro.vmp.scheduler import run_spmd
from tests.conftest import (
    BLOCK_KEYS,
    STRIP_KEYS,
    assert_bit_identical,
    run_driver_matrix,
)

HAVE_REAL_MPI = mpi_available() and mpiexec_available()
# The process-spawning backend legs carry the tier1_fault marker (the
# repo's "needs real process spawning" tier knob): still tier 1, but
# deselectable with --no-fault on restricted machines.
BACKENDS = [
    "thread",
    pytest.param("mp", marks=pytest.mark.tier1_fault),
] + ([pytest.param("mpi", marks=pytest.mark.tier1_fault)] if HAVE_REAL_MPI else [])


def _strip_cfg(mode="vectorized", overlap=False, n_sweeps=6, n_sites=32):
    return WorldlineStripConfig(
        n_sites=n_sites, jz=1.0, jxy=0.8, beta=0.9, n_slices=8,
        n_sweeps=n_sweeps, n_thermalize=2, mode=mode, overlap=overlap,
    )


def _block_cfg(mode="vectorized", overlap=False, n_sweeps=6):
    return IsingBlockConfig(
        lx=8, ly=8, lt=4, kx=0.25, ky=0.25, kt=0.4,
        n_sweeps=n_sweeps, n_thermalize=2, mode=mode, overlap=overlap,
    )


# ======================================================================
# partition tables
# ======================================================================


def _inspect_strip_partitions(comm, cfg):
    """Rank program: build the state and report its partition tables."""
    st = _StripState(comm, cfg)
    out = {"active": st.overlap_active, "classes": {}}
    if not st.overlap_active:
        return out
    for i, (kind, a, b) in enumerate(WL_STAGES):
        cache = st._stage_cache[i]
        split = st._stage_split[i]
        if kind == "corner":
            key, sizer = f"corner{a}{b}", "j"
        else:
            key, sizer = f"col{a}", "lc"
        total = 0 if cache is None else cache[sizer].size
        n_int = 0 if split[0] is None else split[0][sizer].size
        n_bnd = 0 if split[1] is None else split[1][sizer].size
        out["classes"][key] = (total, n_int, n_bnd)
    # Cache identity: rebuilding a class split must hand back the very
    # same partition object the decomposition cached during __init__.
    n = st.n_owned
    cache = st._stage_cache[WL_STAGES.index(("column", 0, None))]
    p1 = st.decomp.overlap_partition(("wl-col", comm.rank, 0), cache["lc"], 3, n)
    p2 = st.decomp.overlap_partition(("wl-col", comm.rank, 0), cache["lc"], 3, n)
    out["cache_identity"] = p1 is p2
    return out


class TestStripPartitionTables:
    @pytest.mark.parametrize("p", [2, 4])
    def test_every_move_in_exactly_one_partition(self, p):
        res = run_spmd(
            _inspect_strip_partitions, p, PARAGON, seed=1,
            args=(_strip_cfg(overlap=True),),
        )
        for rank_info in res.values:
            assert rank_info["active"]
            assert rank_info["classes"]
            for key, (total, n_int, n_bnd) in rank_info["classes"].items():
                assert n_int + n_bnd == total, key
                if total:
                    assert n_int > 0, f"{key}: no overlappable interior"

    def test_partition_tables_cached(self):
        res = run_spmd(
            _inspect_strip_partitions, 2, PARAGON, seed=1,
            args=(_strip_cfg(overlap=True),),
        )
        assert all(v["cache_identity"] for v in res.values)

    def test_degenerate_strip_warns_and_falls_back(self):
        # 16 columns over 4 ranks -> 4 owned columns: every corner class
        # is ghost-adjacent, so the pipeline must refuse and warn.
        cfg = _strip_cfg(overlap=True, n_sites=16)
        with pytest.warns(UserWarning, match="falling back to the lockstep"):
            res = run_spmd(
                _inspect_strip_partitions, 4, PARAGON, seed=1, args=(cfg,)
            )
            ran = run_spmd(worldline_strip_program, 4, PARAGON, seed=1,
                           args=(cfg,))
        assert not any(v["active"] for v in res.values)
        # The fallback is a recorded fact, not only a warning: every
        # rank's result says the pipeline did not run.
        assert [v["overlap_active"] for v in ran.values] == [False] * 4

    def test_single_rank_overlap_inactive_silently(self):
        res = run_spmd(
            _inspect_strip_partitions, 1, PARAGON, seed=1,
            args=(_strip_cfg(overlap=True),),
        )
        assert not res.values[0]["active"]


def _inspect_block_partitions(comm, cfg):
    st = _BlockState(comm, cfg)
    out = {"active": st.overlap_active}
    if st.overlap_active:
        out["colors"] = [
            (st._n_color_sites[c],
             int(st._int_masks[c].sum()),
             int(st._bnd_masks[c].sum()))
            for c in range(2)
        ]
        out["cache_identity"] = (
            st.decomp.overlap_partition(comm.rank)
            is st.decomp.overlap_partition(comm.rank)
        )
    return out


class TestBlockPartitionTables:
    @pytest.mark.parametrize("p", [2, 4])
    def test_every_site_in_exactly_one_partition(self, p):
        res = run_spmd(
            _inspect_block_partitions, p, PARAGON, seed=1,
            args=(_block_cfg(overlap=True),),
        )
        for rank_info in res.values:
            assert rank_info["active"]
            assert rank_info["cache_identity"]
            for total, n_int, n_bnd in rank_info["colors"]:
                assert n_int + n_bnd == total
                assert n_int > 0

    def test_thin_block_warns_and_falls_back(self):
        cfg = IsingBlockConfig(
            lx=4, ly=4, lt=4, kx=0.25, ky=0.25, kt=0.4,
            n_sweeps=2, overlap=True,
        )
        with pytest.warns(UserWarning, match="falling back to the lockstep"):
            res = run_spmd(_inspect_block_partitions, 4, PARAGON, seed=1,
                           args=(cfg,))
        assert not any(v["active"] for v in res.values)


# ======================================================================
# bit-identity matrix
# ======================================================================


def _run_strip(p, mode, overlap, backend="thread", ckpt=None, n_sweeps=6):
    return run_driver_matrix(
        worldline_strip_program, p,
        _strip_cfg(mode=mode, overlap=overlap, n_sweeps=n_sweeps),
        seed=42, backend=backend, checkpoint=ckpt,
    )


def _run_block(p, mode, overlap, backend="thread", ckpt=None, n_sweeps=6):
    return run_driver_matrix(
        ising_block_program, p,
        _block_cfg(mode=mode, overlap=overlap, n_sweeps=n_sweeps),
        seed=42, backend=backend, checkpoint=ckpt,
    )


@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("mode", ["scalar", "vectorized"])
class TestOverlapBitIdentity:
    def test_strip_overlap_matches_lockstep(self, p, mode):
        ref = _run_strip(p, mode, overlap=False)
        got = _run_strip(p, mode, overlap=True)
        assert_bit_identical(ref, got, STRIP_KEYS)
        assert not any(v["overlap_active"] for v in ref.values)
        assert all(v["overlap_active"] == (p > 1) for v in got.values)
        if p > 1:
            # The pipeline must shorten the modeled makespan, never pad it.
            assert got.elapsed_model_time < ref.elapsed_model_time

    def test_block_overlap_matches_lockstep(self, p, mode):
        ref = _run_block(p, mode, overlap=False)
        got = _run_block(p, mode, overlap=True)
        assert_bit_identical(ref, got, BLOCK_KEYS)
        assert all(v["overlap_active"] == (p > 1) for v in got.values)
        if p > 1:
            assert got.elapsed_model_time < ref.elapsed_model_time


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("p", [1, 2, 4])
class TestOverlapAcrossBackends:
    def test_strip_backend_agrees_with_thread_lockstep(self, backend, p):
        ref = _run_strip(p, "vectorized", overlap=False, backend="thread")
        got = _run_strip(p, "vectorized", overlap=True, backend=backend)
        assert_bit_identical(ref, got, STRIP_KEYS)

    def test_block_backend_agrees_with_thread_lockstep(self, backend, p):
        ref = _run_block(p, "vectorized", overlap=False, backend="thread")
        got = _run_block(p, "vectorized", overlap=True, backend=backend)
        assert_bit_identical(ref, got, BLOCK_KEYS)


# ======================================================================
# checkpoint/resume with the knob toggled
# ======================================================================


class TestOverlapResume:
    @pytest.mark.parametrize("save_overlap,resume_overlap",
                             [(False, True), (True, False)])
    def test_strip_resume_toggles_overlap(self, tmp_path, save_overlap,
                                          resume_overlap):
        ref = _run_strip(2, "vectorized", overlap=False).values[0]
        d = tmp_path / "ck"
        _run_strip(2, "vectorized", overlap=save_overlap, n_sweeps=3,
                   ckpt=CheckpointConfig(d, every=3))
        resumed = _run_strip(2, "vectorized", overlap=resume_overlap,
                             n_sweeps=6,
                             ckpt=CheckpointConfig(d, resume=True)).values[0]
        np.testing.assert_array_equal(resumed["energy"], ref["energy"])
        np.testing.assert_array_equal(
            resumed["magnetization"], ref["magnetization"]
        )
        np.testing.assert_array_equal(
            resumed["owned_spins"], ref["owned_spins"]
        )

    def test_block_resume_toggles_overlap(self, tmp_path):
        ref = _run_block(2, "vectorized", overlap=False).values[0]
        d = tmp_path / "ck"
        _run_block(2, "vectorized", overlap=False, n_sweeps=3,
                   ckpt=CheckpointConfig(d, every=3))
        resumed = _run_block(2, "vectorized", overlap=True, n_sweeps=6,
                             ckpt=CheckpointConfig(d, resume=True)).values[0]
        np.testing.assert_array_equal(resumed["block"], ref["block"])
        np.testing.assert_array_equal(resumed["bond_sums"], ref["bond_sums"])
