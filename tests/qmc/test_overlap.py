"""The overlapped halo schedule: interior shares, bit-identity, resume.

The overlap knob changes what the modeled clock is charged -- offloaded
posts, each stage's interior share before the halo wait and the rest
after it -- and nothing that executes.  This suite pins:

* the drivers' interior masks and counts (every move of every
  stage is interior or boundary, never both; no move
  counted interior touches a ghost; degenerate thin subdomains fall
  back to lockstep with a warning);
* one kernel call per stage whatever the schedule, timed on its own;
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
# interior shares
# ======================================================================


def _inspect_strip_partitions(comm, cfg):
    """Rank program: build the state and report, per stage, its size,
    the driver's interior count (a corner color) or mask (a column
    parity), and the local rows (axis 0 of ``loc``) each move
    touches."""
    st = _StripState(comm, cfg)
    out = {"active": st.overlap_active, "n_owned": st.n_owned, "classes": {}}
    if not st.overlap_active:
        return out
    out["depth"] = st.depth
    for (kind, index), cache in zip(WL_STAGES, st._plan.stages):
        if kind == "corner":
            key, total, interior = f"corner{index}", cache["env"].shape[0], cache["n_interior"]
            # (moves, cells): the 16 environment and the 4 flipped cells
            touched = np.concatenate([cache["env"], cache["flip"].T], axis=1)
        else:
            key, total, interior = f"col{index}", cache["lc"].size, cache["interior"]
            # (columns, cells): the plaquette neighbors and the column itself
            touched = np.concatenate(
                [cache["nbr"], cache["lc"][:, None] * st.T], axis=1)
        out["classes"][key] = (total, interior, touched // st.T)
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
            for key, (total, interior, rows) in rank_info["classes"].items():
                assert rows.shape[0] == total, key
                n_int = int(np.sum(interior))  # a count, or a mask over the class
                assert 0 < n_int <= total, f"{key}: no overlappable interior"
                if key.startswith("col"):
                    assert interior.shape == (total,), key

    @pytest.mark.parametrize("p", [2, 4])
    def test_interior_moves_touch_no_ghost(self, p):
        """What the executed split used to prove by running it: the
        moves the clock charges before the halo wait read and write
        owned rows ``[depth, depth + n)`` only.  The interior share of a
        stage is exactly its ghost-free moves -- by count for a corner
        color (every move is attempted), move by move for a column
        parity (the straight ones are) -- so it is also as large as it
        may be."""
        res = run_spmd(
            _inspect_strip_partitions, p, PARAGON, seed=1,
            args=(_strip_cfg(overlap=True),),
        )
        for rank_info in res.values:
            n, d = rank_info["n_owned"], rank_info["depth"]
            for key, (_, interior, rows) in rank_info["classes"].items():
                ghost_free = ((rows >= d) & (rows < n + d)).all(axis=1)
                if key.startswith("corner"):
                    assert interior == np.count_nonzero(ghost_free), key
                else:
                    np.testing.assert_array_equal(interior, ghost_free, key)

    def test_degenerate_strip_warns_and_falls_back(self):
        # 16 columns over 4 ranks -> 4 owned columns: two corner colors
        # are all ghost-adjacent, so the schedule must refuse and warn.
        cfg = _strip_cfg(overlap=True, n_sites=16)
        with pytest.warns(UserWarning, match="falling back to the lockstep"):
            res = run_spmd(
                _inspect_strip_partitions, 4, PARAGON, seed=1, args=(cfg,)
            )
            ran = run_spmd(worldline_strip_program, 4, PARAGON, seed=1,
                           args=(cfg,))
        assert not any(v["active"] for v in res.values)
        # The fallback is a recorded fact, not only a warning: every
        # rank's result says the overlapped schedule was not charged.
        assert [v["overlap_active"] for v in ran.values] == [False] * 4

    def test_single_rank_overlap_inactive_silently(self):
        res = run_spmd(
            _inspect_strip_partitions, 1, PARAGON, seed=1,
            args=(_strip_cfg(overlap=True),),
        )
        assert not res.values[0]["active"]


def _inspect_block_partitions(comm, cfg):
    """Rank program: color 0's box size, the driver's interior count,
    and the interior / boundary counts derived here from the halo
    traffic itself: a site is boundary iff it or one of its four spatial
    neighbours is a ghost site the refresh's last phase lands a message
    in (an earlier phase has arrived before it posts)."""
    st = _BlockState(comm, cfg)
    out = {"active": st.overlap_active, "grid": (st.decomp.px, st.decomp.py)}
    if not st.overlap_active:
        return out
    in_flight = np.zeros(st.g.shape, dtype=bool)
    for _, _, sites in st._phases[0][-1][1]:  # the last phase's receives
        in_flight.reshape(-1)[sites] = True
    # color 0's box: one plane in from the frame on every ghosted axis
    (dx, dy), (nx, ny) = st._plan.frame.depths, st.g.shape[:2]
    xs, ys = slice(dx // 2, nx - dx // 2), slice(dy // 2, ny - dy // 2)
    reads_ghost = in_flight[xs, ys].copy()
    if dx:
        reads_ghost |= in_flight[xs.start - 1 : xs.stop - 1, ys]
        reads_ghost |= in_flight[xs.start + 1 : xs.stop + 1, ys]
    if dy:
        reads_ghost |= in_flight[xs, ys.start - 1 : ys.stop - 1]
        reads_ghost |= in_flight[xs, ys.start + 1 : ys.stop + 1]
    mask = st._plan.masks[0]
    out["color0"] = (
        int(np.count_nonzero(mask)),
        st._plan.n_int,
        int(np.count_nonzero(mask & ~reads_ghost)),
        int(np.count_nonzero(mask & reads_ghost)),
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
            total, n_int, free, reading = rank_info["color0"]
            assert free + reading == total
            assert n_int == free > 0

    @pytest.mark.parametrize("p,shape,grid", [
        (2, (8, 8, 4), (1, 2)),
        (4, (8, 8, 4), (2, 2)),
        (2, (16, 1, 4), (2, 1)),
        (4, (16, 1, 4), (4, 1)),
        (4, (1, 16, 2), (1, 4)),
    ], ids=["1x2", "2x2", "2x1", "4x1", "1x4"])
    def test_interior_sites_touch_no_ghost(self, p, shape, grid):
        """The sites the clock charges before the halo wait are exactly
        the ones neither in nor next to a ghost plane still in flight --
        planes of an unsplit axis copy locally and hold nobody back."""
        lx, ly, lt = shape
        cfg = IsingBlockConfig(
            lx=lx, ly=ly, lt=lt, kx=0.25 if lx > 1 else 0.0,
            ky=0.25 if ly > 1 else 0.0, kt=0.4, n_sweeps=1, overlap=True,
        )
        res = run_spmd(_inspect_block_partitions, p, PARAGON, seed=1, args=(cfg,))
        for rank_info in res.values:
            assert rank_info["active"] and rank_info["grid"] == grid
            total, n_int, free, reading = rank_info["color0"]
            assert free + reading == total
            assert n_int == free
            assert reading > 0

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
# one kernel call per stage
# ======================================================================


def _count_kernel_calls(comm, state_cls, cfg, n_sweeps=4):
    """Rank program: sweep with every op and ``_timed`` wrapped; returns
    the op calls per sweep and what ``_timed`` was handed."""
    st = state_cls(comm, cfg)
    calls, timed = [], []

    def counting(name, op):
        def wrapped(*args):
            calls[-1][name] = calls[-1].get(name, 0) + 1
            return op(*args)
        wrapped.op_name = name
        return wrapped

    st._kops = {name: counting(name, op) for name, op in st._kops.items()}
    real_timed = st._timed

    def recording_timed(kernel, *args):
        timed.append(getattr(kernel, "op_name", None))
        return real_timed(kernel, *args)

    st._timed = recording_timed
    for _ in range(n_sweeps):
        calls.append({})
        st.sweep()
    return st.overlap_active, calls, timed


class TestOneKernelCallPerStage:
    """``overlap`` doubles the accounting, not the execution: each stage
    makes exactly the kernel calls lockstep makes, and the kernel timer
    wraps the op call alone -- never the halo wait."""

    @pytest.mark.parametrize("p", [2, 4])
    def test_strip(self, p):
        runs = {
            overlap: run_spmd(
                _count_kernel_calls, p, PARAGON, seed=1,
                args=(_StripState, _strip_cfg(overlap=overlap)),
            ).values
            for overlap in (False, True)
        }
        for (_, calls_off, timed_off), (active, calls_on, timed_on) in zip(
            runs[False], runs[True]
        ):
            assert active
            assert calls_on == calls_off
            assert timed_on == timed_off
            for sweep in calls_on:
                assert sweep["strip_corner"] == 4
                assert sweep.get("strip_column", 0) <= 2
                assert set(sweep) <= {"strip_corner", "strip_column"}
            # every timed callable is an op, and every op call is timed
            assert None not in timed_on
            assert len(timed_on) == sum(sum(s.values()) for s in calls_on)

    @pytest.mark.parametrize("p", [2, 4])
    def test_block(self, p):
        for overlap in (False, True):
            for active, calls, timed in run_spmd(
                _count_kernel_calls, p, PARAGON, seed=1,
                args=(_BlockState, _block_cfg(overlap=overlap)),
            ).values:
                assert active == overlap
                assert calls == [{"block_color": 2}] * len(calls)
                assert timed == ["block_color"] * (2 * len(calls))


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
