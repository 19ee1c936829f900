"""Tests for the block-decomposed classical Ising driver.

The headline check is **bit-identity**: given the shared per-sweep
uniforms, the domain-decomposed trajectory must equal the serial one
configuration-by-configuration, at every rank count.
"""

import dataclasses
import hashlib
import sys
import threading

import numpy as np
import pytest

from repro import kernels
from repro.kernels.ising_tables import ising_thresholds
from repro.qmc.classical_ising import AnisotropicIsing
from repro.qmc.parallel import (
    IsingBlockConfig,
    _BlockState,
    ising_block_program,
)
from repro.util.rng import SeedSequenceFactory
from repro.vmp.machines import IDEAL, PARAGON
from repro.vmp.scheduler import run_spmd


def serial_reference(
    cfg: IsingBlockConfig, n_sweeps_total: int, after_sweep=None
) -> AnisotropicIsing:
    """Run the serial sampler with the exact uniforms the driver uses."""
    sampler = AnisotropicIsing(
        (cfg.lx, cfg.ly, cfg.lt), (cfg.kx, cfg.ky, cfg.kt), seed=0
    )
    stream = SeedSequenceFactory(cfg.sweep_seed).stream("sweep", 0).generator
    for k in range(n_sweeps_total):
        u = stream.random((cfg.lx, cfg.ly, cfg.lt))  # sweep k's whole field
        sampler.sweep(uniforms=u)
        if after_sweep is not None:
            after_sweep(k, sampler)
    return sampler


def gather_blocks(cfg: IsingBlockConfig, values: list[dict]) -> np.ndarray:
    out = np.empty((cfg.lx, cfg.ly, cfg.lt), dtype=np.int8)
    for v in values:
        x0, x1, y0, y1 = v["piece"]
        out[x0:x1, y0:y1] = v["block"]
    return out


CFG_2D = IsingBlockConfig(
    lx=8, ly=8, lt=4, kx=0.35, ky=0.25, kt=0.15,
    n_sweeps=12, n_thermalize=3, sweep_seed=99,
)

CFG_CHAIN = IsingBlockConfig(
    lx=8, ly=1, lt=8, kx=0.3, ky=0.0, kt=0.4,
    n_sweeps=10, n_thermalize=2, sweep_seed=7,
)


class TestBitIdentity:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_2d_blocks_match_serial(self, p):
        res = run_spmd(ising_block_program, p, machine=IDEAL, seed=1, args=(CFG_2D,))
        parallel = gather_blocks(CFG_2D, res.values)
        serial = serial_reference(CFG_2D, CFG_2D.n_sweeps + CFG_2D.n_thermalize)
        np.testing.assert_array_equal(parallel, serial.spins)

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_chain_embedding_matches_serial(self, p):
        res = run_spmd(
            ising_block_program, p, machine=IDEAL, seed=1, args=(CFG_CHAIN,)
        )
        parallel = gather_blocks(CFG_CHAIN, res.values)
        serial = serial_reference(CFG_CHAIN, CFG_CHAIN.n_sweeps + CFG_CHAIN.n_thermalize)
        np.testing.assert_array_equal(parallel, serial.spins)

    def test_observable_series_identical_across_rank_counts(self):
        series = {}
        for p in (1, 4):
            res = run_spmd(ising_block_program, p, machine=IDEAL, seed=1,
                           args=(CFG_2D,))
            series[p] = (
                res.values[0]["magnetization"],
                res.values[0]["bond_sums"],
            )
        np.testing.assert_allclose(series[1][0], series[4][0], atol=1e-12)
        np.testing.assert_allclose(series[1][1], series[4][1], atol=1e-9)


class TestScalarMode:
    """The per-site scalar reference kernel cross-checks the masked one."""

    def test_mode_validated(self):
        with pytest.raises(ValueError, match="mode"):
            IsingBlockConfig(lx=4, ly=4, lt=4, kx=0.1, ky=0.1, kt=0.1,
                             n_sweeps=1, mode="simd")

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_scalar_blocks_match_serial(self, p):
        cfg = dataclasses.replace(CFG_2D, mode="scalar", n_sweeps=6,
                                  n_thermalize=2)
        res = run_spmd(ising_block_program, p, machine=IDEAL, seed=1,
                       args=(cfg,))
        parallel = gather_blocks(cfg, res.values)
        serial = serial_reference(cfg, cfg.n_sweeps + cfg.n_thermalize)
        np.testing.assert_array_equal(parallel, serial.spins)

    def test_scalar_and_vectorized_series_identical(self):
        series = {}
        for mode in ("scalar", "vectorized"):
            cfg = dataclasses.replace(CFG_2D, mode=mode, n_sweeps=6,
                                      n_thermalize=2)
            res = run_spmd(ising_block_program, 2, machine=IDEAL, seed=1,
                           args=(cfg,))
            series[mode] = res.values[0]
            assert res.values[0]["mode"] == mode
        np.testing.assert_array_equal(
            series["scalar"]["magnetization"],
            series["vectorized"]["magnetization"],
        )
        np.testing.assert_array_equal(
            series["scalar"]["bond_sums"], series["vectorized"]["bond_sums"]
        )


class TestMeasurements:
    def test_bond_sums_match_serial_definition(self):
        res = run_spmd(ising_block_program, 2, machine=IDEAL, seed=1, args=(CFG_2D,))
        serial = serial_reference(CFG_2D, CFG_2D.n_sweeps + CFG_2D.n_thermalize)
        np.testing.assert_allclose(
            res.values[0]["bond_sums"][-1], serial.bond_sums(), atol=1e-9
        )

    def test_all_ranks_hold_identical_series(self):
        res = run_spmd(ising_block_program, 4, machine=IDEAL, seed=1, args=(CFG_2D,))
        for v in res.values[1:]:
            np.testing.assert_allclose(
                v["magnetization"], res.values[0]["magnetization"]
            )


#: Lattices with an inert y axis, an inert x axis and none, and the
#: sha256 of their ``(n, 3)`` float64 ``bond_sums`` series.  First
#: recorded at commit 4206d8e, when every measurement still refreshed the
#: east and north ghost planes and counted owned-origin bonds; re-pinned
#: when the sweep uniforms moved to one skip-ahead stream per run (the
#: trajectory moved, the counting did not: the serial legs hold that).
MEASURED_LATTICES = {
    (64, 1, 64): ((0.25, 0.0, 0.4),
                 "5a91aa0fac18fd5f7bba3730d0b81e607ee32ad8872c31c1f4c7b047b396b8f7"),
    (1, 8, 8): ((0.0, 0.2, 0.4),
               "1348f6b466f60778da4b739a4e2e242f6b455a0c1bc04122a1dad8c135785d32"),
    (8, 8, 8): ((0.25, 0.2, 0.4),
               "d260dc2138b639060675018616dda2458d7ed4e5fc6cfcf197716894953d4fa4"),
}


class TestMeasurementWithoutHalo:
    """The measurement posts nothing; every bond is still counted once.

    The 1-D TFIM energy never reads ``bond_sums[:, 1]``, so a wrong y
    column on an ``ly == 1`` lattice changes no series downstream: all
    three columns are held here, against pinned bytes and against
    the serial sampler's own ``np.roll`` definition sweep by sweep.
    """

    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize(
        "shape", sorted(MEASURED_LATTICES), ids=lambda s: "x".join(map(str, s)))
    def test_every_bond_sum_column_equals_parent_and_serial(self, shape, p):
        (kx, ky, kt), parent_sha = MEASURED_LATTICES[shape]
        lx, ly, lt = shape
        cfg = IsingBlockConfig(
            lx=lx, ly=ly, lt=lt, kx=kx, ky=ky, kt=kt,
            n_sweeps=12, n_thermalize=2, sweep_seed=11,
        )
        res = run_spmd(ising_block_program, p, machine=IDEAL, seed=1, args=(cfg,))
        serial_rows = []
        serial_reference(
            cfg, cfg.n_thermalize + cfg.n_sweeps,
            after_sweep=lambda k, sampler: k >= cfg.n_thermalize
            and serial_rows.append(sampler.bond_sums()),
        )
        for v in res.values:
            bonds = v["bond_sums"]
            assert bonds.shape == (cfg.n_sweeps, 3) and bonds.dtype == np.float64
            for column, name in enumerate("xyt"):
                np.testing.assert_array_equal(
                    bonds[:, column], np.array(serial_rows)[:, column],
                    err_msg=f"{name} bonds")
            assert hashlib.sha256(bonds.tobytes()).hexdigest() == parent_sha
        # an inert axis bonds every site to itself
        if ly == 1:
            assert (res.values[0]["bond_sums"][:, 1] == lx * lt).all()
        if lx == 1:
            assert (res.values[0]["bond_sums"][:, 0] == ly * lt).all()


def _draw_uniforms(comm, cfg, n_draws):
    st = _BlockState(comm, cfg)
    return st.piece, [st._sweep_uniforms() for _ in range(n_draws)]


def _box_of(piece, cfg, field):
    """The rows and columns of ``field`` color 0's box of ``piece``
    covers: its own, and one more a side on an axis of extent > 1,
    wrapped."""
    rx, ry = int(cfg.lx > 1), int(cfg.ly > 1)
    rows = np.arange(piece.x_start - rx, piece.x_stop + rx) % cfg.lx
    cols = np.arange(piece.y_start - ry, piece.y_stop + ry) % cfg.ly
    return field[rows][:, cols]


class TestSweepUniforms:
    """A rank skips the generator ahead to its rows and draws only those."""

    @pytest.mark.parametrize("shape,p,grid", [
        ((8, 1, 6), 4, (4, 1)),   # x-split
        ((1, 8, 6), 4, (1, 4)),   # y-split
        ((8, 8, 4), 2, (1, 2)),   # y-split, every x-row drawn whole
        ((8, 8, 4), 4, (2, 2)),
    ])
    def test_rank_draw_is_its_block_of_the_global_field(self, shape, p, grid):
        """... its block, and the rim color 0 updates redundantly."""
        lx, ly, lt = shape
        cfg = IsingBlockConfig(
            lx=lx, ly=ly, lt=lt, kx=0.0 if lx == 1 else 0.2,
            ky=0.0 if ly == 1 else 0.2, kt=0.3, n_sweeps=1, sweep_seed=31,
        )
        ranks = run_spmd(_draw_uniforms, p, machine=IDEAL, args=(cfg, 3)).values
        starts = {(piece.x_start, piece.y_start) for piece, _ in ranks}
        assert len({x for x, _ in starts}) == grid[0]
        assert len({y for _, y in starts}) == grid[1]
        for piece, draws in ranks:
            stream = SeedSequenceFactory(cfg.sweep_seed).stream("sweep", 0).generator
            for k, u in enumerate(draws):
                np.testing.assert_array_equal(
                    u, _box_of(piece, cfg, stream.random(shape)))


def _draw_after_sweeps(comm, cfg, k):
    st = _BlockState(comm, cfg)
    for _ in range(k):
        st.sweep()
    return st.piece, st._sweep_uniforms()


class TestSweepStream:
    """One stream per run: sweep ``k`` of a rank is a skip-ahead of it."""

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_draw_after_k_sweeps_is_the_advanced_stream(self, p):
        k = 5
        lx, ly, lt = CFG_2D.lx, CFG_2D.ly, CFG_2D.lt
        ranks = run_spmd(_draw_after_sweeps, p, machine=IDEAL,
                         args=(CFG_2D, k)).values
        for piece, u in ranks:
            gen = SeedSequenceFactory(CFG_2D.sweep_seed).stream("sweep", 0).generator
            gen.bit_generator.advance(k * lx * ly * lt)
            np.testing.assert_array_equal(
                u, _box_of(piece, CFG_2D, gen.random((lx, ly, lt))))


class TestColorOpIsStateless:
    def test_concurrent_calls_do_not_share_scratch(self):
        """The thread backend's ranks call the op at the same time, on
        equal shapes.  Scratch kept at module level once corrupted
        trajectories that way: four threads, each hammering its own
        lattice, must leave what four sequential runs leave."""
        block_color = kernels.get_ops("numpy")["block_color"]
        thr = ising_thresholds(0.3, 0.0, 0.5)
        x, y, t = np.indices((34, 1, 64))
        masks = [(x + y + t) % 2 == c for c in (0, 1)]

        def job(seed):
            rng = np.random.default_rng(seed)
            g = (2 * rng.integers(0, 2, (36, 1, 64)) - 1).astype(np.int8)
            return g, np.log(rng.random((200, 34, 1, 64)))

        def hammer(g, log_us):
            for k, log_u in enumerate(log_us):
                block_color(g, thr, masks[k % 2], log_u, (1, 0))

        expected = []
        for seed in range(4):
            g, log_us = job(seed)
            hammer(g, log_us)
            expected.append(g)
        jobs = [job(seed) for seed in range(4)]
        threads = [threading.Thread(target=hammer, args=j) for j in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for (g, _), want in zip(jobs, expected):
            np.testing.assert_array_equal(g, want)


class TestValidationAndCosts:
    def test_odd_block_rejected(self):
        cfg = IsingBlockConfig(lx=6, ly=4, lt=4, kx=0.1, ky=0.1, kt=0.1, n_sweeps=1)
        with pytest.raises(ValueError, match="odd x-block"):
            run_spmd(ising_block_program, 4, machine=IDEAL, args=(cfg,))

    def test_inert_axis_coupling_validated(self):
        with pytest.raises(ValueError, match="zero coupling"):
            IsingBlockConfig(lx=4, ly=1, lt=4, kx=0.1, ky=0.2, kt=0.1, n_sweeps=1)

    def test_parallel_run_reports_comm_costs(self):
        res = run_spmd(ising_block_program, 4, machine=PARAGON, seed=1,
                       args=(CFG_2D,))
        assert res.elapsed_model_time > 0
        assert 0 < res.comm_fraction() < 1
        assert res.total_messages > 0
