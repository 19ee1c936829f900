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
    factory = SeedSequenceFactory(cfg.sweep_seed)
    for k in range(n_sweeps_total):
        u = factory.stream("scratch", k).generator.random((cfg.lx, cfg.ly, cfg.lt))
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
#: sha256 of their ``(n, 3)`` float64 ``bond_sums`` series as the driver
#: produced it at commit 4206d8e, when every measurement still refreshed
#: the east and north ghost planes and counted owned-origin bonds.
MEASURED_LATTICES = {
    (64, 1, 64): ((0.25, 0.0, 0.4),
                 "629fe53ac11ba82eabe7a72fff9e7dd8923162a9d7df201d1181f285de11cf5e"),
    (1, 8, 8): ((0.0, 0.2, 0.4),
               "fdeecccc989888a4f8ee3eb18a593db5e6f5ac88fcd2b4754065159e3c0a9289"),
    (8, 8, 8): ((0.25, 0.2, 0.4),
               "232838e6c78140ef462eb3b0a7acb338983337c1d6b68987e3a2114018200959"),
}


class TestMeasurementWithoutHalo:
    """The measurement posts nothing; every bond is still counted once.

    The 1-D TFIM energy never reads ``bond_sums[:, 1]``, so a wrong y
    column on an ``ly == 1`` lattice changes no series downstream: all
    three columns are held here, against the parent's bytes and against
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


class TestSweepUniforms:
    """A rank skips the generator ahead to its rows and draws only those."""

    @pytest.mark.parametrize("shape,p,grid", [
        ((8, 1, 6), 4, (4, 1)),   # x-split
        ((1, 8, 6), 4, (1, 4)),   # y-split
        ((8, 8, 4), 2, (1, 2)),   # y-split, every x-row drawn whole
        ((8, 8, 4), 4, (2, 2)),
    ])
    def test_rank_draw_is_its_block_of_the_global_field(self, shape, p, grid):
        lx, ly, lt = shape
        cfg = IsingBlockConfig(
            lx=lx, ly=ly, lt=lt, kx=0.0 if lx == 1 else 0.2,
            ky=0.0 if ly == 1 else 0.2, kt=0.3, n_sweeps=1, sweep_seed=31,
        )
        ranks = run_spmd(_draw_uniforms, p, machine=IDEAL, args=(cfg, 3)).values
        starts = {(piece.x_start, piece.y_start) for piece, _ in ranks}
        assert len({x for x, _ in starts}) == grid[0]
        assert len({y for _, y in starts}) == grid[1]
        factory = SeedSequenceFactory(cfg.sweep_seed)
        for piece, draws in ranks:
            for k, u in enumerate(draws):
                full = factory.stream("scratch", k).generator.random(shape)
                np.testing.assert_array_equal(
                    u, full[piece.x_start : piece.x_stop,
                            piece.y_start : piece.y_stop])


class TestColorOpIsStateless:
    def test_concurrent_calls_do_not_share_scratch(self):
        """The thread backend's ranks call the op at the same time, on
        equal shapes.  Scratch kept at module level once corrupted
        trajectories that way: four threads, each hammering its own
        lattice, must leave what four sequential runs leave."""
        block_color = kernels.get_ops("numpy")["block_color"]
        couplings = np.array([0.3, 0.0, 0.5])
        x, y, t = np.indices((32, 1, 64))
        masks = [(x + y + t) % 2 == c for c in (0, 1)]

        def job(seed):
            rng = np.random.default_rng(seed)
            g = (2 * rng.integers(0, 2, (34, 3, 64)) - 1).astype(np.int8)
            return g, np.log(rng.random((200, 32, 1, 64)))

        def hammer(g, log_us):
            for k, log_u in enumerate(log_us):
                block_color(g, couplings, masks[k % 2], log_u)

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
