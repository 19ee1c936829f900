"""Tests for the closed-form performance model."""

import pytest

from repro.vmp.machines import CM5, IDEAL, NCUBE2, PARAGON
from repro.vmp.performance import (
    PerformanceModel,
    WorkloadShape,
    efficiency,
    gustafson_scaled_speedup,
    speedup,
)


def workload(**over):
    base = dict(
        lx=64, ly=64, lt=32, flops_per_site=50.0, sweeps=200, strategy="strip"
    )
    base.update(over)
    return WorkloadShape(**base)


class TestHelpers:
    def test_speedup_and_efficiency(self):
        assert speedup(10.0, 2.0) == 5.0
        assert efficiency(10.0, 2.0, 10) == 0.5
        with pytest.raises(ValueError):
            speedup(1.0, 0.0)

    def test_gustafson(self):
        assert gustafson_scaled_speedup(0.0, 64) == 64
        assert gustafson_scaled_speedup(1.0, 64) == 1
        assert gustafson_scaled_speedup(0.1, 10) == pytest.approx(9.1)
        with pytest.raises(ValueError):
            gustafson_scaled_speedup(1.5, 4)


class TestWorkloadShape:
    def test_validation(self):
        with pytest.raises(ValueError):
            workload(strategy="diagonal")
        with pytest.raises(ValueError):
            workload(sweeps=0)
        with pytest.raises(ValueError):
            workload(lx=0)

    def test_sites_and_flops(self):
        w = workload()
        assert w.sites == 64 * 64 * 32
        assert w.total_flops == w.sites * 50.0 * 200

    def test_scaled_to_grows_x(self):
        w = workload().scaled_to(4)
        assert w.lx == 256
        assert w.ly == 64


class TestPerformanceModel:
    def test_ideal_machine_scales_perfectly(self):
        pm = PerformanceModel(IDEAL, workload())
        for p in (1, 4, 16, 64):
            assert pm.speedup(p) == pytest.approx(p, rel=0.02)

    def test_single_node_has_no_comm(self):
        pm = PerformanceModel(PARAGON, workload())
        assert pm.comm_fraction(1) == 0.0
        assert pm.halo_seconds_per_sweep(1) == 0.0

    def test_efficiency_decreases_with_p(self):
        pm = PerformanceModel(PARAGON, workload())
        effs = [pm.efficiency(p) for p in (1, 4, 16, 64)]
        assert all(a >= b for a, b in zip(effs, effs[1:]))
        assert effs[0] == pytest.approx(1.0)

    def test_comm_fraction_increases_with_p(self):
        pm = PerformanceModel(PARAGON, workload())
        fracs = [pm.comm_fraction(p) for p in (2, 8, 32)]
        assert fracs[0] < fracs[1] < fracs[2] < 1.0

    def test_scaled_speedup_beats_fixed_size(self):
        pm = PerformanceModel(NCUBE2, workload())
        p = 32
        assert pm.scaled_speedup(p) > pm.speedup(p)

    def test_strip_limited_by_columns(self):
        pm = PerformanceModel(PARAGON, workload(lx=16))
        with pytest.raises(ValueError, match="strip decomposition needs"):
            pm.time(32)

    def test_block_beats_strip_at_large_p(self):
        # Block halos shrink like 1/sqrt(P) per rank; strip halos are
        # constant.  At large P on a big lattice block must win.
        strip = PerformanceModel(PARAGON, workload(strategy="strip"))
        block = PerformanceModel(PARAGON, workload(strategy="block"))
        p = 64
        assert block.time(p) < strip.time(p)

    def test_replica_has_no_halo_cost(self):
        pm = PerformanceModel(PARAGON, workload(strategy="replica"))
        assert pm.halo_seconds_per_sweep(16) == 0.0

    def test_replica_amdahl_limit(self):
        # With 10% serial fraction the replica speedup saturates near 10.
        pm = PerformanceModel(
            PARAGON, workload(strategy="replica", serial_fraction=0.1, sweeps=512)
        )
        assert pm.speedup(256) < 11.0
        assert pm.speedup(256) > 5.0

    def test_updates_per_second_grows_with_p(self):
        pm = PerformanceModel(CM5, workload())
        assert pm.updates_per_second(16) > 8 * pm.updates_per_second(1)

    def test_invalid_p_rejected(self):
        with pytest.raises(ValueError):
            PerformanceModel(CM5, workload()).time(0)


class TestMachineComparisonShape:
    def test_cm5_fastest_at_moderate_p(self):
        w = workload()
        p = 16
        times = {
            m.name: PerformanceModel(m, w).time(p) for m in (CM5, PARAGON, NCUBE2)
        }
        # CM-5 nodes are ~2.5x Paragon and ~10x nCUBE-2: per-node flops
        # dominate at moderate P on this halo-light workload.
        assert times["CM-5"] < times["Paragon"] < times["nCUBE-2"]

    def test_efficiency_at_scale_is_era_plausible(self):
        # Genre expectation: ~50-95% efficiency at P=256 for a big lattice.
        w = WorkloadShape(lx=256, ly=256, lt=64, flops_per_site=50.0,
                          sweeps=100, strategy="block")
        pm = PerformanceModel(CM5, w)
        eff = pm.efficiency(256)
        assert 0.5 < eff < 0.99


class TestWorldline2DWorkload:
    def test_flop_accounting_matches_executed_driver(self):
        """One segment proposal per (bond, activation interval) plus the
        straight-column pass over every space--time site, counted on the
        sampler that executes them."""
        from repro.models.hamiltonians import XXZSquareModel
        from repro.qmc.worldline2d import FLOPS_PER_SEGMENT_MOVE, WorldlineSquareQmc
        from repro.vmp.performance import worldline2d_workload

        w = worldline2d_workload(8, 8, 32, sweeps=10)
        q = WorldlineSquareQmc(XXZSquareModel(8, 8), 1.0, 32)
        per_sweep = (
            q.n_bonds * q.n_trotter * FLOPS_PER_SEGMENT_MOVE
            + 2.0 * q.n_sites * q.n_slices
        )
        assert w.total_flops == pytest.approx(10 * per_sweep)

    def test_defaults_and_overrides(self):
        from repro.vmp.performance import worldline2d_workload

        w = worldline2d_workload(16, 16, 64, sweeps=100)
        assert w.strategy == "replica"
        assert w.lt == 64
        assert worldline2d_workload(
            16, 16, 64, sweeps=100, strategy="strip"
        ).strategy == "strip"


class TestWorldlineStripWorkload:
    def test_mirrors_executed_stage_structure(self):
        from repro.qmc.chains import REDUCE_BATCH
        from repro.qmc.parallel import (
            WorldlineStripConfig,
            halo_traffic,
            worldline_strip_program,
        )
        from repro.vmp.performance import worldline_strip_workload
        from repro.vmp.scheduler import run_spmd

        w = worldline_strip_workload(64, 64, sweeps=100)
        assert w.strategy == "strip"
        assert w.bytes_per_site == 1  # int8 spins on the wire
        assert w.allreduce_doubles == 2  # one folded reduction
        assert w.reduction_batch == REDUCE_BATCH
        assert PerformanceModel(PARAGON, w).reductions() == (1, 100)
        # The halo traffic is the driver's schedule at every P: a
        # refresh of all 2 D ghost columns, one message per neighbor
        # rank, before the first stage (pieces of 8 cap D at 8 and
        # refresh twice).
        for p, want in ((1, 0), (2, 1), (4, 2), (8, 4)):
            assert PerformanceModel(PARAGON, w).halo_messages_per_sweep(p) == want
            assert w.halo_schedule(p) == halo_traffic("worldline_strip", (64, 64), p)
        # ... which is what the driver sends: per rank and sweep, its
        # halo messages plus one message (P = 2: the reduce's or the
        # bcast's) per allreduce -- 130 measurements cross the batch cap
        # once -- and 16 reduced bytes per measurement however they are
        # batched.
        w = worldline_strip_workload(64, 64, sweeps=REDUCE_BATCH + 2)
        model = PerformanceModel(PARAGON, w)
        n_reductions, rows = model.reductions()
        assert (n_reductions, rows) == (2, REDUCE_BATCH)
        _, _, sites = w.halo_schedule(2)
        cfg = WorldlineStripConfig(n_sites=64, jz=1.0, jxy=1.0, beta=1.0,
                                   n_slices=64, n_sweeps=w.sweeps)
        res = run_spmd(worldline_strip_program, 2, machine=PARAGON, args=(cfg,))
        assert res.total_messages == 2 * (
            model.halo_messages_per_sweep(2) * cfg.n_sweeps + n_reductions
        )
        assert res.total_bytes == cfg.n_sweeps * 2 * (
            model.halo_messages_per_sweep(2) * sites + 8 * w.allreduce_doubles
        )

    def test_batched_reductions_amortise_the_latency(self):
        # k rows in one allreduce pay each tree round's alpha once.
        each = workload(allreduce_doubles=2)
        batched = workload(allreduce_doubles=2, reduction_batch=50)
        assert PerformanceModel(PARAGON, each).reductions() == (200, 1)
        assert PerformanceModel(PARAGON, batched).reductions() == (4, 50)
        t_each = PerformanceModel(PARAGON, each).collective_seconds_per_sweep(4)
        t_batched = PerformanceModel(
            PARAGON, batched).collective_seconds_per_sweep(4)
        rounds, hop = 4, 1  # reduce + bcast over 4 ranks, adjacent nodes
        assert t_each == pytest.approx(rounds * PARAGON.message_time(16, hop))
        assert t_batched == pytest.approx(
            rounds * PARAGON.message_time(16 * 50, hop) / 50)
        with pytest.raises(ValueError):
            workload(reduction_batch=0)

    def test_matches_strip_decomposition_halo_spec(self):
        from repro.vmp.performance import worldline_strip_workload

        # One message refreshes every ghost column a neighbor needs: D
        # columns of T sites each, both halves in one at P = 2.
        w = worldline_strip_workload(64, 64, sweeps=100)
        assert w.halo_schedule(2) == (1, 1, 2 * 10 * 64)
        assert w.halo_schedule(4) == (1, 2, 10 * 64)

    def test_halo_aggregation_reduces_modeled_time(self):
        # Same bytes in D-column buffers vs column-at-a-time: fewer
        # alphas => strictly smaller halo seconds per sweep.
        from repro.vmp.performance import worldline_strip_workload

        aggregated = worldline_strip_workload(64, 64, sweeps=100)
        exchanges, messages, sites = aggregated.halo_schedule(4)
        split = worldline_strip_workload(
            64, 64, sweeps=100,
            halo_schedule=lambda p: (exchanges, messages * 10, sites / 10),
        )
        t_agg = PerformanceModel(PARAGON, aggregated).halo_seconds_per_sweep(4)
        t_split = PerformanceModel(PARAGON, split).halo_seconds_per_sweep(4)
        assert t_agg < t_split

    def test_override_applies_to_halo_seconds(self):
        # The same messages, more sites in each: the bandwidth term.
        base = workload(bytes_per_site=1)
        exchanges, messages, _ = PerformanceModel(PARAGON, base)._halo_traffic(4)
        more = workload(bytes_per_site=1,
                        halo_schedule=lambda p: (exchanges, messages, 4096.0))
        t_base = PerformanceModel(PARAGON, base).halo_seconds_per_sweep(4)
        t_more = PerformanceModel(PARAGON, more).halo_seconds_per_sweep(4)
        assert t_more > t_base
