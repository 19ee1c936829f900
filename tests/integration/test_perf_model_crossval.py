"""Cross-validation: analytic performance model vs executed simulator.

The scaling benchmarks trust the closed-form model for P beyond what
the thread scheduler can execute; these tests pin the model to the
executed virtual machine at small P.  The block workload charges the
driver's own schedule (``halo_traffic``), so compute seconds must
match exactly (same site updates, the ghost ring color 0 updates
redundantly included, same machine rate), message counts must match
exactly, and communication seconds must agree within a structural
factor (the model prices every message at the mean size of a sweep's).
"""

import pytest

from repro.qmc.parallel import IsingBlockConfig, ising_block_program
from repro.vmp.machines import PARAGON
from repro.vmp.performance import (
    PerformanceModel,
    WorkloadShape,
    ising_block_workload,
)
from repro.vmp.scheduler import run_spmd

LX = LY = 16
LT = 8
SWEEPS = 12


def block_workload() -> WorkloadShape:
    return ising_block_workload(LX, LY, LT, SWEEPS)


def executed(p: int):
    cfg = IsingBlockConfig(
        lx=LX, ly=LY, lt=LT, kx=0.2, ky=0.2, kt=0.1,
        n_sweeps=SWEEPS, n_thermalize=0,
    )
    return run_spmd(ising_block_program, p, machine=PARAGON, seed=1, args=(cfg,))


class TestComputeAgreement:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_compute_seconds_match_exactly(self, p):
        model = PerformanceModel(PARAGON, block_workload())
        predicted = SWEEPS * model.compute_seconds_per_sweep(p)
        measured = executed(p).category_seconds("compute")
        assert measured == pytest.approx(predicted, rel=1e-6)


class TestCommunicationAgreement:
    @pytest.mark.parametrize("p", [2, 4])
    def test_comm_seconds_within_structural_factor(self, p):
        model = PerformanceModel(PARAGON, block_workload())
        predicted = SWEEPS * (
            model.halo_seconds_per_sweep(p) + model.collective_seconds_per_sweep(p)
        )
        res = executed(p)
        measured = res.category_seconds("comm") + res.category_seconds("comm_wait")
        assert predicted / 4 < measured < predicted * 4, (
            f"P={p}: modeled {predicted:.4g}s vs executed {measured:.4g}s"
        )

    def test_speedup_trends_agree(self):
        model = PerformanceModel(PARAGON, block_workload())
        t_exec = {p: executed(p).elapsed_model_time for p in (1, 2, 4)}
        for p in (2, 4):
            s_exec = t_exec[1] / t_exec[p]
            s_model = model.speedup(p)
            # Same qualitative story: real speedup, same side of P/2.
            assert s_exec > 1.0
            assert s_exec == pytest.approx(s_model, rel=0.5)


class TestMessageAccounting:
    def test_executed_message_count_matches_halo_structure(self):
        # Per rank and sweep: one refresh, one message per neighbor rank
        # and split axis (P = 2 is a 1 x 2 grid; P = 4 a 2 x 2 one, whose
        # x phase goes east and west to one rank and y phase north and
        # south to another), nothing for a color or a measurement.
        # On top, per allreduce, a reduce and a bcast tree of P - 1
        # messages each -- and 12 measurements make one batch.
        model = PerformanceModel(PARAGON, block_workload())
        assert model.reductions() == (1, SWEEPS)
        for p, per_rank_and_sweep in ((2, 1), (4, 2)):
            assert model.halo_messages_per_sweep(p) == per_rank_and_sweep
            assert executed(p).total_messages == (
                p * SWEEPS * per_rank_and_sweep + 2 * (p - 1)
            )
