"""Cross-validation: analytic performance model vs executed simulator.

The scaling benchmarks trust the closed-form model for P beyond what
the thread scheduler can execute; these tests pin the model to the
executed virtual machine at small P.  Compute seconds must match
exactly (same flop counts, same machine rate), message counts must
match exactly, and communication seconds must agree within a structural
factor (the model ships whole boundary planes where the driver ships
one parity of them).
"""

import pytest

from repro.qmc.classical_ising import FLOPS_PER_SPIN_UPDATE
from repro.qmc.parallel import (
    REDUCE_BATCH,
    IsingBlockConfig,
    ising_block_program,
)
from repro.vmp.machines import PARAGON
from repro.vmp.performance import PerformanceModel, WorkloadShape
from repro.vmp.scheduler import run_spmd

LX = LY = 16
LT = 8
SWEEPS = 12


def block_workload() -> WorkloadShape:
    return WorkloadShape(
        lx=LX,
        ly=LY,
        lt=LT,
        flops_per_site=2 * FLOPS_PER_SPIN_UPDATE,  # two colors per sweep
        sweeps=SWEEPS,
        bytes_per_site=1,  # int8 spin planes
        strategy="block",
        measurement_interval=1,
        allreduce_doubles=4,  # spin sum + three bond sums
        reduction_batch=REDUCE_BATCH,
    )


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
        # Per rank and sweep: 2 colors x one message per neighbor rank
        # (P = 2 is a 1 x 2 grid, P = 4 a 2 x 2 one: north and south,
        # east and west are the same rank), nothing for a measurement.
        # On top, per allreduce, a reduce and a bcast tree of P - 1
        # messages each -- and 12 measurements make one batch.
        model = PerformanceModel(PARAGON, block_workload())
        assert model.reductions() == (1, SWEEPS)
        for p, per_rank_and_sweep in ((2, 2), (4, 4)):
            assert model.halo_messages_per_sweep(p) == per_rank_and_sweep
            assert executed(p).total_messages == (
                p * SWEEPS * per_rank_and_sweep + 2 * (p - 1)
            )
