"""The tempering driver on the process backend.

Satellite coverage for the backend work: the parallel-tempering rank
program -- whose correctness depends on per-rank and shared decision
streams and on collectives rather than halo exchange -- must produce
bit-identical results on real OS processes, and the observed swap
acceptance must match the detailed-balance expectation computed from
the sampled energy series.
"""

import numpy as np
import pytest

from repro.qmc.tempering import TemperingConfig, tempering_program
from repro.vmp.machines import CM5, IDEAL
from repro.vmp.scheduler import run_spmd

BETAS = (0.25, 0.32, 0.40, 0.50)

PT_CFG = TemperingConfig(
    shape=(8, 8),
    couplings_j=(1.0, 1.0),
    betas=BETAS,
    n_sweeps=200,
    n_thermalize=50,
    exchange_every=5,
    histogram_bins=48,
)


@pytest.fixture(scope="module")
def pt_pair():
    thread = run_spmd(
        tempering_program, len(BETAS), machine=CM5, seed=21, args=(PT_CFG,)
    )
    mp = run_spmd(
        tempering_program, len(BETAS), machine=CM5, seed=21, args=(PT_CFG,),
        backend="mp",
    )
    return thread, mp


class TestTemperingOnProcesses:
    def test_trajectories_bit_identical(self, pt_pair):
        thread, mp = pt_pair
        for t, m in zip(thread.values, mp.values):
            np.testing.assert_array_equal(t["energy"], m["energy"])
            np.testing.assert_array_equal(
                t["histogram_counts"], m["histogram_counts"]
            )
            assert t["exchange_attempts"] == m["exchange_attempts"]
            assert t["exchange_accepts"] == m["exchange_accepts"]

    def test_modeled_makespan_identical(self, pt_pair):
        thread, mp = pt_pair
        assert mp.elapsed_model_time == thread.elapsed_model_time

    def test_acceptance_matches_detailed_balance(self, pt_pair):
        # Detailed balance fixes the swap acceptance at
        # min(1, exp[(b_i - b_j)(E_i - E_j)]).  Estimating its mean
        # from the sampled energy series of a neighboring pair must
        # agree with the observed acceptance of the run (same chains,
        # so the estimate is tight even for short series).
        _, mp = pt_pair
        for lo in range(len(BETAS) - 1):
            e_lo = mp.values[lo]["energy"]
            e_hi = mp.values[lo + 1]["energy"]
            d_beta = BETAS[lo] - BETAS[lo + 1]
            expected = np.minimum(
                1.0, np.exp(d_beta * (e_lo - e_hi))
            ).mean()
            att = min(
                mp.values[lo]["exchange_attempts"],
                mp.values[lo + 1]["exchange_attempts"],
            )
            acc = min(
                mp.values[lo]["exchange_accepts"],
                mp.values[lo + 1]["exchange_accepts"],
            )
            assert att > 0
            observed = acc / att
            # Pair bookkeeping mixes both neighbors of interior ranks,
            # so compare loosely; a sign error or a broken shared
            # decision stream lands far outside this window.
            assert abs(observed - expected) < 0.35

    def test_equal_betas_always_swap(self):
        cfg = TemperingConfig(
            shape=(4, 4),
            couplings_j=(1.0, 1.0),
            betas=(0.4, 0.4),
            n_sweeps=40,
            exchange_every=2,
        )
        res = run_spmd(tempering_program, 2, machine=IDEAL, seed=2,
                       args=(cfg,), backend="mp")
        for v in res.values:
            assert v["exchange_accepts"] == v["exchange_attempts"] > 0

