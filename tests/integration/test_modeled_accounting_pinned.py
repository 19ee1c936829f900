"""Modeled accounting pinned against recorded literals.

The decomposed drivers share one halo exchange and one run loop; this
suite makes sure a restructuring of either cannot shift a single
modeled charge or message.  Every literal below was recorded at commit
9aedf5a -- the last one with a separate exchange and loop per driver --
on the thread backend and the PARAGON machine model: the makespan, the
message and byte totals, and rank 0's per-category clock breakdown,
for the strip driver at P in {2, 4} and the block driver at P = 4 in
both the lockstep and the overlapped schedule, plus a two-level 2 x 2
run.  The comparisons are exact (``==`` on floats): the clock is a
deterministic sum of charges in a fixed order, so any drift is a
reordered or re-priced operation, not rounding.
"""

import pytest

from repro.qmc.parallel import (
    IsingBlockConfig,
    WorldlineStripConfig,
    ising_block_program,
    worldline_strip_program,
)
from repro.qmc.two_level import TwoLevelConfig, two_level_program
from tests.conftest import run_driver_matrix


def _strip_cfg(overlap: bool) -> WorldlineStripConfig:
    return WorldlineStripConfig(
        n_sites=32, jz=1.0, jxy=0.8, beta=0.9, n_slices=8,
        n_sweeps=12, n_thermalize=3, measure_every=2, overlap=overlap,
    )


def _block_cfg(overlap: bool) -> IsingBlockConfig:
    return IsingBlockConfig(
        lx=8, ly=8, lt=8, kx=0.25, ky=0.25, kt=0.4,
        n_sweeps=10, n_thermalize=3, measure_every=2, overlap=overlap,
    )


STRIP = (worldline_strip_program, _strip_cfg, 42)
BLOCK = (ising_block_program, _block_cfg, 7)
TWO_LEVEL = (
    two_level_program,
    lambda overlap: TwoLevelConfig(
        replicas=2, domain_ranks=2, base=_strip_cfg(overlap)
    ),
    42,
)

#: case -> (driver, n_ranks, overlap,
#:          (makespan, messages, bytes, rank-0 clock breakdown))
PINNED = {
    "strip-p2-lockstep": (STRIP, 2, False, (
        0.04177801428571424, 648, 10176,
        {"comm": 0.03895268571428566,
         "comm_wait": 6.028571428588411e-06,
         "compute": 0.002816000000000002},
    )),
    "strip-p2-overlap": (STRIP, 2, True, (
        0.014357971428571278, 648, 10176,
        {"boundary": 0.0006208000000000007,
         "comm": 0.010084114285714227,
         "comm_wait": 5.271428571425145e-06,
         "halo_wait": 0.0014524857142856741,
         "interior": 0.0021951999999999965},
    )),
    "strip-p4-lockstep": (STRIP, 4, False, (
        0.041887157142857005, 1320, 20544,
        {"comm": 0.04039405714285707,
         "comm_wait": 1.4500000000026644e-05,
         "compute": 0.0014784000000000002},
    )),
    "strip-p4-overlap": (STRIP, 4, True, (
        0.015813714285714157, 1320, 20544,
        {"boundary": 0.0006208000000000007,
         "comm": 0.011525485714285652,
         "comm_wait": 1.0542857142848121e-05,
         "halo_wait": 0.0027992857142857147,
         "interior": 0.000857600000000001},
    )),
    "block-p4-lockstep": (BLOCK, 4, False, (
        0.021985257142857113, 556, 10176,
        {"comm": 0.017317485714285697,
         "comm_wait": 8.371428571409337e-06,
         "compute": 0.0046592},
    )),
    "block-p4-overlap": (BLOCK, 4, True, (
        0.011977485714285667, 556, 10176,
        {"boundary": 0.0034943999999999978,
         "comm": 0.00730971428571427,
         "comm_wait": 8.37142857142495e-06,
         "interior": 0.0011648},
    )),
    "two-level-2x2": (TWO_LEVEL, 4, False, (
        0.04353272857142849, 1338, 21424,
        {"comm": 0.03973622857142851,
         "comm_wait": 1.8857142857226644e-06,
         "compute": 0.002816000000000002,
         "ensemble": 0.0009620571428571431,
         "ensemble_wait": 1.635714285714955e-05},
    )),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_modeled_accounting_matches_recorded_literals(case):
    (program, make_cfg, seed), n_ranks, overlap, want = PINNED[case]
    res = run_driver_matrix(program, n_ranks, make_cfg(overlap), seed=seed)
    got = (
        res.elapsed_model_time,
        res.total_messages,
        res.total_bytes,
        res.outcomes[0].breakdown,
    )
    assert got == want
