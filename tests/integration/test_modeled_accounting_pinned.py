"""Modeled accounting pinned against recorded literals.

The decomposed drivers share one halo exchange and one run loop; this
suite makes sure a restructuring of either cannot shift a single
modeled charge or message.  Every literal below is a recorded run on
the thread backend and the PARAGON machine model: the makespan, the
message and byte totals, and rank 0's per-category clock breakdown,
for the strip driver at P in {2, 4} and the block driver at P = 4 in
both the lockstep and the overlapped schedule, plus a two-level 2 x 2
run.  The comparisons are exact (``==`` on floats): the clock is a
deterministic sum of charges in a fixed order, so any drift is a
reordered or re-priced operation, not rounding.

First recorded at commit 9aedf5a (the last one with a separate exchange
and loop per driver); re-recorded once, on purpose, when the static
halo schedule and the folded measurement allreduce landed (strip P = 2
lockstep 648 -> 132 messages, 0.04178 -> 0.01076 s; the full before ->
after table is in CHANGES.md, PR 17); and once more, on purpose, when
halo links to the same rank began to share a message, the block
measurement stopped posting a halo and reductions began to run in
batches (block P = 4 lockstep 486 -> 214 messages, 0.01958 -> 0.01117 s;
table in CHANGES.md, PR 19).  The two-level run reduces at every
measurement, as its heartbeat needs, and kept every literal.  The
per-sweep counts at the end hold the schedule's message count itself,
so a later change cannot quietly re-inflate it.

``OVERLAP_OTHER_RANKS`` extends the three overlapped cases to every
rank's breakdown.  Recorded at 0106197, the last commit whose overlapped
schedule *executed* an interior / boundary split; the charge schedule
that replaced it reproduces them, as it must: the clock never saw the
kernels, only the charges.

The strip and two-level literals were re-recorded, on purpose, when the
sweep uniforms moved from one generator per sweep to one skip-ahead
stream per run: the trajectory moved, so the count of straight columns
a column stage charges moved, and with it ``compute`` / ``interior`` /
``boundary`` and the waits behind them.  Messages, bytes and ``comm``
kept every literal, and so did both block cases, whose charges do not
depend on the spins.
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
        0.01015105714285714, 122, 2112,
        {"comm": 0.007335085714285732,
         "comm_wait": 1.4271428571424605e-05,
         "compute": 0.0028016000000000026},
    )),
    "strip-p2-overlap": (STRIP, 2, True, (
        0.005749185714285721, 122, 2112,
        {"boundary": 0.0003120000000000001,
         "comm": 0.0015613714285714303,
         "compute": 0.0016880000000000013,
         "halo_wait": 0.001386114285714302,
         "interior": 0.0008016000000000004},
    )),
    "strip-p4-lockstep": (STRIP, 4, False, (
        0.008939728571428593, 246, 4416,
        {"comm": 0.007456457142857161,
         "comm_wait": 1.1071428571427996e-05,
         "compute": 0.0014720000000000004},
    )),
    "strip-p4-overlap": (STRIP, 4, True, (
        0.0050669285714285755, 246, 4416,
        {"boundary": 0.0003008000000000001,
         "comm": 0.0016827428571428587,
         "comm_wait": 2.827142857142733e-05,
         "compute": 0.0008848000000000011,
         "halo_wait": 0.0018837142857142943,
         "interior": 0.00028640000000000024},
    )),
    "block-p4-lockstep": (BLOCK, 4, False, (
        0.01117251428571427, 214, 7616,
        {"comm": 0.006508342857142856,
         "comm_wait": 4.771428571428982e-06,
         "compute": 0.0046592},
    )),
    "block-p4-overlap": (BLOCK, 4, True, (
        0.006156742857142847, 214, 7616,
        {"boundary": 0.0034943999999999978,
         "comm": 0.0014925714285714293,
         "comm_wait": 4.771428571428982e-06,
         "interior": 0.0011648},
    )),
    "two-level-2x2": (TWO_LEVEL, 4, False, (
        0.012510771428571429, 306, 5296,
        {"comm": 0.00871862857142859,
         "comm_wait": 1.31285714285714e-05,
         "compute": 0.0028016000000000026,
         "ensemble": 0.0009620571428571431,
         "ensemble_wait": 1.51571428571428e-05},
    )),
}


#: overlapped case -> the clock breakdowns of ranks 1 .. P-1 (rank 0's
#: is in PINNED).
OVERLAP_OTHER_RANKS = {
    "strip-p2-overlap": [
        {"boundary": 0.0003104000000000001,
         "comm": 0.0015613714285714303,
         "comm_wait": 9.700000000000507e-06,
         "compute": 0.0016960000000000013,
         "halo_wait": 0.0013637142857143019,
         "interior": 0.0008080000000000006},
    ],
    "strip-p4-overlap": [
        {"boundary": 0.0003120000000000001,
         "comm": 0.0016227428571428588,
         "comm_wait": 6.157142857142906e-05,
         "compute": 0.0008752000000000012,
         "halo_wait": 0.0019089142857142932,
         "interior": 0.00028640000000000024},
        {"boundary": 0.0003120000000000001,
         "comm": 0.0016213714285714302,
         "comm_wait": 7.054285714285478e-05,
         "compute": 0.0008848000000000011,
         "halo_wait": 0.0018933142857142952,
         "interior": 0.0002848000000000002},
        {"boundary": 0.0003104000000000001,
         "comm": 0.0015613714285714303,
         "comm_wait": 0.0001246428571428579,
         "compute": 0.0008832000000000011,
         "halo_wait": 0.0019041142857142929,
         "interior": 0.0002832000000000002},
    ],
    "block-p4-overlap": [
        {"boundary": 0.0034943999999999978,
         "comm": 0.0014325714285714293,
         "comm_wait": 6.487142857142941e-05,
         "interior": 0.0011648},
        {"boundary": 0.0034943999999999978,
         "comm": 0.0014302857142857149,
         "comm_wait": 6.715714285714363e-05,
         "interior": 0.0011648},
        {"boundary": 0.0034943999999999978,
         "comm": 0.001370285714285715,
         "comm_wait": 0.00012725714285714406,
         "interior": 0.0011648},
    ],
}


@pytest.mark.parametrize("case", sorted(OVERLAP_OTHER_RANKS))
def test_overlapped_accounting_matches_on_every_rank(case):
    (program, make_cfg, seed), n_ranks, overlap, want = PINNED[case]
    res = run_driver_matrix(program, n_ranks, make_cfg(overlap), seed=seed)
    assert [o.breakdown for o in res.outcomes] == [
        want[3], *OVERLAP_OTHER_RANKS[case]
    ]


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


#: (driver, config, P) -> (halo messages, all bytes) per sweep, measuring
#: every sweep.  The five pending rows reduce once, at the end of the
#: run: a reduce and a bcast tree of P - 1 messages each on top.
PER_SWEEP = {
    "strip-p2": (
        worldline_strip_program,
        WorldlineStripConfig(n_sites=64, jz=1.0, jxy=1.0, beta=1.0,
                             n_slices=16, n_sweeps=5),
        2, (8, 288),
    ),
    "strip-p4": (
        worldline_strip_program,
        WorldlineStripConfig(n_sites=64, jz=1.0, jxy=1.0, beta=1.0,
                             n_slices=16, n_sweeps=5),
        4, (16, 608),
    ),
    # L = 40 over 4 ranks: seams at 10 and 30 are 2 (mod 4)
    "strip-p4-odd-seams": (
        worldline_strip_program,
        WorldlineStripConfig(n_sites=40, jz=1.0, jxy=1.0, beta=1.0,
                             n_slices=16, n_sweeps=5),
        4, (14, 544),
    ),
    # east and west are the same rank: one message per color and rank
    "block-p2": (
        ising_block_program,
        IsingBlockConfig(lx=64, ly=1, lt=64, kx=0.2, ky=0.0, kt=0.3,
                         n_sweeps=5),
        2, (4, 320),
    ),
    # ... and so are north and south: two per color and rank
    "block-2x2": (
        ising_block_program,
        IsingBlockConfig(lx=16, ly=16, lt=8, kx=0.2, ky=0.2, kt=0.3,
                         n_sweeps=5),
        4, (16, 1216),
    ),
    # a 4-wide axis keeps two neighbors a rank
    "block-4x1": (
        ising_block_program,
        IsingBlockConfig(lx=64, ly=1, lt=64, kx=0.2, ky=0.0, kt=0.3,
                         n_sweeps=5),
        4, (16, 704),
    ),
}


@pytest.mark.parametrize("case", sorted(PER_SWEEP))
def test_per_sweep_message_and_byte_counts(case):
    program, cfg, n_ranks, (halo_messages, n_bytes) = PER_SWEEP[case]
    res = run_driver_matrix(program, n_ranks, cfg, seed=1)
    assert res.total_messages == (
        cfg.n_sweeps * halo_messages + 2 * (n_ranks - 1)
    )
    assert res.total_bytes / cfg.n_sweeps == n_bytes
