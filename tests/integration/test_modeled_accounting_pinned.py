"""Modeled accounting pinned against recorded literals.

The decomposed drivers share one halo exchange and one run loop; this
suite makes sure a restructuring of either cannot shift a single
modeled charge or message.  Every literal below is a recorded run on
the thread backend and the PARAGON machine model: the makespan, the
message and byte totals, and rank 0's per-category clock breakdown,
for the strip driver at P in {2, 4} and the block driver at P = 4 in
both the lockstep and the overlapped schedule, plus a two-level 2 x 2
run (two replicas stacked in each of two strip ranks).  The comparisons are exact (``==`` on floats): the clock is a
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

The strip and two-level literals were re-recorded once more, on
purpose, when the strip began to sweep the chain's four corner colors
behind one deep-halo refresh a sweep: the move order moved the
trajectory, the ghosts deepened, and redundant moves in them joined the
charged compute (strip P = 2 lockstep 122 -> 32 messages, 0.01015 ->
0.00595 s; P = 4, whose 8-column pieces cap the depth at 6 and refresh
twice, kept 246 messages and went 0.00894 -> 0.00950 s lockstep,
0.00507 -> 0.00408 s overlapped).  Both block cases kept every literal.

The two-level literal was re-recorded, on purpose, when the R x P
layout of R split strips (R P ranks, a domain and an ensemble
sub-communicator) gave way to R chains stacked in each of P ranks: 126
-> 32 messages (one halo message a sweep carries both replicas' ghosts,
and nothing is pooled over the wire), 11056 -> 9984 bytes, 0.00831 ->
0.00998 s (each rank now sweeps both replicas).  Every other literal
stayed.  Its ``compute`` moved once more (0.0079840 -> 0.0079856 s),
with the straight columns charged, when replica 1 began to draw its
seed's second sweep stream instead of seed + 1's first.

The block literals were re-recorded, on purpose, when the block began
to sweep behind one refresh a sweep of two-deep ghost planes, color 0
updating the inner ring redundantly: the trajectory kept every bit, but
messages halved and bytes grew (P = 4 lockstep 214 -> 110 messages,
7616 -> 20928 bytes), the ring joined the charged compute (its 4 x 4
pieces price a 6 x 6 box for color 0: 0.00466 -> 0.00757 s) and only
color 0's interior hides the wire, so the lockstep makespan went
0.01117 -> 0.01101 s and the overlapped one 0.00616 -> 0.00894 s.
"""

from dataclasses import replace

import pytest

from repro.qmc.parallel import (
    IsingBlockConfig,
    WorldlineStripConfig,
    ising_block_program,
    worldline_strip_program,
)
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
#: Two replicas stacked in each of the strip's ranks.
TWO_LEVEL = (
    worldline_strip_program,
    lambda overlap: replace(_strip_cfg(overlap), replicas=2),
    42,
)

#: case -> (driver, n_ranks, overlap,
#:          (makespan, messages, bytes, rank-0 clock breakdown))
PINNED = {
    "strip-p2-lockstep": (STRIP, 2, False, (
        0.005947757142857146, 32, 4992,
        {"comm": 0.001955657142857143,
         "compute": 0.003991999999999998},
    )),
    "strip-p2-overlap": (STRIP, 2, True, (
        0.004618728571428574, 32, 4992,
        {"boundary": 0.000648,
         "comm": 0.0004813714285714287,
         "comm_wait": 4.657142857142707e-06,
         "compute": 0.002911999999999999,
         "halo_wait": 0.0001406000000000031,
         "interior": 0.000432},
    )),
    "strip-p4-lockstep": (STRIP, 4, False, (
        0.00949675714285713, 246, 12096,
        {"comm": 0.0074838857142857235,
         "comm_wait": 1.471428571427763e-06,
         "compute": 0.0020112000000000007},
    )),
    "strip-p4-overlap": (STRIP, 4, True, (
        0.004082285714285713, 246, 12096,
        {"boundary": 0.0006480000000000004,
         "comm": 0.0016827428571428587,
         "comm_wait": 4.671428571428708e-06,
         "compute": 0.0010032000000000005,
         "halo_wait": 0.00038347142857143477,
         "interior": 0.00036000000000000013},
    )),
    "block-p4-lockstep": (BLOCK, 4, False, (
        0.011012057142857136, 110, 20928,
        {"comm": 0.003435885714285716,
         "comm_wait": 4.771428571428982e-06,
         "compute": 0.007571200000000001},
    )),
    "block-p4-overlap": (BLOCK, 4, True, (
        0.008937814285714283, 110, 20928,
        {"boundary": 0.0034944000000000004,
         "comm": 0.0008685714285714286,
         "comm_wait": 4.771428571428982e-06,
         "compute": 0.0023296,
         "halo_wait": 0.0004930714285714343,
         "interior": 0.0017472},
    )),
    "two-level-2x2": (TWO_LEVEL, 2, False, (
        0.00997701428571428, 32, 9984,
        {"comm": 0.0019913142857142857,
         "compute": 0.007985599999999995},
    )),
}


#: overlapped case -> the clock breakdowns of ranks 1 .. P-1 (rank 0's
#: is in PINNED).
OVERLAP_OTHER_RANKS = {
    "strip-p2-overlap": [
        {"boundary": 0.000648,
         "comm": 0.0004813714285714287,
         "comm_wait": 1.571428571428904e-06,
         "compute": 0.0029087999999999987,
         "halo_wait": 0.00014698571428571757,
         "interior": 0.000432},
    ],
    "strip-p4-overlap": [
        {"boundary": 0.0006480000000000004,
         "comm": 0.0016227428571428588,
         "comm_wait": 7.11714285714293e-05,
         "compute": 0.0009952000000000006,
         "halo_wait": 0.00038507142857143514,
         "interior": 0.00036000000000000013},
        {"boundary": 0.0006480000000000004,
         "comm": 0.0016213714285714302,
         "comm_wait": 6.294285714285742e-05,
         "compute": 0.0010032000000000005,
         "halo_wait": 0.0003866714285714344,
         "interior": 0.00036000000000000013},
        {"boundary": 0.0006480000000000004,
         "comm": 0.0015613714285714303,
         "comm_wait": 0.00013584285714285816,
         "compute": 0.0009920000000000005,
         "halo_wait": 0.0003850714285714349,
         "interior": 0.00036000000000000013},
    ],
    "block-p4-overlap": [
        {"boundary": 0.0034944000000000004,
         "comm": 0.0008085714285714286,
         "comm_wait": 6.487142857142768e-05,
         "compute": 0.0023296,
         "halo_wait": 0.0004930714285714343,
         "interior": 0.0017472},
        {"boundary": 0.0034944000000000004,
         "comm": 0.0008062857142857144,
         "comm_wait": 6.715714285714276e-05,
         "compute": 0.0023296,
         "halo_wait": 0.0004930714285714343,
         "interior": 0.0017472},
        {"boundary": 0.0034944000000000004,
         "comm": 0.0007462857142857143,
         "comm_wait": 0.00012725714285714146,
         "compute": 0.0023296,
         "halo_wait": 0.0004930714285714343,
         "interior": 0.0017472},
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
#: run: a reduce and a bcast tree of P - 1 messages each on top.  A
#: strip rank posts one refresh a sweep of 2 x 10 ghost columns (on two
#: ranks always, beyond two on pieces of 10 columns or more): one
#: message at P = 2, one per neighbor beyond.
PER_SWEEP = {
    "strip-p2": (
        worldline_strip_program,
        WorldlineStripConfig(n_sites=64, jz=1.0, jxy=1.0, beta=1.0,
                             n_slices=16, n_sweeps=5),
        2, (2, 672),
    ),
    "strip-p4": (
        worldline_strip_program,
        WorldlineStripConfig(n_sites=64, jz=1.0, jxy=1.0, beta=1.0,
                             n_slices=16, n_sweeps=5),
        4, (8, 1376),
    ),
    # L = 40 over 4 ranks: seams at 10 and 30 are 2 (mod 4), same traffic
    "strip-p4-odd-seams": (
        worldline_strip_program,
        WorldlineStripConfig(n_sites=40, jz=1.0, jxy=1.0, beta=1.0,
                             n_slices=16, n_sweeps=5),
        4, (8, 1376),
    ),
    # one refresh a sweep of two-deep ghosts; east and west are the same
    # rank: one message a rank
    "block-p2": (
        ising_block_program,
        IsingBlockConfig(lx=64, ly=1, lt=64, kx=0.2, ky=0.0, kt=0.3,
                         n_sweeps=5),
        2, (2, 576),
    ),
    # ... and so are north and south: one message a rank and phase, the
    # y phase carrying the x ghosts
    "block-2x2": (
        ising_block_program,
        IsingBlockConfig(lx=16, ly=16, lt=8, kx=0.2, ky=0.2, kt=0.3,
                         n_sweeps=5),
        4, (8, 2752),
    ),
    # a 4-wide axis keeps two neighbors a rank
    "block-4x1": (
        ising_block_program,
        IsingBlockConfig(lx=64, ly=1, lt=64, kx=0.2, ky=0.0, kt=0.3,
                         n_sweeps=5),
        4, (8, 1216),
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
