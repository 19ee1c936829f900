"""The mp backend's shared-memory fabric: rings, doorbell, overflow, pills.

Every message of the multiprocessing backend travels through one
fixed-slot ring per (destination, source) pair plus a semaphore
doorbell per destination (``repro.vmp.process_backend._Inbox``).  These
tests pin the properties the rest of the stack relies on: nothing is
dropped or reordered within a (source, tag) when rings wrap, fill, or
hand a payload to the overflow queue; a full ring blocks neither a
flooding peer pair nor a poison pill; received arrays are private
copies; and a run leaves nothing behind in ``/dev/shm``.

Programs live at module scope so the backend can fork them.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.vmp.comm import ANY_SOURCE, ANY_TAG
from repro.vmp.faults import RankFailure
from repro.vmp.machines import IDEAL
from repro.vmp.process_backend import (
    _N_SLOTS,
    _SLOT_PAYLOAD,
    run_multiprocessing,
)

pytestmark = pytest.mark.tier1_fault  # real processes + wall-clock bounds

#: Data messages one ring holds before its sender has to wait.
RING_CAPACITY = _N_SLOTS - 1


def prog_one_way_stream(comm, n):
    # The sender outruns the receiver, so the ring fills and wraps
    # many times; every payload must arrive intact and in order.
    if comm.rank == 0:
        for i in range(n):
            comm.send(np.full(5, i, dtype=np.int64), 1, tag=3)
        return None
    bad = 0
    for i in range(n):
        got = comm.recv(source=0, tag=3)
        bad += not (got.shape == (5,) and np.all(got == i))
    return bad


def prog_head_to_head_flood(comm, n):
    # Both ranks post far more than a ring holds before either
    # receives: a sender stuck on a full ring must keep draining its
    # own inbox, or the pair deadlocks.
    peer = 1 - comm.rank
    for i in range(n):
        comm.send(np.array([comm.rank, i]), peer, tag=i % 7)
    peak = comm.stash_size()
    ok = True
    for i in range(n):
        got = comm.recv(source=peer, tag=i % 7)
        ok &= got.tolist() == [peer, i]
    return ok, peak, comm.stash_size(), len(comm._stash)


def _ordering_payloads():
    big = np.arange(3 * _SLOT_PAYLOAD, dtype=np.uint8).reshape(3, -1)
    grid = np.arange(4096, dtype=np.float64).reshape(64, 64)
    return [
        big,                                  # larger than a slot
        np.arange(6, dtype=np.int16),         # small, sent right behind it
        np.array(2.5),                        # 0-d
        np.empty((0, 3), dtype=np.float32),   # empty
        grid[::2, 1::3],                      # non-contiguous, fits a slot
        grid.T,                               # non-contiguous, oversize
        np.ones((2, 1, 2, 1, 2), dtype=bool),  # more dims than the header holds
        np.array([1 + 2j, 3 - 4j], dtype=np.complex64),
    ]


def prog_ordering_across_kinds(comm):
    # One (source, tag) stream mixing in-slot arrays, in-slot pickles
    # and overflow bodies must be received in send order.
    if comm.rank == 0:
        for a in _ordering_payloads():
            comm.send(a, 1, tag=7)
        comm.send({"k": "small"}, 1, tag=7)
        comm.send("x" * (2 * _SLOT_PAYLOAD), 1, tag=7)
        comm.send(None, 1, tag=7)
        return None
    got = [comm.recv(source=0, tag=7) for _ in _ordering_payloads()]
    tail = [comm.recv(source=0, tag=7) for _ in range(3)]
    report = []
    for g, want in zip(got, _ordering_payloads()):
        same = (
            isinstance(g, np.ndarray)
            and g.dtype == want.dtype
            and g.shape == want.shape
            and np.array_equal(g, want)
            and g.flags.writeable
        )
        report.append(bool(same))
    return report, tail == [{"k": "small"}, "x" * (2 * _SLOT_PAYLOAD), None]


def prog_received_arrays_are_private(comm):
    # A received array must not alias its slot: later traffic reuses
    # every slot of the ring and the array must not change.
    if comm.rank == 0:
        comm.send(np.arange(8.0), 1, tag=1)
        for i in range(3 * _N_SLOTS):
            comm.send(np.full(8, -1.0 - i), 1, tag=2)
        return None
    first = comm.recv(source=0, tag=1)
    first[0] = 42.0  # writable
    for _ in range(3 * _N_SLOTS):
        comm.recv(source=0, tag=2)
    return first.tolist()


def prog_tuple_tags(comm):
    # A tag need not be an int: tuple tags cross the rings pickled, and
    # two that share an integer part must not see each other's traffic.
    peer = comm.rank ^ 1
    for scope in (0, 1):
        comm.send(np.full(3, 10 ** scope * comm.rank), peer, tag=((scope,), 5))
    b = comm.recv(source=peer, tag=((1,), 5))
    a = comm.recv(source=peer, tag=((0,), 5))
    return int(a[0]), int(b[0]), comm.stash_size()


def prog_wildcard_fifo_per_source(comm, n):
    # Wildcard receives may interleave sources, but each source's
    # messages must come out in send order whatever kind they were.
    if comm.rank != 0:
        for i in range(n):
            if i % 10 == 3:
                body = (comm.rank, i, "p" * (2 * _SLOT_PAYLOAD))  # overflow
            elif i % 2:
                body = (comm.rank, i, "pickled")
            else:
                body = np.array([comm.rank, i])
            comm.send(body, 0, tag=i % 5)
        return None
    seen = {s: [] for s in range(1, comm.size)}
    for _ in range(n * (comm.size - 1)):
        got = comm.recv(source=ANY_SOURCE, tag=ANY_TAG)
        seen[int(got[0])].append(int(got[1]))
    return seen


def prog_die_behind_a_full_ring(comm):
    # Rank 0 fills its ring at every peer while they are busy, then
    # dies.  Its pill takes the slot data sends leave free, so the
    # survivors fail as soon as they drain -- not at recv_timeout.
    if comm.rank == 0:
        for dest in range(1, comm.size):
            for i in range(RING_CAPACITY):
                comm.send(i, dest, tag=i)
        raise RuntimeError("died behind a full ring")
    time.sleep(0.5)
    return comm.recv(source=0, tag=10_000)  # never sent


def prog_send_to_a_sleeper(comm):
    # Rank 1 never enters the fabric, so nothing drains rank 0's ring.
    if comm.rank == 0:
        for i in range(_N_SLOTS + 1):
            comm.send(i, 1, tag=0)
        return "sent"
    time.sleep(1.5)
    return "slept"


def prog_cross_core_stress(comm, n, batch):
    # Two ranks on different cores hammer both directions at once, so
    # every ring counter is read while the other side rewrites it.  A
    # torn counter read shows up as a doorbell with no message behind
    # it (RuntimeError in the fabric) or as a wrong payload.
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2:
        os.sched_setaffinity(0, {cpus[comm.rank % len(cpus)]})
    peer = 1 - comm.rank
    bad = 0
    for start in range(0, n, batch):
        for i in range(start, start + batch):
            comm.send(np.array([i, ~i]), peer, tag=1)
        for i in range(start, start + batch):
            got = comm.recv(source=peer, tag=1)
            bad += not (got[0] == i and got[1] == ~i)
    return bad, comm.stash_size()


class TestRings:
    def test_ring_wraps_without_loss_or_reordering(self):
        n = 12 * _N_SLOTS
        res = run_multiprocessing(prog_one_way_stream, 2, IDEAL, args=(n,),
                                  recv_timeout=30.0)
        assert res.values[1] == 0
        assert res.stats[1].messages_received == n

    def test_head_to_head_flood_completes_and_stash_drains(self):
        n = 10 * RING_CAPACITY
        res = run_multiprocessing(prog_head_to_head_flood, 2, IDEAL, args=(n,),
                                  recv_timeout=30.0)
        for ok, peak, left, keys in res.values:
            assert ok
            assert left == 0 and keys == 0
        # At least one rank had to park peer traffic in its stash to
        # get its own sends out.
        assert max(peak for _ok, peak, _l, _k in res.values) > 0

    def test_order_holds_across_slot_pickle_and_overflow(self):
        report, tail_ok = run_multiprocessing(
            prog_ordering_across_kinds, 2, IDEAL, recv_timeout=30.0
        ).values[1]
        assert report == [True] * len(_ordering_payloads())
        assert tail_ok

    def test_received_arrays_do_not_alias_their_slot(self):
        values = run_multiprocessing(
            prog_received_arrays_are_private, 2, IDEAL, recv_timeout=30.0
        ).values
        assert values[1] == [42.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]

    def test_split_scoped_tuple_tags(self):
        values = run_multiprocessing(
            prog_tuple_tags, 4, IDEAL, recv_timeout=30.0
        ).values
        for rank, (a, b, stashed) in enumerate(values):
            assert (a, b) == (rank ^ 1, 10 * (rank ^ 1))
            assert stashed == 0

    def test_wildcard_recv_is_fifo_per_source(self):
        n = 3 * _N_SLOTS
        seen = run_multiprocessing(
            prog_wildcard_fifo_per_source, 3, IDEAL, args=(n,), recv_timeout=30.0
        ).values[0]
        assert seen == {1: list(range(n)), 2: list(range(n))}


class TestFailures:
    def test_poison_pill_passes_a_full_ring(self):
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="died behind a full ring") as excinfo:
            run_multiprocessing(prog_die_behind_a_full_ring, 3, IDEAL,
                                recv_timeout=60.0)
        assert time.monotonic() - t0 < 5.0
        report = excinfo.value.run_report
        assert report.failed_ranks() == [0]
        assert sorted(a.rank for a in report.aborted) == [1, 2]
        assert all(a.via == "poison-pill" and a.failed_rank == 0
                   for a in report.aborted)

    def test_send_into_a_ring_nobody_drains_times_out(self):
        # The peer never receives: the sender must give up with the
        # structured timeout, not hang, once the ring is full.
        t0 = time.monotonic()
        with pytest.raises(RankFailure) as excinfo:
            run_multiprocessing(prog_send_to_a_sleeper, 2, IDEAL, recv_timeout=0.5)
        assert time.monotonic() - t0 < 5.0
        report = excinfo.value.run_report
        assert [(a.rank, a.failed_rank, a.via) for a in report.aborted] == [
            (0, 1, "timeout")
        ]
        assert report.completed == [1]


class TestCrossCoreStress:
    def test_every_doorbell_finds_its_message(self):
        # With ring counters written through struct.pack_into (which
        # zeroes the field before packing) this fails within a few ten
        # thousand messages on two cores; single aligned stores pass.
        n, batch = 100_000, 32  # per direction: 200,000 messages in all
        res = run_multiprocessing(prog_cross_core_stress, 2, IDEAL,
                                  args=(n, batch), recv_timeout=60.0,
                                  join_timeout=300.0)
        assert res.values == [(0, 0), (0, 0)]
        assert [s.messages_received for s in res.stats] == [n, n]


_LEAK_SCRIPT = """
import os, sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {tests!r})
from repro.vmp.faults import CrashFault, FaultPlan, RankFailure
from repro.vmp.machines import IDEAL
from repro.vmp.process_backend import run_multiprocessing
from tests.vmp.test_faults import prog_ring

before = sorted(os.listdir("/dev/shm"))
assert run_multiprocessing(prog_ring, 4, IDEAL).report.ok
try:
    run_multiprocessing(prog_ring, 4, IDEAL, recv_timeout=10.0,
                        fault_plan=FaultPlan((CrashFault(rank=1, at_step=3),)))
except RankFailure as exc:
    assert exc.run_report.failed_ranks() == [1]
else:
    raise SystemExit("crash fault did not fire")
assert sorted(os.listdir("/dev/shm")) == before, "left files in /dev/shm"
print("clean")
"""


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm here")
def test_runs_leave_nothing_in_dev_shm_and_no_tracker_warning():
    # The mapping is anonymous and the semaphores are unlinked at
    # creation, so neither a clean nor a crashed run has anything to
    # clean up -- and no resource_tracker process to complain at exit.
    root = Path(__file__).resolve().parents[2]
    script = _LEAK_SCRIPT.format(src=str(root / "src"), tests=str(root))
    proc = subprocess.run([sys.executable, "-X", "dev", "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "clean"
    assert "resource_tracker" not in proc.stderr
    assert "leaked" not in proc.stderr
