"""The thread backend's fabric: one C-queue inbox per rank.

A send puts the message into the destination's ``queue.SimpleQueue``;
only the receiving thread drains it into that rank's stash, where
receives match.  These tests hold what the inbox design keeps of the
shared-condition fabric before it: fail-fast on a dead peer without
polling, wildcard FIFO across sources, nonblocking completion, and
timeout diagnostics that name the stashed ``(src, tag)`` keys.
"""

import inspect
import time

import pytest

from repro.vmp import comm as comm_module
from repro.vmp.comm import ANY_SOURCE, ANY_TAG, RankFailure
from repro.vmp.machines import IDEAL
from repro.vmp.scheduler import run_spmd


def test_blocked_receiver_fails_fast_on_a_dead_peer():
    """No ``recv_timeout`` and no traffic: the wake-up ``mark_dead``
    puts into the inbox is all that releases the receiver."""

    def prog(comm):
        if comm.rank == 1:
            time.sleep(0.1)
            raise ValueError("peer crashed")
        return comm.recv(source=1, tag=3)

    t0 = time.monotonic()
    with pytest.raises(ValueError, match="peer crashed") as excinfo:
        run_spmd(prog, 2, machine=IDEAL, recv_timeout=None)
    assert time.monotonic() - t0 < 1.0
    (abort,) = excinfo.value.run_report.aborted
    assert (abort.rank, abort.failed_rank, abort.via) == (0, 1, "dead-rank")


def test_a_dead_ranks_sends_still_match():
    """A rank's sends precede its death, so they are delivered; only a
    receive nothing can satisfy fails."""
    seen = []

    def prog(comm):
        if comm.rank == 1:
            comm.send("last words", 0, tag=5)
            raise ValueError("then died")
        time.sleep(0.1)  # the death is registered before rank 0 looks
        seen.append(comm.recv(source=1, tag=5))
        with pytest.raises(RankFailure) as excinfo:
            comm.recv(source=1, tag=6)
        seen.append((excinfo.value.via, excinfo.value.failed_rank))

    with pytest.raises(ValueError, match="then died") as excinfo:
        run_spmd(prog, 2, machine=IDEAL)
    assert seen == ["last words", ("dead-rank", 1)]
    assert excinfo.value.run_report.completed == [0]


def test_wildcard_receives_stay_fifo_across_two_sources():
    """Three messages from two sources land in rank 0's inbox in a known
    order; a specific receive of a fourth drains all of them into the
    stash first, and wildcards then take them oldest first."""

    def prog(comm):
        if comm.rank == 1:
            comm.send("a", 0, tag=1)
            comm.send(None, 2, tag=9)
            comm.recv(source=2, tag=9)
            comm.send("c", 0, tag=3)
            comm.send("done", 0, tag=7)
        elif comm.rank == 2:
            comm.recv(source=1, tag=9)
            comm.send("b", 0, tag=2)
            comm.send(None, 1, tag=9)
        else:
            time.sleep(0.1)  # all four wait in the inbox for one drain
            assert comm.recv(source=1, tag=7) == "done"
            return [comm.recv(ANY_SOURCE, ANY_TAG) for _ in range(3)]
        return None

    res = run_spmd(prog, 3, machine=IDEAL)
    assert res.values[0] == ["a", "b", "c"]


def test_a_test_polling_loop_completes():
    """``while not req.test()`` is how a rank overlaps work with a
    receive; on the thread backend the sender must get to run."""

    def prog(comm):
        if comm.rank == 1:
            time.sleep(0.05)
            comm.send("late", 0, tag=4)
            return None
        req = comm.irecv(source=1, tag=4)
        deadline = time.monotonic() + 10.0
        polls = 0
        while not req.test():
            polls += 1
            assert time.monotonic() < deadline, "test() never completed"
        return req.wait(), polls > 0

    assert run_spmd(prog, 2, machine=IDEAL).values[0] == ("late", True)


def test_timeout_diagnostics_list_the_stashed_keys():
    def prog(comm):
        if comm.rank == 1:
            comm.send("stray", 0, tag=99)
            return None
        return comm.recv(source=1, tag=7)

    t0 = time.monotonic()
    with pytest.raises(RankFailure) as excinfo:
        run_spmd(prog, 2, machine=IDEAL, recv_timeout=0.3)
    assert 0.25 < time.monotonic() - t0 < 5.0
    exc = excinfo.value
    assert exc.via == "timeout" and exc.failed_rank == 1
    assert "mailbox holds 1 unmatched message(s) [(1, 99)]" in str(exc)


def test_the_fabric_keeps_no_condition_and_no_backoff():
    """Inboxes replaced the shared ``Condition`` and its 1 ms -> 250 ms
    polling ladder; neither may come back."""
    source = inspect.getsource(comm_module)
    assert "Condition" not in source
    assert "backoff" not in source.lower()
    assert "0.25" not in source and "wait * 2" not in source
