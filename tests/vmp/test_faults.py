"""Fault injection and failure recovery, on both execution backends.

The acceptance bar (ISSUE/DESIGN): killing one rank of a P=4 strip
world-line run mid-sweep must surface a structured
:class:`~repro.vmp.faults.RankFailure` naming the dead rank on every
survivor within seconds -- not after a 120 s hang.  These tests drive
that path with deterministic :class:`~repro.vmp.faults.FaultPlan`
injections (crash-at-step, message delay/drop, slow-rank stall) and
with a genuinely hard-killed process, at P=2 and P=4, on the thread
scheduler and the multiprocessing backend.

All multiprocessing tests carry the ``tier1_fault`` marker: they are
part of tier 1 but can be deselected with ``--no-fault`` on machines
where process spawning is restricted (see tests/vmp/README.md).
"""

import os
import time

import pytest

from repro.qmc.parallel import WorldlineStripConfig, worldline_strip_program
from repro.vmp.faults import (
    CrashFault,
    FaultPlan,
    InjectedRankCrash,
    MessageDelayFault,
    RankFailure,
    StallFault,
)
from repro.vmp.machines import IDEAL
from repro.vmp.process_backend import MpCommunicator, _Inbox, run_multiprocessing
from repro.vmp.scheduler import run_spmd

mp_fault = pytest.mark.tier1_fault


# Programs live at module scope so the multiprocessing backend can
# pickle them.
def prog_ring(comm, n_rounds=6):
    """Neighbor sendrecv ring: every rank keeps communicating."""
    total = 0.0
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    for _ in range(n_rounds):
        total += comm.sendrecv(float(comm.rank), dest=right, source=left)
    return total


def prog_hard_kill(comm):
    """Rank 1 dies without a trace; the others wait on the ring."""
    if comm.rank == 1:
        os._exit(17)  # no exception, no poison pill: a real SIGKILL-alike
    return prog_ring(comm)


def _strip_cfg(n_sweeps=4, mode="vectorized"):
    return WorldlineStripConfig(
        n_sites=16,
        jz=1.0,
        jxy=0.8,
        beta=1.0,
        n_slices=8,
        n_sweeps=n_sweeps,
        n_thermalize=0,
        mode=mode,
    )


# ======================================================================
# plan construction and determinism
# ======================================================================


class TestFaultPlan:
    def test_seeded_plans_are_reproducible(self):
        a = FaultPlan.seeded(3, n_ranks=8, n_crashes=2, max_step=16)
        b = FaultPlan.seeded(3, n_ranks=8, n_crashes=2, max_step=16)
        assert a == b
        assert len(a.crash_ranks()) == 2
        assert FaultPlan.seeded(4, n_ranks=8, n_crashes=2, max_step=16) != a

    def test_rejects_unknown_fault_types(self):
        with pytest.raises(TypeError):
            FaultPlan(("not a fault",))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CrashFault(rank=0, at_step=0)
        with pytest.raises(ValueError):
            MessageDelayFault(src=0, dst=1, seconds=-1.0)
        with pytest.raises(ValueError):
            StallFault(rank=0, at_step=1, seconds=-1.0)
        with pytest.raises(ValueError):
            FaultPlan.seeded(0, n_ranks=2, n_crashes=3)


# ======================================================================
# thread scheduler
# ======================================================================


class TestThreadBackendFaults:
    @pytest.mark.parametrize("p", [2, 4])
    def test_crash_names_dead_rank_on_all_survivors(self, p):
        victim = p - 1
        plan = FaultPlan((CrashFault(rank=victim, at_step=3),))
        t0 = time.monotonic()
        with pytest.raises(InjectedRankCrash) as excinfo:
            run_spmd(prog_ring, p, IDEAL, fault_plan=plan, recv_timeout=5.0)
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0, "survivors must fail fast, not wait out the timeout"
        report = excinfo.value.run_report
        assert report.failed_ranks() == [victim]
        assert report.failures[0].injected
        assert sorted(a.rank for a in report.aborted) == [
            r for r in range(p) if r != victim
        ]
        assert all(a.failed_rank == victim for a in report.aborted)

    def test_message_delay_shifts_modeled_time_only(self):
        base = run_spmd(prog_ring, 2, IDEAL)
        plan = FaultPlan((MessageDelayFault(src=0, dst=1, nth=1, seconds=0.25),))
        delayed = run_spmd(prog_ring, 2, IDEAL, fault_plan=plan)
        assert delayed.values == base.values
        assert delayed.elapsed_model_time == pytest.approx(
            base.elapsed_model_time + 0.25
        )
        assert delayed.report.ok

    def test_message_drop_times_out_with_diagnostics(self):
        plan = FaultPlan((MessageDelayFault(src=0, dst=1, nth=2, drop=True),))
        t0 = time.monotonic()
        with pytest.raises(RankFailure) as excinfo:
            run_spmd(prog_ring, 2, IDEAL, fault_plan=plan, recv_timeout=0.5)
        assert time.monotonic() - t0 < 5.0
        exc = excinfo.value
        assert exc.via == "timeout"
        assert exc.failed_rank == 0  # the receiver was waiting on rank 0
        assert "within 0.5s" in str(exc)

    def test_stall_charges_modeled_time(self):
        plan = FaultPlan((StallFault(rank=0, at_step=2, seconds=1.5),))
        res = run_spmd(prog_ring, 2, IDEAL, fault_plan=plan)
        assert res.outcomes[0].breakdown["stall"] == pytest.approx(1.5)
        assert "stall" not in res.outcomes[1].breakdown
        base = run_spmd(prog_ring, 2, IDEAL)
        assert res.values == base.values

    def test_clean_run_report_lists_all_completed(self):
        res = run_spmd(prog_ring, 4, IDEAL)
        assert res.report is not None
        assert res.report.ok
        assert res.report.completed == [0, 1, 2, 3]
        assert "all 4 ranks completed" in res.report.summary()

    @pytest.mark.parametrize("p", [2, 4])
    def test_strip_driver_crash_mid_sweep(self, p):
        # A strip sweep posts one halo refresh at P = 2 (a send and a
        # receive) and three at P = 4 (two of each): step 5 lands in the
        # third of four sweeps, or the first sweep's second refresh.
        plan = FaultPlan((CrashFault(rank=0, at_step=5),))
        with pytest.raises(InjectedRankCrash) as excinfo:
            run_spmd(
                worldline_strip_program,
                p,
                IDEAL,
                args=(_strip_cfg(),),
                fault_plan=plan,
                recv_timeout=5.0,
            )
        report = excinfo.value.run_report
        assert report.failed_ranks() == [0]
        assert all(a.failed_rank == 0 for a in report.aborted)


# ======================================================================
# multiprocessing backend
# ======================================================================


@mp_fault
class TestMpBackendFaults:
    @pytest.mark.parametrize("p", [2, 4])
    def test_crash_names_dead_rank_within_timeout(self, p):
        victim = p - 1
        plan = FaultPlan((CrashFault(rank=victim, at_step=3),))
        t0 = time.monotonic()
        with pytest.raises(RankFailure) as excinfo:
            run_multiprocessing(
                prog_ring, p, IDEAL, fault_plan=plan, recv_timeout=10.0
            )
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0, (
            f"poison pills must release survivors in <5s, took {elapsed:.1f}s"
        )
        exc = excinfo.value
        assert exc.failed_rank == victim
        report = exc.run_report
        assert report.failed_ranks() == [victim]
        assert report.failures[0].injected
        assert all(a.failed_rank == victim for a in report.aborted)

    def test_same_plan_same_trajectory_as_thread_backend(self):
        plan = FaultPlan((CrashFault(rank=1, at_step=5),))
        with pytest.raises(InjectedRankCrash) as th:
            run_spmd(prog_ring, 4, IDEAL, fault_plan=plan, recv_timeout=5.0)
        with pytest.raises(RankFailure) as mp_:
            run_multiprocessing(
                prog_ring, 4, IDEAL, fault_plan=plan, recv_timeout=5.0
            )
        th_report, mp_report = th.value.run_report, mp_.value.run_report
        assert th_report.failed_ranks() == mp_report.failed_ranks()
        # The victim dies at the same op count on both backends, so it
        # dies at the same modeled time.
        th_death = th_report.failures[0].model_time
        mp_death = mp_report.failures[0].model_time
        assert th_death == mp_death

    def test_message_delay_parity_with_thread_backend(self):
        plan = FaultPlan((MessageDelayFault(src=0, dst=1, nth=1, seconds=0.25),))
        th = run_spmd(prog_ring, 2, IDEAL, fault_plan=plan)
        mp_ = run_multiprocessing(prog_ring, 2, IDEAL, fault_plan=plan)
        assert mp_.values == th.values
        assert mp_.model_times == [o.model_time for o in th.outcomes]

    def test_hard_killed_process_detected_by_launcher(self):
        t0 = time.monotonic()
        with pytest.raises(RankFailure) as excinfo:
            run_multiprocessing(
                prog_hard_kill, 4, IDEAL, recv_timeout=30.0, join_timeout=30.0
            )
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0, (
            f"launcher liveness monitor should beat the 30s timeout, "
            f"took {elapsed:.1f}s"
        )
        exc = excinfo.value
        assert exc.failed_rank == 1
        report = exc.run_report
        assert report.failed_ranks() == [1]
        assert "exited with code 17" in report.failures[0].error
        assert all(a.failed_rank == 1 for a in report.aborted)

    def test_strip_driver_p4_mid_sweep_kill(self):
        # Acceptance criterion: killing one rank of a P=4 strip run
        # mid-sweep surfaces RankFailure naming the dead rank on all
        # survivors in <5s.
        plan = FaultPlan((CrashFault(rank=2, at_step=13),))
        t0 = time.monotonic()
        with pytest.raises(RankFailure) as excinfo:
            run_multiprocessing(
                worldline_strip_program,
                4,
                IDEAL,
                args=(_strip_cfg(),),
                fault_plan=plan,
                recv_timeout=30.0,
            )
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0, f"took {elapsed:.1f}s, acceptance bar is 5s"
        exc = excinfo.value
        assert exc.failed_rank == 2
        report = exc.run_report
        assert report.failed_ranks() == [2]
        survivors = sorted(a.rank for a in report.aborted)
        assert survivors == [0, 1, 3]
        assert all(a.failed_rank == 2 for a in report.aborted)


# ======================================================================
# MpCommunicator timeout regression (satellite bugfix)
# ======================================================================


@mp_fault
class TestMpCommunicatorTimeout:
    def _comm(self, recv_timeout):
        import multiprocessing as mp

        from repro.util.rng import SeedSequenceFactory

        ctx = mp.get_context("fork")
        inboxes = [_Inbox(ctx, 2), _Inbox(ctx, 2)]
        return MpCommunicator(
            rank=0,
            size=2,
            inboxes=inboxes,
            machine=IDEAL,
            topology=IDEAL.topology(2),
            stream=SeedSequenceFactory(0).rank_stream(0),
            recv_timeout=recv_timeout,
        )

    def test_recv_timeout_is_a_constructor_parameter(self):
        # Regression: the timeout used to be a hard-coded 120 s module
        # constant; a receiver with nothing inbound must now give up
        # after the configured bound.
        comm = self._comm(recv_timeout=0.3)
        t0 = time.monotonic()
        with pytest.raises(RankFailure) as excinfo:
            comm.recv(source=1, tag=7)
        elapsed = time.monotonic() - t0
        assert 0.25 < elapsed < 5.0
        assert excinfo.value.via == "timeout"
        assert excinfo.value.failed_rank == 1

    def test_timeout_error_includes_stash_and_inbox_diagnostics(self):
        comm = self._comm(recv_timeout=0.3)
        # An unmatched message (wrong tag) must show up in the report.
        comm._inboxes[0].post(1, 99, 0.0, "stray")
        with pytest.raises(RankFailure) as excinfo:
            comm.recv(source=1, tag=7)
        msg = str(excinfo.value)
        assert "stash holds 1 unmatched message(s)" in msg
        assert "(1, 99)" in msg
        # The stray message was drained into the stash: every ring
        # (two ranks + the launcher's) reports nothing unread.
        assert "unread per source ring {0: 0, 1: 0, 2: 0}" in msg

    def test_timeout_diagnostics_report_per_source_ring_depth(self):
        comm = self._comm(recv_timeout=0.3)
        for i in range(3):
            comm._inboxes[0].post(1, 40 + i, 0.0, i)
        # Not drained yet: three published, unread messages on ring 1.
        assert "unread per source ring {0: 0, 1: 3, 2: 0}" in comm._diagnostics()
        assert comm.recv(source=1, tag=42) == 2
        assert comm.stash_size() == 2

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError):
            self._comm(recv_timeout=0.0)

    def test_poison_pill_names_origin(self):
        comm = self._comm(recv_timeout=5.0)
        comm._inboxes[0].post_poison(1, 1, "synthetic death")
        t0 = time.monotonic()
        with pytest.raises(RankFailure) as excinfo:
            comm.recv(source=1)
        assert time.monotonic() - t0 < 2.0
        assert excinfo.value.failed_rank == 1
        assert excinfo.value.via == "poison-pill"
        assert "synthetic death" in str(excinfo.value)


# ======================================================================
# two-level (ensemble x domain) fault containment
# ======================================================================


def _two_level_cfg():
    from repro.qmc.two_level import TwoLevelConfig

    return TwoLevelConfig(
        replicas=2,
        domain_ranks=2,
        base=_strip_cfg(n_sweeps=4),
    )


class TestTwoLevelFaults:
    """Killing one replica's domain must not take down the ensemble.

    Replicas are coupled only through the leaders' ensemble
    sub-communicator, and :func:`two_level_program` tolerates a
    :class:`RankFailure` on every ensemble operation: the surviving
    replica finishes its own trajectory (degraded, unpooled) while the
    dead replica's domain surfaces the structured failure.
    """

    def test_domain_crash_is_contained_to_its_replica(self):
        from repro.qmc.two_level import two_level_program

        # Rank 2 is replica 1's leader; step 25 lands mid-first-sweep,
        # after the two split() membership exchanges.
        plan = FaultPlan((CrashFault(rank=2, at_step=25),))
        with pytest.raises(InjectedRankCrash) as excinfo:
            run_spmd(
                two_level_program, 4, IDEAL, args=(_two_level_cfg(),),
                fault_plan=plan, recv_timeout=5.0,
            )
        report = excinfo.value.run_report
        assert report.failed_ranks() == [2]
        # Replica 0's ranks run to completion: their domain traffic
        # never touches the dead replica, and the leader's ensemble
        # failure is absorbed as degraded pooling.
        assert {0, 1} <= set(report.completed)
        # Replica 1's surviving member aborts on its dead domain peer.
        assert [a.rank for a in report.aborted] == [3]
        assert all(a.failed_rank == 2 for a in report.aborted)

    def test_rank_failure_is_prefixed_with_the_replica_name(self):
        def prog(comm):
            replica = comm.rank // 2
            sub = comm.split(replica, key=comm.rank, name=f"replica{replica}")
            if comm.rank == 0:
                try:
                    sub.recv(source=1, tag=5)  # the peer never sends
                except RankFailure as exc:
                    return (str(exc), exc.via, exc.detected_by)
            return None

        res = run_spmd(prog, 4, IDEAL, recv_timeout=0.5)
        msg, via, detected_by = res.values[0]
        assert "[replica0]" in msg
        assert via == "timeout"
        assert detected_by == 0

    @mp_fault
    def test_mp_backend_names_the_dead_replica_rank(self):
        from repro.qmc.two_level import two_level_program

        plan = FaultPlan((CrashFault(rank=2, at_step=25),))
        t0 = time.monotonic()
        with pytest.raises(RankFailure) as excinfo:
            run_multiprocessing(
                two_level_program, 4, IDEAL, args=(_two_level_cfg(),),
                fault_plan=plan, recv_timeout=10.0,
            )
        assert time.monotonic() - t0 < 10.0
        exc = excinfo.value
        assert exc.failed_rank == 2
        report = exc.run_report
        assert report.failed_ranks() == [2]
        assert report.failures[0].injected
        # Every other rank either completed or aborted blaming rank 2
        # (poison pills may reach replica 0 mid-receive on this backend).
        others = set(report.completed) | {a.rank for a in report.aborted}
        assert others == {0, 1, 3}
        assert all(a.failed_rank == 2 for a in report.aborted)


def prog_split_pair_send(comm):
    """Odd and even world ranks pair up; sub rank 0 sends to sub rank 1."""
    sub = comm.split(comm.rank % 2, key=comm.rank)
    if sub.rank == 0:
        sub.send(1.0, 1, tag=4)
        return None
    before = comm.clock.breakdown().get("comm_wait", 0.0)
    sub.recv(source=0, tag=4)
    return comm.clock.breakdown().get("comm_wait", 0.0) - before


@pytest.mark.parametrize("backend", ["thread", pytest.param("mp", marks=mp_fault)])
def test_fault_plans_stay_keyed_by_world_rank_through_a_split(backend):
    # Both sends go sub rank 0 -> sub rank 1, but only the odd pair's is
    # world edge 1 -> 3: the plan must hit that one and not the even
    # pair's (0 -> 2).  The split's own allgather ring uses neither edge.
    plan = FaultPlan((MessageDelayFault(src=1, dst=3, nth=0, seconds=0.5),))
    base = run_spmd(prog_split_pair_send, 4, IDEAL, backend=backend)
    hit = run_spmd(prog_split_pair_send, 4, IDEAL, backend=backend,
                   fault_plan=plan)
    assert hit.values[3] == pytest.approx(base.values[3] + 0.5)
    assert hit.values[2] == base.values[2]


def test_run_report_summary_is_informative():
    plan = FaultPlan((CrashFault(rank=1, at_step=2),))
    with pytest.raises(InjectedRankCrash) as excinfo:
        run_spmd(prog_ring, 2, IDEAL, fault_plan=plan, recv_timeout=2.0)
    text = excinfo.value.run_report.summary()
    assert "rank 1 died (injected)" in text
    assert "aborted" in text


def test_seeded_plan_crashes_chosen_rank_on_both_backends():
    plan = FaultPlan.seeded(11, n_ranks=4, n_crashes=1, max_step=8)
    (victim,) = plan.crash_ranks()
    with pytest.raises(InjectedRankCrash) as excinfo:
        run_spmd(prog_ring, 4, IDEAL, fault_plan=plan, recv_timeout=5.0)
    assert excinfo.value.run_report.failed_ranks() == [victim]
