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

import dataclasses
import os
import time

import numpy as np
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
# two-level (replicas stacked in the strip ranks): a dead rank
# ======================================================================


def _two_level_cfg(n_sweeps=4):
    return dataclasses.replace(_strip_cfg(n_sweeps=n_sweeps), replicas=2)


class TestTwoLevelFaults:
    """A dead rank fails the run, and every replica it holds with it.

    Each strip rank holds its columns of both replicas, so there is no
    surviving replica to finish: the run surfaces the structured
    :class:`RankFailure` on every rank, fast, and resumes from its
    per-rank bundles bit-identically.
    """

    def test_a_dead_rank_fails_every_replica_and_the_run_resumes(self, tmp_path):
        from repro.run.checkpoint import CheckpointConfig

        ref = run_spmd(worldline_strip_program, 2, IDEAL, args=(_two_level_cfg(6),))
        d = tmp_path / "ck"
        # One refresh a sweep (a send and a receive): step 9 lands in
        # the fifth sweep, after the bundles of sweep 4.
        plan = FaultPlan((CrashFault(rank=1, at_step=9),))
        t0 = time.monotonic()
        with pytest.raises(InjectedRankCrash) as excinfo:
            run_spmd(worldline_strip_program, 2, IDEAL,
                     args=(_two_level_cfg(6), CheckpointConfig(d, every=2)),
                     fault_plan=plan, recv_timeout=5.0)
        assert time.monotonic() - t0 < 5.0
        report = excinfo.value.run_report
        assert report.failed_ranks() == [1]
        assert [(a.rank, a.failed_rank) for a in report.aborted] == [(0, 1)]
        resumed = run_spmd(worldline_strip_program, 2, IDEAL,
                           args=(_two_level_cfg(6), CheckpointConfig(d, resume=True)))
        for r_ref, r_got in zip(ref.values, resumed.values):
            for key in ("energy", "magnetization", "owned_spins"):
                np.testing.assert_array_equal(r_got[key], r_ref[key], err_msg=key)

    @mp_fault
    def test_mp_backend_names_the_dead_replica_rank(self):
        plan = FaultPlan((CrashFault(rank=1, at_step=5),))
        t0 = time.monotonic()
        with pytest.raises(RankFailure) as excinfo:
            run_multiprocessing(
                worldline_strip_program, 2, IDEAL, args=(_two_level_cfg(),),
                fault_plan=plan, recv_timeout=10.0,
            )
        assert time.monotonic() - t0 < 10.0
        exc = excinfo.value
        assert exc.failed_rank == 1
        report = exc.run_report
        assert report.failed_ranks() == [1]
        assert report.failures[0].injected
        assert [(a.rank, a.failed_rank) for a in report.aborted] == [(0, 1)]


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
