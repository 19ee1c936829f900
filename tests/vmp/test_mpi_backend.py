"""Tests for the real-MPI execution backend.

Two tiers: availability/validation behavior that must hold on any
machine (mpi4py absent included), and real ``mpiexec`` runs that skip
unless mpi4py plus a launcher are installed (CI's MPI job runs them).
"""

import numpy as np
import pytest

from repro.qmc.parallel import WorldlineStripConfig, worldline_strip_program
from repro.vmp.faults import CrashFault, FaultPlan
from repro.vmp.machines import IDEAL, PARAGON
from repro.vmp.mpi_backend import (
    MpiUnavailableError,
    in_mpi_world,
    mpi_available,
    mpiexec_available,
    run_mpiexec,
)
from repro.vmp.scheduler import BACKENDS, run_spmd
from repro.vmp.world import world_rank_hint, world_size_hint
from tests.vmp import fake_mpi

HAVE_REAL_MPI = mpi_available() and mpiexec_available()

needs_mpi = pytest.mark.skipif(
    not HAVE_REAL_MPI, reason="needs mpi4py and an mpiexec launcher"
)

_MPI_ENV_VARS = (
    "OMPI_COMM_WORLD_SIZE",
    "OMPI_COMM_WORLD_RANK",
    "PMI_SIZE",
    "PMI_RANK",
    "SLURM_NTASKS",
    "SLURM_PROCID",
)


@pytest.fixture
def plain_env(monkeypatch):
    """Environment with every MPI launcher variable removed."""
    for var in _MPI_ENV_VARS:
        monkeypatch.delenv(var, raising=False)


class TestEnvironmentDetection:
    def test_outside_any_launcher(self, plain_env):
        assert world_size_hint() == 1
        assert world_rank_hint() == 0
        assert not in_mpi_world()

    @pytest.mark.parametrize(
        "size_var,rank_var",
        [
            ("OMPI_COMM_WORLD_SIZE", "OMPI_COMM_WORLD_RANK"),
            ("PMI_SIZE", "PMI_RANK"),
            ("SLURM_NTASKS", "SLURM_PROCID"),
        ],
    )
    def test_launcher_env(self, plain_env, monkeypatch, size_var, rank_var):
        monkeypatch.setenv(size_var, "4")
        monkeypatch.setenv(rank_var, "2")
        assert world_size_hint() == 4
        assert world_rank_hint() == 2
        assert in_mpi_world()

    def test_garbage_values_ignored(self, plain_env, monkeypatch):
        monkeypatch.setenv("OMPI_COMM_WORLD_SIZE", "banana")
        assert world_size_hint() == 1
        assert not in_mpi_world()

    def test_availability_probes_are_bool(self):
        assert isinstance(mpi_available(), bool)
        assert isinstance(mpiexec_available(), bool)


def _token_ring(comm):
    """Pass a token once around the ring; every rank returns its view."""
    nxt, prv = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
    token = comm.sendrecv(("tok", comm.rank), dest=nxt, source=prv, sendtag=3,
                          recvtag=3)
    total = comm.allreduce(comm.rank)
    return {"from": token[1], "total": total, "rank": comm.rank}


def _array_exchange(comm):
    """Halo-style ndarray exchange plus nonblocking echo."""
    nxt, prv = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
    out = np.full(8, float(comm.rank))
    req = comm.irecv(source=prv, tag=11)
    comm.isend(out, nxt, tag=11).wait()
    halo = req.wait()
    return float(halo.sum()) + comm.clock.now * 0.0


class TestValidationWithoutMpi:
    def test_backend_tuple(self):
        assert BACKENDS == ("thread", "mp", "mpi")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            run_spmd(_token_ring, 2, machine=IDEAL, backend="pvm")

    def test_fault_plan_rejected_on_mpi(self):
        plan = FaultPlan((CrashFault(rank=1, at_step=3),))
        with pytest.raises(ValueError, match="thread/mp-only"):
            run_spmd(_token_ring, 2, machine=IDEAL, backend="mpi",
                     fault_plan=plan)

    @pytest.mark.parametrize("backend", ["mp", "mpi"])
    @pytest.mark.parametrize("flag", ["trace", "spans"])
    def test_trace_and_spans_need_thread_backend(self, backend, flag):
        with pytest.raises(ValueError, match="thread backend"):
            run_spmd(_token_ring, 2, machine=IDEAL, backend=backend,
                     **{flag: True})

    def test_missing_launcher_is_structured(self):
        with pytest.raises(MpiUnavailableError):
            run_mpiexec(_token_ring, 2, machine=IDEAL,
                        mpiexec="no-such-launcher-anywhere")

    @pytest.mark.skipif(mpi_available(), reason="mpi4py installed here")
    def test_backend_mpi_degrades_gracefully(self):
        with pytest.raises(MpiUnavailableError, match="mpi4py"):
            run_spmd(_token_ring, 2, machine=IDEAL, backend="mpi")


@needs_mpi
class TestRealMpi:
    def test_ring_and_allreduce(self):
        res = run_mpiexec(_token_ring, 4, machine=PARAGON, seed=1)
        assert [v["from"] for v in res.values] == [3, 0, 1, 2]
        assert all(v["total"] == 6 for v in res.values)
        assert res.report.completed == [0, 1, 2, 3]

    def test_ndarray_fast_path(self):
        res = run_mpiexec(_array_exchange, 2, machine=IDEAL, seed=0)
        assert res.values == [8.0, 0.0]
        assert all(s.messages_sent >= 1 for s in res.stats)

    def test_model_clock_matches_thread_backend(self):
        thread = run_spmd(_token_ring, 4, machine=PARAGON, seed=5)
        mpi = run_spmd(_token_ring, 4, machine=PARAGON, seed=5, backend="mpi")
        assert mpi.values == thread.values
        assert mpi.elapsed_model_time == pytest.approx(
            thread.elapsed_model_time, rel=0, abs=0
        )

    def test_strip_driver_bit_identical(self):
        cfg = WorldlineStripConfig(
            n_sites=8, jz=1.0, jxy=1.0, beta=0.8, n_slices=8,
            n_sweeps=30, n_thermalize=10,
        )
        thread = run_spmd(
            worldline_strip_program, 2, machine=PARAGON, seed=9,
            args=(cfg, None),
        )
        mpi = run_spmd(
            worldline_strip_program, 2, machine=PARAGON, seed=9,
            args=(cfg, None), backend="mpi",
        )
        np.testing.assert_array_equal(
            thread.values[0]["energy"], mpi.values[0]["energy"]
        )
        np.testing.assert_array_equal(
            thread.values[0]["magnetization"], mpi.values[0]["magnetization"]
        )
        assert mpi.elapsed_model_time == thread.elapsed_model_time

    def test_rank_failure_surfaces_from_mpiexec(self):
        res = None
        with pytest.raises(Exception) as excinfo:
            res = run_mpiexec(_crashing_program, 2, machine=IDEAL)
        assert res is None
        assert "mpiexec" in str(excinfo.value) or "boom" in str(excinfo.value)


def _crashing_program(comm):
    if comm.rank == 1:
        raise RuntimeError("boom: deliberate test failure")
    return comm.allreduce(1)


# ======================================================================
# The mpi transport over a fake mpi4py (runs everywhere; tests/vmp/fake_mpi.py)
# ======================================================================


def _wildcard_fifo(comm):
    """Ranks 1.. each send a numbered stream; rank 0 takes them by wildcard."""
    n = 6
    if comm.rank != 0:
        for i in range(n):
            comm.send((comm.rank, i), 0, tag=i % 2)
        comm.send("mark", 0, tag=7)
        comm.recv(source=0, tag=9)  # keep the sender alive until drained
        return None
    # Specific receives first: everything sent ahead of the marks is
    # stashed, so the wildcard matches come out of the stash.
    for peer in range(1, comm.size):
        comm.recv(source=peer, tag=7)
    got = [comm.recv() for _ in range((comm.size - 1) * n)]
    for peer in range(1, comm.size):
        comm.send("done", peer, tag=9)
    return got


def _self_send(comm):
    payload = {"a": np.arange(4.0), "b": [1, 2]}
    comm.send(payload, comm.rank, tag=1)
    payload["a"][:] = -1.0  # must not reach the copy already in flight
    payload["b"].append(3)
    got = comm.recv(source=comm.rank, tag=1)
    return got["a"].tolist(), got["b"], got is payload


def _ring_traffic(comm):
    """Ring traffic and an allreduce, never finalized here."""
    nxt, prv = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
    a = comm.sendrecv(comm.rank, nxt, prv, sendtag=2, recvtag=2)
    return a, comm.allreduce(comm.rank)


class TestFakeMpiTransport:
    def test_ring_and_allreduce(self, monkeypatch):
        res, _ = fake_mpi.run_world(monkeypatch, _token_ring, 4, machine=PARAGON,
                                    seed=1)
        assert [v["from"] for v in res.values] == [3, 0, 1, 2]
        assert all(v["total"] == 6 for v in res.values)
        assert res.report.completed == [0, 1, 2, 3]
        thread = run_spmd(_token_ring, 4, machine=PARAGON, seed=1)
        assert res.model_times == [o.model_time for o in thread.outcomes]
        assert res.stats == [o.stats for o in thread.outcomes]

    def test_wildcard_recv_is_fifo_per_source(self, monkeypatch):
        res, _ = fake_mpi.run_world(monkeypatch, _wildcard_fifo, 3, machine=IDEAL)
        got = res.values[0]
        for source in (1, 2):
            assert [i for s, i in got if s == source] == list(range(6))

    def test_self_send_copies(self, monkeypatch):
        res, world = fake_mpi.run_world(monkeypatch, _self_send, 1, machine=IDEAL)
        assert res.values[0] == ([0.0, 1.0, 2.0, 3.0], [1, 2], False)
        assert world.requests == []  # self-delivery never touches MPI

    def test_finalize_drains_pending_sends(self, monkeypatch):
        res, world = fake_mpi.run_world(monkeypatch, _ring_traffic, 4,
                                        machine=PARAGON)
        assert [v[0] for v in res.values] == [3, 0, 1, 2]
        assert [v[1] for v in res.values] == [6, 6, 6, 6]
        # The fake leaves an isend in flight until its second poll, so
        # some are still pending when the program returns; finalize must
        # complete them.
        assert world.requests and all(r.completed for r in world.requests)
        assert any(r.polls < 2 for r in world.requests)
        thread = run_spmd(_ring_traffic, 4, machine=PARAGON)
        assert res.breakdowns == [o.breakdown for o in thread.outcomes]

    def test_strip_makespan_equals_thread_backend(self, monkeypatch):
        cfg = WorldlineStripConfig(
            n_sites=8, jz=1.0, jxy=1.0, beta=0.8, n_slices=8,
            n_sweeps=12, n_thermalize=4,
        )
        thread = run_spmd(worldline_strip_program, 2, machine=PARAGON, seed=9,
                          args=(cfg, None))
        res, _ = fake_mpi.run_world(monkeypatch, worldline_strip_program, 2,
                                    machine=PARAGON, seed=9, args=(cfg, None))
        assert max(res.model_times) == thread.elapsed_model_time
        assert res.breakdowns == [o.breakdown for o in thread.outcomes]
        np.testing.assert_array_equal(
            res.values[0]["energy"], thread.values[0]["energy"]
        )
