"""Request (isend/irecv handle) and endpoint semantics, identical everywhere.

The contract pinned here (see the comm-module docstring): a *send*
request is complete the moment ``isend`` returns -- every backend
buffers eagerly, there is no rendezvous -- and a *receive* request
completes when a matching message is collected, charging modeled
latency/wait exactly once no matter how often ``test``/``wait`` are
called.  Because that behaviour is written once, in
:class:`repro.vmp.comm.Communicator`, the same programs run here over
the thread, mp and mpi transports; the mpi leg uses real MPI when mpi4py + mpiexec exist and
the thread-backed fake of ``tests/vmp/fake_mpi.py`` always.  The
programs are module-level so the mp and mpi backends can pickle them.
"""

import numpy as np
import pytest

from repro.vmp.comm import ANY_SOURCE, ANY_TAG, Communicator, _Stash
from repro.vmp.machines import IDEAL, PARAGON
from repro.vmp.mpi_backend import MpiCommunicator, mpi_available, mpiexec_available
from repro.vmp.process_backend import MpCommunicator
from repro.vmp.scheduler import run_spmd
from tests.vmp import fake_mpi

BACKENDS_UNDER_TEST = ["thread", "mp", "fake-mpi"] + (
    ["mpi"] if mpi_available() and mpiexec_available() else []
)

backends = pytest.mark.parametrize("backend", BACKENDS_UNDER_TEST)


def _values(monkeypatch, backend, program, n_ranks, machine, args=(), **kwargs):
    """Rank-ordered return values of ``program`` on one backend."""
    if backend == "fake-mpi":
        res, _ = fake_mpi.run_world(monkeypatch, program, n_ranks,
                                    machine=machine, args=args, **kwargs)
        return res.values
    return run_spmd(program, n_ranks, machine=machine, backend=backend,
                    args=args, **kwargs).values


def _send_completes_on_return(comm):
    if comm.rank == 0:
        req = comm.isend(np.arange(6.0), 1, tag=4)
        done_immediately = req.test()
        req.wait()  # wait after test must be a no-op, not an error
        comm.recv(source=1, tag=5)
        return done_immediately
    got = comm.recv(source=0, tag=4)
    comm.send("ack", 0, tag=5)
    return float(got.sum())


def _recv_not_done_until_sent(comm):
    if comm.rank == 0:
        req = comm.irecv(source=1, tag=9)
        # Rank 1 blocks for our go-message before sending, so the
        # request cannot have completed yet on any backend.
        early = req.test()
        comm.send("go", 1, tag=8)
        value = req.wait()
        again = req.wait()  # idempotent: same payload, no extra charge
        clock_after_first = comm.clock.now
        assert comm.clock.now == clock_after_first
        return {"early": early, "value": value, "again": again}
    comm.recv(source=0, tag=8)
    comm.send("payload", 0, tag=9)
    return None


def _wait_charges_once(comm):
    nxt, prv = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
    req = comm.irecv(source=prv, tag=2)
    comm.isend(np.full(16, float(comm.rank)), nxt, tag=2)
    req.wait()
    req.test()  # post-completion probes must not touch the clock
    req.wait()
    return comm.clock.now


def _rejects_bad_ranks(comm, peer_kw):
    # An out-of-range peer can never be matched: every entry point must
    # say so at once instead of waiting out its timeout.
    calls = {"source": (comm.recv, comm.irecv), "dest": (comm.send, comm.isend)}
    errors = []
    for call in calls[peer_kw]:
        for peer in (comm.size, -2):
            args = ("x",) if peer_kw == "dest" else ()
            try:
                call(*args, **{peer_kw: peer}, tag=0)
            except ValueError as exc:
                errors.append(str(exc))
    return errors


@backends
def test_recv_validates_source_rank(monkeypatch, backend):
    values = _values(monkeypatch, backend, _rejects_bad_ranks, 2, IDEAL,
                     args=("source",), recv_timeout=5.0)
    for errors in values:
        assert errors == [
            "invalid source rank 2", "invalid source rank -2",
            "invalid source rank 2", "invalid source rank -2",
        ]


@backends
def test_send_validates_destination_rank(monkeypatch, backend):
    values = _values(monkeypatch, backend, _rejects_bad_ranks, 2, IDEAL,
                     args=("dest",), recv_timeout=5.0)
    for errors in values:
        assert errors == [
            "invalid destination rank 2", "invalid destination rank -2",
            "invalid destination rank 2", "invalid destination rank -2",
        ]


@backends
def test_send_request_complete_on_return(monkeypatch, backend):
    values = _values(monkeypatch, backend, _send_completes_on_return, 2,
                     IDEAL)
    assert values[0] is True
    assert values[1] == 15.0


@backends
def test_recv_request_lifecycle(monkeypatch, backend):
    out = _values(monkeypatch, backend, _recv_not_done_until_sent, 2, IDEAL)[0]
    assert out["early"] is False
    assert out["value"] == "payload"
    assert out["again"] == "payload"


@backends
def test_completed_requests_charge_the_clock_once(monkeypatch, backend):
    values = _values(monkeypatch, backend, _wait_charges_once, 2, PARAGON)
    thread = run_spmd(_wait_charges_once, 2, machine=PARAGON)
    assert values == thread.values


def _delta(after, before):
    return {k: v - before.get(k, 0.0) for k, v in after.items()
            if v != before.get(k, 0.0)}


def _offloaded_irecv_charges(comm):
    if comm.rank == 1:
        comm.send(np.zeros(4), 0, tag=3)
        return None
    b0 = comm.clock.breakdown()
    req = comm.irecv(source=1, tag=3, offload=True)
    b1 = comm.clock.breakdown()
    req.wait()
    b2 = comm.clock.breakdown()
    return _delta(b1, b0), _delta(b2, b1), comm.clock.now


@backends
def test_offloaded_irecv_pays_overhead_at_post_and_only_waits_after(
        monkeypatch, backend):
    values = _values(monkeypatch, backend, _offloaded_irecv_charges, 2,
                     PARAGON)
    at_post, at_completion, _now = values[0]
    assert at_post == {"comm": pytest.approx(PARAGON.post_overhead)}
    # No alpha at completion: the clock only moves, under halo_wait,
    # to the arrival stamp (if the message has not landed already).
    assert set(at_completion) <= {"halo_wait"}
    thread = run_spmd(_offloaded_irecv_charges, 2, machine=PARAGON)
    assert values[0] == thread.values[0]


# -- written once: structure ------------------------------------------------


def test_endpoint_logic_is_defined_once():
    shared = ("send", "sendrecv", "isend", "recv", "irecv", "_complete_recv",
              "_match", "charge_compute", "charge_seconds", "sync_metrics", "barrier",
              "bcast", "reduce", "allreduce", "gather", "allgather", "scatter",
              "alltoall")
    for cls in (MpCommunicator, MpiCommunicator):
        assert issubclass(cls, Communicator)
        own = set(vars(cls))
        # Every transport supplies the three hooks and none of the rest.
        assert {"_deliver", "_try_collect", "_collect"} <= own
        overridden = own & set(shared)
        assert not overridden, f"{cls.__name__} re-implements {overridden}"


# -- the one stash -------------------------------------------------------------


class TestStash:
    @staticmethod
    def _msg(src, tag, n):
        return (src, tag, 0.0, n)

    def test_specific_match_is_fifo_and_drained_keys_are_deleted(self):
        stash = _Stash()
        for n in range(3):
            stash.add(self._msg(1, 7, n))
        stash.add(self._msg(2, 7, 99))
        assert (len(stash), stash.size()) == (2, 4)
        assert stash.pop(1, 8) is None and stash.pop(3, 7) is None
        assert [stash.pop(1, 7)[3] for _ in range(3)] == [0, 1, 2]
        assert stash.pop(1, 7) is None
        assert list(stash._queues) == [(2, 7)]  # the drained key is gone
        assert stash.pop(2, 7)[3] == 99
        assert (len(stash), stash.size(), stash._queues) == (0, 0, {})

    def test_wildcards_take_the_globally_oldest_match(self):
        stash = _Stash()
        order = [(2, 5), (1, 5), (2, 6), (1, 6), (2, 5)]
        for n, (src, tag) in enumerate(order):
            stash.add(self._msg(src, tag, n))
        assert stash.pop(ANY_SOURCE, 6)[3] == 2  # oldest with tag 6
        assert stash.pop(1, ANY_TAG)[3] == 1  # oldest from source 1
        assert [stash.pop(ANY_SOURCE, ANY_TAG)[3] for _ in range(3)] == [0, 3, 4]
        assert stash.pop(ANY_SOURCE, ANY_TAG) is None and len(stash) == 0

    def test_tuple_tags_of_sub_communicators(self):
        stash = _Stash()
        stash.add(self._msg(0, ((0,), 4), "child"))
        stash.add(self._msg(0, 4, "world"))
        stash.add(self._msg(0, ((0, 1), 4), "grandchild"))
        assert stash.pop(0, 4)[3] == "world"
        assert stash.pop(0, ((0, 1), 4))[3] == "grandchild"
        assert stash.pop(0, ((1,), 4)) is None
        assert stash.describe() == "holds 1 unmatched message(s) [(0, ((0,), 4))]"
