"""Request (isend/irecv handle) semantics, identical on every backend.

The contract pinned here (see the comm-module docstring): a *send*
request is complete the moment ``isend`` returns -- every backend
buffers eagerly, there is no rendezvous -- and a *receive* request
completes when a matching message is collected, charging modeled
latency/wait exactly once no matter how often ``test``/``wait`` are
called.  The programs are module-level so the mp and mpi backends can
pickle them; the mpi leg skips without mpi4py + mpiexec.
"""

import numpy as np
import pytest

from repro.vmp.machines import IDEAL, PARAGON
from repro.vmp.mpi_backend import mpi_available, mpiexec_available
from repro.vmp.scheduler import run_spmd

BACKENDS_UNDER_TEST = ["thread", "mp"] + (
    ["mpi"] if mpi_available() and mpiexec_available() else []
)

backends = pytest.mark.parametrize("backend", BACKENDS_UNDER_TEST)


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


def _recv_rejects_bad_source(comm):
    # An out-of-range source can never be matched: every receive entry
    # point must say so at once instead of waiting out its timeout.
    errors = []
    for call in (comm.recv, comm.irecv):
        for source in (comm.size, -2):
            try:
                call(source=source, tag=0)
            except ValueError as exc:
                errors.append(str(exc))
    return errors


@backends
def test_recv_validates_source_rank(backend):
    res = run_spmd(_recv_rejects_bad_source, 2, machine=IDEAL, backend=backend,
                   recv_timeout=5.0)
    for errors in res.values:
        assert errors == [
            "invalid source rank 2", "invalid source rank -2",
            "invalid source rank 2", "invalid source rank -2",
        ]


@backends
def test_send_request_complete_on_return(backend):
    res = run_spmd(_send_completes_on_return, 2, machine=IDEAL, backend=backend)
    assert res.values[0] is True
    assert res.values[1] == 15.0


@backends
def test_recv_request_lifecycle(backend):
    res = run_spmd(_recv_not_done_until_sent, 2, machine=IDEAL, backend=backend)
    out = res.values[0]
    assert out["early"] is False
    assert out["value"] == "payload"
    assert out["again"] == "payload"


@backends
def test_completed_requests_charge_the_clock_once(backend):
    res = run_spmd(_wait_charges_once, 2, machine=PARAGON, backend=backend)
    thread = run_spmd(_wait_charges_once, 2, machine=PARAGON, backend="thread")
    assert res.values == thread.values
