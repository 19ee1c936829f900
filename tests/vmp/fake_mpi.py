"""Thread-backed stand-in for ``mpi4py`` (test-only, no production seam).

The mpi transport needs mpi4py plus a launcher, which most machines
running tier 1 do not have.  This module fakes exactly the slice of
``mpi4py.MPI`` that :mod:`repro.vmp.mpi_backend` touches -- the
constant ``ANY_SOURCE``, ``Request.Waitall``, and a communicator
offering ``Get_rank`` / ``Get_size`` / ``isend`` (whose request answers
``Test()``) / ``iprobe`` / ``recv`` / ``allgather`` / ``Abort`` -- with one thread per rank.  Payloads cross
by pickle, so ranks never share objects, like real processes.

:func:`run_world` installs the fake as ``sys.modules["mpi4py"]`` through
pytest's ``monkeypatch`` and runs
:func:`~repro.vmp.mpi_backend.run_mpi_world` on every rank; the
production code cannot tell the difference.
"""

from __future__ import annotations

import pickle
import sys
import threading
import time
import types

#: Deliberately not -1, the repository's own wildcard: the backend must
#: translate, not pass its constant through.
ANY_SOURCE = -2

_COLLECTIVE_TIMEOUT_S = 30.0


class FakeAbort(RuntimeError):
    """Raised by ``Comm.Abort`` (a real one would kill the job)."""


class _Group:
    """Shared state of one fake communicator: mailboxes and collectives."""

    def __init__(self, size: int):
        self.size = size
        self.cond = threading.Condition()
        self.boxes: list[list[tuple[int, int, bytes]]] = [[] for _ in range(size)]
        self._rounds: dict[int, dict[int, object]] = {}

    def exchange(self, rank: int, seq: int, value) -> list:
        """Collective: every rank contributes ``value``, all get the list."""
        with self.cond:
            slot = self._rounds.setdefault(seq, {})
            slot[rank] = value
            self.cond.notify_all()
            if not self.cond.wait_for(
                lambda: len(slot) == self.size, timeout=_COLLECTIVE_TIMEOUT_S
            ):
                raise RuntimeError(f"fake MPI collective {seq} never completed")
            return [slot[r] for r in range(self.size)]


class Request:
    """An isend handle that stays in flight until polled twice.

    The first ``Test()`` answers False, so the backend's opportunistic
    reaping leaves the request pending and only ``finalize`` -- through
    :meth:`Waitall` -- or a later reap completes it.
    """

    def __init__(self):
        self.polls = 0
        self.completed = False

    def Test(self) -> bool:
        self.polls += 1
        if self.polls >= 2:
            self.completed = True
        return self.completed

    @staticmethod
    def Waitall(requests) -> None:
        for req in requests:
            req.completed = True


class FakeComm:
    """One rank's view of a fake communicator."""

    def __init__(self, group: _Group, rank: int, requests: list):
        self._group = group
        self._rank = rank
        self._seq = 0
        #: Every isend request of the whole world (shared across comms).
        self.requests = requests

    def Get_rank(self) -> int:
        return self._rank

    def Get_size(self) -> int:
        return self._group.size

    def isend(self, obj, dest: int, tag: int = 0) -> Request:
        data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        g = self._group
        with g.cond:
            g.boxes[dest].append((self._rank, tag, data))
            g.cond.notify_all()
        req = Request()
        self.requests.append(req)
        return req

    def _find(self, source: int, tag: int) -> int | None:
        for i, (src, t, _data) in enumerate(self._group.boxes[self._rank]):
            if source in (ANY_SOURCE, src) and t == tag:
                return i
        return None

    def iprobe(self, source: int = ANY_SOURCE, tag: int = 0) -> bool:
        with self._group.cond:
            return self._find(source, tag) is not None

    def recv(self, source: int = ANY_SOURCE, tag: int = 0):
        g = self._group
        with g.cond:
            g.cond.wait_for(lambda: self._find(source, tag) is not None)
            return pickle.loads(g.boxes[self._rank].pop(self._find(source, tag))[2])

    def _collective(self, value) -> tuple[int, list]:
        seq, self._seq = self._seq, self._seq + 1
        return seq, self._group.exchange(self._rank, seq, value)

    def allgather(self, obj) -> list:
        data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        return [pickle.loads(d) for d in self._collective(data)[1]]

    def Abort(self, code: int = 0):
        raise FakeAbort(f"MPI_Abort({code}) on rank {self._rank}")


class _WorldProxy:
    """``MPI.COMM_WORLD``: resolves to the calling thread's rank."""

    def __init__(self, local):
        self._local = local

    def __getattr__(self, name):
        return getattr(self._local.comm, name)


class FakeWorld:
    """A fake MPI world of ``n_ranks`` thread-ranks."""

    def __init__(self, n_ranks: int):
        self.n_ranks = n_ranks
        self.requests: list[Request] = []
        self._group = _Group(n_ranks)
        self._local = threading.local()
        mpi = types.SimpleNamespace(
            ANY_SOURCE=ANY_SOURCE,
            Request=Request,
            COMM_WORLD=_WorldProxy(self._local),
        )
        #: What ``import mpi4py`` / ``from mpi4py import MPI`` resolve to.
        self.module = types.ModuleType("mpi4py")
        self.module.MPI = mpi

    def run(self, fn, timeout: float = 120.0) -> list:
        """Call ``fn()`` on every rank; returns the rank-ordered results."""
        results: list = [None] * self.n_ranks
        errors: list = [None] * self.n_ranks

        def runner(rank: int) -> None:
            self._local.comm = FakeComm(self._group, rank, self.requests)
            try:
                results[rank] = fn()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors[rank] = exc

        threads = [
            threading.Thread(target=runner, args=(r,), daemon=True)
            for r in range(self.n_ranks)
        ]
        for t in threads:
            t.start()
        deadline = time.monotonic() + timeout
        # Stop waiting at the first failure: its peers may block forever.
        while (any(t.is_alive() for t in threads) and not any(errors)
               and time.monotonic() < deadline):
            time.sleep(0.002)
        for exc in errors:
            if exc is not None:
                raise exc
        if any(t.is_alive() for t in threads):
            raise TimeoutError("fake MPI ranks still running")
        return results


def run_world(monkeypatch, program, n_ranks: int, **kwargs):
    """``run_mpi_world(program, **kwargs)`` on a fresh fake world.

    Returns ``(result, world)``: rank 0's
    :class:`~repro.vmp.scheduler.BackendRunResult` (every rank gets the
    same one) and the :class:`FakeWorld`, whose ``requests`` record
    every isend made.
    """
    from repro.vmp.mpi_backend import run_mpi_world

    world = FakeWorld(n_ranks)
    monkeypatch.setitem(sys.modules, "mpi4py", world.module)
    results = world.run(lambda: run_mpi_world(program, n_ranks=n_ranks, **kwargs))
    return results[0], world
