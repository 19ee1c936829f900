"""Real-process execution of SPMD rank programs via multiprocessing.

The thread-per-rank scheduler in :mod:`repro.vmp.scheduler` is the
default backend; this module runs the *same program objects* on real OS
processes with genuinely disjoint address spaces.
:class:`MpCommunicator` is a :class:`~repro.vmp.comm.Communicator` whose
three transport hooks post to and collect from the fabric below; the
cost convention, ``Request`` semantics, matching order and collectives
are stated once, in :mod:`repro.vmp.comm`.

Messages travel through a shared-memory fabric (:class:`_Inbox`): every
rank owns one anonymous ``MAP_SHARED`` mapping, created before the fork
and inherited over it, that holds one fixed-slot single-producer ring
per source plus a semaphore doorbell counting published messages.  A
halo is one header and the raw array bytes written straight into the
next slot -- no pickle, no feeder thread, no pipe and no lock.  See
DESIGN.md "Shared-memory fabric" for the layout and the ordering
argument.

Fault tolerance mirrors the thread backend:

* every blocking receive has a configurable wall-clock timeout
  (:class:`MpCommunicator` constructor parameter, default 120 s);
  expiry raises a structured :class:`~repro.vmp.faults.RankFailure`
  carrying stash/ring diagnostics instead of a bare ``TimeoutError``,
  and so does a send whose ring stays full that long;
* a failing worker broadcasts a *poison pill* to every peer inbox
  before dying, so survivors blocked in ``recv`` fail fast with a
  :class:`RankFailure` naming the dead rank rather than waiting out
  their timeout;
* the launcher monitors process liveness: a rank that dies without
  reporting (e.g. SIGKILL mid-sweep) is detected from its exit code and
  poison pills are injected on its behalf;
* :func:`run_multiprocessing` returns a
  :class:`~repro.vmp.scheduler.BackendRunResult` whose
  :class:`~repro.vmp.faults.RunReport` records who failed, when
  (modeled clock at death), and who aborted -- and raises a
  :class:`RankFailure` with that report attached when any rank failed.

Deterministic fault injection (:class:`~repro.vmp.faults.FaultPlan`) is
honored identically to the thread scheduler: the plan ships to each
worker and drives the same per-op counters.

Intended for small rank counts (P <= 8 on this container); the fabric
needs the ``fork`` start method, which the launcher already uses.
"""

from __future__ import annotations

import mmap
import multiprocessing as mp
# What the fork context's Queue and Process.start load on first use,
# loaded with this module so that no launch imports them.
import multiprocessing.popen_fork  # noqa: F401
import multiprocessing.queues  # noqa: F401
import multiprocessing.synchronize  # noqa: F401
import pickle
import queue as queue_mod
import struct
import time
from collections import deque
from typing import Any, Callable, Sequence

import numpy as np

from repro.util.rng import SeedSequenceFactory
from repro.vmp.comm import (
    ANY_SOURCE,
    Communicator,
    _Stash,
    recv_timeout_failure,
)
from repro.vmp.faults import (
    AbortRecord,
    FaultPlan,
    InjectedRankCrash,
    RankFailure,
    RankFailureRecord,
    RunReport,
)
from repro.vmp.machines import IDEAL, MachineModel
from repro.vmp.scheduler import BackendRunResult
from repro.vmp.topology import Topology
from repro.vmp.world import CommStats

__all__ = ["MpCommunicator", "run_multiprocessing"]

#: Default wall-clock bound on a blocking receive (and on the whole run).
_DEFAULT_TIMEOUT_S = 120.0

#: Grace period between noticing a dead worker process and declaring it
#: failed-without-result (its result may still be in the queue's pipe).
_DEATH_GRACE_S = 1.0

#: Slots per ring.  Data messages use at most ``_N_SLOTS - 1`` of them:
#: the last one is kept for the single poison pill a dying rank posts,
#: so a full ring can never hold a pill back.
_N_SLOTS = 64
#: Bytes per slot: a 64-byte header, then the payload.  Slots are
#: page-multiples, so a small message dirties one page of its slot.
_SLOT_BYTES = 8192
_HEADER = struct.Struct("<BB6sI4xqd4q")  # kind ndim dtype nbytes tag arrival shape
_SLOT_PAYLOAD = _SLOT_BYTES - _HEADER.size
_MAX_NDIM = 4
#: Each ring's head and tail counters sit on their own cache line.
_LINE_WORDS = 8

# Slot kinds.
_K_ARRAY = 1  # raw ndarray bytes; dtype/shape/tag in the header
_K_PICKLE = 2  # pickle of (tag, obj) in the slot
_K_OVERFLOW = 3  # marker: the pickle went through the inbox's overflow queue
_K_POISON = 4  # pickle of (origin_rank, reason)

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


class _Inbox:
    """One rank's receive side of the shared-memory fabric.

    An anonymous shared mapping holds ``n_ranks + 1`` rings -- one per
    sending rank, the last for the launcher's poison pills -- so every
    ring has exactly one producer and one consumer and needs no lock.
    Ring ``s`` publishes through two 8-byte counters: ``head`` (slots
    written, stored only by the producer) and ``tail`` (slots consumed,
    stored only by the consumer).  A slot belongs to the producer until
    the head store that publishes it and to the consumer until the tail
    store that frees it, so slot bytes are never accessed concurrently.

    The counters *are* read while the other side rewrites them, so they
    go through a ``memoryview`` cast to ``"Q"``: one aligned 8-byte
    load or store.  ``struct.pack_into`` zeroes the field before
    packing it, and a reader on another core then sees a zero head.

    ``doorbell`` counts published, not yet consumed messages over all
    rings; the consumer acquires it once per message it takes.
    """

    def __init__(self, ctx, n_ranks: int):
        self.n_rings = n_ranks + 1
        self._slots_at = 2 * _LINE_WORDS * 8 * self.n_rings
        self._mm = mmap.mmap(-1, self._slots_at + self.n_rings * _N_SLOTS * _SLOT_BYTES)
        self._ctr = memoryview(self._mm).cast("Q")
        self.doorbell = ctx.Semaphore(0)
        #: Bodies too large for a slot, as ``(source, pickle-bytes)``.
        self.overflow = ctx.Queue()
        #: Consumer side: overflow bodies read ahead of their ring marker.
        self._bodies: dict[int, deque] = {}

    def _head(self, source: int) -> int:
        return self._ctr[2 * _LINE_WORDS * source]

    def _tail(self, source: int) -> int:
        return self._ctr[2 * _LINE_WORDS * source + _LINE_WORDS]

    def unread(self, source: int) -> int:
        return self._head(source) - self._tail(source)

    def has_room(self, source: int) -> bool:
        """True if ring ``source`` can take one more data message."""
        return self.unread(source) < _N_SLOTS - 1

    # -- producer side (ring ``source`` is written by one process only) ----
    def _publish(self, source: int, head: int) -> None:
        self._ctr[2 * _LINE_WORDS * source] = head + 1
        self.doorbell.release()

    def _slot(self, source: int, index: int) -> int:
        return self._slots_at + (source * _N_SLOTS + index % _N_SLOTS) * _SLOT_BYTES

    def post(self, source: int, tag, arrival: float, obj: Any) -> None:
        """Write one message into ring ``source`` (caller checked has_room)."""
        head = self._head(source)
        at = self._slot(source, head)
        if (
            type(obj) is np.ndarray
            and obj.nbytes <= _SLOT_PAYLOAD
            and obj.ndim <= _MAX_NDIM
            and obj.dtype.kind in "biufc"
            and isinstance(tag, int)
            and _INT64_MIN <= tag <= _INT64_MAX
        ):
            shape = obj.shape
            _HEADER.pack_into(
                self._mm, at, _K_ARRAY, obj.ndim, obj.dtype.str.encode(),
                obj.nbytes, tag, arrival, *shape, *(0,) * (_MAX_NDIM - obj.ndim),
            )
            # One strided copy; non-contiguous views need no staging buffer.
            np.ndarray(shape, obj.dtype, self._mm, at + _HEADER.size)[...] = obj
        else:
            # Pickled now, so the sender may reuse its buffers on return.
            data = pickle.dumps((tag, obj), protocol=pickle.HIGHEST_PROTOCOL)
            if len(data) <= _SLOT_PAYLOAD:
                self._put_bytes(at, _K_PICKLE, arrival, data)
            else:
                # The marker keeps the body's place in ring order.
                self.overflow.put((source, data))
                self._put_bytes(at, _K_OVERFLOW, arrival, b"")
        self._publish(source, head)

    def post_poison(self, source: int, origin: int, reason: str) -> None:
        """Post a pill naming ``origin``; may take the ring's reserved slot."""
        head = self._head(source)
        if head - self._tail(source) >= _N_SLOTS:
            return  # only if one producer posts a second pill into a full ring
        data = pickle.dumps((origin, reason[:1000]), protocol=pickle.HIGHEST_PROTOCOL)
        self._put_bytes(self._slot(source, head), _K_POISON, 0.0, data)
        self._publish(source, head)

    def _put_bytes(self, at: int, kind: int, arrival: float, data: bytes) -> None:
        _HEADER.pack_into(self._mm, at, kind, 0, b"", len(data), 0, arrival, 0, 0, 0, 0)
        body = at + _HEADER.size
        self._mm[body:body + len(data)] = data

    # -- consumer side -----------------------------------------------------
    def take(self, hint: int, timeout: float):
        """Consume one published message; call once per doorbell acquire.

        Scans the rings from ``hint`` and returns ``(kind, source, tag,
        arrival, payload)`` of the first unread slot, decoded into
        objects this process owns; a pill comes back as ``(_K_POISON,
        source, origin, 0.0, reason)``.  ``timeout`` bounds the wait for
        an overflow body still in its pipe (``queue.Empty`` past it).
        """
        for k in range(self.n_rings):
            source = (hint + k) % self.n_rings
            tail = self._tail(source)
            if self._head(source) > tail:
                break
        else:
            raise RuntimeError("fabric doorbell rang but every ring is empty")
        at = self._slot(source, tail)
        kind, ndim, dtype, nbytes, tag, arrival, *shape = _HEADER.unpack_from(
            self._mm, at
        )
        body = at + _HEADER.size
        if kind == _K_ARRAY:
            payload = np.ndarray(
                shape[:ndim], np.dtype(dtype.rstrip(b"\0").decode()), self._mm, body
            ).copy()
        else:
            data = self._mm[body:body + nbytes]
        self._ctr[2 * _LINE_WORDS * source + _LINE_WORDS] = tail + 1
        if kind == _K_OVERFLOW:
            data = self._overflow_body(source, timeout)
        if kind != _K_ARRAY:
            tag, payload = pickle.loads(data)
        return kind, source, tag, arrival, payload

    def _overflow_body(self, source: int, timeout: float) -> bytes:
        """Next overflow body from ``source`` (the queue is FIFO per source)."""
        deadline = time.monotonic() + timeout
        while not self._bodies.get(source):
            src, data = self.overflow.get(timeout=max(deadline - time.monotonic(), 0.0))
            self._bodies.setdefault(src, deque()).append(data)
        return self._bodies[source].popleft()


class MpCommunicator(Communicator):
    """Communicator over the shared-memory fabric (one inbox per rank).

    The cost convention, ``Request`` semantics and collectives are
    :class:`~repro.vmp.comm.Communicator`'s; this class is the
    transport: ring posts with ring-full progress, the doorbell wait
    and poison pills.  The sender's clock time travels with each
    message, so arrival stamps and ``comm_wait`` accounting are those
    of the in-process fabric.

    ``recv_timeout`` bounds every blocking receive in wall-clock
    seconds; ``fault_state`` is this rank's view of an injected
    :class:`~repro.vmp.faults.FaultPlan` (None = no faults).
    """

    def __init__(
        self,
        rank: int,
        size: int,
        inboxes: Sequence[_Inbox],
        machine: MachineModel,
        topology: Topology,
        stream,
        recv_timeout: float = _DEFAULT_TIMEOUT_S,
        fault_state=None,
    ):
        if recv_timeout <= 0:
            raise ValueError("recv_timeout must be positive")
        self._init_endpoint(rank, size, machine, topology, stream,
                            recv_timeout, fault_state)
        self._inboxes = inboxes
        self._inbox = inboxes[rank]
        #: Messages taken off the rings but not yet matched.
        self._stash = _Stash()

    # -- transport hooks ---------------------------------------------------
    def _deliver(self, dest, tag, arrival, obj, nbytes, t_send, drop) -> None:
        if drop:
            return
        box = self._inboxes[dest]
        if not box.has_room(self.rank):
            self._wait_for_room(box, dest)
        box.post(self.rank, tag, arrival, obj)

    def _wait_for_room(self, box: _Inbox, dest: int) -> None:
        """Block until our ring at ``dest`` has a free slot.

        Keeps draining our own inbox into the stash meanwhile, so two
        ranks flooding each other both make progress; our doorbell is
        also what a peer's traffic (or its poison pill) wakes us with.
        """
        deadline = time.monotonic() + self.recv_timeout
        wait = 0.0005
        while not box.has_room(self.rank):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RankFailure(
                    failed_rank=dest,
                    detected_by=self.rank,
                    via="timeout",
                    detail=f"ring to rank {dest} stayed full for "
                           f"{self.recv_timeout}s; {self._diagnostics()}",
                )
            if self._inbox.doorbell.acquire(timeout=min(wait, remaining)):
                self._stash_next(ANY_SOURCE, remaining)
            else:
                wait = min(wait * 2, 0.05)

    def _diagnostics(self) -> str:
        """Stash and ring state for the RankFailure of an expired wait."""
        unread = {s: self._inbox.unread(s) for s in range(self._inbox.n_rings)}
        return f"stash {self._stash.describe()}, unread per source ring {unread}"

    def _stash_next(self, hint: int, timeout: float) -> None:
        """Move the message one doorbell acquire stands for into the stash."""
        try:
            kind, source, tag, arrival, payload = self._inbox.take(
                max(hint, 0), timeout
            )
        except queue_mod.Empty:
            raise RankFailure(
                failed_rank=None,
                detected_by=self.rank,
                via="timeout",
                detail=f"an oversize message body did not follow its ring "
                       f"marker within {timeout:.3g}s; {self._diagnostics()}",
            ) from None
        if kind == _K_POISON:
            origin, reason = tag, payload
            raise RankFailure(
                failed_rank=origin,
                detected_by=self.rank,
                via="poison-pill",
                detail=reason,
            )
        self._stash.add((source, tag, arrival, payload))

    def stash_size(self) -> int:
        """Total unmatched messages currently stashed (for diagnostics)."""
        return self._stash.size()

    def _try_collect(self, source: int, tag):
        match = self._stash.pop(source, tag)
        if match is not None:
            return match
        while self._inbox.doorbell.acquire(False):
            self._stash_next(source, self.recv_timeout)
        return self._stash.pop(source, tag)

    def _collect(self, source: int, tag):
        doorbell = self._inbox.doorbell
        remaining = self.recv_timeout
        deadline = None
        while True:
            match = self._stash.pop(source, tag)
            if match is not None:
                return match
            if not doorbell.acquire(False):
                # Nothing published yet: park on the doorbell.  Every
                # producer rings it (pills too), so one timed wait is
                # enough -- no polling ladder.
                if deadline is None:
                    deadline = time.monotonic() + self.recv_timeout
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not doorbell.acquire(timeout=remaining):
                    raise recv_timeout_failure(
                        self.rank, source, tag, self.recv_timeout,
                        self._diagnostics(),
                    )
            self._stash_next(source, remaining)


def _poison_all(inboxes, source: int, skip: int, origin: int, reason: str) -> None:
    """Post a pill naming ``origin`` on ring ``source`` of every inbox but ``skip``."""
    for d, box in enumerate(inboxes):
        if d != skip:
            box.post_poison(source, origin, reason)


def _worker(
    program: Callable[..., Any],
    rank: int,
    size: int,
    inboxes,
    machine: MachineModel,
    topology: Topology,
    seed: int,
    args: tuple,
    results: mp.Queue,
    recv_timeout: float,
    fault_plan: FaultPlan | None,
) -> None:
    comm = None
    try:
        stream = SeedSequenceFactory(seed).rank_stream(rank)
        fault_state = fault_plan.for_rank(rank) if fault_plan is not None else None
        comm = MpCommunicator(
            rank, size, inboxes, machine, topology, stream,
            recv_timeout=recv_timeout, fault_state=fault_state,
        )
        value = program(comm, *args)
        results.put((rank, "ok", value, comm.clock.now,
                     comm.clock.breakdown(), comm.stats))
    except RankFailure as exc:
        # Survivor that detected a peer death: report the abort and
        # forward the culprit so ranks blocked on *us* also fail fast.
        model_time = comm.clock.now if comm is not None else 0.0
        _poison_all(inboxes, rank, rank, exc.failed_rank if exc.failed_rank is not None
                    else rank, str(exc))
        results.put((rank, "detected", (exc.failed_rank, exc.via, str(exc)),
                     model_time, {}, None))
    except BaseException as exc:  # noqa: BLE001 - shipped to the parent
        model_time = comm.clock.now if comm is not None else 0.0
        _poison_all(inboxes, rank, rank, rank, repr(exc))
        results.put(
            (rank, "error", (repr(exc), isinstance(exc, InjectedRankCrash)),
             model_time, {}, None)
        )


def run_multiprocessing(
    program: Callable[..., Any],
    n_ranks: int,
    machine: MachineModel = IDEAL,
    topology: Topology | None = None,
    seed: int = 0,
    args: Sequence[Any] = (),
    recv_timeout: float = _DEFAULT_TIMEOUT_S,
    join_timeout: float = _DEFAULT_TIMEOUT_S,
    fault_plan: FaultPlan | None = None,
) -> BackendRunResult:
    """Run ``program(comm, *args)`` on ``n_ranks`` OS processes.

    Returns a :class:`~repro.vmp.scheduler.BackendRunResult` with
    rank-ordered program values, modeled per-rank clocks, breakdowns
    and comm stats, and the run's :class:`~repro.vmp.faults.RunReport`.  If any rank fails, raises a
    :class:`~repro.vmp.faults.RankFailure` naming the first failed rank
    with the full report attached as ``run_report``.

    ``recv_timeout`` is handed to every rank's communicator (per-recv
    wall-clock bound); ``join_timeout`` bounds the whole run from the
    launcher's side.  ``fault_plan`` injects deterministic faults (see
    :mod:`repro.vmp.faults`).
    """
    if n_ranks < 1:
        raise ValueError("need at least one rank")
    topo = topology if topology is not None else machine.topology(n_ranks)
    if topo.size != n_ranks:
        raise ValueError("topology size mismatch")

    ctx = mp.get_context("fork")
    inboxes = [_Inbox(ctx, n_ranks) for _ in range(n_ranks)]
    results: mp.Queue = ctx.Queue()
    procs = [
        ctx.Process(
            target=_worker,
            args=(program, r, n_ranks, inboxes, machine, topo, seed, tuple(args),
                  results, recv_timeout, fault_plan),
            daemon=True,
        )
        for r in range(n_ranks)
    ]
    for p in procs:
        p.start()

    outcomes: dict[int, Any] = {}
    model_times: dict[int, float] = {}
    breakdowns: dict[int, dict] = {}
    stats: dict[int, CommStats] = {}
    report = RunReport(n_ranks=n_ranks)
    pending = set(range(n_ranks))
    dead_since: dict[int, float] = {}
    start = time.monotonic()
    while pending:
        if time.monotonic() - start > join_timeout:
            for p in procs:
                p.terminate()
            raise TimeoutError(
                f"multiprocessing SPMD run did not complete within "
                f"{join_timeout}s; ranks {sorted(pending)} never reported"
            )
        try:
            rank, status, value, model_time, breakdown, rank_stats = results.get(
                timeout=0.05
            )
        except queue_mod.Empty:
            # Liveness sweep: a worker that died without reporting
            # (SIGKILL, interpreter abort) is detected from its exit
            # code; pills are injected on its behalf so survivors
            # blocked on it fail fast instead of timing out.
            now = time.monotonic()
            for r in sorted(pending):
                proc = procs[r]
                if proc.exitcode is None:
                    continue
                died_at = dead_since.setdefault(r, now)
                if now - died_at >= _DEATH_GRACE_S:
                    pending.discard(r)
                    reason = (
                        f"process exited with code {proc.exitcode} "
                        f"without reporting a result"
                    )
                    report.failures.append(
                        RankFailureRecord(rank=r, error=reason, model_time=0.0)
                    )
                    _poison_all(inboxes, n_ranks, r, r, reason)
            continue
        pending.discard(rank)
        model_times[rank] = model_time
        breakdowns[rank] = breakdown or {}
        if status == "ok":
            outcomes[rank] = value
            stats[rank] = rank_stats if rank_stats is not None else CommStats()
        elif status == "detected":
            failed_rank, via, detail = value
            report.aborted.append(
                AbortRecord(rank=rank, failed_rank=failed_rank, via=via,
                            model_time=model_time)
            )
        else:
            error_repr, injected = value
            report.failures.append(
                RankFailureRecord(rank=rank, error=error_repr,
                                  model_time=model_time, injected=injected)
            )
    for p in procs:
        p.join(timeout=5.0)
        if p.is_alive():
            p.terminate()
    report.completed = sorted(outcomes)

    if report.failures or report.aborted:
        if report.failures:
            first = report.failures[0]
            exc = RankFailure(
                failed_rank=first.rank,
                detected_by=-1,  # -1: detected by the launcher
                via="worker-death",
                detail=f"rank {first.rank} failed: {first.error}",
            )
        else:
            a = report.aborted[0]
            exc = RankFailure(
                failed_rank=a.failed_rank, detected_by=a.rank, via=a.via,
                detail="peer failure detected but no rank reported a crash",
            )
        exc.run_report = report
        raise exc
    return BackendRunResult(
        values=[outcomes[r] for r in range(n_ranks)],
        model_times=[model_times[r] for r in range(n_ranks)],
        report=report,
        breakdowns=[breakdowns[r] for r in range(n_ranks)],
        stats=[stats[r] for r in range(n_ranks)],
    )
