"""MPI-like communicator with executed data movement and modeled time.

Every rank of an SPMD program owns one :class:`Communicator`.  Point-to-
point messages *really* transfer (deep copies of) payloads between rank
address spaces through a shared in-process fabric, so the correctness
of a parallel algorithm -- halo exchanges, reductions, tempering swaps
-- is exercised, not assumed.  Time, by contrast, is *modeled*: each
rank carries a :class:`~repro.util.timer.ModelClock` charged according
to the machine's alpha--beta--hops cost model, which is what lets a
2-core container report 1024-node scaling behaviour.

Cost convention (documented once, used everywhere):

* ``send`` charges the sender ``alpha + n*beta`` (category ``comm``);
  the message is stamped with arrival time
  ``t_send_start + alpha + hops*hop_time + n*beta``.
* ``recv`` charges the receiver ``alpha`` (category ``comm``) and then
  advances its clock to the arrival stamp if that lies in the future
  (category ``comm_wait``).  Receives posted after arrival wait for
  nothing, exactly like an eager-protocol MPI.
* **Offloaded** nonblocking operations (``isend``/``irecv`` with
  ``offload=True``) model a dedicated message coprocessor (the
  Paragon's second i860, the CM-5 NI): the CPU pays only the small
  LogP post overhead ``o`` (category ``comm``) at post time, the wire
  transfer proceeds off-CPU with the *same* arrival stamp as above,
  and completing an offloaded receive charges no alpha -- it only
  waits to the arrival stamp (category ``halo_wait``) if the message
  has not landed yet.  This is the cost convention the overlapped
  schedule in :mod:`repro.qmc.parallel` charges; payload movement
  and matching are identical to the non-offloaded path, so
  trajectories are bit-identical either way.

Collectives are built from point-to-point messages with the standard
algorithms (binomial trees, recursive doubling, ring), so their modeled
cost has the correct ``log P`` / ``P`` structure by construction; see
:mod:`repro.vmp.collectives`.
"""

from __future__ import annotations

import enum
import pickle
import threading
import time as _time
from collections import deque
from typing import Any

# queue.SimpleQueue is _queue's; taking it from there spares every run
# queue.py and its heapq import (~0.1 MB of peak RSS).
from _queue import Empty, SimpleQueue

import numpy as np

from repro.obs.metrics import MESSAGE_BYTES_EDGES, NOOP
from repro.util.rng import RankStream
from repro.util.timer import ModelClock
from repro.vmp.faults import RankFailure, RankFaultState
from repro.vmp.machines import MachineModel
from repro.vmp.topology import Topology
from repro.vmp.trace import MessageEvent
from repro.vmp.world import CommStats, record_comm_counters

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "RankFailure",
    "ReduceOp",
    "Communicator",
    "Fabric",
    "Request",
]

#: Wildcard source for :meth:`Communicator.recv`.  Matching order then
#: depends on thread interleaving; prefer explicit sources in
#: deterministic code.
ANY_SOURCE = -1
#: Wildcard tag.
ANY_TAG = -1


class ReduceOp(enum.Enum):
    """Reduction operators understood by reduce/allreduce."""

    SUM = "sum"
    PROD = "prod"
    MAX = "max"
    MIN = "min"

    def combine(self, a: Any, b: Any) -> Any:
        """Elementwise combination; supports scalars and ndarrays."""
        if self is ReduceOp.SUM:
            return a + b
        if self is ReduceOp.PROD:
            return a * b
        if self is ReduceOp.MAX:
            return np.maximum(a, b) if isinstance(a, np.ndarray) else max(a, b)
        return np.minimum(a, b) if isinstance(a, np.ndarray) else min(a, b)


def payload_nbytes(obj: Any) -> int:
    """Wire size of a payload for the cost model.

    NumPy arrays count their raw buffer (the fast path of the era's
    message layers) and containers recurse over their elements, so a
    halo tuple of large arrays is costed at buffer size without ever
    serializing the arrays.  Only opaque objects fall back to their
    pickled size, as mpi4py does for generic objects.
    """
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, (bool, int, float, complex, np.generic)):
        return 8
    if isinstance(obj, str):
        return len(obj.encode())
    if isinstance(obj, (tuple, list)):
        return sum(payload_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return sum(payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items())
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def _copy_payload(obj: Any) -> Any:
    """Deep-copy a payload to emulate distributed address spaces.

    ndarrays copy their buffer directly and containers recurse, so the
    common halo payloads (arrays, tuples/dicts of arrays) never take
    the pickle round-trip; only opaque objects do.
    """
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, (bool, int, float, complex, str, bytes, np.generic)):
        return obj
    if isinstance(obj, tuple):
        return tuple(_copy_payload(x) for x in obj)
    if isinstance(obj, list):
        return [_copy_payload(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _copy_payload(v) for k, v in obj.items()}
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


class _Stash:
    """Unmatched messages of one rank, matched like an MPI receive queue.

    Messages are ``(src, tag, arrival, payload)`` tuples (tags may be
    any hashable, e.g. the ``(uid, tag)`` tuples of sub-communicators),
    kept per ``(src, tag)`` as FIFO deques of ``(seq, msg)``.  A
    specific match is one dict probe and a ``popleft``; a wildcard
    (``ANY_SOURCE`` / ``ANY_TAG``) looks only at the deque heads and
    takes the globally oldest by the monotone ``seq``, so wildcard
    receives stay FIFO across sources and tags.  Drained keys are
    deleted: ``len(stash)`` counts the live ``(src, tag)`` keys,
    :meth:`size` the messages.
    """

    def __init__(self):
        self._queues: dict[tuple, deque] = {}
        self._seq = 0

    def add(self, msg: tuple) -> None:
        key = msg[:2]
        q = self._queues.get(key)
        if q is None:
            q = self._queues[key] = deque()
        q.append((self._seq, msg))
        self._seq += 1

    def pop(self, source: int, tag) -> tuple | None:
        """Remove and return the oldest message matching, or None."""
        queues = self._queues
        if source != ANY_SOURCE and tag != ANY_TAG:
            key = (source, tag)
            q = queues.get(key)
            if q is None:
                return None
        else:
            key = q = None
            for k, head in queues.items():
                if (source in (ANY_SOURCE, k[0]) and tag in (ANY_TAG, k[1])
                        and (q is None or head[0][0] < q[0][0])):
                    key, q = k, head
            if q is None:
                return None
        msg = q.popleft()[1]
        if not q:
            del queues[key]
        return msg

    def __len__(self) -> int:
        return len(self._queues)

    def size(self) -> int:
        """Number of stashed messages."""
        return sum(len(q) for q in self._queues.values())

    def describe(self) -> str:
        """``holds N unmatched message(s) [(src, tag), ...]`` for timeouts."""
        keys = [key for key, q in self._queues.items() for _ in q]
        return f"holds {len(keys)} unmatched message(s) {keys[:8]}"


def recv_timeout_failure(rank: int, source: int, tag, timeout: float,
                         diagnostics: str) -> RankFailure:
    """The one :class:`RankFailure` of an expired blocking receive."""
    return RankFailure(
        failed_rank=None if source == ANY_SOURCE else source,
        detected_by=rank,
        via="timeout",
        detail=f"no message (source={source}, tag={tag}) within {timeout}s; "
               f"{diagnostics}",
    )


class Request:
    """Handle of a nonblocking operation (mpi4py ``isend``/``irecv`` style).

    The semantics are the *contract* every backend honors identically
    (thread fabric, shared-memory rings, real MPI -- asserted by
    ``tests/vmp/test_nonblocking.py`` across all three):

    * a **send** request is complete the moment ``isend`` returns --
      every backend buffers the payload eagerly (mailbox deposit, ring
      slot, or an internal send buffer), so ``test()`` is True and
      ``wait()`` returns ``None`` without blocking;
    * a **recv** request completes when a matching message is consumed:
      ``test()`` polls without blocking (consuming a ready message),
      ``wait()`` blocks until the match arrives and returns the
      payload.  Either way the receive is charged exactly like the
      blocking path: latency plus any ``comm_wait`` to the arrival
      stamp, counted once, on whichever call completed the request.
    * an **offloaded** recv request (posted via ``irecv(...,
      offload=True)``) was already charged the post overhead at post
      time; completion charges no further alpha, only the residual
      ``halo_wait`` to the arrival stamp.

    The mechanics are :meth:`Communicator._match` (the transport's
    collect hooks) and :meth:`Communicator._complete_recv`.
    """

    def __init__(self, comm, kind: str, source: int = ANY_SOURCE,
                 tag: int = ANY_TAG, offload: bool = False):
        self._comm = comm
        self._kind = kind  # "send" | "recv"
        self._source = source
        self._tag = tag
        self._offload = offload
        self._done = kind == "send"  # buffered sends complete immediately
        self._payload: Any = None

    def test(self) -> bool:
        """Nonblocking completion check; a ready receive is consumed."""
        if self._done:
            return True
        msg = self._comm._match(self._source, self._tag, block=False)
        if msg is None:
            return False
        self._payload = self._comm._complete_recv(msg, offload=self._offload)
        self._done = True
        return True

    def wait(self) -> Any:
        """Block until complete; returns the payload (None for sends)."""
        if not self._done:
            msg = self._comm._match(self._source, self._tag, block=True)
            self._payload = self._comm._complete_recv(msg, offload=self._offload)
            self._done = True
        return self._payload


#: What :meth:`Fabric.mark_dead` puts into every inbox to wake its reader.
_WAKE = object()


class Fabric:
    """Shared in-process message fabric connecting ``n`` ranks.

    One instance per SPMD run; owns the dead-rank registry and one C-level
    :class:`queue.SimpleQueue` inbox per rank, which only that rank's
    thread drains into its :class:`_Stash` -- in deposit order, so
    wildcard receives still take the globally oldest message.
    """

    def __init__(
        self,
        n_ranks: int,
        machine: MachineModel,
        topology: Topology,
        trace: bool = False,
    ):
        if topology.size != n_ranks:
            raise ValueError(
                f"topology size {topology.size} != number of ranks {n_ranks}"
            )
        self.n_ranks = n_ranks
        self.machine = machine
        self.topology = topology
        self._inboxes = [SimpleQueue() for _ in range(n_ranks)]
        self._stashes = [_Stash() for _ in range(n_ranks)]
        #: rank -> (originally failed rank, error repr) for every rank whose
        #: program raised; receivers waiting on it fail fast.
        self.dead_ranks: dict[int, tuple[int, str]] = {}
        #: When tracing, every message is appended here as a MessageEvent.
        self.trace_events: list | None = [] if trace else None
        self._trace_lock = threading.Lock()

    def record_event(self, event) -> None:
        if self.trace_events is not None:
            with self._trace_lock:
                self.trace_events.append(event)

    def deposit(self, dst: int, msg: tuple) -> None:
        self._inboxes[dst].put(msg)

    def _failure(self, dst: int, src: int) -> RankFailure | None:
        """The RankFailure of ``dst``'s wait on ``src`` if it can never
        complete: a specific dead source fails at once, a wildcard only
        once *every* peer is dead (a live peer might still send).  It
        names the *original* culprit, so cascades report the root cause.
        """
        dead = self.dead_ranks
        entry = dead.get(src)
        why = f"waiting on rank {src}"
        if src == ANY_SOURCE and len(dead) >= self.n_ranks - 1 and self.n_ranks > 1:
            # list() copies in one C call, safe while a rank registers
            entry, why = list(dead.values())[0], "all peers dead"
        return None if entry is None else RankFailure(
            failed_rank=entry[0], detected_by=dst, via="dead-rank",
            detail=f"{why}: {entry[1]}")

    def _drain(self, dst: int, block: bool = False, timeout=None) -> bool:
        """Move ``dst``'s inbox into its stash, after waiting (``block``)
        up to ``timeout`` seconds for a first item; True if there was
        one.  A :data:`_WAKE` carries nothing."""
        inbox = self._inboxes[dst]
        try:
            item = inbox.get(block, timeout)
        except Empty:
            return False
        while True:
            if item is not _WAKE:
                self._stashes[dst].add(item)
            if inbox.empty():
                return True
            item = inbox.get_nowait()

    def collect(
        self, dst: int, src: int, tag: int, timeout: float | None = None
    ) -> tuple:
        """Block until a message matching (src, tag) is available.

        ``timeout`` bounds the *wall-clock* wait; expiry raises
        :class:`RankFailure` (via="timeout") carrying mailbox
        diagnostics.  A death is read *before* the inbox is drained: a
        dead rank's sends precede its registration, so they still match.
        """
        box = self._stashes[dst]
        deadline = None if timeout is None else _time.monotonic() + timeout
        while True:
            msg = box.pop(src, tag)
            if msg is not None:
                return msg
            failure = self._failure(dst, src)
            if self._drain(dst):
                continue
            if failure is not None:
                raise failure
            remaining = None if deadline is None else deadline - _time.monotonic()
            if remaining is not None and remaining <= 0:
                raise recv_timeout_failure(
                    dst, src, tag, timeout, f"mailbox {box.describe()}"
                )
            self._drain(dst, True, remaining)

    def try_collect(self, dst: int, src: int, tag: int) -> tuple | None:
        """Nonblocking matching receive; None when nothing matches."""
        failure = self._failure(dst, src)
        self._drain(dst)
        msg = self._stashes[dst].pop(src, tag)
        if msg is None and failure is not None:
            raise failure
        return msg

    def mark_dead(self, rank: int, exc: BaseException) -> None:
        """Register ``rank`` as dead and wake every receiver (a
        :data:`_WAKE` into each inbox).

        A rank dying *because it detected another death* (its program
        raised :class:`RankFailure`) propagates the original culprit, so
        transitive detection still names the root failure.
        """
        origin = rank
        if isinstance(exc, RankFailure) and exc.failed_rank is not None:
            origin = exc.failed_rank
        self.dead_ranks.setdefault(rank, (origin, repr(exc)))
        for inbox in self._inboxes:
            inbox.put(_WAKE)


class Communicator:
    """One rank's endpoint: point-to-point ops, collectives, clock, RNG.

    The public surface deliberately mirrors mpi4py's lowercase
    (pickle-based) API -- ``send``/``recv``/``bcast``/``allreduce``/... --
    so the SPMD programs in :mod:`repro.qmc` read like ordinary MPI
    codes and could be ported to real MPI verbatim.

    This class is both the thread transport's endpoint and the base of
    every other one (:class:`~repro.vmp.process_backend.MpCommunicator`,
    :class:`~repro.vmp.mpi_backend.MpiCommunicator`).  Everything the cost
    convention and the :class:`Request` contract depend on is written
    here once; a transport supplies three hooks over the one message
    shape ``(src, tag, arrival, payload)``:

    * ``_deliver(dest, tag, arrival, obj, nbytes, t_send, drop)`` --
      put a copy of ``obj`` into ``dest``'s inbox unless ``drop``
      (an injected loss: charged and counted, never delivered);
    * ``_try_collect(source, tag)`` -- pop the oldest matching message
      without blocking, or return ``None``;
    * ``_collect(source, tag)`` -- block for it, raising
      :func:`recv_timeout_failure` past ``recv_timeout``.

    Subclasses call :meth:`_init_endpoint` instead of this constructor.
    """

    def __init__(
        self,
        fabric: Fabric,
        rank: int,
        stream: RankStream,
        recv_timeout: float | None = None,
        fault_state: RankFaultState | None = None,
        metrics=NOOP,
    ):
        self.fabric = fabric
        self._init_endpoint(
            rank, fabric.n_ranks, fabric.machine, fabric.topology, stream,
            recv_timeout, fault_state, metrics,
        )

    def _init_endpoint(self, rank: int, size: int, machine: MachineModel,
                       topology: Topology, stream, recv_timeout: float | None,
                       fault_state: RankFaultState | None = None,
                       metrics=NOOP) -> None:
        """Set the transport-independent state of a world endpoint."""
        self.rank = int(rank)
        self.size = int(size)
        self.machine = machine
        self.topology = topology
        self.clock = ModelClock()
        self.stream = stream
        self.stats = CommStats()
        #: Wall-clock bound on every blocking receive (None = wait forever,
        #: relying on the dead-rank registry for failure detection).
        self.recv_timeout = recv_timeout
        #: Per-rank fault-injection state (None = no faults), keyed by
        #: world rank on every communicator of the rank.
        self.fault_state = fault_state
        #: Rank-scoped metrics recorder (the free NOOP unless the run
        #: enables telemetry; always NOOP inside mp/mpi workers, whose
        #: launcher records the end-of-run counters instead).  CommStats
        #: already counts messages and bytes on every op, so the comm.*
        #: counters are *synced* from it lazily (:meth:`sync_metrics`,
        #: called at snapshot cadence and at end of run) rather than
        #: bumped per message -- the only per-message cost when enabled
        #: is the wire-size histogram.
        self.metrics = metrics
        #: Collective call counter (every rank makes the same calls in
        #: the same order, so it namespaces tags identically everywhere).
        self._coll_seq = 0
        #: Route length to each destination sent to so far (static).
        self._hops: dict[int, int] = {}
        self._obs = bool(metrics.enabled)
        if self._obs:
            self._m_msg_hist = metrics.histogram(
                "comm.message_bytes", MESSAGE_BYTES_EDGES
            )

    def sync_metrics(self) -> None:
        """Fold CommStats and the clock's wait total into the registry."""
        if self._obs:
            record_comm_counters(self.metrics, self.stats, self.clock.breakdown())

    # -- modeled compute -------------------------------------------------
    def charge_compute(self, flops: float) -> None:
        """Charge modeled compute time for ``flops`` floating-point ops."""
        self.clock.charge(self.machine.compute_time(flops), "compute")

    def charge_seconds(self, seconds: float, category: str = "compute") -> None:
        """Charge an explicit modeled duration (e.g. measurement I/O)."""
        self.clock.charge(seconds, category)

    # -- point-to-point ----------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0, offload: bool = False) -> None:
        """Blocking-buffered send (returns once the message is en route).

        With ``offload=True`` the CPU is charged only the machine's
        post overhead; the wire transfer is carried by the message
        coprocessor and the arrival stamp is unchanged (see the module
        cost convention).
        """
        if not 0 <= dest < self.size:
            raise ValueError(f"invalid destination rank {dest}")
        if self.fault_state is not None:
            self.fault_state.on_op(self.clock)
        nbytes = payload_nbytes(obj)
        hops = self._hops.get(dest)
        if hops is None:
            hops = self._hops[dest] = self.topology.hops(self.rank, dest)
        start = self.clock.now
        if offload:
            self.clock.charge(self.machine.post_overhead, "comm")
        else:
            self.clock.charge(
                self.machine.latency + self.machine.byte_time * nbytes, "comm"
            )
        arrival = (
            start
            + self.machine.latency
            + self.machine.hop_time * hops
            + self.machine.byte_time * nbytes
        )
        drop = False
        if self.fault_state is not None:
            extra, drop = self.fault_state.outgoing(dest)
            arrival += extra
        self.stats.messages_sent += 1
        self.stats.bytes_sent += nbytes
        if self._obs:
            self._m_msg_hist.observe(nbytes)
        self._deliver(dest, tag, arrival, obj, nbytes, start, drop)

    # -- transport hooks (thread: the in-process fabric) -------------------
    def _deliver(self, dest: int, tag, arrival: float, obj: Any, nbytes: int,
                 t_send: float, drop: bool) -> None:
        fabric = self.fabric
        if fabric.trace_events is not None:
            fabric.record_event(
                MessageEvent(
                    src=self.rank,
                    dst=dest,
                    tag=tag,
                    nbytes=nbytes,
                    t_send=t_send,
                    t_arrival=arrival,
                )
            )
        if not drop:
            fabric.deposit(dest, (self.rank, tag, arrival, _copy_payload(obj)))

    def _try_collect(self, source: int, tag) -> tuple | None:
        return self.fabric.try_collect(self.rank, source, tag)

    def _collect(self, source: int, tag) -> tuple:
        return self.fabric.collect(self.rank, source, tag, timeout=self.recv_timeout)

    # -- receive side shared with :class:`Request` -------------------------
    def _match(self, source: int, tag, block: bool) -> tuple | None:
        """One matching message from the transport (None: none yet)."""
        if block:
            return self._collect(source, tag)
        return self._try_collect(source, tag)

    def _complete_recv(self, msg: tuple, offload: bool = False) -> Any:
        """Charge and count one completed receive; returns the payload.

        Offloaded receives were charged their post overhead at post
        time, so completion only absorbs the residual wait to the
        arrival stamp (``halo_wait``).
        """
        _src, _tag, arrival, payload = msg
        if offload:
            self.clock.advance_to(arrival, "halo_wait")
        else:
            self.clock.charge(self.machine.latency, "comm")
            self.clock.advance_to(arrival, "comm_wait")
        self.stats.messages_received += 1
        self.stats.bytes_received += payload_nbytes(payload)
        return payload

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        """Blocking receive; returns the payload object."""
        if source != ANY_SOURCE and not 0 <= source < self.size:
            raise ValueError(f"invalid source rank {source}")
        if self.fault_state is not None:
            self.fault_state.on_op(self.clock)
        return self._complete_recv(self._match(source, tag, block=True))

    def sendrecv(
        self,
        obj: Any,
        dest: int,
        source: int,
        sendtag: int = 0,
        recvtag: int = 0,
    ) -> Any:
        """Combined exchange; safe against the head-to-head deadlock."""
        self.send(obj, dest, tag=sendtag)
        return self.recv(source=source, tag=recvtag)

    def isend(self, obj: Any, dest: int, tag: int = 0,
              offload: bool = False) -> Request:
        """Nonblocking send; the returned request is already complete.

        All three backends buffer sends eagerly (the payload is copied
        before ``isend`` returns), so ``test()`` is True and ``wait()``
        returns ``None`` immediately -- the documented contract of
        :class:`Request`, identical on thread, mp and mpi transports.
        With ``offload=True`` only the post overhead is charged.
        """
        self.send(obj, dest, tag=tag, offload=offload)
        return Request(self, "send")

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              offload: bool = False) -> Request:
        """Nonblocking receive: returns a :class:`Request` to wait/test on.

        With ``offload=True`` the post overhead is charged now and
        completion later waits under ``halo_wait`` with no alpha.
        """
        if source != ANY_SOURCE and not 0 <= source < self.size:
            raise ValueError(f"invalid source rank {source}")
        if offload:
            self.clock.charge(self.machine.post_overhead, "comm")
        return Request(self, "recv", source=source, tag=tag, offload=offload)

    # -- collectives (implemented in repro.vmp.collectives) ----------------
    def barrier(self) -> None:
        collectives.barrier(self)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        return collectives.bcast(self, obj, root)

    def reduce(self, value: Any, op: ReduceOp = ReduceOp.SUM, root: int = 0) -> Any:
        return collectives.reduce(self, value, op, root)

    def allreduce(self, value: Any, op: ReduceOp = ReduceOp.SUM) -> Any:
        return collectives.allreduce(self, value, op)

    def gather(self, value: Any, root: int = 0) -> list[Any] | None:
        return collectives.gather(self, value, root)

    def allgather(self, value: Any) -> list[Any]:
        return collectives.allgather(self, value)

    def scatter(self, values: list[Any] | None, root: int = 0) -> Any:
        return collectives.scatter(self, values, root)

    def alltoall(self, values: list[Any]) -> list[Any]:
        return collectives.alltoall(self, values)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(rank={self.rank}, size={self.size}, "
            f"machine={self.machine.name})"
        )


# It imports names defined above, so it loads last.
from repro.vmp import collectives  # noqa: E402
