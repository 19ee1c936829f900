"""MPI-style communicator splitting for the thread and mp transports.

``comm.split(color, key)`` is a collective: every rank of the parent
communicator calls it with its own ``color``/``key``, and each color
class becomes one sub-communicator whose ranks ``0..n-1`` follow MPI's
``MPI_Comm_split`` ordering -- sort by ``key``, ties broken by parent
rank.  Ranks passing ``color=None`` participate in the membership
exchange but receive ``None`` (the analogue of ``MPI_UNDEFINED``).

The membership exchange is one modeled ``allgather`` of ``(color,
key)`` pairs over the *parent* communicator, so splitting charges the
same modeled time on every backend (the mpi backend reuses this
exchange before calling the real ``MPI.Comm.Split``, keeping makespans
bit-identical across transports).

:class:`SubCommunicator` (thread/mp) is a
:class:`~repro.vmp.comm.Communicator` that is a view onto its parent: it
shares the parent's :class:`~repro.util.timer.ModelClock`, RNG stream,
``CommStats`` and fault state, translates local ranks to parent ranks,
and namespaces message tags by wrapping them as ``(uid, tag)`` tuples
-- all three transports match tags by equality, so traffic of one
sub-communicator can never be received by another (or by the parent).
The cost convention and the collectives are the base class's (stated
once, in :mod:`repro.vmp.comm`), scoped by the same mechanism.

Per-level clock accounting: ``split(..., label="ensemble")`` makes the
sub-communicator charge its traffic to the ``ensemble`` /
``ensemble_wait`` categories instead of ``comm`` / ``comm_wait``, so
two-level runs report ensemble-swap and halo traffic as separate phase
tags (see ``COMM_CATEGORIES`` / ``WAIT_CATEGORIES`` in
:mod:`repro.util.timer`).

``split(..., name="replica3")`` names the sub-communicator; a
:class:`~repro.vmp.faults.RankFailure` detected through it is re-raised
with the name prefixed to its detail, so a crash inside one replica's
domain is reported as such.
"""

from __future__ import annotations

from typing import Any

from repro.util.timer import COMM_CATEGORIES, WAIT_CATEGORIES
from repro.vmp.comm import ANY_SOURCE, ANY_TAG, Communicator, Request
from repro.vmp.topology import Topology

__all__ = ["SubCommunicator", "SubTopology", "split_communicator"]

#: Sentinel exchanged for ``color=None`` (never a valid color: colors
#: must be non-negative, as in MPI).
_NO_COLOR = -1


def _validate_label(label: str | None) -> None:
    if label is None:
        return
    if label not in COMM_CATEGORIES or f"{label}_wait" not in WAIT_CATEGORIES:
        raise ValueError(
            f"unknown split label {label!r}: the label and '{label}_wait' "
            f"must be registered in COMM_CATEGORIES/WAIT_CATEGORIES "
            f"(repro.util.timer) so comm fractions stay complete"
        )


def split_membership(comm, color: int | None, key: int) -> tuple[tuple[int, ...], int | None]:
    """Collective membership exchange of one ``split`` call.

    Returns ``(parent_ranks, my_sub_rank)``: the parent ranks of the
    caller's color class in sub-rank order, and the caller's position in
    it (``None`` for ``color=None`` callers, whose ``parent_ranks`` is
    empty).  Every parent rank must call this; the exchange is one
    modeled allgather over the parent.
    """
    if color is not None and int(color) < 0:
        raise ValueError(f"split color must be non-negative or None, got {color}")
    mine = _NO_COLOR if color is None else int(color)
    pairs = comm.allgather((mine, int(key)))
    if mine == _NO_COLOR:
        return (), None
    members = [r for r, (c, _k) in enumerate(pairs) if c == mine]
    members.sort(key=lambda r: (pairs[r][1], r))
    return tuple(members), members.index(comm.rank)


def split_communicator(parent, color: int | None, key: int = 0, *,
                       label: str | None = None, name: str | None = None):
    """Shared ``split`` implementation of the thread and mp backends."""
    _validate_label(label)
    members, my_rank = split_membership(parent, color, key)
    # Collective call order gives every rank the same sequence number;
    # chained with the parent's uid it namespaces nested splits too.
    seq = parent._split_seq
    parent._split_seq = seq + 1
    if my_rank is None:
        return None
    return SubCommunicator(parent, members, my_rank, parent._uid + (seq,),
                           label=label, name=name)


class SubTopology(Topology):
    """A subset of a parent topology, distances measured in the parent.

    Hop counts between sub-ranks are the parent-fabric distances of the
    underlying parent ranks: an embedded sub-communicator does not get a
    private network.
    """

    def __init__(self, parent: Topology, parent_ranks: tuple[int, ...]):
        super().__init__(len(parent_ranks))
        self.parent = parent
        self.parent_ranks = tuple(parent_ranks)
        self._local = {pr: i for i, pr in enumerate(self.parent_ranks)}

    def hops(self, src: int, dst: int) -> int:
        self._check(src, dst)
        return self.parent.hops(self.parent_ranks[src], self.parent_ranks[dst])

    def neighbors(self, rank: int) -> list[int]:
        self._check(rank)
        return [
            self._local[n]
            for n in self.parent.neighbors(self.parent_ranks[rank])
            if n in self._local
        ]

    @property
    def diameter(self) -> int:
        return max(
            (self.hops(a, b) for a in range(self.size) for b in range(self.size)),
            default=0,
        )

    @property
    def bisection_width(self) -> int:
        # Of the enclosing fabric; the embedded subset shares its links.
        return self.parent.bisection_width

    def __repr__(self) -> str:
        return f"SubTopology({self.size} of {self.parent!r})"


class SubCommunicator(Communicator):
    """One rank's endpoint in a split-off sub-communicator (thread/mp).

    Shares the parent's clock, stats, RNG stream and fault state;
    translates ranks and namespaces tags, forwarding the three
    transport hooks to the parent while the inherited ``send`` and
    ``_complete_recv`` charge *this* communicator's categories.  SPMD
    programs (including the strip world-line driver) therefore run
    unchanged inside a domain sub-communicator.  Wildcard
    ``ANY_SOURCE``/``ANY_TAG`` receives are rejected: matching them
    against parent-level traffic would break scoping, and no driver
    uses them.
    """

    def __init__(self, parent, parent_ranks: tuple[int, ...], rank: int,
                 uid: tuple[int, ...], label: str | None = None,
                 name: str | None = None):
        self._parent = parent
        self._parent_ranks = tuple(parent_ranks)
        self.label = label
        self._init_endpoint(
            rank, len(self._parent_ranks), parent.machine,
            SubTopology(parent.topology, self._parent_ranks), parent.stream,
            parent.recv_timeout, parent.fault_state, parent.metrics,
        )
        self._adopt(parent, label, name)
        self._uid = uid

    def _world_rank(self, rank: int) -> int:
        return self._parent._world_rank(self._parent_ranks[rank])

    # -- transport hooks: the parent's, with ranks and tags translated -----
    def _deliver(self, dest: int, tag, *costed) -> None:
        self._parent._deliver(self._parent_ranks[dest], (self._uid, tag), *costed)

    def _try_collect(self, source: int, tag):
        return self._parent._try_collect(self._parent_ranks[source], (self._uid, tag))

    def _collect(self, source: int, tag):
        return self._parent._collect(self._parent_ranks[source], (self._uid, tag))

    # -- wildcard rejection ------------------------------------------------
    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        self._reject_wildcards(source, tag)
        return super().recv(source, tag)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              offload: bool = False) -> Request:
        self._reject_wildcards(source, tag)
        return super().irecv(source, tag, offload)

    def _reject_wildcards(self, source: int, tag) -> None:
        if source == ANY_SOURCE or tag == ANY_TAG:
            raise ValueError(
                "wildcard ANY_SOURCE/ANY_TAG receives are not supported on "
                "a sub-communicator (they would match parent-level traffic)"
            )

    def __repr__(self) -> str:
        label = f", label={self.label!r}" if self.label else ""
        name = f", name={self.name!r}" if self.name else ""
        return (
            f"SubCommunicator(rank={self.rank}, size={self.size}, "
            f"parent_ranks={list(self._parent_ranks)}{label}{name})"
        )
