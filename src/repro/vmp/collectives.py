"""Collective operations built from point-to-point messages.

Each collective uses the standard distributed-memory algorithm of the
era, so its *modeled* cost has the right asymptotic structure:

=============  =============================  =======================
collective     algorithm                      modeled cost structure
=============  =============================  =======================
barrier        dissemination                  ceil(log2 P) rounds
bcast          binomial tree                  ceil(log2 P) (alpha+n*beta)
reduce         binomial tree (reversed)       ceil(log2 P) (alpha+n*beta)
allreduce      reduce + bcast                 2 ceil(log2 P) (alpha+n*beta)
gather         binomial tree                  log P rounds, growing n
allgather      ring                           (P-1)(alpha + n*beta)
scatter        root-sequential                (P-1)(alpha + n*beta)
alltoall       pairwise exchange              (P-1)(alpha + n*beta)
=============  =============================  =======================

``allreduce`` is deliberately reduce-then-broadcast rather than
recursive doubling: every rank then holds the *bitwise identical*
result (one combination order), which keeps SPMD programs deterministic
under floating-point non-associativity.  The recursive-doubling variant
is provided separately for the ablation benchmark.

Collective calls must be made by all ranks in the same order (the usual
SPMD contract).  A per-communicator sequence number namespaces the
message tags of consecutive collectives so they cannot interleave.
"""

from __future__ import annotations

from typing import Any

from repro.vmp.comm import Communicator, ReduceOp

__all__ = [
    "barrier",
    "bcast",
    "reduce",
    "allreduce",
    "allreduce_recursive_doubling",
    "gather",
    "allgather",
    "scatter",
    "alltoall",
]

_TAG_BASE = 1 << 20  # tags above this value are reserved for collectives
_TAG_STRIDE = 64  # max rounds per collective


def _next_tag(comm: Communicator) -> int:
    seq = comm._coll_seq
    comm._coll_seq = seq + 1
    return _TAG_BASE + (seq % (1 << 16)) * _TAG_STRIDE


def _vrank(rank: int, root: int, size: int) -> int:
    return (rank - root) % size


def _rank_of(vrank: int, root: int, size: int) -> int:
    return (vrank + root) % size


def barrier(comm: Communicator) -> None:
    """Dissemination barrier; also synchronizes modeled clocks.

    After the final round every rank's clock is at least the maximum
    participant clock at entry (plus the modeled rounds), which is the
    physical semantics of a barrier.
    """
    tag = _next_tag(comm)
    p, r = comm.size, comm.rank
    if p == 1:
        return
    step, rnd = 1, 0
    while step < p:
        comm.send(None, (r + step) % p, tag=tag + rnd)
        comm.recv(source=(r - step) % p, tag=tag + rnd)
        step <<= 1
        rnd += 1


def bcast(comm: Communicator, obj: Any, root: int = 0) -> Any:
    """Binomial-tree broadcast of ``obj`` from ``root``; returns the object."""
    tag = _next_tag(comm)
    p = comm.size
    if p == 1:
        return obj
    v = _vrank(comm.rank, root, p)
    mask = 1
    received = obj if v == 0 else None
    # Ranks below `mask` already hold the object and fan it out.
    while mask < p:
        if v < mask:
            partner = v + mask
            if partner < p:
                comm.send(received, _rank_of(partner, root, p), tag=tag)
        elif v < 2 * mask:
            received = comm.recv(source=_rank_of(v - mask, root, p), tag=tag)
        mask <<= 1
    return received


def reduce(
    comm: Communicator, value: Any, op: ReduceOp = ReduceOp.SUM, root: int = 0
) -> Any:
    """Binomial-tree reduction; only ``root`` receives the result.

    Non-root ranks return ``None``.  Combination order is fixed by the
    tree (child-into-parent, ascending mask), so the result is
    deterministic for a given P.
    """
    tag = _next_tag(comm)
    p = comm.size
    v = _vrank(comm.rank, root, p)
    acc = value
    mask = 1
    while mask < p:
        if v & mask:
            comm.send(acc, _rank_of(v & ~mask, root, p), tag=tag)
            return None
        partner = v | mask
        if partner < p:
            incoming = comm.recv(source=_rank_of(partner, root, p), tag=tag)
            acc = op.combine(acc, incoming)
        mask <<= 1
    return acc if v == 0 else None


def allreduce(comm: Communicator, value: Any, op: ReduceOp = ReduceOp.SUM) -> Any:
    """Reduce to rank 0 then broadcast: every rank gets an identical result."""
    total = reduce(comm, value, op, root=0)
    return bcast(comm, total, root=0)


def allreduce_recursive_doubling(
    comm: Communicator, value: Any, op: ReduceOp = ReduceOp.SUM
) -> Any:
    """Classic recursive-doubling allreduce (ablation variant).

    Requires a power-of-two number of ranks.  Each rank combines in a
    different order, so floating-point results may differ across ranks
    in the last ulp -- the reason the default is reduce+bcast.
    """
    p = comm.size
    if p & (p - 1):
        raise ValueError("recursive doubling requires a power-of-two rank count")
    tag = _next_tag(comm)
    acc = value
    mask = 1
    rnd = 0
    while mask < p:
        partner = comm.rank ^ mask
        incoming = comm.sendrecv(
            acc, partner, partner, sendtag=tag + rnd, recvtag=tag + rnd
        )
        # Fixed combination order (lower rank first) for reproducibility.
        acc = op.combine(acc, incoming) if comm.rank < partner else op.combine(incoming, acc)
        mask <<= 1
        rnd += 1
    return acc


def gather(comm: Communicator, value: Any, root: int = 0) -> list[Any] | None:
    """Binomial-tree gather; root returns the rank-ordered list."""
    tag = _next_tag(comm)
    p = comm.size
    v = _vrank(comm.rank, root, p)
    # Each node accumulates {vrank: value} from its binomial subtree.
    acc: dict[int, Any] = {v: value}
    mask = 1
    while mask < p:
        if v & mask:
            comm.send(acc, _rank_of(v & ~mask, root, p), tag=tag)
            return None
        partner = v | mask
        if partner < p:
            incoming = comm.recv(source=_rank_of(partner, root, p), tag=tag)
            acc.update(incoming)
        mask <<= 1
    if v != 0:
        return None
    return [acc[_vrank(r, root, p)] for r in range(p)]


def allgather(comm: Communicator, value: Any) -> list[Any]:
    """Ring allgather: P-1 neighbor exchanges, every rank gets all values."""
    tag = _next_tag(comm)
    p, r = comm.size, comm.rank
    out: list[Any] = [None] * p
    out[r] = value
    if p == 1:
        return out
    right = (r + 1) % p
    left = (r - 1) % p
    carried = value
    carried_owner = r
    for step in range(p - 1):
        comm.send((carried_owner, carried), right, tag=tag + step % _TAG_STRIDE)
        carried_owner, carried = comm.recv(
            source=left, tag=tag + step % _TAG_STRIDE
        )
        out[carried_owner] = carried
    return out


def scatter(comm: Communicator, values: list[Any] | None, root: int = 0) -> Any:
    """Root-sequential scatter of one value per rank."""
    tag = _next_tag(comm)
    p = comm.size
    if comm.rank == root:
        if values is None or len(values) != p:
            raise ValueError(f"root must supply exactly {p} values")
        for r in range(p):
            if r != root:
                comm.send(values[r], r, tag=tag)
        return values[root]
    return comm.recv(source=root, tag=tag)


def alltoall(comm: Communicator, values: list[Any]) -> list[Any]:
    """Pairwise-exchange alltoall: element ``j`` of ``values`` goes to rank ``j``."""
    p, r = comm.size, comm.rank
    if len(values) != p:
        raise ValueError(f"alltoall needs exactly {p} values, got {len(values)}")
    tag = _next_tag(comm)
    out: list[Any] = [None] * p
    out[r] = values[r]
    for step in range(1, p):
        dst = (r + step) % p
        src = (r - step) % p
        out[src] = comm.sendrecv(
            values[dst],
            dst,
            src,
            sendtag=tag + step % _TAG_STRIDE,
            recvtag=tag + step % _TAG_STRIDE,
        )
    return out
