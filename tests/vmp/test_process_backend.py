"""Tests for the real-process (multiprocessing) backend.

These prove the same SPMD program objects run with genuinely disjoint
address spaces.  Kept small (P <= 4) -- the container has 2 cores.
"""

import numpy as np
import pytest

from repro.vmp.comm import ANY_TAG
from repro.vmp.machines import IDEAL
from repro.vmp.process_backend import run_multiprocessing
from repro.vmp.scheduler import run_spmd


# Programs must live at module scope to be picklable.
def prog_allreduce(comm):
    return comm.allreduce(float(comm.rank + 1))


def prog_pingpong(comm):
    if comm.rank == 0:
        comm.send(np.arange(4.0), 1, tag=1)
        return comm.recv(source=1, tag=2).tolist()
    x = comm.recv(source=0, tag=1)
    comm.send(x * 3, 0, tag=2)
    return None


def prog_gather_streams(comm):
    draw = comm.stream.uniform(size=2).tolist()
    return comm.gather(draw, root=0)


def prog_barrier_then_rank(comm):
    comm.barrier()
    return comm.rank


def prog_large_halo(comm):
    # 1 MB int8: larger than a ring slot, so it takes the overflow route.
    if comm.rank == 0:
        arr = np.arange(1_000_000, dtype=np.int8).reshape(1000, 1000)
        comm.send(arr, 1, tag=3)
        return float(comm.recv(source=1, tag=4))
    got = comm.recv(source=0, tag=3)
    ok = (
        got.shape == (1000, 1000)
        and got.dtype == np.int8
        and got.flags.writeable
        and got.flags.c_contiguous
    )
    got[0, 0] = 1  # must be mutable without touching the sender
    comm.send(float(got.sum()) if ok else float("nan"), 0, tag=4)
    return None


def prog_noncontiguous(comm):
    # Strided views must arrive with the right *values*.
    if comm.rank == 0:
        base = np.arange(64, dtype=np.float64).reshape(8, 8)
        comm.send(base[::2, 1::3], 1, tag=5)
        return None
    got = comm.recv(source=0, tag=5)
    return got.tolist()


def prog_mixed_payload(comm):
    # Containers of arrays travel as one pickle and come back mutable.
    if comm.rank == 0:
        payload = {
            "planes": (np.ones((4, 6), dtype=np.int8), np.zeros(3)),
            "tag": 7,
        }
        comm.send(payload, 1, tag=6)
        return None
    got = comm.recv(source=0, tag=6)
    return (
        got["planes"][0].sum() == 24
        and got["planes"][0].dtype == np.int8
        and np.all(got["planes"][1] == 0.0)
        and got["tag"] == 7
    )


def prog_halo_ring(comm):
    # Every rank posts its send before any recv: the eager/buffered
    # protocol must be deadlock-free at P=8 with halo-sized payloads.
    t_slices = 2048
    buf = np.full((2, t_slices), comm.rank, dtype=np.int8)
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    got = comm.sendrecv(buf, right, source=left, sendtag=11, recvtag=11)
    return (int(got[0, 0]), got.shape, str(got.dtype))


def prog_stash_bounded(comm):
    # Regression for the keyed stash: it must hold exactly the messages
    # that arrived but were not yet matched, and drop its per-key deques
    # once they drain (growth stays O(outstanding), not O(delivered)).
    n = 24
    if comm.rank == 0:
        for i in range(n):
            comm.send(i, 1, tag=i)        # phase 1: specific matches
        for i in range(n):
            comm.send(i, 1, tag=100 + i)  # phase 2: wildcard matches
        return comm.recv(source=1, tag=999)
    # Phase 1: receive in *reverse* tag order.  A source's ring is FIFO, so
    # matching the last-sent tag first stashes the n-1 earlier messages,
    # and each subsequent recv pops one straight from the stash.
    values, trajectory = [], []
    for tag in reversed(range(n)):
        values.append(comm.recv(source=0, tag=tag))
        trajectory.append(comm.stash_size())
    # Phase 2: pile the stash up again, then drain it with wildcard
    # receives -- those must stay FIFO by arrival across distinct keys.
    last = comm.recv(source=0, tag=100 + n - 1)
    wild = [comm.recv(source=0, tag=ANY_TAG) for _ in range(n - 1)]
    ok = (
        values == list(reversed(range(n)))
        and trajectory == list(range(n - 1, -1, -1))
        and last == n - 1
        and wild == list(range(n - 1))
        and comm.stash_size() == 0
        and len(comm._stash) == 0  # drained deques are deleted, not leaked
    )
    comm.send(ok, 0, tag=999)
    return trajectory


def prog_crash(comm):
    # Rank 0 finishes independently; rank 1 dies.  Peers blocked on a
    # dead partner are released by its poison pill (see test_faults.py
    # for the communicating-crash cases).
    if comm.rank == 1:
        raise RuntimeError("process died")
    return comm.rank


class TestProcessBackend:
    def test_allreduce(self):
        result = run_multiprocessing(prog_allreduce, 3, machine=IDEAL)
        assert result.values == [6.0, 6.0, 6.0]
        assert result.report.ok
        assert result.report.completed == [0, 1, 2]

    def test_pointwise_exchange(self):
        values = run_multiprocessing(prog_pingpong, 2, machine=IDEAL).values
        assert values[0] == [0.0, 3.0, 6.0, 9.0]

    def test_barrier(self):
        assert run_multiprocessing(prog_barrier_then_rank, 4, machine=IDEAL).values == [
            0, 1, 2, 3
        ]

    def test_rank_streams_match_thread_backend(self):
        # Same seed => identical random draws under both backends: the
        # stream derivation is backend-independent by construction.
        mp_values = run_multiprocessing(prog_gather_streams, 2, machine=IDEAL, seed=9).values
        th_values = run_spmd(prog_gather_streams, 2, machine=IDEAL, seed=9).values
        assert mp_values[0] == th_values[0]

    def test_large_ndarray_payload(self):
        values = run_multiprocessing(prog_large_halo, 2, machine=IDEAL).values
        # arange int8 wraps mod 256: sum of 1e6 wrapped values + the mutation.
        expected = float(
            np.arange(1_000_000, dtype=np.int8).sum(dtype=np.int64) + 1
        )
        assert values[0] == expected

    def test_noncontiguous_array_values_survive(self):
        values = run_multiprocessing(prog_noncontiguous, 2, machine=IDEAL).values
        base = np.arange(64, dtype=np.float64).reshape(8, 8)
        assert values[1] == base[::2, 1::3].tolist()

    def test_mixed_container_payload(self):
        values = run_multiprocessing(prog_mixed_payload, 2, machine=IDEAL).values
        assert values[1] is True

    def test_sendrecv_ring_deadlock_free_at_p8(self):
        values = run_multiprocessing(prog_halo_ring, 8, machine=IDEAL).values
        for rank, (src, shape, dtype) in enumerate(values):
            assert src == (rank - 1) % 8
            assert shape == (2, 2048)
            assert dtype == "int8"

    def test_stash_stays_bounded_by_outstanding_messages(self):
        result = run_multiprocessing(prog_stash_bounded, 2, machine=IDEAL)
        assert result.values[0] is True  # rank 1's in-process assertions
        assert result.values[1] == list(range(23, -1, -1))

    def test_failure_propagates(self):
        with pytest.raises(RuntimeError, match="process died"):
            run_multiprocessing(prog_crash, 2, machine=IDEAL)

    def test_zero_ranks_rejected(self):
        with pytest.raises(ValueError):
            run_multiprocessing(prog_allreduce, 0)


def test_end_of_run_metrics_match_the_thread_backend():
    # Recorders cannot cross a process boundary, so the launcher records
    # what each mp rank reported -- through the same function, hence the
    # same names and values, as a thread run's end-of-run fold.  In-run
    # recorders (sweep.* and the message-size histogram) are thread-only
    # by design (DESIGN.md support matrix) and are left out here.
    from repro.obs.metrics import MetricsRegistry
    from repro.qmc.parallel import WorldlineStripConfig, worldline_strip_program
    from repro.vmp.machines import PARAGON

    cfg = WorldlineStripConfig(
        n_sites=8, jz=1.0, jxy=1.0, beta=0.8, n_slices=8,
        n_sweeps=6, n_thermalize=2,
    )
    summaries = {}
    for backend in ("thread", "mp"):
        registry = MetricsRegistry()
        run_spmd(worldline_strip_program, 2, machine=PARAGON, seed=3,
                 args=(cfg, None), metrics=registry, backend=backend)
        summaries[backend] = {
            rank: {k: v for k, v in row.items()
                   if k.startswith(("comm.", "phase.")) and not isinstance(v, dict)}
            for rank, row in registry.summary().items()
        }
    assert summaries["mp"] == summaries["thread"]
    for row in summaries["mp"].values():
        assert set(row) == {
            "comm.messages_sent", "comm.bytes_sent", "comm.messages_received",
            "comm.bytes_received", "comm.wait_seconds", "phase.compute_seconds",
            "phase.comm_seconds", "phase.idle_seconds", "phase.model_seconds",
        }
        assert row["comm.messages_received"] > 0
        assert row["comm.bytes_received"] > 0
