"""Tests for the point-to-point layer of the virtual machine: payload
sizes, send/recv semantics and the modeled time they charge."""

import numpy as np
import pytest

from repro.vmp.comm import payload_nbytes
from repro.vmp.machines import CM5, IDEAL, PARAGON
from repro.vmp.scheduler import run_spmd
from repro.vmp.topology import Ring


class TestPayloadNbytes:
    def test_ndarray_counts_buffer(self):
        assert payload_nbytes(np.zeros(10)) == 80
        assert payload_nbytes(np.zeros(10, dtype=np.int8)) == 10

    def test_scalars(self):
        assert payload_nbytes(1.5) == 8
        assert payload_nbytes(7) == 8

    def test_bytes(self):
        assert payload_nbytes(b"abcd") == 4

    def test_numeric_sequences(self):
        assert payload_nbytes([1.0, 2.0, 3.0]) == 24

    def test_generic_objects_use_pickle_size(self):
        assert payload_nbytes({"a": 1}) > 0

    def test_containers_of_arrays_sum_buffer_sizes(self):
        # Aggregated-halo payloads: containers recurse to arr.nbytes
        # instead of pickling array buffers just to measure them.
        a = np.zeros((3, 4))          # 96 bytes
        b = np.ones(5, dtype=np.int8)  # 5 bytes
        assert payload_nbytes((a, b)) == 96 + 5
        assert payload_nbytes([a, [b, 2.0]]) == 96 + 5 + 8
        assert payload_nbytes({"halo": a, "tag": 3}) == 96 + len(b"halo") + len(b"tag") + 8

    def test_nested_mixed_payload(self):
        payload = ((np.zeros((2, 8), dtype=np.int8), 1), {"k": np.zeros(7)})
        assert payload_nbytes(payload) == 16 + 8 + 1 + 56

    def test_container_copy_is_deep_without_pickle(self):
        from repro.vmp.comm import _copy_payload

        arr = np.arange(6.0)
        src = {"halo": (arr, [arr[:3]]), "n": 2}
        dst = _copy_payload(src)
        arr[:] = -1.0
        np.testing.assert_array_equal(dst["halo"][0], np.arange(6.0))
        np.testing.assert_array_equal(dst["halo"][1][0], np.arange(3.0))
        assert isinstance(dst["halo"], tuple) and dst["n"] == 2


def pingpong(comm):
    if comm.rank == 0:
        comm.send(np.arange(5.0), 1, tag=3)
        return comm.recv(source=1, tag=4)
    data = comm.recv(source=0, tag=3)
    comm.send(data * 2, 0, tag=4)
    return None


class TestPointToPoint:
    def test_pingpong_payload(self):
        res = run_spmd(pingpong, 2, machine=IDEAL)
        np.testing.assert_array_equal(res.values[0], 2 * np.arange(5.0))

    def test_payload_is_deep_copied(self):
        # Sender-side mutation after send must not reach the receiver.
        def prog(comm):
            if comm.rank == 0:
                x = np.zeros(4)
                comm.send(x, 1)
                x[:] = 99.0
                return None
            return comm.recv(source=0)

        res = run_spmd(prog, 2, machine=IDEAL)
        np.testing.assert_array_equal(res.values[1], np.zeros(4))

    def test_tag_selective_receive(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("first", 1, tag=1)
                comm.send("second", 1, tag=2)
                return None
            second = comm.recv(source=0, tag=2)
            first = comm.recv(source=0, tag=1)
            return (first, second)

        res = run_spmd(prog, 2, machine=IDEAL)
        assert res.values[1] == ("first", "second")

    def test_fifo_per_source_and_tag(self):
        def prog(comm):
            if comm.rank == 0:
                for k in range(5):
                    comm.send(k, 1, tag=9)
                return None
            return [comm.recv(source=0, tag=9) for _ in range(5)]

        res = run_spmd(prog, 2, machine=IDEAL)
        assert res.values[1] == [0, 1, 2, 3, 4]

    def test_sendrecv_headon_does_not_deadlock(self):
        def prog(comm):
            partner = 1 - comm.rank
            return comm.sendrecv(comm.rank, partner, partner)

        res = run_spmd(prog, 2, machine=CM5)
        assert res.values == [1, 0]

    def test_invalid_destination_rejected(self):
        def prog(comm):
            comm.send(1, 5)

        with pytest.raises(ValueError):
            run_spmd(prog, 2, machine=IDEAL)


class TestModeledTime:
    def test_message_charges_alpha_beta(self):
        payload = np.zeros(1000)  # 8000 B

        def prog(comm):
            if comm.rank == 0:
                comm.send(payload, 1)
            else:
                comm.recv(source=0)
            return comm.clock.now

        res = run_spmd(prog, 2, machine=PARAGON, topology=Ring(2))
        sender_t = res.values[0]
        receiver_t = res.values[1]
        expected_send = PARAGON.latency + 8000 * PARAGON.byte_time
        assert sender_t == pytest.approx(expected_send)
        # Receiver: its own alpha plus waiting for arrival.
        arrival = expected_send + PARAGON.hop_time * 1
        assert receiver_t == pytest.approx(max(arrival, PARAGON.latency), rel=1e-6)

    def test_receiver_does_not_wait_if_late(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(1.0, 1)
            else:
                comm.charge_compute(1e9)  # 100 s on the ideal machine? no: flops/25e6 = 40 s
                comm.recv(source=0)
            return comm.clock.breakdown().get("comm_wait", 0.0)

        res = run_spmd(prog, 2, machine=CM5)
        assert res.values[1] == 0.0

    def test_charge_compute(self):
        def prog(comm):
            comm.charge_compute(50e6)
            return comm.clock.now

        res = run_spmd(prog, 1, machine=CM5)
        assert res.values[0] == pytest.approx(2.0)

    def test_stats_counters(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.zeros(10), 1)
            else:
                comm.recv(source=0)
            return (comm.stats.messages_sent, comm.stats.bytes_sent,
                    comm.stats.messages_received, comm.stats.bytes_received)

        res = run_spmd(prog, 2, machine=IDEAL)
        assert res.values[0] == (1, 80, 0, 0)
        assert res.values[1] == (0, 0, 1, 80)
