"""Tests for address separation and the extended LLC query logic unit."""

import pytest

from repro.core.address_separation import AddressSeparator, proportional_split
from repro.core.query_logic import (
    DataBuffer,
    ExtendedLLCQueryLogic,
    RequestQueue,
    WarpOp,
    WarpStatusTable,
)
from repro.memory.request import AccessType, MemoryRequest


class TestAddressSeparator:
    def test_no_extended_capacity_routes_everything_conventional(self):
        separator = AddressSeparator(512 * 1024, 0)
        assert all(not separator.is_extended(i * 128) for i in range(1000))

    def test_split_fraction_tracks_capacity_ratio(self):
        separator = AddressSeparator(1 * 1024 * 1024, 3 * 1024 * 1024)
        extended = sum(separator.is_extended(i * 128) for i in range(50_000))
        fraction = extended / 50_000
        assert 0.6 < fraction < 0.9  # extended holds 75 % of the capacity

    def test_routing_is_deterministic(self):
        separator = AddressSeparator(1024 * 1024, 1024 * 1024)
        decisions = [separator.route(i * 128).target for i in range(100)]
        assert decisions == [separator.route(i * 128).target for i in range(100)]

    def test_extended_decision_carries_set(self):
        separator = AddressSeparator(1024 * 1024, 4 * 1024 * 1024, num_extended_sets=64)
        decision = next(
            separator.route(i * 128)
            for i in range(10_000)
            if separator.route(i * 128).target == "extended"
        )
        assert 0 <= decision.extended_set < 64

    def test_same_block_same_target(self):
        separator = AddressSeparator(1024 * 1024, 1024 * 1024)
        for block in range(0, 256):
            address = block * 128
            assert separator.route(address).target == separator.route(address + 64).target

    def test_extended_fraction_property(self):
        separator = AddressSeparator(1024 * 1024, 1024 * 1024)
        assert 0.3 < separator.extended_fraction < 0.7

    def test_negative_address_rejected(self):
        separator = AddressSeparator(1024, 1024)
        with pytest.raises(ValueError):
            separator.route(-1)


class TestProportionalSplit:
    def test_single_region_gets_everything(self):
        assert proportional_split([("register_file", 100)], 4096) == "register_file"

    def test_zero_capacity_region_never_selected(self):
        picks = {
            proportional_split([("register_file", 100), ("l1", 0)], i * 128) for i in range(200)
        }
        assert picks == {"register_file"}

    def test_split_roughly_proportional(self):
        regions = [("register_file", 192 * 1024), ("l1", 64 * 1024)]
        picks = [proportional_split(regions, i * 128) for i in range(10_000)]
        rf_fraction = picks.count("register_file") / len(picks)
        assert 0.6 < rf_fraction < 0.9

    def test_no_regions_rejected(self):
        with pytest.raises(ValueError):
            proportional_split([("a", 0)], 0)


class TestRequestQueue:
    def test_fifo_order(self):
        queue = RequestQueue(capacity=4)
        first = MemoryRequest(address=0)
        second = MemoryRequest(address=128)
        queue.enqueue(first)
        queue.enqueue(second)
        assert queue.dequeue() is first
        assert queue.dequeue() is second
        assert queue.dequeue() is None

    def test_backpressure_when_full(self):
        queue = RequestQueue(capacity=1)
        assert queue.enqueue(MemoryRequest(address=0))
        assert not queue.enqueue(MemoryRequest(address=128))
        assert queue.rejected == 1

    def test_max_occupancy_tracked(self):
        queue = RequestQueue(capacity=8)
        for i in range(5):
            queue.enqueue(MemoryRequest(address=i * 128))
        assert queue.max_occupancy == 5


class TestWarpStatusTable:
    def test_begin_and_complete(self):
        table = WarpStatusTable(num_rows=8)
        request = MemoryRequest(address=256, access_type=AccessType.STORE)
        row = table.begin(2, request)
        assert row.busy
        assert row.op is WarpOp.WRITE
        done = table.complete(2, hit=True)
        assert not done.busy
        assert done.requests_served == 1

    def test_double_begin_rejected(self):
        table = WarpStatusTable(num_rows=2)
        table.begin(0, MemoryRequest(address=0))
        with pytest.raises(RuntimeError):
            table.begin(0, MemoryRequest(address=128))

    def test_complete_idle_rejected(self):
        table = WarpStatusTable(num_rows=2)
        with pytest.raises(RuntimeError):
            table.complete(0, hit=False)

    def test_atomic_op_classified(self):
        table = WarpStatusTable(num_rows=2)
        row = table.begin(1, MemoryRequest(address=0, access_type=AccessType.ATOMIC))
        assert row.op is WarpOp.ATOMIC

    def test_out_of_range_row(self):
        table = WarpStatusTable(num_rows=2)
        with pytest.raises(ValueError):
            table.row(5)


class TestDataBuffer:
    def test_allocate_release_cycle(self):
        buffer = DataBuffer(num_entries=2)
        slot_a = buffer.allocate(0)
        slot_b = buffer.allocate(128)
        assert buffer.allocate(256) is None
        buffer.release(slot_a)
        assert buffer.allocate(256) is not None
        assert slot_b is not None

    def test_release_unallocated_rejected(self):
        buffer = DataBuffer(num_entries=2)
        with pytest.raises(ValueError):
            buffer.release(0)


class TestExtendedLLCQueryLogic:
    def test_admit_dispatch_complete(self):
        logic = ExtendedLLCQueryLogic(num_sets=16)
        request = MemoryRequest(address=640)
        assert logic.admit(request)
        dispatched = logic.dispatch(5)
        assert dispatched is request
        assert logic.warp_status.is_busy(5)
        logic.complete(5, hit=True)
        assert not logic.warp_status.is_busy(5)

    def test_dispatch_blocked_while_warp_busy(self):
        logic = ExtendedLLCQueryLogic(num_sets=4)
        logic.admit(MemoryRequest(address=0))
        logic.admit(MemoryRequest(address=128))
        assert logic.dispatch(1) is not None
        # Same warp still busy: the second request must wait.
        assert logic.dispatch(1) is None
        logic.complete(1, hit=False)
        assert logic.dispatch(1) is not None

    def test_atomics_release_the_write_buffer_slot_they_took(self):
        logic = ExtendedLLCQueryLogic(num_sets=4, buffer_entries=4)
        # A load holds a read-buffer slot while atomics come and go.
        logic.admit(MemoryRequest(address=0))
        assert logic.dispatch(0) is not None
        for i in range(6):
            logic.admit(MemoryRequest(address=128 * (i + 1), access_type=AccessType.ATOMIC))
            assert logic.dispatch(1) is not None
            assert logic.write_buffer.available == 3
            logic.complete(1, hit=True)
        assert logic.write_buffer.available == 4
        assert logic.read_buffer.available == 3
        logic.complete(0, hit=True)
        assert logic.read_buffer.available == 4

    def test_storage_is_about_5_kib(self):
        logic = ExtendedLLCQueryLogic(num_sets=256)
        assert 4 * 1024 <= logic.storage_bytes() <= 8 * 1024

    def test_reset(self):
        logic = ExtendedLLCQueryLogic(num_sets=4)
        logic.admit(MemoryRequest(address=0))
        logic.dispatch(0)
        logic.reset()
        assert len(logic.request_queue) == 0
        assert not logic.warp_status.is_busy(0)
