"""Tests for LRU replacement, MSHRs and address mapping."""

import pytest

from repro.memory.address_mapping import AddressMapping
from repro.memory.cache import CacheSet
from repro.memory.mshr import MSHRFile
from repro.memory.request import MemoryRequest


class TestLRUPolicy:
    """LRU replacement as a :class:`CacheSet` applies it."""

    def test_victim_is_least_recently_used(self):
        cache_set = CacheSet(4)
        for tag in range(4):
            cache_set.fill(tag)
        cache_set.access(0, is_write=False)
        assert cache_set.fill(4) == (1, False)

    def test_insert_counts_as_use(self):
        cache_set = CacheSet(2)
        cache_set.fill(0)
        cache_set.fill(1)
        assert cache_set.fill(2) == (0, False)

    def test_invalidate_makes_way_preferred_victim(self):
        cache_set = CacheSet(2)
        cache_set.fill(0)
        cache_set.fill(1)
        cache_set.invalidate(1)
        # The invalidated block's way takes the fill: nothing is evicted.
        assert cache_set.fill(2) is None
        assert cache_set.tags() == [0, 2]


class TestMSHRFile:
    def test_allocate_and_release(self):
        mshrs = MSHRFile(num_entries=2)
        request = MemoryRequest(address=0)
        entry = mshrs.allocate(request, block_address=0)
        assert entry is not None
        waiting = mshrs.release(0)
        assert waiting == [request]
        assert len(mshrs) == 0

    def test_merge_same_block(self):
        mshrs = MSHRFile(num_entries=2)
        first = MemoryRequest(address=0)
        second = MemoryRequest(address=64)
        mshrs.allocate(first, block_address=0)
        entry = mshrs.allocate(second, block_address=0)
        assert entry is not None
        assert entry.request_count == 2
        assert mshrs.merges == 1
        assert len(mshrs) == 1

    def test_full_file_stalls(self):
        mshrs = MSHRFile(num_entries=1)
        mshrs.allocate(MemoryRequest(address=0), block_address=0)
        assert mshrs.allocate(MemoryRequest(address=128), block_address=128) is None
        assert mshrs.stalls == 1

    def test_merge_limit_stalls(self):
        mshrs = MSHRFile(num_entries=4, max_merged_per_entry=1)
        mshrs.allocate(MemoryRequest(address=0), block_address=0)
        assert mshrs.allocate(MemoryRequest(address=0), block_address=0) is not None
        assert mshrs.allocate(MemoryRequest(address=0), block_address=0) is None

    def test_release_unknown_block(self):
        mshrs = MSHRFile()
        assert mshrs.release(1234) == []


class TestAddressMapping:
    def test_round_robin_partitioning(self):
        mapping = AddressMapping(num_partitions=10, block_size=128)
        partitions = [mapping.partition_of(i * 128) for i in range(20)]
        assert partitions[:10] == list(range(10))
        assert partitions[10:] == list(range(10))

    def test_same_block_same_partition(self):
        mapping = AddressMapping(num_partitions=10, block_size=128)
        assert mapping.partition_of(1280) == mapping.partition_of(1280 + 127)

    def test_channels_default_to_partitions(self):
        mapping = AddressMapping(num_partitions=8)
        assert mapping.num_channels == 8

    def test_addresses_for_partition(self):
        mapping = AddressMapping(num_partitions=10, block_size=128)
        addresses = mapping.addresses_for_partition(3, count=5)
        assert len(addresses) == 5
        assert all(mapping.partition_of(address) == 3 for address in addresses)

    def test_invalid_partition_rejected(self):
        mapping = AddressMapping(num_partitions=4)
        with pytest.raises(ValueError):
            mapping.addresses_for_partition(7, count=1)

    def test_negative_address_rejected(self):
        mapping = AddressMapping()
        with pytest.raises(ValueError):
            mapping.partition_of(-1)
