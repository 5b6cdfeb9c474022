"""Tests for LRU replacement and address mapping.

The file name predates the removal of the MSHR model and is kept so the
IDs of the tests in it stay the same.
"""

import pytest

from repro.memory.address_mapping import AddressMapping
from repro.memory.cache import CacheSet


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
