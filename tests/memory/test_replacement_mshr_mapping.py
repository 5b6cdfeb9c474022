"""Tests for LRU replacement and address mapping.

The file name predates the removal of the MSHR model and of the
replacement-policy classes, and is kept so the IDs of the tests in it stay
the same.
"""

import pytest

from repro.memory.address_mapping import AddressMapping
from repro.memory.llc import LLCConfig, LLCPartition
from repro.memory.request import MemoryRequest


def one_set_slice(associativity):
    """A partition whose slice is one set of ``associativity`` ways (block n is tag n)."""
    config = LLCConfig(capacity_bytes=associativity * 128, num_partitions=1, associativity=associativity)
    return LLCPartition(0, config)


def touch(partition, *blocks):
    """Load ``blocks`` in order."""
    for block in blocks:
        partition.access(MemoryRequest(address=block * 128), 0.0)


class TestLRUPolicy:
    """LRU replacement as an LLC partition's slice applies it."""

    def test_victim_is_least_recently_used(self):
        partition = one_set_slice(4)
        touch(partition, 0, 1, 2, 3, 0, 4)
        # Block 0 was reused, so block 1 was the least recently used.
        assert list(partition.sets[0]) == [2, 3, 0, 4]

    def test_insert_counts_as_use(self):
        partition = one_set_slice(2)
        touch(partition, 0, 1, 2)
        assert list(partition.sets[0]) == [1, 2]


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
