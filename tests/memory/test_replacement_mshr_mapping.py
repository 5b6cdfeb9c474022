"""Tests for LRU replacement and the interleaving of blocks across partitions.

The file name predates the removal of the MSHR model, of the
replacement-policy classes and of the address-mapping class, and is kept so
the IDs of the tests in it stay the same.  The replay engine interleaves
blocks itself: block ``b`` goes to partition ``b % num_partitions``.
"""

import random
from array import array

import pytest

from repro.core.config import MorpheusConfig
from repro.gpu.config import RTX3080_CONFIG
from repro.memory.llc import LLCConfig, LLCPartition
from repro.sim.engine import MemoryHierarchyEngine
from repro.workloads.trace import MemoryTrace

BLOCK = RTX3080_CONFIG.block_size
PARTITIONS = RTX3080_CONFIG.llc.num_partitions


def one_set_slice(associativity):
    """A partition whose slice is one set of ``associativity`` ways (block n is tag n)."""
    config = LLCConfig(capacity_bytes=associativity * 128, num_partitions=1, associativity=associativity)
    return LLCPartition(0, config)


def touch(partition, *blocks):
    """Load ``blocks`` in order."""
    for block in blocks:
        partition.access(block * 128, False, 0.0)


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


def served_partitions(addresses, morpheus=None):
    """The partition that served each of ``addresses`` in one replay, in order.

    On a conventional GPU a partition serves an access in its LLC slice; on
    a Morpheus GPU, in its controller.
    """
    engine = MemoryHierarchyEngine(
        RTX3080_CONFIG,
        morpheus=morpheus,
        cache_sm_ids=[60, 61] if morpheus is not None else None,
        capacity_scale=1 / 32,
    )
    served = []
    servers = engine.controllers or engine.llc.partitions
    for partition_id, server in enumerate(servers):
        def access(address, is_write, now, _access=server.access, _id=partition_id):
            served.append((_id, address))
            return _access(address, is_write, now)

        server.access = access
    engine.run(MemoryTrace(array("q", addresses), bytes(len(addresses))))
    assert [address for _, address in served] == list(addresses)
    return [partition_id for partition_id, _ in served]


class TestAddressMapping:
    def test_round_robin_partitioning(self):
        partitions = served_partitions([i * BLOCK for i in range(2 * PARTITIONS)])
        assert partitions[:PARTITIONS] == list(range(PARTITIONS))
        assert partitions[PARTITIONS:] == list(range(PARTITIONS))

    def test_same_block_same_partition(self):
        # Block 13 starts at byte 1664; all its addresses go to partition 3.
        assert served_partitions([13 * BLOCK, 13 * BLOCK + BLOCK - 1]) == [3, 3]

    @pytest.mark.parametrize(
        "morpheus", [None, MorpheusConfig()], ids=["conventional", "morpheus"]
    )
    def test_every_partition_serves_exactly_its_blocks(self, morpheus):
        # Random blocks, each partition's blocks among them, any order.
        blocks = random.Random(5).sample(range(1 << 20), 400) + list(range(PARTITIONS))
        random.Random(6).shuffle(blocks)
        partitions = served_partitions([block * BLOCK for block in blocks], morpheus)
        for partition in range(PARTITIONS):
            served = {block for block, p in zip(blocks, partitions) if p == partition}
            assert served == {block for block in blocks if block % PARTITIONS == partition}
