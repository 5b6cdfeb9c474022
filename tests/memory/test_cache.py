"""Tests for the cache slice of a conventional LLC partition.

:meth:`LLCPartition.access` is the whole lookup of a set-associative,
write-allocate LRU cache: it updates recency and dirty state on a hit,
fills on a miss and reports the block address of a dirty victim.  The
class names predate the deletion of the ``CacheSet`` and
``SetAssociativeCache`` classes and are kept so the test IDs stay the same.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.llc import CacheStats, LLCConfig, LLCPartition
from repro.memory.request import AccessType, MemoryRequest


def make_slice(capacity_bytes, associativity, block_size=128):
    """A lone partition whose slice holds ``capacity_bytes``."""
    config = LLCConfig(
        capacity_bytes=capacity_bytes,
        num_partitions=1,
        block_size=block_size,
        associativity=associativity,
    )
    return LLCPartition(0, config)


def access(partition, address, is_write=False):
    """``(hit, writeback address)`` of one load or store to ``partition``."""
    access_type = AccessType.STORE if is_write else AccessType.LOAD
    hit, _, writeback = partition.access(MemoryRequest(address, access_type), 0.0)
    return hit, writeback


class TestCacheStats:
    def test_empty_rates(self):
        stats = CacheStats()
        assert stats.hit_rate == 0.0
        assert stats.miss_rate == 0.0

    def test_rates(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.accesses == 4
        assert stats.hit_rate == pytest.approx(0.75)
        assert stats.miss_rate == pytest.approx(0.25)

    def test_merge(self):
        merged = CacheStats(hits=1, misses=2).merge(CacheStats(hits=3, misses=4, evictions=5))
        assert merged.hits == 4
        assert merged.misses == 6
        assert merged.evictions == 5


class TestCacheSet:
    """A slice of one set: block ``n`` is at address ``n * 128`` with tag ``n``."""

    def test_miss_then_hit(self):
        partition = make_slice(2 * 128, associativity=2)
        assert access(partition, 128) == (False, None)
        assert access(partition, 128) == (True, None)

    def test_lru_eviction_order(self):
        partition = make_slice(2 * 128, associativity=2)
        access(partition, 1 * 128)
        access(partition, 2 * 128)
        access(partition, 1 * 128)  # 2 becomes LRU
        assert access(partition, 3 * 128) == (False, None)
        assert partition.sets[0] == {1: False, 3: False}

    def test_dirty_bit_set_on_write_hit(self):
        partition = make_slice(2 * 128, associativity=2)
        access(partition, 1 * 128)
        access(partition, 1 * 128, is_write=True)
        access(partition, 2 * 128)
        # Block 1 is the least recently used block and was written.
        assert access(partition, 3 * 128) == (False, 1 * 128)


class _ReferenceLRUSet:
    """The straightforward model of an LRU set, kept as the reference.

    Lookups scan the ways in order, a fill takes the first empty way, and a
    full set evicts the way with the smallest last-use stamp.
    """

    def __init__(self, associativity):
        self.ways = [None] * associativity  # [tag, dirty] or None
        self.last_use = {}
        self.clock = 0

    def _touch(self, way):
        self.clock += 1
        self.last_use[way] = self.clock

    def lookup(self, tag):
        return next(
            (way for way, block in enumerate(self.ways) if block is not None and block[0] == tag),
            None,
        )

    def access(self, tag, is_write):
        way = self.lookup(tag)
        if way is None:
            return False
        self._touch(way)
        if is_write:
            self.ways[way][1] = True
        return True

    def fill(self, tag, dirty):
        """Install absent ``tag``; return the evicted ``(tag, dirty)``, if any."""
        victim = None
        way = next((way for way, block in enumerate(self.ways) if block is None), None)
        if way is None:
            way = min(range(len(self.ways)), key=lambda w: self.last_use[w])
            victim = tuple(self.ways[way])
        self.ways[way] = [tag, dirty]
        self._touch(way)
        return victim

    def blocks_by_recency(self):
        """Resident ``(tag, dirty)`` pairs, least recently used first."""
        ways = sorted(
            (way for way, block in enumerate(self.ways) if block is not None),
            key=lambda way: self.last_use[way],
        )
        return [tuple(self.ways[way]) for way in ways]


_ACCESSES = st.lists(
    st.tuples(st.integers(min_value=0, max_value=23), st.booleans()),
    min_size=1,
    max_size=200,
)


class TestCacheSetMatchesReference:
    @given(
        st.integers(min_value=1, max_value=6),
        st.sampled_from((1, 2, 4)),
        _ACCESSES,
    )
    @settings(max_examples=200, deadline=None)
    def test_same_hits_victims_and_tags(self, associativity, num_sets, accesses):
        partition = make_slice(num_sets * associativity * 128, associativity)
        assert partition.num_sets == num_sets
        references = [_ReferenceLRUSet(associativity) for _ in range(num_sets)]
        for block, is_write in accesses:
            set_index, tag = block % num_sets, block // num_sets
            reference = references[set_index]
            expected_hit = reference.access(tag, is_write)
            expected_writeback = None
            if not expected_hit:
                victim = reference.fill(tag, is_write)
                if victim is not None and victim[1]:
                    # The dirty victim's block address, rebuilt from its tag and set.
                    victim_tag = victim[0]
                    expected_writeback = (victim_tag * num_sets + set_index) * 128
            assert access(partition, block * 128, is_write) == (expected_hit, expected_writeback)
            for blocks, reference in zip(partition.sets, references):
                assert list(blocks.items()) == reference.blocks_by_recency()


class TestSetAssociativeCache:
    """The slice as a whole, addressed by byte address."""

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LLCConfig(capacity_bytes=0)
        # A share that is not a whole number of sets is rounded down to one.
        partition = make_slice(1000, associativity=4)
        assert (partition.capacity_bytes, partition.num_sets) == (512, 1)

    def test_block_size_power_of_two(self):
        with pytest.raises(ValueError):
            LLCConfig(block_size=100)

    def test_associativity_must_be_positive(self):
        with pytest.raises(ValueError):
            LLCConfig(associativity=0)

    def test_num_sets(self):
        partition = make_slice(64 * 1024, associativity=16)
        assert partition.num_sets == 32

    def test_miss_then_hit_same_block(self):
        partition = make_slice(8 * 1024, associativity=4)
        hit, _ = access(partition, 0x1000)
        assert not hit
        hit, _ = access(partition, 0x1000)
        assert hit
        # Same block, different offset.
        hit, _ = access(partition, 0x1000 + 64)
        assert hit

    def test_hit_rate_tracked(self):
        partition = make_slice(8 * 1024, associativity=4)
        access(partition, 0)
        access(partition, 0)
        assert partition.stats.hits == 1
        assert partition.stats.misses == 1

    def test_dirty_eviction_produces_writeback_address(self):
        partition = make_slice(512, associativity=1)
        access(partition, 0, is_write=True)
        # The slice has 4 sets; address 512 maps to set 0 as well.
        hit, writeback = access(partition, 512)
        assert not hit
        assert writeback == 0

    def test_clean_eviction_no_writeback(self):
        partition = make_slice(512, associativity=1)
        access(partition, 0)
        _, writeback = access(partition, 512)
        assert writeback is None

    def test_working_set_within_capacity_all_hits_after_warmup(self):
        partition = make_slice(16 * 1024, associativity=8)
        addresses = [i * 128 for i in range(64)]  # 8 KiB working set
        for address in addresses:
            access(partition, address)
        partition.stats = CacheStats()
        for address in addresses:
            hit, _ = access(partition, address)
            assert hit
        assert partition.stats.hit_rate == 1.0

    def test_working_set_exceeding_capacity_misses(self):
        partition = make_slice(4 * 1024, associativity=4)
        addresses = [i * 128 for i in range(256)]  # 32 KiB footprint
        for _ in range(2):
            for address in addresses:
                access(partition, address)
        assert partition.stats.miss_rate > 0.5

    def test_flush(self):
        partition = make_slice(4 * 1024, associativity=4)
        access(partition, 0, is_write=True)
        access(partition, 128)
        partition.reset()
        assert not any(partition.sets)
        assert partition.stats == CacheStats()
        # The dirty block went with the rest: refilling its set writes nothing back.
        assert access(partition, 0) == (False, None)

    def test_fill_and_probe(self):
        partition = make_slice(4 * 1024, associativity=4)
        set_index, tag = (0x200 // 128) % partition.num_sets, 0x200 // (128 * partition.num_sets)
        assert tag not in partition.sets[set_index]
        # A miss fills its block, for a store as for a load (write-allocate).
        access(partition, 0x200, is_write=True)
        assert partition.sets[set_index] == {tag: True}

    def test_occupancy_bytes(self):
        partition = make_slice(4 * 1024, associativity=4)
        access(partition, 0)
        access(partition, 128)
        assert sum(map(len, partition.sets)) * partition.config.block_size == 256

    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=300))
    @settings(max_examples=25, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, addresses):
        partition = make_slice(2 * 1024, associativity=2)
        for address in addresses:
            access(partition, address, is_write=address % 3 == 0)
        assert all(len(blocks) <= 2 for blocks in partition.sets)
        assert sum(map(len, partition.sets)) * 128 <= partition.capacity_bytes

    @given(st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=200))
    @settings(max_examples=25, deadline=None)
    def test_hits_plus_misses_equals_accesses(self, addresses):
        partition = make_slice(4 * 1024, associativity=4)
        for address in addresses:
            access(partition, address)
        assert partition.stats.accesses == len(addresses)

    @given(st.integers(min_value=0, max_value=1 << 30))
    @settings(max_examples=50, deadline=None)
    def test_set_index_within_range(self, address):
        partition = make_slice(64 * 1024, associativity=16)
        access(partition, address)
        set_index = (address // 128) % partition.num_sets
        assert address // (128 * partition.num_sets) in partition.sets[set_index]
