"""Tests for the set-associative cache model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.cache import CacheSet, CacheStats, SetAssociativeCache


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
    def test_miss_then_hit(self):
        cache_set = CacheSet(associativity=2)
        assert not cache_set.access(1, is_write=False)
        cache_set.fill(1)
        assert cache_set.access(1, is_write=False)

    def test_lru_eviction_order(self):
        cache_set = CacheSet(associativity=2)
        cache_set.fill(1)
        cache_set.fill(2)
        cache_set.access(1, is_write=False)  # 2 becomes LRU
        assert cache_set.fill(3) == (2, False)

    def test_dirty_bit_set_on_write_hit(self):
        cache_set = CacheSet(associativity=2)
        cache_set.fill(1)
        cache_set.access(1, is_write=True)
        cache_set.fill(2)
        # Tag 1 is the least recently used block and was written.
        assert cache_set.fill(3) == (1, True)

    def test_invalidate(self):
        cache_set = CacheSet(associativity=2)
        cache_set.fill(7)
        assert cache_set.invalidate(7) == (7, False)
        assert cache_set.invalidate(7) is None
        assert cache_set.occupancy() == 0


class _ReferenceLRUSet:
    """The straightforward model of an LRU set, kept as the reference.

    Lookups scan the ways in order, a fill takes the first empty way, and a
    full set evicts the way with the smallest last-use stamp (never-used
    ways count as -1).
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
        way = self.lookup(tag)
        if way is not None:
            self.ways[way][1] = self.ways[way][1] or dirty
            self._touch(way)
            return None
        victim = None
        way = next((way for way, block in enumerate(self.ways) if block is None), None)
        if way is None:
            way = min(range(len(self.ways)), key=lambda w: self.last_use.get(w, -1))
            victim = tuple(self.ways[way])
            self.last_use.pop(way, None)
        self.ways[way] = [tag, dirty]
        self._touch(way)
        return victim

    def invalidate(self, tag):
        way = self.lookup(tag)
        if way is None:
            return None
        block = tuple(self.ways[way])
        self.ways[way] = None
        self.last_use.pop(way, None)
        return block

    def tags_by_recency(self):
        """Resident tags, least recently used first."""
        ways = sorted(
            (way for way, block in enumerate(self.ways) if block is not None),
            key=lambda way: self.last_use[way],
        )
        return [self.ways[way][0] for way in ways]


_SET_OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(("access", "fill", "invalidate")),
        st.integers(min_value=0, max_value=11),
        st.booleans(),
    ),
    min_size=1,
    max_size=200,
)


class TestCacheSetMatchesReference:
    @given(st.integers(min_value=1, max_value=6), _SET_OPERATIONS)
    @settings(max_examples=200, deadline=None)
    def test_same_hits_victims_and_tags(self, associativity, operations):
        cache_set = CacheSet(associativity)
        reference = _ReferenceLRUSet(associativity)
        for operation, tag, flag in operations:
            assert cache_set.lookup(tag) == (reference.lookup(tag) is not None)
            if operation == "access":
                assert cache_set.access(tag, is_write=flag) == reference.access(tag, flag)
            elif operation == "fill":
                assert cache_set.fill(tag, dirty=flag) == reference.fill(tag, flag)
            else:
                assert cache_set.invalidate(tag) == reference.invalidate(tag)
            assert cache_set.tags() == reference.tags_by_recency()
            assert cache_set.occupancy() == sum(1 for b in reference.ways if b)


class TestSetAssociativeCache:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(capacity_bytes=1000, block_size=128, associativity=4)

    def test_block_size_power_of_two(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(capacity_bytes=4096, block_size=100)

    def test_num_sets(self):
        cache = SetAssociativeCache(capacity_bytes=64 * 1024, block_size=128, associativity=16)
        assert cache.num_sets == 32

    def test_miss_then_hit_same_block(self):
        cache = SetAssociativeCache(capacity_bytes=8 * 1024, block_size=128, associativity=4)
        hit, _ = cache.access(0x1000)
        assert not hit
        hit, _ = cache.access(0x1000)
        assert hit
        # Same block, different offset.
        hit, _ = cache.access(0x1000 + 64)
        assert hit

    def test_hit_rate_tracked(self):
        cache = SetAssociativeCache(capacity_bytes=8 * 1024, block_size=128, associativity=4)
        cache.access(0)
        cache.access(0)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_dirty_eviction_produces_writeback_address(self):
        cache = SetAssociativeCache(capacity_bytes=512, block_size=128, associativity=1)
        cache.access(0, is_write=True)
        # The cache has 4 sets; address 512 maps to set 0 as well.
        hit, writeback = cache.access(512, is_write=False)
        assert not hit
        assert writeback == 0

    def test_clean_eviction_no_writeback(self):
        cache = SetAssociativeCache(capacity_bytes=512, block_size=128, associativity=1)
        cache.access(0, is_write=False)
        _, writeback = cache.access(512, is_write=False)
        assert writeback is None

    def test_working_set_within_capacity_all_hits_after_warmup(self):
        cache = SetAssociativeCache(capacity_bytes=16 * 1024, block_size=128, associativity=8)
        addresses = [i * 128 for i in range(64)]  # 8 KiB working set
        for address in addresses:
            cache.access(address)
        cache.reset_stats()
        for address in addresses:
            hit, _ = cache.access(address)
            assert hit
        assert cache.stats.hit_rate == 1.0

    def test_working_set_exceeding_capacity_misses(self):
        cache = SetAssociativeCache(capacity_bytes=4 * 1024, block_size=128, associativity=4)
        addresses = [i * 128 for i in range(256)]  # 32 KiB footprint
        for _ in range(2):
            for address in addresses:
                cache.access(address)
        assert cache.stats.miss_rate > 0.5

    def test_flush(self):
        cache = SetAssociativeCache(capacity_bytes=4 * 1024, block_size=128, associativity=4)
        cache.access(0, is_write=True)
        cache.access(128)
        dirty = cache.flush()
        assert dirty == 1
        assert cache.occupancy() == 0

    def test_fill_and_probe(self):
        cache = SetAssociativeCache(capacity_bytes=4 * 1024, block_size=128, associativity=4)
        assert not cache.probe(0x200)
        cache.fill(0x200)
        assert cache.probe(0x200)

    def test_invalidate(self):
        cache = SetAssociativeCache(capacity_bytes=4 * 1024, block_size=128, associativity=4)
        cache.fill(0x200)
        assert cache.invalidate(0x200)
        assert not cache.invalidate(0x200)

    def test_occupancy_bytes(self):
        cache = SetAssociativeCache(capacity_bytes=4 * 1024, block_size=128, associativity=4)
        cache.fill(0)
        cache.fill(128)
        assert cache.occupancy_bytes() == 256

    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=300))
    @settings(max_examples=25, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, addresses):
        cache = SetAssociativeCache(capacity_bytes=2 * 1024, block_size=128, associativity=2)
        for address in addresses:
            cache.access(address, is_write=address % 3 == 0)
        assert cache.occupancy_bytes() <= cache.capacity_bytes

    @given(st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=200))
    @settings(max_examples=25, deadline=None)
    def test_hits_plus_misses_equals_accesses(self, addresses):
        cache = SetAssociativeCache(capacity_bytes=4 * 1024, block_size=128, associativity=4)
        for address in addresses:
            cache.access(address)
        assert cache.stats.accesses == len(addresses)

    @given(st.integers(min_value=0, max_value=1 << 30))
    @settings(max_examples=50, deadline=None)
    def test_set_index_within_range(self, address):
        cache = SetAssociativeCache(capacity_bytes=64 * 1024, block_size=128, associativity=16)
        assert 0 <= cache.set_index(address) < cache.num_sets
