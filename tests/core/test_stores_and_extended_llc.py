"""Tests for the extended LLC stores and the extended LLC kernel."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.address_separation import proportional_split
from repro.core.compression import CompressionLevel
from repro.core.config import MorpheusConfig
from repro.core.extended_llc import Compressibility, ExtendedLLC, ExtendedLLCKernel
from repro.core.l1_store import L1Store
from repro.core.register_file_store import RegisterFileStore
from repro.core.shared_memory_store import SharedMemoryStore
from repro.core.store_base import ExtendedLLCSet


class TestExtendedLLCSet:
    def test_fill_then_hit(self):
        llc_set = ExtendedLLCSet(base_ways=4)
        llc_set.fill(10)
        assert llc_set.access(10)
        assert not llc_set.access(11)

    def test_lru_eviction(self):
        llc_set = ExtendedLLCSet(base_ways=2)
        llc_set.fill(1)
        llc_set.fill(2)
        llc_set.access(1)
        evicted = llc_set.fill(3)
        assert evicted and evicted[0][0] == 2

    def test_dirty_eviction_flagged(self):
        llc_set = ExtendedLLCSet(base_ways=1)
        llc_set.fill(1, dirty=True)
        evicted = llc_set.fill(2)
        assert evicted == [(1, True)]

    def test_compressed_blocks_increase_effective_ways(self):
        llc_set = ExtendedLLCSet(base_ways=2, compression_enabled=True)
        for tag in range(8):
            llc_set.fill(tag, compression=CompressionLevel.HIGH)
        # 2 ways x 128 B can hold 8 blocks of 32 B each.
        assert llc_set.occupancy() == 8

    def test_occupancy_bytes_never_exceeds_physical(self):
        llc_set = ExtendedLLCSet(base_ways=4, compression_enabled=True)
        for tag in range(100):
            level = CompressionLevel.HIGH if tag % 2 else CompressionLevel.UNCOMPRESSED
            llc_set.fill(tag, compression=level)
            assert llc_set.occupancy_bytes() <= llc_set.physical_bytes

    @given(st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=300))
    @settings(max_examples=25, deadline=None)
    def test_capacity_invariant_property(self, tags):
        llc_set = ExtendedLLCSet(base_ways=8, compression_enabled=True)
        levels = list(CompressionLevel)
        for tag in tags:
            llc_set.fill(tag, dirty=tag % 3 == 0, compression=levels[tag % 3])
        assert llc_set.occupancy_bytes() <= llc_set.physical_bytes


class _ReferenceExtendedSet:
    """The straightforward model of an extended LLC set, kept as the reference.

    Every touch stamps the block with a fresh LRU counter; a fill re-sums
    the stored bytes and evicts the smallest counter until the block fits.
    """

    def __init__(self, base_ways, compression_enabled, block_size=128):
        self.physical_bytes = base_ways * block_size
        self.compression_enabled = compression_enabled
        self.block_size = block_size
        self.blocks = {}  # tag -> [dirty, lru_counter, level]
        self.clock = 0

    def _bytes(self, level):
        return level.compressed_size if self.compression_enabled else self.block_size

    def stored_bytes(self):
        return sum(self._bytes(level) for _, _, level in self.blocks.values())

    def access(self, tag, is_write):
        block = self.blocks.get(tag)
        if block is None:
            return False
        self.clock += 1
        block[1] = self.clock
        block[0] = block[0] or is_write
        return True

    def fill(self, tag, dirty, level):
        self.clock += 1
        if tag in self.blocks:
            block = self.blocks[tag]
            block[0], block[1], block[2] = block[0] or dirty, self.clock, level
            return []
        evicted = []
        while self.stored_bytes() + self._bytes(level) > self.physical_bytes and self.blocks:
            victim = min(self.blocks, key=lambda t: self.blocks[t][1])
            evicted.append((victim, self.blocks.pop(victim)[0]))
        self.blocks[tag] = [dirty, self.clock, level]
        return evicted


class TestExtendedLLCSetMatchesReference:
    @given(
        st.integers(min_value=1, max_value=6),
        st.booleans(),
        st.lists(
            st.tuples(
                st.sampled_from(("access", "fill", "invalidate")),
                st.integers(min_value=0, max_value=15),
                st.booleans(),
                st.sampled_from(list(CompressionLevel)),
            ),
            min_size=1,
            max_size=200,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_evictions_and_occupancy(self, base_ways, compression, operations):
        llc_set = ExtendedLLCSet(base_ways, compression_enabled=compression)
        reference = _ReferenceExtendedSet(base_ways, compression)
        for operation, tag, flag, level in operations:
            if operation == "access":
                assert llc_set.access(tag, is_write=flag) == reference.access(tag, flag)
            elif operation == "fill":
                assert llc_set.fill(tag, dirty=flag, compression=level) == reference.fill(
                    tag, flag, level
                )
            else:
                meta = llc_set.invalidate(tag)
                expected = reference.blocks.pop(tag, None)
                assert (meta and (meta.dirty, meta.compression)) == (
                    expected and (expected[0], expected[2])
                )
            assert llc_set.occupancy_bytes() == reference.stored_bytes()
            assert llc_set.occupancy() == len(reference.blocks)
            assert llc_set.lookup(tag) == (tag in reference.blocks)


class TestRegisterFileStore:
    def test_single_warp_limited_by_registers_per_thread(self):
        capacity = RegisterFileStore.capacity_bytes_for_warps(1)
        assert capacity < 40 * 1024  # far below the 256 KiB register file

    def test_eight_warps_near_full_register_file(self):
        capacity = RegisterFileStore.capacity_bytes_for_warps(8)
        assert 200 * 1024 <= capacity <= 256 * 1024

    def test_48_warps_matches_paper_layout(self):
        # 48 sets x 32 blocks x 128 B = 192 KiB (Figure 8).
        assert RegisterFileStore.capacity_bytes_for_warps(48) == 192 * 1024

    def test_capacity_peaks_at_eight_warps(self):
        capacities = {w: RegisterFileStore.capacity_bytes_for_warps(w) for w in (1, 8, 16, 32, 48)}
        assert max(capacities, key=capacities.get) == 8

    def test_store_access_and_fill(self):
        store = RegisterFileStore(num_warps=4)
        assert not store.access(0, tag=7)
        store.fill(0, tag=7)
        assert store.access(0, tag=7)
        assert store.stats.hits == 1

    def test_invalid_set_rejected(self):
        store = RegisterFileStore(num_warps=2)
        with pytest.raises(ValueError):
            store.access(5, tag=0)


class TestL1AndSharedStores:
    def test_l1_capacity_flat_with_warps(self):
        assert L1Store.capacity_bytes_for_warps(8) == pytest.approx(
            L1Store.capacity_bytes_for_warps(48), rel=0.05
        )

    def test_shared_capacity_flat_with_warps(self):
        assert SharedMemoryStore.capacity_bytes_for_warps(8) == pytest.approx(
            SharedMemoryStore.capacity_bytes_for_warps(48), rel=0.05
        )

    def test_l1_never_compresses(self):
        store = L1Store(num_warps=4, compression_enabled=True)
        assert not store.compression_enabled

    def test_shared_memory_tags_live_in_register_file(self):
        assert SharedMemoryStore(num_warps=4).tag_storage_location() == "register_file"

    def test_l1_bypasses_conventional_llc(self):
        assert L1Store(num_warps=4).fills_bypass_conventional_llc()


class TestExtendedLLCKernel:
    def test_capacity_combines_stores(self):
        kernel = ExtendedLLCKernel(sm_id=0, config=MorpheusConfig())
        total = kernel.physical_capacity_bytes()
        assert total > 256 * 1024  # register file portion plus L1 portion

    def test_compression_raises_effective_capacity(self):
        config = MorpheusConfig(enable_compression=True)
        kernel = ExtendedLLCKernel(
            sm_id=0, config=config, compressibility=Compressibility(0.5, 0.3)
        )
        assert kernel.effective_capacity_bytes() > kernel.physical_capacity_bytes()

    def test_miss_then_fill_then_hit(self):
        kernel = ExtendedLLCKernel(sm_id=0, config=MorpheusConfig())
        result = kernel.access(0, address=4096)
        assert not result.hit
        kernel.fill(0, address=4096)
        assert kernel.access(0, address=4096).hit

    def test_dirty_victims_reported_as_writebacks(self):
        config = MorpheusConfig(rf_warps=1, l1_warps=0)
        kernel = ExtendedLLCKernel(
            sm_id=0, config=config, register_file_bytes=8 * 1024, l1_shared_bytes=4 * 1024
        )
        ways = kernel.register_file_store.ways_per_set
        writebacks = []
        for i in range(ways + 4):
            result = kernel.fill(0, address=i * 128, dirty=True)
            writebacks.extend(result.writebacks)
        assert writebacks

    def test_indirect_mov_isa_reduces_latency(self):
        base = ExtendedLLCKernel(sm_id=0, config=MorpheusConfig())
        fast = ExtendedLLCKernel(sm_id=0, config=MorpheusConfig(enable_indirect_mov_isa=True))
        base.fill(0, address=0)
        fast.fill(0, address=0)
        assert fast.access(0, address=0).service_latency_ns < base.access(0, address=0).service_latency_ns

    def test_needs_at_least_one_store(self):
        with pytest.raises(ValueError):
            MorpheusConfig(rf_warps=0, l1_warps=0, shared_memory_warps=0)


_WARP_SPLITS = st.tuples(
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=12),
).filter(lambda warps: sum(warps) > 0)


def _small_config(warps):
    rf_warps, l1_warps, shared_memory_warps = warps
    return MorpheusConfig(
        rf_warps=rf_warps, l1_warps=l1_warps, shared_memory_warps=shared_memory_warps
    )


class TestSetOwnershipAndRoutingMatchReference:
    @given(
        _WARP_SPLITS,
        st.lists(st.integers(min_value=0, max_value=80), min_size=1, max_size=6, unique=True),
        st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=40),
    )
    @settings(max_examples=50, deadline=None)
    def test_owner_of_set_matches_linear_walk(self, warps, cache_sm_ids, global_sets):
        extended = ExtendedLLC(
            cache_sm_ids, _small_config(warps), register_file_bytes=16 * 1024,
            l1_shared_bytes=8 * 1024,
        )
        ordered = [extended.kernels[sm_id] for sm_id in cache_sm_ids]
        assert extended.total_sets == sum(kernel.num_sets for kernel in ordered)
        for global_set in global_sets:
            index = global_set % extended.total_sets
            for kernel in ordered:
                if index < kernel.num_sets:
                    break
                index -= kernel.num_sets
            assert extended.owner_of_set(global_set) == (kernel.sm_id, kernel, index)

    @given(
        _WARP_SPLITS,
        st.integers(min_value=1, max_value=64).map(lambda kib: kib * 1024),
        st.integers(min_value=1, max_value=32).map(lambda kib: kib * 1024),
        st.lists(st.integers(min_value=0, max_value=1 << 32), min_size=1, max_size=40),
    )
    @settings(max_examples=50, deadline=None)
    def test_store_routing_matches_proportional_split(
        self, warps, register_file_bytes, l1_shared_bytes, addresses
    ):
        config = _small_config(warps)
        kernel = ExtendedLLCKernel(
            0, config, register_file_bytes=register_file_bytes, l1_shared_bytes=l1_shared_bytes
        )
        capacities = [(name, store.data_capacity_bytes()) for name, store in kernel.stores.items()]
        for address in addresses:
            route = kernel._store_for(address)
            assert route.kind == proportional_split(capacities, address, config.block_size)
            assert route.store is kernel.stores[route.kind]

    def test_duplicate_cache_sms_rejected(self):
        with pytest.raises(ValueError):
            ExtendedLLC(cache_sm_ids=[1, 2, 1], config=MorpheusConfig())


class TestExtendedLLC:
    def test_aggregate_capacity_scales_with_cache_sms(self):
        config = MorpheusConfig()
        small = ExtendedLLC(cache_sm_ids=[0, 1], config=config)
        large = ExtendedLLC(cache_sm_ids=list(range(8)), config=config)
        assert large.physical_capacity_bytes() == 4 * small.physical_capacity_bytes()

    def test_set_ownership_round_trips(self):
        extended = ExtendedLLC(cache_sm_ids=[3, 7, 9], config=MorpheusConfig())
        for global_set in range(0, extended.total_sets, 17):
            sm_id, kernel, local = extended.owner_of_set(global_set)
            assert sm_id in (3, 7, 9)
            assert 0 <= local < kernel.num_sets

    def test_fill_then_resident(self):
        extended = ExtendedLLC(cache_sm_ids=[0], config=MorpheusConfig())
        assert not extended.resident(5, 1024)
        extended.fill(5, 1024)
        assert extended.resident(5, 1024)

    def test_access_hits_after_fill(self):
        extended = ExtendedLLC(cache_sm_ids=[0, 1], config=MorpheusConfig())
        extended.fill(10, 2048)
        assert extended.access(10, 2048).hit

    def test_bandwidth_scales_with_cache_sms(self):
        config = MorpheusConfig()
        assert ExtendedLLC([0, 1], config).aggregate_bandwidth_gbps() == pytest.approx(
            2 * config.timing.per_sm_extended_bandwidth_gbps
        )

    def test_empty_extended_llc_disabled(self):
        extended = ExtendedLLC(cache_sm_ids=[], config=MorpheusConfig())
        assert not extended.enabled

    def test_reset_clears_contents(self):
        extended = ExtendedLLC(cache_sm_ids=[0], config=MorpheusConfig())
        extended.fill(0, 512)
        extended.reset()
        assert not extended.resident(0, 512)
