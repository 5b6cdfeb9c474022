"""Tests for the extended LLC stores and the extended LLC kernel."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.address_separation import proportional_split
from repro.core.compression import CompressionLevel
from repro.core.config import MORPHEUS_ALL, MorpheusConfig
from repro.core.extended_llc import Compressibility, ExtendedLLC, ExtendedLLCKernel
from repro.core.l1_store import L1Store
from repro.core.register_file_store import RegisterFileStore
from repro.core.shared_memory_store import SharedMemoryStore
from repro.core.store_base import ExtendedLLCSet
from repro.sim.simulator import GPUSimulator
from repro.workloads.applications import get_application
from fidelity_utils import TINY_FIDELITY


class TestExtendedLLCSet:
    def test_fill_then_hit(self):
        llc_set = ExtendedLLCSet(base_ways=4)
        llc_set.fill(10)
        assert llc_set.metadata(10) is not None
        assert llc_set.metadata(11) is None

    def test_lru_eviction(self):
        llc_set = ExtendedLLCSet(base_ways=2)
        llc_set.fill(1)
        llc_set.fill(2)
        llc_set.touch(1, llc_set.metadata(1))
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

    def test_refill_at_a_larger_size_evicts_until_it_fits(self):
        llc_set = ExtendedLLCSet(base_ways=1, compression_enabled=True)
        for tag in range(1, 5):
            llc_set.fill(tag, compression=CompressionLevel.HIGH)
        llc_set.touch(3, llc_set.metadata(3), is_write=True)
        # Block 1 grows from 32 to 128 bytes: the least recently used other
        # blocks make room, and the dirty one is reported for writeback.
        evicted = llc_set.fill(1, compression=CompressionLevel.UNCOMPRESSED)
        assert evicted == [(2, False), (4, False), (3, True)]
        assert llc_set.tags() == [1]
        assert llc_set.occupancy_bytes() == llc_set.physical_bytes == 128

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
    A re-fill of a resident block evicts the smallest counter among the
    other blocks until the set fits again.
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
        evicted = []
        if tag in self.blocks:
            block = self.blocks[tag]
            block[0], block[1], block[2] = block[0] or dirty, self.clock, level
            while self.stored_bytes() > self.physical_bytes and len(self.blocks) > 1:
                others = [t for t in self.blocks if t != tag]
                victim = min(others, key=lambda t: self.blocks[t][1])
                evicted.append((victim, self.blocks.pop(victim)[0]))
            return evicted
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
                st.sampled_from(("access", "fill")),
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
                # The controller's hit path: read the metadata, touch on a hit.
                meta = llc_set.metadata(tag)
                if meta is not None:
                    llc_set.touch(tag, meta, flag)
                assert (meta is not None) == reference.access(tag, flag)
                expected = reference.blocks.get(tag)
                assert (meta and (meta.dirty, meta.compression)) == (
                    expected and (expected[0], expected[2])
                )
            else:
                assert llc_set.fill(tag, dirty=flag, compression=level) == reference.fill(
                    tag, flag, level
                )
            assert llc_set.occupancy_bytes() == reference.stored_bytes()
            assert llc_set.occupancy_bytes() <= llc_set.physical_bytes
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
            kind = proportional_split(capacities, address, config.block_size)
            assert kernel.fill(0, address).store_kind == kind
            assert kernel.stores[kind].sets[0].lookup(address // config.block_size)
            assert kernel.access(0, address).store_kind == kind

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

    def test_empty_extended_llc_disabled(self):
        extended = ExtendedLLC(cache_sm_ids=[], config=MorpheusConfig())
        assert not extended.enabled


class TestSetsBuiltOnFirstTouch:
    """A store's sets are built the first time ``locate`` reaches them."""

    @staticmethod
    def _built(extended):
        """Every built set as ``(sm_id, store kind, index) -> set``."""
        return {
            (sm_id, kind, index): llc_set
            for sm_id, kernel in extended.kernels.items()
            for kind, store in kernel.stores.items()
            for index, llc_set in enumerate(store.sets)
            if llc_set is not None
        }

    def test_a_fresh_kernel_has_built_no_set(self):
        config = MorpheusConfig(enable_compression=True, shared_memory_warps=4)
        extended = ExtendedLLC([3, 5, 7], config, compressibility=Compressibility(0.3, 0.3))
        for kernel in extended.kernels.values():
            assert len(kernel.stores) == 3
            for store in kernel.stores.values():
                assert store.sets == [None] * store.num_warps
        assert self._built(extended) == {}

    def test_every_set_built_by_a_replay_was_located_by_it(self, monkeypatch):
        located = []
        locate = ExtendedLLCKernel.locate

        def recording_locate(kernel, set_index, tag):
            route, llc_set = locate(kernel, set_index, tag)
            located.append(llc_set)
            return route, llc_set

        engines = []
        build_engine = GPUSimulator._build_engine

        def keeping_build_engine(simulator, profile):
            engines.append(build_engine(simulator, profile))
            return engines[-1]

        monkeypatch.setattr(ExtendedLLCKernel, "locate", recording_locate)
        monkeypatch.setattr(GPUSimulator, "_build_engine", keeping_build_engine)
        config = TINY_FIDELITY.config(
            morpheus=MORPHEUS_ALL, num_compute_sms=24, num_cache_sms=44, seed=3
        )
        GPUSimulator(config).replay(get_application("kmeans"))
        (engine,) = engines
        built = self._built(engine.extended_llc)
        assert built, "the replay built no extended-LLC set"
        located_ids = {id(llc_set) for llc_set in located}
        assert all(id(llc_set) in located_ids for llc_set in built.values())
        # Each located set is the one its store holds, built once.
        assert located_ids == {id(llc_set) for llc_set in built.values()}
        total = sum(
            store.num_warps
            for kernel in engine.extended_llc.kernels.values()
            for store in kernel.stores.values()
        )
        assert len(built) < total

    @pytest.mark.parametrize("compression", [False, True])
    def test_effective_capacity_is_the_per_kernel_sum(self, compression):
        config = MorpheusConfig(enable_compression=compression, shared_memory_warps=4)
        extended = ExtendedLLC(
            [2, 9, 4, 11], config, register_file_bytes=64 * 1024,
            l1_shared_bytes=32 * 1024, compressibility=Compressibility(0.4, 0.2),
        )
        expected = 0.0
        for kernel in extended.kernels.values():
            expected += kernel.effective_capacity_bytes()
        assert extended.effective_capacity_bytes() == expected
        assert ExtendedLLC([], config).effective_capacity_bytes() == 0
