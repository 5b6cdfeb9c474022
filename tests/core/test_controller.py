"""Tests for the Morpheus controller."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.address_separation import AddressSeparator
from repro.core.config import MorpheusConfig
from repro.core.controller import ControllerStats, MorpheusController, PredictorMode
from repro.core.extended_llc import Compressibility, ExtendedLLC
from repro.core.hit_miss_predictor import HitMissPredictor
from repro.interconnect.network import InterconnectNetwork
from repro.memory.dram import DRAMModel
from repro.memory.llc import LLCConfig, LLCPartition
from repro.memory.request import AccessType, MemoryRequest


def make_controller(predictor: str = "bloom", cache_sms: int = 8, **config_kwargs):
    config = MorpheusConfig(predictor=predictor, **config_kwargs)
    extended = ExtendedLLC(
        cache_sm_ids=list(range(cache_sms)),
        config=config,
        compressibility=Compressibility(0.3, 0.3),
    )
    partition = LLCPartition(0, LLCConfig())
    return MorpheusController(partition, extended, config)


class TestControllerRouting:
    def test_requests_split_between_llcs(self):
        controller = make_controller()
        rng = random.Random(5)
        for i in range(500):
            address = rng.randrange(0, 1 << 22) // 128 * 128
            controller.access(MemoryRequest(address=address), now_cycle=i * 4.0)
        assert controller.stats.conventional_requests > 0
        assert controller.stats.extended_requests > 0
        assert (
            controller.stats.conventional_requests + controller.stats.extended_requests
            == controller.stats.requests
        )

    def test_without_extended_llc_everything_is_conventional(self):
        partition = LLCPartition(0, LLCConfig())
        controller = MorpheusController(partition, None, MorpheusConfig())
        for i in range(100):
            controller.access(MemoryRequest(address=i * 128), now_cycle=float(i))
        assert controller.stats.extended_requests == 0
        assert controller.stats.conventional_requests == 100

    def test_repeated_extended_access_becomes_hit(self):
        controller = make_controller()
        # Find an address routed to the extended LLC.
        address = next(
            a for a in range(0, 1 << 22, 128) if controller.separator.is_extended(a)
        )
        first_level, *_ = controller.access(MemoryRequest(address=address), 0.0)
        second_level, *_ = controller.access(MemoryRequest(address=address), 100.0)
        assert first_level == "dram"
        assert second_level == "extended_llc"

    def test_conventional_hit_latency_below_miss_latency(self):
        controller = make_controller()
        address = next(
            a for a in range(0, 1 << 22, 128) if not controller.separator.is_extended(a)
        )
        _, miss_latency, *_ = controller.access(MemoryRequest(address=address), 0.0)
        hit_level, hit_latency, *_ = controller.access(MemoryRequest(address=address), 100.0)
        assert hit_level == "llc"
        assert hit_latency < miss_latency


class TestPredictorModes:
    def _run(self, controller, accesses=800, footprint_blocks=2048):
        rng = random.Random(17)
        for i in range(accesses):
            address = rng.randrange(footprint_blocks) * 128
            controller.access(MemoryRequest(address=address), now_cycle=i * 4.0)

    def test_bloom_predictor_never_false_negative(self):
        controller = make_controller("bloom")
        self._run(controller)
        assert controller.predictor.stats.false_negatives == 0

    def test_predicted_misses_skip_extended_roundtrip(self):
        controller = make_controller("bloom")
        self._run(controller)
        assert controller.stats.predicted_misses > 0

    def test_no_prediction_forwards_everything(self):
        controller = make_controller("none")
        self._run(controller)
        assert controller.stats.predicted_misses == 0
        assert controller.predictor_mode is PredictorMode.NONE

    def test_perfect_prediction_has_no_false_positive_trips(self):
        controller = make_controller("perfect")
        self._run(controller)
        assert controller.stats.false_positive_trips == 0

    def test_bloom_latency_not_worse_than_no_prediction(self):
        """Bloom prediction avoids wasted round trips, so average latency is lower."""
        def average_latency(predictor):
            controller = make_controller(predictor)
            rng = random.Random(23)
            total = 0.0
            count = 900
            for i in range(count):
                address = rng.randrange(4096) * 128
                _, latency, *_ = controller.access(MemoryRequest(address=address), now_cycle=i * 4.0)
                total += latency
            return total / count

        assert average_latency("bloom") <= average_latency("none") * 1.02


class TestWritesAndOverheads:
    def test_write_requests_mark_dirty_and_cause_writebacks_eventually(self):
        controller = make_controller(cache_sms=1)
        rng = random.Random(3)
        writebacks = 0
        for i in range(2500):
            address = rng.randrange(16384) * 128
            *_, outcome_writebacks = controller.access(
                MemoryRequest(address=address, access_type=AccessType.STORE), now_cycle=i * 4.0
            )
            writebacks += len(outcome_writebacks)
        assert writebacks > 0

    def test_storage_overhead_is_21_kib(self):
        controller = make_controller()
        assert controller.storage_overhead_bytes() == 21 * 1024

    def test_extended_sets_per_partition_capped_at_256(self):
        controller = make_controller(cache_sms=60)
        assert controller.extended_sets_per_partition() <= 256

    def test_reset_clears_stats(self):
        controller = make_controller()
        controller.access(MemoryRequest(address=0), 0.0)
        controller.reset()
        assert controller.stats.requests == 0


#: The core clock of a :class:`MorpheusController` built without one (GHz).
_CLOCK_GHZ = 1.44


class _ReferenceController:
    """The controller's lookup procedure as separate calls on public APIs.

    Per extended access, the residency check, the prediction and its
    scoring, the extended-LLC access, the fill and the filter update are
    each one call of :class:`ExtendedLLC` or :class:`HitMissPredictor`, on
    the global set index (so :meth:`ExtendedLLC.owner_of_set` wraps it).
    """

    def __init__(self, partition, extended, dram_access, noc_round_trip, config):
        self.partition = partition
        self.extended = extended
        self.config = config
        self.mode = config.predictor
        self.dram_access = dram_access
        self.noc_round_trip = noc_round_trip
        num_partitions = partition.config.num_partitions
        num_sets = min(
            config.max_extended_sets_per_partition,
            max(1, extended.total_sets // num_partitions),
        )
        self.separator = AddressSeparator(
            partition.capacity_bytes,
            int(extended.effective_capacity_bytes()) // num_partitions,
            config.block_size,
            num_sets,
        )
        self.predictor = HitMissPredictor(
            num_sets, config.extended_llc_associativity, config.bloom_filter_bytes
        )
        self.base = partition.partition_id * num_sets
        self.stats = ControllerStats()

    def access(self, request, now):
        stats = self.stats
        stats.requests += 1
        decision = self.separator.route(request.address)
        if decision.target == "conventional":
            return self._access_conventional(request, now)
        return self._access_extended(request, now, decision.extended_set)

    def _access_conventional(self, request, now):
        stats = self.stats
        stats.conventional_requests += 1
        hit, latency, writeback = self.partition.access(request, now)
        writebacks = () if writeback is None else (writeback,)
        stats.writebacks += len(writebacks)
        if hit:
            stats.conventional_hits += 1
            return "llc", latency, False, False, writebacks
        stats.dram_accesses += 1
        latency += self.dram_access(request, now + latency)
        return "dram", latency, False, False, writebacks

    def _access_extended(self, request, now, set_index):
        stats = self.stats
        stats.extended_requests += 1
        address = request.address
        tag = address // self.config.block_size
        global_set = self.base + set_index
        resident = self.extended.resident(global_set, address)
        if self.mode == "bloom":
            predicted_hit = self.predictor.predict(set_index, tag)
            self.predictor.record_outcome(predicted_hit, resident)
        else:
            predicted_hit = resident if self.mode == "perfect" else True

        if not predicted_hit:
            stats.predicted_misses += 1
            stats.extended_misses += 1
            stats.dram_accesses += 1
            dram_latency = self.dram_access(request, now)
            fill = self.extended.fill(global_set, address, request.is_write)
            self.predictor.record_access(set_index, tag)
            stats.writebacks += len(fill.writebacks)
            latency = self.partition.config.hit_latency_cycles * 0.25 + dram_latency
            return "dram", latency, True, False, fill.writebacks

        noc_latency = self.noc_round_trip(request.size_bytes, now)
        result = self.extended.access(global_set, address, request.is_write)
        service_latency = result.service_latency_ns * _CLOCK_GHZ
        if result.hit:
            stats.extended_hits += 1
            self.predictor.record_access(set_index, tag)
            return "extended_llc", noc_latency + service_latency, False, False, ()

        stats.extended_misses += 1
        if self.mode != "perfect":
            stats.false_positive_trips += 1
        stats.dram_accesses += 1
        dram_latency = self.dram_access(request, now + noc_latency + service_latency)
        fill = self.extended.fill(global_set, address, request.is_write)
        self.predictor.record_access(set_index, tag)
        stats.writebacks += len(fill.writebacks)
        return "dram", noc_latency + service_latency + dram_latency, False, True, fill.writebacks


#: A conventional slice of 4 sets x 16 ways per partition, so misses and
#: dirty evictions happen within a few hundred requests.
_SMALL_LLC = LLCConfig(capacity_bytes=10 * 4 * 16 * 128)


def _hierarchy(config, wrapping, partition_id):
    """A fresh (partition, extended LLC, DRAM callback, NoC callback)."""
    extended = ExtendedLLC(
        [0] if wrapping else [0, 1],
        config,
        register_file_bytes=16 * 1024,
        l1_shared_bytes=8 * 1024,
        compressibility=Compressibility(0.3, 0.3),
    )
    network = InterconnectNetwork()

    def round_trip(size_bytes, at_cycle):
        return network.traverse(partition_id, size_bytes, at_cycle, 128, at_cycle + 1.0)

    return LLCPartition(partition_id, _SMALL_LLC), extended, DRAMModel().access, round_trip


def _contents(extended):
    """Every extended-LLC block as (SM, store, set, tag, dirty, compression)."""
    return [
        (sm_id, kind, index, tag, meta.dirty, meta.compression)
        for sm_id, kernel in extended.kernels.items()
        for kind, store in kernel.stores.items()
        for index, llc_set in enumerate(store.sets)
        for tag in llc_set.tags()
        for meta in [llc_set.metadata(tag)]
    ]


#: (block, access type, cycles since the previous request) per request.
#: Blocks are the first 8 of each 64-block unit of the address separator's
#: 16-unit period, so both LLCs see traffic, blocks are reused and evicted.
_REQUEST_STREAMS = st.lists(
    st.tuples(
        st.builds(
            lambda unit, offset: unit * 64 + offset,
            st.integers(min_value=0, max_value=15),
            st.integers(min_value=0, max_value=7),
        ),
        st.sampled_from(list(AccessType)),
        st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
    ),
    min_size=60,
    max_size=300,
)


class TestSinglePassMatchesReference:
    @given(
        st.sampled_from(("bloom", "none", "perfect")),
        st.booleans(),
        st.booleans(),
        st.booleans(),
        st.integers(min_value=0, max_value=9),
        st.sampled_from((4, 32)),
        _REQUEST_STREAMS,
    )
    @settings(max_examples=60, deadline=None)
    def test_outcomes_and_stats_match(
        self, predictor, compression, indirect_mov, wrapping, partition_id, associativity,
        requests,
    ):
        # With one cache-mode SM of 3 warps the extended LLC has 3 sets, fewer
        # than the 10 partitions, so the partitions' set slices wrap around.
        # A predictor associativity of 4 swaps filters often, and below the
        # sets' real ways it even predicts misses on resident blocks.
        warps = dict(rf_warps=2, l1_warps=1) if wrapping else {}
        config = MorpheusConfig(
            predictor=predictor,
            enable_compression=compression,
            enable_indirect_mov_isa=indirect_mov,
            extended_llc_associativity=associativity,
            **warps,
        )
        partition, extended, dram_access, round_trip = _hierarchy(config, wrapping, partition_id)
        controller = MorpheusController(
            partition, extended, config, dram_access=dram_access, noc_round_trip=round_trip
        )
        reference = _ReferenceController(*_hierarchy(config, wrapping, partition_id), config)
        assert controller.separator.num_extended_sets == reference.separator.num_extended_sets

        now = 0.0
        for block, access_type, gap in requests:
            now += gap
            request = MemoryRequest(address=block * 128, access_type=access_type)
            assert controller.access(request, now) == reference.access(request, now)
        assert controller.stats == reference.stats
        assert controller.predictor.stats == reference.predictor.stats
        assert _contents(controller.extended_llc) == _contents(reference.extended)
