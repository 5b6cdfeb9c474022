"""Tests for the GPU configuration and the interconnect."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.config import GPUConfig, RTX3080_CONFIG
from repro.interconnect.network import InterconnectConfig, InterconnectNetwork
from repro.memory.dram import DRAMConfig
from repro.memory.llc import LLCConfig


class TestGPUConfig:
    def test_rtx3080_table1_parameters(self):
        config = RTX3080_CONFIG
        assert config.num_sms == 68
        assert config.llc.capacity_bytes == 5 * 1024 * 1024
        assert config.llc.num_partitions == 10
        assert config.dram.capacity_bytes == 10 * 1024 ** 3
        assert config.l1_shared_bytes_per_sm == 128 * 1024
        assert config.register_file_bytes_per_sm == 256 * 1024

    def test_with_llc_scale(self):
        scaled = RTX3080_CONFIG.with_llc_scale(4)
        assert scaled.llc.capacity_bytes == pytest.approx(20 * 1024 * 1024, rel=0.01)

    def test_frequency_boost_scales_memory_system(self):
        boosted = RTX3080_CONFIG.with_frequency_boost(1.2)
        assert boosted.dram.bandwidth_gbps_per_channel == pytest.approx(76.0 * 1.2)
        assert boosted.llc.hit_latency_cycles < RTX3080_CONFIG.llc.hit_latency_cycles
        assert boosted.interconnect.bytes_per_cycle_per_port > RTX3080_CONFIG.interconnect.bytes_per_cycle_per_port

    def test_with_extra_l1(self):
        bigger = RTX3080_CONFIG.with_extra_l1(100 * 1024)
        assert bigger.l1_shared_bytes_per_sm == 228 * 1024

    def test_partition_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GPUConfig(llc=LLCConfig(num_partitions=5, capacity_bytes=5 * 1024 * 1024))

    def test_llc_block_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="LLC config has 64-byte blocks"):
            GPUConfig(llc=LLCConfig(block_size=64))

    def test_dram_block_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="DRAM config has 256-byte blocks"):
            GPUConfig(dram=DRAMConfig(block_size=256))


class _ReferenceLink:
    """One link as a straight-line model: FIFO serialization behind earlier transfers."""

    def __init__(self, bytes_per_cycle, base_latency_cycles):
        self.bytes_per_cycle = bytes_per_cycle
        self.base_latency_cycles = base_latency_cycles
        self.busy_until_cycle = 0.0
        self.bytes_transferred = 0

    def send(self, size_bytes, now_cycle):
        start = max(now_cycle, self.busy_until_cycle)
        serialization = size_bytes / self.bytes_per_cycle
        self.busy_until_cycle = start + serialization
        self.bytes_transferred += size_bytes
        return (start - now_cycle) + self.base_latency_cycles + serialization


def _reference_traverse(config, links, size_bytes, now_cycle, response_bytes, elapsed_cycles):
    """Two links plus the congestion formula: the round trip of one port."""
    request_link, response_link = links
    penalty = 1.0
    if elapsed_cycles > 0:
        capacity = config.bytes_per_cycle_per_port * elapsed_cycles
        utilization = min(1.0, request_link.bytes_transferred / capacity)
        if utilization > config.congestion_knee:
            over = (utilization - config.congestion_knee) / (1.0 - config.congestion_knee)
            penalty = 1.0 + over * config.max_congestion_penalty
    request_latency = request_link.send(size_bytes, now_cycle) * penalty
    response_latency = response_link.send(response_bytes, now_cycle + request_latency) * penalty
    return request_latency + response_latency


_FLOATS = dict(allow_nan=False, allow_infinity=False)

_NOC_CONFIGS = st.builds(
    InterconnectConfig,
    num_partitions=st.integers(min_value=1, max_value=4),
    one_way_latency_cycles=st.floats(min_value=0.0, max_value=100.0, **_FLOATS),
    bytes_per_cycle_per_port=st.floats(min_value=0.5, max_value=64.0, **_FLOATS),
    congestion_knee=st.floats(min_value=0.05, max_value=1.0, **_FLOATS),
    max_congestion_penalty=st.floats(min_value=0.0, max_value=2.0, **_FLOATS),
)

#: (partition, request bytes, now, response bytes, elapsed cycles) per hop.
#: Short elapsed times drive the request link above the congestion knee; an
#: elapsed time of zero turns the congestion model off.
_HOPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=1, max_value=256),
        st.floats(min_value=0.0, max_value=5_000.0, **_FLOATS),
        st.integers(min_value=1, max_value=256),
        st.one_of(
            st.just(0.0),
            st.floats(min_value=0.001, max_value=50.0, **_FLOATS),
            st.floats(min_value=0.001, max_value=50_000.0, **_FLOATS),
        ),
    ),
    min_size=1,
    max_size=60,
)


class TestInterconnect:
    def test_link_serialization_and_queueing(self):
        network = InterconnectNetwork(
            InterconnectConfig(
                num_partitions=1, one_way_latency_cycles=10, bytes_per_cycle_per_port=64
            )
        )
        first = network.traverse(0, 128, now_cycle=0.0)
        second = network.traverse(0, 128, now_cycle=0.0)
        assert second > first  # the second round trip queues behind the first

    @given(_NOC_CONFIGS, _HOPS)
    @settings(max_examples=200, deadline=None)
    def test_traverse_matches_two_link_reference(self, config, hops):
        network = InterconnectNetwork(config)
        reference = [
            tuple(
                _ReferenceLink(config.bytes_per_cycle_per_port, config.one_way_latency_cycles)
                for _ in range(2)
            )
            for _ in range(config.num_partitions)
        ]
        total_latency = 0.0
        for partition, size_bytes, now, response_bytes, elapsed in hops:
            partition %= config.num_partitions
            expected = _reference_traverse(
                config, reference[partition], size_bytes, now, response_bytes, elapsed
            )
            latency = network.traverse(partition, size_bytes, now, response_bytes, elapsed)
            assert latency == expected
            total_latency += expected
        stats = network.stats
        assert stats.traversals == len(hops)
        assert stats.flits_injected == 2 * len(hops)
        assert stats.total_latency_cycles == total_latency
        for links, expected_links in zip(network.ports, reference):
            for link, expected_link in zip(links, expected_links):
                assert link.busy_until_cycle == expected_link.busy_until_cycle
                assert link.bytes_transferred == expected_link.bytes_transferred
        assert network.total_load_bytes() == sum(hop[1] + hop[3] for hop in hops)

    def test_network_round_trip_latency(self):
        network = InterconnectNetwork()
        latency = network.traverse(0, 32, now_cycle=0.0)
        assert latency >= 2 * network.config.one_way_latency_cycles

    def test_network_stats(self):
        network = InterconnectNetwork()
        for i in range(10):
            network.traverse(i % network.config.num_partitions, 32, now_cycle=i * 2.0)
        assert network.stats.traversals == 10
        assert network.stats.average_latency_cycles > 0
        assert network.total_load_bytes() > 0

    def test_invalid_partition_rejected(self):
        network = InterconnectNetwork()
        with pytest.raises(ValueError):
            network.traverse(99, 32, 0.0)

    def test_congestion_penalty_kicks_in_at_high_load(self):
        config = InterconnectConfig(bytes_per_cycle_per_port=1.0, congestion_knee=0.1)
        network = InterconnectNetwork(config)
        # Saturate port 0 and compare against an unloaded traversal.
        unloaded = network.traverse(1, 32, 0.0, elapsed_cycles=1000.0)
        for _ in range(50):
            network.traverse(0, 32, 0.0, elapsed_cycles=10.0)
        loaded = network.traverse(0, 32, 0.0, elapsed_cycles=10.0)
        assert loaded > unloaded
