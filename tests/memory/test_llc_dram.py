"""Tests for the banked LLC and the DRAM model."""

import pytest

from repro.memory.dram import DRAMConfig, DRAMModel
from repro.memory.llc import BankedLLC, LLCConfig, LLCPartition


class TestLLCConfig:
    def test_partition_capacity(self):
        config = LLCConfig()
        assert config.partition_capacity_bytes == 5 * 1024 * 1024 // 10

    def test_scaled_capacity_multiplies(self):
        config = LLCConfig().scaled_capacity(4.0)
        assert config.capacity_bytes == pytest.approx(4 * 5 * 1024 * 1024, rel=0.01)

    def test_scaled_capacity_rejects_non_positive(self):
        with pytest.raises(ValueError):
            LLCConfig().scaled_capacity(0)

    def test_capacity_must_divide_partitions(self):
        with pytest.raises(ValueError):
            LLCConfig(capacity_bytes=1001, num_partitions=10)


class TestLLCPartition:
    def test_miss_then_hit(self):
        partition = LLCPartition(0, LLCConfig())
        hit, latency, _ = partition.access(0, False, 0.0)
        assert not hit
        assert latency >= partition.config.hit_latency_cycles
        hit, _, _ = partition.access(0, False, 10.0)
        assert hit

    def test_dirty_eviction_reports_writeback(self):
        config = LLCConfig(capacity_bytes=10 * 2048, associativity=1, num_partitions=10)
        partition = LLCPartition(0, config)
        sets = partition.num_sets
        partition.access(0, True, 0.0)
        _, _, writeback = partition.access(sets * 128, False, 1.0)
        assert writeback == 0

    def test_throughput_accounting(self):
        # The partition moves one block per access at its bandwidth: a
        # second access in the same cycle queues behind the first's transfer.
        config = LLCConfig()
        partition = LLCPartition(0, config)
        _, first, _ = partition.access(0, False, 0.0)
        _, second, _ = partition.access(config.block_size * 10, False, 0.0)
        transfer = config.block_size / config.bytes_per_cycle_per_partition
        assert first == config.hit_latency_cycles
        assert second == first + transfer
        # Once the transfer has drained, nothing queues.
        _, later, _ = partition.access(0, False, 2 * transfer)
        assert later == config.hit_latency_cycles


class TestBankedLLC:
    def test_total_capacity_close_to_config(self):
        llc = BankedLLC()
        assert llc.total_capacity_bytes() == pytest.approx(5 * 1024 * 1024, rel=0.05)

    def test_requests_routed_by_address(self):
        llc = BankedLLC()
        assert llc.partition_for(128 * 3).partition_id == 3

    def test_aggregate_stats(self):
        llc = BankedLLC()
        hits = [
            llc.partition_for(i * 128).access(i * 128, False, float(i))[0] for i in range(20)
        ]
        assert hits == [False] * 20
        # Twenty consecutive blocks spread over the ten partitions.
        assert all(sum(map(len, partition.sets)) == 2 for partition in llc.partitions)


class TestDRAMConfig:
    def test_bytes_per_cycle(self):
        config = DRAMConfig()
        assert config.bytes_per_cycle_per_channel == pytest.approx(76.0 / 1.44)

    def test_total_bandwidth(self):
        config = DRAMConfig()
        assert config.total_bandwidth_gbps == pytest.approx(760.0)

    def test_scaled_raises_bandwidth_and_lowers_latency(self):
        boosted = DRAMConfig().scaled(1.2)
        base = DRAMConfig()
        assert boosted.bandwidth_gbps_per_channel > base.bandwidth_gbps_per_channel
        assert boosted.access_latency_cycles < base.access_latency_cycles

    def test_invalid_row_buffer_rate(self):
        with pytest.raises(ValueError):
            DRAMConfig(row_buffer_hit_rate=1.5)

    @pytest.mark.parametrize("block_size", [0, 96])
    def test_block_size_must_be_a_positive_power_of_two(self, block_size):
        # Every access moves one block of it, so it sizes each transfer.
        with pytest.raises(ValueError, match="block_size"):
            DRAMConfig(block_size=block_size)


class TestDRAMModel:
    def test_latency_includes_core_latency(self):
        dram = DRAMModel()
        latency = dram.access(0, now_cycle=0.0)
        assert latency >= dram.config.access_latency_cycles * dram.config.row_buffer_hit_latency_factor

    def test_queueing_under_load(self):
        config = DRAMConfig(num_channels=1, bandwidth_gbps_per_channel=1.44)  # 1 B/cycle
        dram = DRAMModel(config)
        # Saturate the single channel: issue many requests at the same cycle.
        latencies = [dram.access(0, now_cycle=0.0) for _ in range(10)]
        assert latencies[-1] > latencies[0]

    def test_channel_interleaving(self):
        # Consecutive blocks land on distinct channels, so ten of them issued
        # in one cycle never queue; the eleventh wraps onto channel 0 and
        # waits for the first block's transfer.
        config = DRAMConfig(row_buffer_hit_rate=0.0)
        dram = DRAMModel(config)
        transfer = config.block_size / config.bytes_per_cycle_per_channel
        unqueued = config.access_latency_cycles + transfer
        latencies = [dram.access(i * 128, now_cycle=0.0) for i in range(11)]
        assert latencies[:10] == [unqueued] * 10
        assert latencies[10] == transfer + unqueued

    def test_bandwidth_utilization_bounded(self):
        # A channel serves at most its bandwidth: back-to-back blocks on one
        # channel each wait for every earlier transfer, so the last block's
        # data arrives no sooner than all of them could cross the channel.
        config = DRAMConfig(row_buffer_hit_rate=0.0)
        dram = DRAMModel(config)
        transfer = config.block_size / config.bytes_per_cycle_per_channel
        stride = config.block_size * config.num_channels
        latencies = [dram.access(i * stride, now_cycle=0.0) for i in range(100)]
        for queued, latency in enumerate(latencies):
            assert latency == pytest.approx(
                config.access_latency_cycles + (queued + 1) * transfer
            )
        # Spaced one transfer apart, the same stream never queues.
        paced = DRAMModel(config)
        assert all(
            paced.access(i * stride, now_cycle=i * transfer)
            == config.access_latency_cycles + transfer
            for i in range(100)
        )
