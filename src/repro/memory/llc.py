"""The banked conventional last level cache (LLC).

The RTX 3080 baseline has a 5 MiB LLC distributed over 10 partitions, each
colocated with a memory controller.  Each :class:`LLCPartition` owns one
set-associative slice plus a simple bandwidth model (~300 GB/s per
partition per the paper's §5 discussion).  The :class:`BankedLLC`
stitches partitions together using the block-interleaved
:class:`~repro.memory.address_mapping.AddressMapping`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.memory.address_mapping import AddressMapping
from repro.memory.cache import CacheStats, SetAssociativeCache
from repro.memory.request import MemoryRequest


@dataclass(frozen=True)
class LLCConfig:
    """Configuration for the conventional LLC."""

    capacity_bytes: int = 5 * 1024 * 1024
    num_partitions: int = 10
    block_size: int = 128
    associativity: int = 16
    hit_latency_cycles: float = 230.0       # ~160 ns at 1.44 GHz
    bandwidth_gbps_per_partition: float = 300.0
    core_clock_ghz: float = 1.44

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if self.num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        if self.capacity_bytes % self.num_partitions:
            raise ValueError("capacity_bytes must divide evenly across partitions")

    @property
    def partition_capacity_bytes(self) -> int:
        """Data capacity of one partition's slice."""
        return self.capacity_bytes // self.num_partitions

    @property
    def bytes_per_cycle_per_partition(self) -> float:
        """Partition bandwidth in bytes per core cycle."""
        return self.bandwidth_gbps_per_partition / self.core_clock_ghz

    def with_capacity(self, capacity_bytes: int) -> "LLCConfig":
        """Return a copy with a different total capacity (same banking)."""
        return replace(self, capacity_bytes=capacity_bytes)

    def scaled_capacity(self, factor: float) -> "LLCConfig":
        """Return a copy with capacity scaled by ``factor`` (e.g. the 4x-LLC baseline)."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        new_capacity = int(self.capacity_bytes * factor)
        # Keep the capacity a clean multiple of partition * ways * block.
        granule = self.num_partitions * self.associativity * self.block_size
        new_capacity = max(granule, (new_capacity // granule) * granule)
        return self.with_capacity(new_capacity)


class LLCPartition:
    """One LLC partition: a cache slice and a bandwidth account."""

    def __init__(self, partition_id: int, config: LLCConfig) -> None:
        self.partition_id = partition_id
        self.config = config
        capacity = config.partition_capacity_bytes
        granule = config.block_size * config.associativity
        capacity = max(granule, (capacity // granule) * granule)
        self.cache = SetAssociativeCache(
            capacity_bytes=capacity,
            block_size=config.block_size,
            associativity=config.associativity,
            name=f"llc-partition-{partition_id}",
        )
        self._bytes_per_cycle = config.bytes_per_cycle_per_partition
        self._hit_latency_cycles = config.hit_latency_cycles
        self._busy_until_cycle = 0.0
        self.bytes_served = 0

    def access(self, request: MemoryRequest, now_cycle: float) -> Tuple[bool, float, Optional[int]]:
        """Look up ``request`` in this partition's slice.

        Returns ``(hit, latency_cycles, writeback_address)`` where latency
        includes the partition queueing delay and ``writeback_address`` is a
        dirty victim needing writeback to DRAM (or ``None``).
        """
        busy = self._busy_until_cycle
        start = busy if busy > now_cycle else now_cycle  # max(), without the builtin call
        queue_delay = start - now_cycle

        hit, writeback = self.cache.access(request.address, request.is_write)

        size_bytes = request.size_bytes
        self._busy_until_cycle = start + size_bytes / self._bytes_per_cycle
        self.bytes_served += size_bytes

        return hit, queue_delay + self._hit_latency_cycles, writeback

    def throughput_gbps(self, elapsed_cycles: float) -> float:
        """Achieved throughput of this partition in GB/s over ``elapsed_cycles``."""
        if elapsed_cycles <= 0:
            return 0.0
        bytes_per_cycle = self.bytes_served / elapsed_cycles
        return bytes_per_cycle * self.config.core_clock_ghz

    def reset(self) -> None:
        """Clear contents and counters."""
        self.cache.flush()
        self.cache.reset_stats()
        self._busy_until_cycle = 0.0
        self.bytes_served = 0


class BankedLLC:
    """The full conventional LLC: all partitions plus the address mapping."""

    def __init__(self, config: LLCConfig | None = None) -> None:
        self.config = config or LLCConfig()
        self.mapping = AddressMapping(
            num_partitions=self.config.num_partitions, block_size=self.config.block_size
        )
        self.partitions: List[LLCPartition] = [
            LLCPartition(i, self.config) for i in range(self.config.num_partitions)
        ]

    def partition_for(self, address: int) -> LLCPartition:
        """Partition responsible for ``address``."""
        return self.partitions[self.mapping.partition_of(address)]

    def access(self, request: MemoryRequest, now_cycle: float = 0.0) -> Tuple[bool, float, Optional[int]]:
        """Route ``request`` to its partition and access the slice there."""
        return self.partition_for(request.address).access(request, now_cycle)

    def aggregate_stats(self) -> CacheStats:
        """Combined hit/miss statistics across all partitions."""
        stats = CacheStats()
        for partition in self.partitions:
            stats = stats.merge(partition.cache.stats)
        return stats

    def total_capacity_bytes(self) -> int:
        """Actual modelled capacity (sum of partition slices)."""
        return sum(p.cache.capacity_bytes for p in self.partitions)

    def throughput_gbps(self, elapsed_cycles: float) -> float:
        """Aggregate achieved LLC throughput in GB/s."""
        return sum(p.throughput_gbps(elapsed_cycles) for p in self.partitions)

    def reset(self) -> None:
        """Reset every partition."""
        for partition in self.partitions:
            partition.reset()
