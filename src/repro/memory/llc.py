"""The banked conventional last level cache (LLC).

The RTX 3080 baseline has a 5 MiB LLC distributed over 10 partitions, each
colocated with a memory controller.  Each :class:`LLCPartition` owns one
set-associative, write-allocate LRU slice plus a simple bandwidth model
(~300 GB/s per partition per the paper's §5 discussion).  The slice is a
*functional* model: it tracks tags, dirty bits and LRU order, and reports
hits, misses and dirty evictions.  The :class:`BankedLLC` stitches
partitions together using the block-interleaved
:class:`~repro.memory.address_mapping.AddressMapping`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.memory.address_mapping import AddressMapping
from repro.memory.request import MemoryRequest


@dataclass
class CacheStats:
    """Aggregate access statistics for one LLC partition's slice."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    fills: int = 0
    writes: int = 0

    @property
    def accesses(self) -> int:
        """Total number of lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit (0.0 when there were no accesses)."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    @property
    def miss_rate(self) -> float:
        """Fraction of lookups that missed (0.0 when there were no accesses)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Return a new :class:`CacheStats` summing self and ``other``."""
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
            dirty_evictions=self.dirty_evictions + other.dirty_evictions,
            fills=self.fills + other.fills,
            writes=self.writes + other.writes,
        )


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
        if self.block_size <= 0 or self.block_size & (self.block_size - 1):
            raise ValueError("block_size must be a positive power of two")
        if self.associativity <= 0:
            raise ValueError("associativity must be positive")

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
    """One LLC partition: a write-allocate LRU cache slice and a bandwidth account.

    The slice's capacity is the partition's share of the LLC rounded down to
    whole sets (at least one).  Each set is a dict from the tag of every
    resident block to its dirty bit, in recency order, least recently used
    first: a hit re-inserts its block, and a fill into a full set evicts the
    first block of the dict.
    """

    def __init__(self, partition_id: int, config: LLCConfig) -> None:
        self.partition_id = partition_id
        self.config = config
        block_size = config.block_size
        granule = block_size * config.associativity
        self.capacity_bytes = max(granule, (config.partition_capacity_bytes // granule) * granule)
        self.num_sets = self.capacity_bytes // granule
        #: Per set, the tag -> dirty bit of each resident block, least
        #: recently used first.
        self.sets: List[Dict[int, bool]] = [{} for _ in range(self.num_sets)]
        self.stats = CacheStats()
        self._block_size = block_size
        self._set_span_bytes = block_size * self.num_sets
        self._associativity = config.associativity
        self._bytes_per_cycle = config.bytes_per_cycle_per_partition
        self._hit_latency_cycles = config.hit_latency_cycles
        self._busy_until_cycle = 0.0
        self.bytes_served = 0

    def access(self, request: MemoryRequest, now_cycle: float) -> Tuple[bool, float, Optional[int]]:
        """Look up ``request`` in this partition's slice, filling it on a miss.

        A hit makes the block the most recently used (and dirty on a
        write); a miss installs it, dirty for a write, evicting the least
        recently used block of a full set.  Returns ``(hit, latency_cycles,
        writeback_address)`` where latency includes the partition queueing
        delay and ``writeback_address`` is the block address of a dirty
        victim needing writeback to DRAM (or ``None``).
        """
        busy = self._busy_until_cycle
        start = busy if busy > now_cycle else now_cycle  # max(), without the builtin call

        address = request.address
        is_write = request.is_write
        stats = self.stats
        if is_write:
            stats.writes += 1
        block_size = self._block_size
        num_sets = self.num_sets
        set_index = (address // block_size) % num_sets
        tag = address // self._set_span_bytes
        blocks = self.sets[set_index]
        writeback = None
        dirty = blocks.pop(tag, None)
        if dirty is not None:
            hit = True
            blocks[tag] = dirty or is_write
            stats.hits += 1
        else:
            hit = False
            stats.misses += 1
            stats.fills += 1
            if len(blocks) >= self._associativity:
                victim_tag = next(iter(blocks))
                stats.evictions += 1
                if blocks.pop(victim_tag):
                    stats.dirty_evictions += 1
                    writeback = (victim_tag * num_sets + set_index) * block_size
            blocks[tag] = is_write

        size_bytes = request.size_bytes
        self._busy_until_cycle = start + size_bytes / self._bytes_per_cycle
        self.bytes_served += size_bytes

        return hit, start - now_cycle + self._hit_latency_cycles, writeback

    def throughput_gbps(self, elapsed_cycles: float) -> float:
        """Achieved throughput of this partition in GB/s over ``elapsed_cycles``."""
        if elapsed_cycles <= 0:
            return 0.0
        bytes_per_cycle = self.bytes_served / elapsed_cycles
        return bytes_per_cycle * self.config.core_clock_ghz

    def reset(self) -> None:
        """Clear contents and counters."""
        for blocks in self.sets:
            blocks.clear()
        self.stats = CacheStats()
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
            stats = stats.merge(partition.stats)
        return stats

    def total_capacity_bytes(self) -> int:
        """Actual modelled capacity (sum of partition slices)."""
        return sum(p.capacity_bytes for p in self.partitions)

    def throughput_gbps(self, elapsed_cycles: float) -> float:
        """Aggregate achieved LLC throughput in GB/s."""
        return sum(p.throughput_gbps(elapsed_cycles) for p in self.partitions)

    def reset(self) -> None:
        """Reset every partition."""
        for partition in self.partitions:
            partition.reset()
