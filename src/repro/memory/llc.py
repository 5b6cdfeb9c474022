"""The banked conventional last level cache (LLC).

The RTX 3080 baseline has a 5 MiB LLC distributed over 10 partitions, each
colocated with a memory controller.  Each :class:`LLCPartition` owns one
set-associative, write-allocate LRU slice plus a simple bandwidth model
(~300 GB/s per partition per the paper's §5 discussion).  The slice is a
*functional* model: it tracks tags, dirty bits and LRU order, and reports
hits, misses and dirty evictions.  The :class:`BankedLLC` holds one
partition per bank; the replay engine
(:class:`~repro.sim.engine.MemoryHierarchyEngine`) interleaves blocks across
them, sending block ``b`` to partition ``b % num_partitions``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple


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
        self._block_size = block_size
        self._set_span_bytes = block_size * self.num_sets
        self._associativity = config.associativity
        self._transfer_cycles = block_size / config.bytes_per_cycle_per_partition
        self._hit_latency_cycles = config.hit_latency_cycles
        self._busy_until_cycle = 0.0

    def access(
        self, address: int, is_write: bool, now_cycle: float
    ) -> Tuple[bool, float, Optional[int]]:
        """Look up the block at byte ``address`` in the slice, filling it on a miss.

        A hit makes the block the most recently used (and dirty on a
        write); a miss installs it, dirty for a write, evicting the least
        recently used block of a full set.  The access moves one block.
        Returns ``(hit, latency_cycles, writeback_address)`` where latency
        includes the partition queueing delay and ``writeback_address`` is
        the block address of a dirty victim needing writeback to DRAM (or
        ``None``).
        """
        busy = self._busy_until_cycle
        start = busy if busy > now_cycle else now_cycle  # max(), without the builtin call
        self._busy_until_cycle = start + self._transfer_cycles
        latency = start - now_cycle + self._hit_latency_cycles

        set_index = (address // self._block_size) % self.num_sets
        tag = address // self._set_span_bytes
        blocks = self.sets[set_index]
        dirty = blocks.pop(tag, None)
        if dirty is not None:
            blocks[tag] = dirty or is_write
            return True, latency, None
        writeback = None
        if len(blocks) >= self._associativity:
            victim_tag = next(iter(blocks))
            if blocks.pop(victim_tag):
                writeback = (victim_tag * self.num_sets + set_index) * self._block_size
        blocks[tag] = is_write
        return False, latency, writeback


class BankedLLC:
    """The full conventional LLC: one :class:`LLCPartition` per bank."""

    def __init__(self, config: LLCConfig | None = None) -> None:
        self.config = config or LLCConfig()
        self.partitions: List[LLCPartition] = [
            LLCPartition(i, self.config) for i in range(self.config.num_partitions)
        ]
