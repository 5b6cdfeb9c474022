"""Base-Delta-Immediate (BDI) cache compression for the extended LLC (§4.3.1).

The extended LLC kernel mediates every register-file/shared-memory insertion,
so it can transparently store *compressed* blocks and fit more of them into
each extended LLC set.  The paper defines three compression levels for a
128-byte block:

* **high** — compressible 4x, stored in 32 bytes,
* **low** — compressible 2x, stored in 64 bytes,
* **uncompressed** — stored as-is in 128 bytes.

Blocks are compressed with BDI: the block is split into fixed segments, one
segment becomes the base, and only the deltas of the other segments are
stored.  Because the achievable level is data dependent and unknown ahead of
time, the kernel re-balances the registers assigned to each level every
``epoch`` cycles from observed level counts
(:class:`CompressionLevelAllocator`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple


class CompressionLevel(enum.Enum):
    """Compression level of one extended LLC block."""

    HIGH = "high"            # 4x -> 32 bytes
    LOW = "low"              # 2x -> 64 bytes
    UNCOMPRESSED = "uncompressed"

    @property
    def compressed_size(self) -> int:
        """Stored size in bytes of a 128-byte block at this level."""
        return _COMPRESSED_SIZE[self]

    @property
    def ratio(self) -> float:
        """Compression ratio (original / stored)."""
        return 128 / self.compressed_size


_COMPRESSED_SIZE = {
    CompressionLevel.HIGH: 32,
    CompressionLevel.LOW: 64,
    CompressionLevel.UNCOMPRESSED: 128,
}


@dataclass(frozen=True)
class CompressionResult:
    """Outcome of compressing one block."""

    level: CompressionLevel
    stored_bytes: int
    base: int = 0
    delta_bits: int = 0


class BDICompressor:
    """Base-Delta-Immediate compression over 4-byte segments of a 128-byte block.

    The functional model works on a block expressed as a list of 32 unsigned
    32-bit segment values.  The first segment is the base; the block is
    classified by the number of bits needed to represent the largest absolute
    delta from the base:

    * deltas fit in 1 byte  -> HIGH (4x),
    * deltas fit in 2 bytes -> LOW (2x),
    * otherwise             -> UNCOMPRESSED.
    """

    SEGMENT_BYTES = 4
    BLOCK_BYTES = 128
    SEGMENTS_PER_BLOCK = BLOCK_BYTES // SEGMENT_BYTES

    def classify(self, segments: Sequence[int]) -> CompressionResult:
        """Classify a block given as 32 segment values."""
        if len(segments) != self.SEGMENTS_PER_BLOCK:
            raise ValueError(
                f"a block has {self.SEGMENTS_PER_BLOCK} segments, got {len(segments)}"
            )
        for value in segments:
            if not 0 <= value < 2 ** 32:
                raise ValueError("segment values must be unsigned 32-bit integers")
        base = segments[0]
        max_delta = max(abs(value - base) for value in segments)
        if max_delta < 2 ** 7:
            level = CompressionLevel.HIGH
            delta_bits = 8
        elif max_delta < 2 ** 15:
            level = CompressionLevel.LOW
            delta_bits = 16
        else:
            level = CompressionLevel.UNCOMPRESSED
            delta_bits = 32
        return CompressionResult(
            level=level, stored_bytes=level.compressed_size, base=base, delta_bits=delta_bits
        )

    def compress(self, segments: Sequence[int]) -> Tuple[CompressionResult, List[int]]:
        """Compress a block, returning the classification and the stored deltas."""
        result = self.classify(segments)
        if result.level == CompressionLevel.UNCOMPRESSED:
            return result, list(segments)
        deltas = [value - result.base for value in segments]
        return result, deltas

    def decompress(self, result: CompressionResult, payload: Sequence[int]) -> List[int]:
        """Reconstruct the original 32 segments from a compressed payload."""
        if result.level == CompressionLevel.UNCOMPRESSED:
            return list(payload)
        return [result.base + delta for delta in payload]


@dataclass
class LevelCounts:
    """Observed number of blocks at each compression level during an epoch."""

    high: int = 0
    low: int = 0
    uncompressed: int = 0

    @property
    def total(self) -> int:
        """Total classified blocks."""
        return self.high + self.low + self.uncompressed

    def record(self, level: CompressionLevel) -> None:
        """Count one block at ``level``."""
        if level == CompressionLevel.HIGH:
            self.high += 1
        elif level == CompressionLevel.LOW:
            self.low += 1
        else:
            self.uncompressed += 1


class CompressionLevelAllocator:
    """Adapts the registers assigned to each compression level every epoch.

    The extended LLC kernel starts with every data register assigned to the
    uncompressed level; at the end of each epoch (10,000 cycles in the paper)
    it re-partitions registers proportionally to the number of blocks observed
    at each level, which determines the *effective capacity gain* of the
    compressed extended LLC.
    """

    def __init__(self, total_registers: int = 32, epoch_cycles: int = 10_000) -> None:
        if total_registers <= 0:
            raise ValueError("total_registers must be positive")
        if epoch_cycles <= 0:
            raise ValueError("epoch_cycles must be positive")
        self.total_registers = total_registers
        self.epoch_cycles = epoch_cycles
        self.allocation: Dict[CompressionLevel, int] = {
            CompressionLevel.HIGH: 0,
            CompressionLevel.LOW: 0,
            CompressionLevel.UNCOMPRESSED: total_registers,
        }
        self._epoch_counts = LevelCounts()
        self._cycles_into_epoch = 0
        self.epochs_completed = 0

    def observe(self, level: CompressionLevel, cycles: int = 1) -> None:
        """Record a block classification and advance epoch time by ``cycles``."""
        self._epoch_counts.record(level)
        self.advance(cycles)

    def advance(self, cycles: int) -> None:
        """Advance epoch time, re-allocating registers at epoch boundaries."""
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        self._cycles_into_epoch += cycles
        while self._cycles_into_epoch >= self.epoch_cycles:
            self._cycles_into_epoch -= self.epoch_cycles
            self._rebalance()

    def _rebalance(self) -> None:
        counts = self._epoch_counts
        total = counts.total
        if total == 0:
            self.epochs_completed += 1
            return
        high = round(self.total_registers * counts.high / total)
        low = round(self.total_registers * counts.low / total)
        high = min(high, self.total_registers)
        low = min(low, self.total_registers - high)
        uncompressed = self.total_registers - high - low
        self.allocation = {
            CompressionLevel.HIGH: high,
            CompressionLevel.LOW: low,
            CompressionLevel.UNCOMPRESSED: uncompressed,
        }
        self._epoch_counts = LevelCounts()
        self.epochs_completed += 1

    def effective_blocks_per_register_group(self) -> float:
        """Average number of logical blocks stored per physical 128-byte register slot."""
        alloc = self.allocation
        total = self.total_registers
        if total == 0:
            return 1.0
        return (
            alloc[CompressionLevel.HIGH] * 4
            + alloc[CompressionLevel.LOW] * 2
            + alloc[CompressionLevel.UNCOMPRESSED] * 1
        ) / total

    def capacity_gain(self) -> float:
        """Effective capacity multiplier from compression (>= 1.0)."""
        return max(1.0, self.effective_blocks_per_register_group())


def effective_capacity_factor(
    high_fraction: float, low_fraction: float
) -> float:
    """Effective capacity multiplier for a workload's block compressibility mix.

    Args:
        high_fraction: Fraction of blocks compressible 4x.
        low_fraction: Fraction compressible 2x (the remainder is uncompressed).

    Returns:
        The steady-state capacity multiplier the extended LLC achieves once
        the level allocator has converged for this mix.
    """
    if not 0.0 <= high_fraction <= 1.0 or not 0.0 <= low_fraction <= 1.0:
        raise ValueError("fractions must be in [0, 1]")
    if high_fraction + low_fraction > 1.0 + 1e-9:
        raise ValueError("high_fraction + low_fraction must not exceed 1")
    uncompressed = max(0.0, 1.0 - high_fraction - low_fraction)
    # Average stored bytes per 128-byte logical block.
    avg_stored = high_fraction * 32 + low_fraction * 64 + uncompressed * 128
    return 128.0 / avg_stored
