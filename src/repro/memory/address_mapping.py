"""Static address interleaving across LLC partitions.

GPUs stripe the physical address space across LLC partitions (each colocated
with a memory controller) at cache-block granularity.  The same mapping is
used by the baseline and by Morpheus; Morpheus adds a *second* level of
separation inside the partition (see
:mod:`repro.core.address_separation`).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AddressMapping:
    """Block-interleaved mapping of addresses onto partitions.

    Args:
        num_partitions: Number of LLC partitions (10 on an RTX 3080).
        block_size: Interleaving granularity in bytes (one cache block).
    """

    num_partitions: int = 10
    block_size: int = 128

    def __post_init__(self) -> None:
        if self.num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        if self.block_size <= 0 or self.block_size & (self.block_size - 1):
            raise ValueError("block_size must be a positive power of two")

    def block_number(self, address: int) -> int:
        """Global cache-block number of a byte address."""
        if address < 0:
            raise ValueError("address must be non-negative")
        return address // self.block_size

    def partition_of(self, address: int) -> int:
        """LLC partition responsible for ``address``."""
        return self.block_number(address) % self.num_partitions
