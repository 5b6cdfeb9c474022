"""Extended LLC via shared memory (§4.2.2).

Shared memory has no hardware tag store, so the extended LLC kernel keeps the
tags of shared-memory-resident blocks in the register file (faster tag
lookups) and only the data arrays live in shared memory.  The data address is
computed from the extended LLC set number and the block index produced by the
tag lookup.

On the RTX 3080 the L1 and shared memory are unified (128 KiB total), so the
shared memory store and the L1 store compete for the same physical capacity;
the paper therefore only combines the register file store with the L1 store.
"""

from __future__ import annotations

from repro.core.store_base import ExtendedLLCStore


class SharedMemoryStore(ExtendedLLCStore):
    """The shared-memory region of the extended LLC on one cache-mode SM.

    Args:
        num_warps: Extended LLC kernel warps assigned to shared memory
            (each owns one set).
        shared_memory_bytes: Shared memory capacity devoted to the extended
            LLC data array.  The whole space is used regardless of warp count
            (Figure 11(a): the shared-memory capacity curve is flat).
        compression_enabled: Apply BDI compression to stored blocks.
    """

    supports_compression = True

    def __init__(
        self,
        num_warps: int = 8,
        shared_memory_bytes: int = 128 * 1024,
        compression_enabled: bool = False,
        block_size: int = 128,
    ) -> None:
        if shared_memory_bytes <= 0:
            raise ValueError("shared_memory_bytes must be positive")
        self.shared_memory_bytes = shared_memory_bytes
        total_blocks = shared_memory_bytes // block_size
        ways = max(1, total_blocks // num_warps)
        super().__init__(
            num_warps=num_warps,
            ways_per_set=ways,
            compression_enabled=compression_enabled,
            block_size=block_size,
        )

    @classmethod
    def capacity_bytes_for_warps(
        cls, num_warps: int, shared_memory_bytes: int = 128 * 1024, block_size: int = 128
    ) -> int:
        """Capacity offered at ``num_warps`` (flat: the whole space is always used)."""
        if num_warps <= 0:
            raise ValueError("num_warps must be positive")
        blocks = shared_memory_bytes // block_size
        # Round down to a whole number of blocks per set so sets are uniform.
        return (blocks // num_warps) * num_warps * block_size
