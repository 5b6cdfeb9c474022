"""Extended LLC via the L1 cache (§4.2.2).

When a block belongs to the L1 region of the extended LLC, the extended LLC
kernel simply forwards the request to the cache-mode SM's L1 with ordinary
load/store instructions: the L1's own hardware handles tags, replacement and
fills.  On a miss, the L1 fetches the block from main memory directly — the
Morpheus controller ensures such fills bypass the conventional LLC, because
the block's address range belongs to the extended LLC.

Because the L1 manages blocks in hardware, the extended LLC kernel cannot
apply BDI compression to this region (footnote 4 of the paper).
"""

from __future__ import annotations

from repro.core.store_base import ExtendedLLCStore


class L1Store(ExtendedLLCStore):
    """The L1-cache region of the extended LLC on one cache-mode SM.

    Args:
        num_warps: Extended LLC kernel warps assigned to the L1 region
            (16 in the paper's combined configuration).
        l1_bytes: Unified L1/shared-memory capacity devoted to the extended
            LLC (128 KiB on the RTX 3080; flat with warp count).
    """

    supports_compression = False

    def __init__(
        self,
        num_warps: int = 16,
        l1_bytes: int = 128 * 1024,
        compression_enabled: bool = False,
        block_size: int = 128,
    ) -> None:
        if l1_bytes <= 0:
            raise ValueError("l1_bytes must be positive")
        self.l1_bytes = l1_bytes
        total_blocks = l1_bytes // block_size
        ways = max(1, total_blocks // num_warps)
        super().__init__(
            num_warps=num_warps,
            ways_per_set=ways,
            # Compression never applies to the L1 region (hardware-managed).
            compression_enabled=False,
            block_size=block_size,
        )

    @classmethod
    def capacity_bytes_for_warps(
        cls, num_warps: int, l1_bytes: int = 128 * 1024, block_size: int = 128
    ) -> int:
        """Capacity offered at ``num_warps`` (flat: the whole L1 is always used)."""
        if num_warps <= 0:
            raise ValueError("num_warps must be positive")
        blocks = l1_bytes // block_size
        return (blocks // num_warps) * num_warps * block_size
