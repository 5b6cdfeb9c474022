"""Extended LLC via the register file (§4.2.1, Figure 8).

Each warp of the extended LLC kernel implements one fully associative
extended LLC set in its own registers: 32 data-array registers (one 128-byte
warp register per cache block), one metadata register (thread *i* holds block
*i*'s LRU counter, dirty bit, valid bit and tag) and a handful of auxiliary
registers for the kernel's own execution.

The capacity model reproduces the paper's Figure 11(a) behaviour:

* with **few warps** capacity is limited by the maximum number of registers
  per thread (256), so a single warp can only expose ~31 KiB;
* **eight warps** roughly saturate the register file (~240 KiB of data);
* with **more warps** the per-warp auxiliary registers eat into the data
  capacity, so 48 warps expose 48 sets x 32 blocks x 128 B = 192 KiB.
"""

from __future__ import annotations

from repro.core.store_base import ExtendedLLCStore


class RegisterFileStore(ExtendedLLCStore):
    """The register-file region of the extended LLC on one cache-mode SM.

    Args:
        num_warps: Extended LLC kernel warps assigned to the register file.
        register_file_bytes: Register file capacity of the SM (256 KiB on the
            RTX 3080).
        max_registers_per_thread: Architectural per-thread register limit.
        aux_registers_per_warp: Warp registers reserved for the kernel's own
            execution context (addresses, loop counters, the metadata
            register, compression bases).
        threads_per_warp: SIMD width (32).
        compression_enabled: Apply BDI compression to stored blocks.
    """

    supports_compression = True

    def __init__(
        self,
        num_warps: int = 32,
        register_file_bytes: int = 256 * 1024,
        max_registers_per_thread: int = 256,
        aux_registers_per_warp: int = 10,
        threads_per_warp: int = 32,
        compression_enabled: bool = False,
        block_size: int = 128,
    ) -> None:
        if register_file_bytes <= 0:
            raise ValueError("register_file_bytes must be positive")
        if max_registers_per_thread <= 0:
            raise ValueError("max_registers_per_thread must be positive")
        if aux_registers_per_warp < 0:
            raise ValueError("aux_registers_per_warp must be non-negative")

        self.register_file_bytes = register_file_bytes
        self.max_registers_per_thread = max_registers_per_thread
        self.aux_registers_per_warp = aux_registers_per_warp
        self.threads_per_warp = threads_per_warp

        ways = self.data_registers_per_warp(
            num_warps,
            register_file_bytes,
            max_registers_per_thread,
            aux_registers_per_warp,
            threads_per_warp,
            block_size,
        )
        super().__init__(
            num_warps=num_warps,
            ways_per_set=max(1, ways),
            compression_enabled=compression_enabled,
            block_size=block_size,
        )

    @staticmethod
    def data_registers_per_warp(
        num_warps: int,
        register_file_bytes: int = 256 * 1024,
        max_registers_per_thread: int = 256,
        aux_registers_per_warp: int = 10,
        threads_per_warp: int = 32,
        block_size: int = 128,
    ) -> int:
        """Number of 128-byte data-array registers available to each warp.

        A *warp register* is one architectural register across the 32 threads
        of a warp (32 x 4 B = 128 B), i.e. exactly one extended LLC block.
        Each warp can use at most ``min(RF / num_warps, max_registers_per_thread)``
        warp registers, minus the auxiliary registers reserved for kernel
        execution.
        """
        if num_warps <= 0:
            raise ValueError("num_warps must be positive")
        warp_register_bytes = threads_per_warp * 4
        total_warp_registers = register_file_bytes // warp_register_bytes
        per_warp = min(total_warp_registers // num_warps, max_registers_per_thread)
        return max(0, per_warp - aux_registers_per_warp)

    @classmethod
    def capacity_bytes_for_warps(
        cls,
        num_warps: int,
        register_file_bytes: int = 256 * 1024,
        aux_registers_per_warp: int = 10,
        block_size: int = 128,
    ) -> int:
        """Extended LLC data capacity (bytes) the register file offers at ``num_warps``.

        This is the curve plotted in Figure 11(a) for the register file store.
        """
        ways = cls.data_registers_per_warp(
            num_warps,
            register_file_bytes=register_file_bytes,
            aux_registers_per_warp=aux_registers_per_warp,
            block_size=block_size,
        )
        return num_warps * ways * block_size
