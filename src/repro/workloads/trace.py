"""Memory trace containers.

A :class:`MemoryTrace` is an ordered stream of LLC-level accesses (the
requests that miss in the per-SM L1 caches and travel to the LLC
partitions), held as two flat arrays: the byte address of each access and
whether it writes.  Every access is block-aligned and moves one block.
Traces are the bridge between the workload models and the memory-hierarchy
simulation: the engine replays the arrays as they are, so every replay of
one trace shares them.
"""

from __future__ import annotations

from array import array


class MemoryTrace:
    """An ordered stream of block-aligned accesses as two parallel arrays.

    Args:
        addresses: ``array("q")`` of byte addresses in issue order.  Each is
            aligned to ``block_size``; the trace generator guarantees it.
        writes: One byte per access: non-zero when the access modifies
            memory (a store or an atomic), zero for a load.
        name: Label for diagnostics.
        block_size: Cache block size the accesses are aligned to.  A trace
            replays only on a GPU with the same block size.

    Raises:
        ValueError: if ``block_size`` is not a positive power of two, the
            arrays differ in length or an address is negative.
    """

    __slots__ = ("addresses", "writes", "name", "block_size")

    def __init__(
        self,
        addresses: array,
        writes: bytes | bytearray,
        name: str = "trace",
        block_size: int = 128,
    ) -> None:
        if block_size <= 0 or block_size & (block_size - 1):
            raise ValueError(f"block_size must be a positive power of two, got {block_size}")
        if len(addresses) != len(writes):
            raise ValueError(
                f"trace {name!r} has {len(addresses)} addresses but {len(writes)} write flags"
            )
        if addresses and min(addresses) < 0:
            raise ValueError(f"trace {name!r} has a negative address: {min(addresses)}")
        self.addresses = addresses
        self.writes = writes
        self.name = name
        self.block_size = block_size

    def __len__(self) -> int:
        return len(self.addresses)
