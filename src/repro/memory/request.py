"""Memory requests that flow through the simulated hierarchy.

Every component of the model (interconnect, Morpheus controller,
conventional LLC, extended LLC, DRAM) consumes :class:`MemoryRequest`
objects.  A request carries the byte address, the access type, the issuing
SM and the payload size.  A trace is a list of block-aligned requests
(:class:`~repro.workloads.trace.MemoryTrace`) that every replay of it shares,
so components read requests and never modify them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class AccessType(enum.Enum):
    """Kind of memory access issued by a warp."""

    LOAD = "load"
    STORE = "store"
    ATOMIC = "atomic"

    def __init__(self, value: str) -> None:
        #: Whether the access modifies memory (stores and atomics do).
        self.is_write = value != "load"


@dataclass(slots=True)
class MemoryRequest:
    """A single cache-block-granularity memory request.

    Attributes:
        address: Byte address of the access.  Components align it to the
            cache block size as needed.
        access_type: Load, store or atomic.
        sm_id: Index of the SM that issued the request (for routing the
            response back through the interconnect).
        size_bytes: Access payload size; defaults to a full cache block.
        is_write: Whether the request modifies memory (derived from
            ``access_type``).
    """

    address: int
    access_type: AccessType = AccessType.LOAD
    sm_id: int = 0
    size_bytes: int = 128
    is_write: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ValueError(f"address must be non-negative, got {self.address}")
        if self.sm_id < 0:
            raise ValueError(f"sm_id must be non-negative, got {self.sm_id}")
        if self.size_bytes <= 0:
            raise ValueError(f"size_bytes must be positive, got {self.size_bytes}")
        self.is_write = self.access_type.is_write

    def block_address(self, block_size: int) -> int:
        """Return the address aligned down to ``block_size`` bytes."""
        if block_size <= 0 or block_size & (block_size - 1):
            raise ValueError(f"block_size must be a positive power of two, got {block_size}")
        return self.address & ~(block_size - 1)
