"""Memory requests and responses that flow through the simulated hierarchy.

Every component of the model (L1, interconnect, Morpheus controller,
conventional LLC, extended LLC, DRAM) consumes :class:`MemoryRequest` objects
and produces :class:`MemoryResponse` objects.  Requests carry the *cache
block address* (byte address aligned to the block size), the access type and
the origin SM so the interconnect can route responses back.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional

_REQUEST_IDS = itertools.count()


class AccessType(enum.Enum):
    """Kind of memory access issued by a warp."""

    LOAD = "load"
    STORE = "store"
    ATOMIC = "atomic"

    def __init__(self, value: str) -> None:
        #: Whether the access modifies memory (stores and atomics do).
        self.is_write = value != "load"


class RequestOrigin(enum.Enum):
    """Which agent generated a request.

    ``COMPUTE_SM`` is a normal application access from a compute-mode SM.
    ``EXTENDED_LLC_KERNEL`` is a fill/writeback issued by the extended LLC
    kernel running on a cache-mode SM (these bypass the conventional LLC).
    ``L1_WRITEBACK`` marks dirty evictions from an L1 cache.
    """

    COMPUTE_SM = "compute_sm"
    EXTENDED_LLC_KERNEL = "extended_llc_kernel"
    L1_WRITEBACK = "l1_writeback"


@dataclass(slots=True)
class MemoryRequest:
    """A single cache-block-granularity memory request.

    Attributes:
        address: Byte address of the access.  Components align it to the
            cache block size as needed.
        access_type: Load, store or atomic.
        origin: Which agent issued the request.
        sm_id: Index of the SM that issued the request (for routing the
            response back through the interconnect).
        warp_id: Index of the warp within the SM (used by atomics
            serialization checks and statistics).
        issue_cycle: Simulation time (in cycles) at which the request entered
            the memory system.
        size_bytes: Access payload size; defaults to a full cache block.
        request_id: Monotonically increasing unique identifier.
    """

    address: int
    access_type: AccessType = AccessType.LOAD
    origin: RequestOrigin = RequestOrigin.COMPUTE_SM
    sm_id: int = 0
    warp_id: int = 0
    issue_cycle: int = 0
    size_bytes: int = 128
    request_id: int = field(default_factory=lambda: next(_REQUEST_IDS))

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ValueError(f"address must be non-negative, got {self.address}")
        if self.size_bytes <= 0:
            raise ValueError(f"size_bytes must be positive, got {self.size_bytes}")

    def block_address(self, block_size: int) -> int:
        """Return the address aligned down to ``block_size`` bytes."""
        if block_size <= 0 or block_size & (block_size - 1):
            raise ValueError(f"block_size must be a positive power of two, got {block_size}")
        return self.address & ~(block_size - 1)

    @property
    def is_write(self) -> bool:
        """Whether this request modifies memory."""
        return self.access_type.is_write

    def copy_for_block(self, block_address: int) -> "MemoryRequest":
        """Return a new request targeting ``block_address`` with a fresh id.

        Used when a component needs to spawn derived traffic (e.g. an L1
        writeback or an extended-LLC fill) for a specific block.
        """
        return MemoryRequest(
            address=block_address,
            access_type=self.access_type,
            origin=self.origin,
            sm_id=self.sm_id,
            warp_id=self.warp_id,
            issue_cycle=self.issue_cycle,
            size_bytes=self.size_bytes,
        )


@dataclass
class MemoryResponse:
    """Completion record for a :class:`MemoryRequest`.

    Attributes:
        request: The originating request.
        latency_cycles: Total service latency in core cycles, including
            queueing at every component along the path.
        hit_level: Name of the hierarchy level that served the request
            (``"l1"``, ``"llc"``, ``"extended_llc"`` or ``"dram"``).
        served_by_extended_llc: True when the extended LLC supplied the data.
        predicted_miss: True when the Morpheus hit/miss predictor sent the
            request straight to DRAM (correctly-predicted extended-LLC miss).
        energy_nj: Energy consumed serving the request, in nanojoules.
    """

    request: MemoryRequest
    latency_cycles: float
    hit_level: str
    served_by_extended_llc: bool = False
    predicted_miss: bool = False
    energy_nj: float = 0.0

    def __post_init__(self) -> None:
        if self.latency_cycles < 0:
            raise ValueError("latency_cycles must be non-negative")

    @property
    def is_offchip(self) -> bool:
        """True when DRAM had to be accessed to serve the request."""
        return self.hit_level == "dram"


def reset_request_ids(start: int = 0) -> None:
    """Reset the global request id counter (used by deterministic tests)."""
    global _REQUEST_IDS
    _REQUEST_IDS = itertools.count(start)
