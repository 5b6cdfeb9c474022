"""Memory trace containers.

A :class:`MemoryTrace` is an ordered list of LLC-level accesses (the
requests that miss in the per-SM L1 caches and travel to the LLC partitions),
each a block-aligned :class:`~repro.memory.request.MemoryRequest` carrying
the issuing SM and the access type.  Traces are the bridge between the
workload models and the memory-hierarchy simulation: the engine replays the
requests as they are, so every replay of one trace shares its requests.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence

from repro.memory.request import AccessType, MemoryRequest


class MemoryTrace:
    """An ordered list of block-aligned :class:`MemoryRequest` objects.

    Args:
        requests: The accesses in issue order.  Each is aligned to
            ``block_size`` and moves one block (``size_bytes == block_size``);
            the trace generators guarantee it.
        name: Label for diagnostics.
        block_size: Cache block size the requests are aligned to.  A trace
            replays only on a GPU with the same block size.
    """

    def __init__(
        self,
        requests: Sequence[MemoryRequest] | None = None,
        name: str = "trace",
        block_size: int = 128,
    ) -> None:
        if block_size <= 0 or block_size & (block_size - 1):
            raise ValueError(f"block_size must be a positive power of two, got {block_size}")
        self._requests: List[MemoryRequest] = list(requests) if requests else []
        self.name = name
        self.block_size = block_size

    def __len__(self) -> int:
        return len(self._requests)

    def __iter__(self) -> Iterator[MemoryRequest]:
        return iter(self._requests)

    def __getitem__(self, index: int) -> MemoryRequest:
        return self._requests[index]

    def append(self, request: MemoryRequest) -> None:
        """Append one access to the trace."""
        self._requests.append(request)

    def extend(self, requests: Iterable[MemoryRequest]) -> None:
        """Append many accesses to the trace."""
        self._requests.extend(requests)

    def addresses(self) -> List[int]:
        """Addresses in issue order."""
        return [request.address for request in self._requests]

    def unique_blocks(self) -> int:
        """Number of distinct cache blocks touched by the trace (its footprint)."""
        block_size = self.block_size
        return len({request.address // block_size for request in self._requests})

    def footprint_bytes(self) -> int:
        """Footprint of the trace in bytes."""
        return self.unique_blocks() * self.block_size

    def write_fraction(self) -> float:
        """Fraction of accesses that are writes or atomics."""
        if not self._requests:
            return 0.0
        return sum(1 for request in self._requests if request.is_write) / len(self._requests)

    def atomic_fraction(self) -> float:
        """Fraction of accesses that are atomics."""
        if not self._requests:
            return 0.0
        atomics = sum(1 for request in self._requests if request.access_type is AccessType.ATOMIC)
        return atomics / len(self._requests)
