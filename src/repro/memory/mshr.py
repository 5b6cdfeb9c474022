"""Miss status holding registers (MSHRs).

An MSHR file tracks outstanding misses per cache so that multiple requests to
the same in-flight block are merged instead of generating duplicate off-chip
traffic.  The number of MSHR entries bounds the memory-level parallelism a
cache can sustain.  Only the SM model's L1 (:mod:`repro.gpu.sm`) owns an
MSHR file; the replayed LLC models none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.memory.request import MemoryRequest


@dataclass
class MSHREntry:
    """One outstanding miss and the requests merged onto it."""

    block_address: int
    primary: MemoryRequest
    merged: List[MemoryRequest] = field(default_factory=list)

    @property
    def request_count(self) -> int:
        """Primary plus merged requests waiting on this block."""
        return 1 + len(self.merged)


class MSHRFile:
    """A fixed-capacity set of MSHR entries keyed by block address.

    Args:
        num_entries: Maximum number of distinct in-flight blocks.
        max_merged_per_entry: Maximum secondary requests merged per entry
            (matching typical GPU L1/L2 designs).
    """

    def __init__(self, num_entries: int = 64, max_merged_per_entry: int = 8) -> None:
        if num_entries <= 0:
            raise ValueError("num_entries must be positive")
        if max_merged_per_entry < 0:
            raise ValueError("max_merged_per_entry must be non-negative")
        self.num_entries = num_entries
        self.max_merged_per_entry = max_merged_per_entry
        self._entries: Dict[int, MSHREntry] = {}
        self.allocations = 0
        self.merges = 0
        self.stalls = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        """True when no new block can be tracked."""
        return len(self._entries) >= self.num_entries

    def lookup(self, block_address: int) -> Optional[MSHREntry]:
        """Return the entry tracking ``block_address`` if one exists."""
        return self._entries.get(block_address)

    def allocate(self, request: MemoryRequest, block_address: int) -> Optional[MSHREntry]:
        """Allocate or merge a miss for ``block_address``.

        Returns the entry on success, or ``None`` when the request must stall
        (MSHR file full, or the entry's merge capacity is exhausted).
        """
        entry = self._entries.get(block_address)
        if entry is not None:
            if len(entry.merged) >= self.max_merged_per_entry:
                self.stalls += 1
                return None
            entry.merged.append(request)
            self.merges += 1
            return entry
        if self.full:
            self.stalls += 1
            return None
        entry = MSHREntry(block_address=block_address, primary=request)
        self._entries[block_address] = entry
        self.allocations += 1
        return entry

    def release(self, block_address: int) -> List[MemoryRequest]:
        """Complete the miss for ``block_address`` and return all waiting requests."""
        entry = self._entries.pop(block_address, None)
        if entry is None:
            return []
        return [entry.primary, *entry.merged]

    def outstanding_blocks(self) -> List[int]:
        """Block addresses with misses currently in flight."""
        return list(self._entries)

    def reset(self) -> None:
        """Drop all entries and statistics."""
        self._entries.clear()
        self.allocations = 0
        self.merges = 0
        self.stalls = 0
