"""A generic set-associative cache model.

This is the structure behind the conventional LLC slices.  It is a
*functional* model: it tracks tags, dirty bits and LRU order, and reports
hits, misses and dirty evictions.  Timing is layered on top by the LLC
partition that owns it (:mod:`repro.memory.llc`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass
class CacheStats:
    """Aggregate access statistics for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    fills: int = 0
    writes: int = 0

    @property
    def accesses(self) -> int:
        """Total number of lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit (0.0 when there were no accesses)."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    @property
    def miss_rate(self) -> float:
        """Fraction of lookups that missed (0.0 when there were no accesses)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Return a new :class:`CacheStats` summing self and ``other``."""
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
            dirty_evictions=self.dirty_evictions + other.dirty_evictions,
            fills=self.fills + other.fills,
            writes=self.writes + other.writes,
        )


class CacheSet:
    """One LRU set of a set-associative cache.

    The resident blocks are kept in recency order, least recently used
    first: a dict maps each tag to its dirty bit, and a touched block is
    re-inserted.  A full set evicts the first block of the dict.
    """

    def __init__(self, associativity: int) -> None:
        if associativity <= 0:
            raise ValueError("associativity must be positive")
        self.associativity = associativity
        self._blocks: Dict[int, bool] = {}

    def lookup(self, tag: int) -> bool:
        """Whether ``tag`` is resident (no side effects)."""
        return tag in self._blocks

    def access(self, tag: int, is_write: bool) -> bool:
        """Perform a lookup, updating LRU order and dirty state on a hit.

        Returns ``True`` on a hit.
        """
        blocks = self._blocks
        dirty = blocks.pop(tag, None)
        if dirty is None:
            return False
        blocks[tag] = dirty or is_write
        return True

    def fill(self, tag: int, dirty: bool = False) -> Optional[Tuple[int, bool]]:
        """Install ``tag`` into the set, returning the evicted ``(tag, dirty)`` if any.

        If the tag is already present the existing block is refreshed in
        place and ``None`` is returned.
        """
        blocks = self._blocks
        was_dirty = blocks.pop(tag, None)
        if was_dirty is not None:
            blocks[tag] = was_dirty or dirty
            return None
        victim = None
        if len(blocks) >= self.associativity:
            victim_tag = next(iter(blocks))
            victim = (victim_tag, blocks.pop(victim_tag))
        blocks[tag] = dirty
        return victim

    def invalidate(self, tag: int) -> Optional[Tuple[int, bool]]:
        """Remove ``tag`` from the set, returning its ``(tag, dirty)`` if present."""
        dirty = self._blocks.pop(tag, None)
        return None if dirty is None else (tag, dirty)

    def occupancy(self) -> int:
        """Number of valid blocks currently in the set."""
        return len(self._blocks)

    def tags(self) -> List[int]:
        """Tags of all valid blocks in the set, least recently used first."""
        return list(self._blocks)


class SetAssociativeCache:
    """A set-associative cache keyed by byte addresses.

    Args:
        capacity_bytes: Total data capacity.
        block_size: Cache block (line) size in bytes; must be a power of two.
        associativity: Number of ways per set.
        write_allocate: Whether write misses allocate a block (GPU L2s do).
        name: Optional label for diagnostics.
    """

    def __init__(
        self,
        capacity_bytes: int,
        block_size: int = 128,
        associativity: int = 16,
        write_allocate: bool = True,
        name: str = "cache",
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if block_size <= 0 or block_size & (block_size - 1):
            raise ValueError("block_size must be a positive power of two")
        if capacity_bytes % (block_size * associativity):
            raise ValueError(
                "capacity_bytes must be a multiple of block_size * associativity "
                f"(got {capacity_bytes} with block {block_size} x {associativity} ways)"
            )
        self.capacity_bytes = capacity_bytes
        self.block_size = block_size
        self.associativity = associativity
        self.write_allocate = write_allocate
        self.name = name
        self.num_sets = capacity_bytes // (block_size * associativity)
        self._set_span_bytes = block_size * self.num_sets
        self._sets = [CacheSet(associativity) for _ in range(self.num_sets)]
        self.stats = CacheStats()

    # -- address helpers ---------------------------------------------------

    def set_index(self, address: int) -> int:
        """Set index for a byte address."""
        return (address // self.block_size) % self.num_sets

    def tag_for(self, address: int) -> int:
        """Tag for a byte address."""
        return address // self._set_span_bytes

    def block_address(self, address: int) -> int:
        """Align ``address`` down to the containing cache block."""
        return address - (address % self.block_size)

    def _rebuild_address(self, tag: int, set_index: int) -> int:
        return (tag * self.num_sets + set_index) * self.block_size

    # -- operations --------------------------------------------------------

    def probe(self, address: int) -> bool:
        """Check for presence without updating any state."""
        return self._sets[self.set_index(address)].lookup(self.tag_for(address))

    def access(self, address: int, is_write: bool = False) -> Tuple[bool, Optional[int]]:
        """Access the cache for a load or store.

        On a hit, LRU order is updated (and the block is marked dirty for
        writes) and ``(True, None)`` is returned.  On a miss the block is
        filled (for reads, and for writes when ``write_allocate`` is set) and
        ``(False, writeback_address)`` is returned where ``writeback_address``
        is the block address of a dirty victim that must be written back, or
        ``None`` when no dirty eviction occurred.
        """
        # set_index() and tag_for(), inline: this runs once per LLC access.
        set_index = (address // self.block_size) % self.num_sets
        tag = address // self._set_span_bytes
        cache_set = self._sets[set_index]
        stats = self.stats

        if is_write:
            stats.writes += 1

        if cache_set.access(tag, is_write):
            stats.hits += 1
            return True, None

        stats.misses += 1
        writeback: Optional[int] = None
        if not is_write or self.write_allocate:
            victim = cache_set.fill(tag, is_write)
            stats.fills += 1
            if victim is not None:
                stats.evictions += 1
                victim_tag, victim_dirty = victim
                if victim_dirty:
                    stats.dirty_evictions += 1
                    writeback = self._rebuild_address(victim_tag, set_index)
        return False, writeback

    def fill(self, address: int, dirty: bool = False) -> Optional[int]:
        """Install a block without counting a demand access.

        Returns the block address of a dirty victim requiring writeback, if any.
        """
        set_index = self.set_index(address)
        cache_set = self._sets[set_index]
        victim = cache_set.fill(self.tag_for(address), dirty=dirty)
        self.stats.fills += 1
        if victim is None:
            return None
        self.stats.evictions += 1
        victim_tag, victim_dirty = victim
        if victim_dirty:
            self.stats.dirty_evictions += 1
            return self._rebuild_address(victim_tag, set_index)
        return None

    def invalidate(self, address: int) -> bool:
        """Invalidate the block containing ``address``.  Returns True if present."""
        set_index = self.set_index(address)
        return self._sets[set_index].invalidate(self.tag_for(address)) is not None

    def flush(self) -> int:
        """Invalidate every block.  Returns the number of dirty blocks dropped."""
        dirty = 0
        for cache_set in self._sets:
            for tag in cache_set.tags():
                _, was_dirty = cache_set.invalidate(tag)
                dirty += was_dirty
        return dirty

    def occupancy(self) -> int:
        """Total number of valid blocks resident in the cache."""
        return sum(cache_set.occupancy() for cache_set in self._sets)

    def occupancy_bytes(self) -> int:
        """Total bytes of valid data resident in the cache."""
        return self.occupancy() * self.block_size

    def reset_stats(self) -> None:
        """Zero the access statistics (contents are preserved)."""
        self.stats = CacheStats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SetAssociativeCache(name={self.name!r}, capacity={self.capacity_bytes}, "
            f"block={self.block_size}, ways={self.associativity}, sets={self.num_sets})"
        )
