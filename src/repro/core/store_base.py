"""Common machinery shared by the extended LLC's on-chip memory stores.

Each cache-mode SM lends two kinds of on-chip memory to the extended LLC:
its register file and its L1 cache (the paper's combination; shared memory
shares the L1's array on the RTX 3080, §5).  Both behave as a collection of
fully associative extended LLC *sets* (one set per extended LLC kernel
warp) holding 128-byte blocks with dirty bits, tags and LRU counters —
exactly the structure the extended LLC kernel lays out in Figure 8 and
queries with Algorithm 1.  They differ in capacity, access latency,
bandwidth and whether compression applies, which the concrete store classes
(:mod:`repro.core.register_file_store`, :mod:`repro.core.l1_store`)
specialize.

An :class:`ExtendedLLCSet` offers its lookup procedure in parts —
:meth:`~ExtendedLLCSet.metadata` reads residency, :meth:`~ExtendedLLCSet.touch`
serves a hit on the block read, :meth:`~ExtendedLLCSet.fill` installs — so
the Morpheus controller reads a block's residency once per access and uses
that one read both as its hit/miss predictor's ground truth and as the hit
or miss it serves.  A store only holds its sets: the kernel reaches a set
through :meth:`repro.core.extended_llc.ExtendedLLCKernel.locate`, which
builds it the first time it is located.

BDI compression enters as each block's drawn level: a compressing set
charges a block the bytes of its level, so more blocks fit.  The
Indirect-MOV procedure the register-file store needs is a latency term of
:class:`repro.core.config.ExtendedLLCTiming`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.compression import CompressionLevel


@dataclass(slots=True)
class ExtendedBlockMetadata:
    """Metadata block for one extended LLC block (Figure 8, item 4).

    Holds the tag and dirty bit that the extended LLC kernel keeps coalesced
    in the per-set metadata register, plus the block's compression level
    and the bytes it occupies.  A block is valid while its set holds it; the
    per-block LRU counters of that register are modelled by the recency
    order of :class:`ExtendedLLCSet`.
    """

    tag: int = -1
    dirty: bool = False
    compression: CompressionLevel = CompressionLevel.UNCOMPRESSED
    stored_bytes: int = 0


class ExtendedLLCSet:
    """One fully associative extended LLC set owned by one kernel warp.

    Args:
        base_ways: Number of 128-byte block slots physically available
            (32 data-array registers in the register file layout).
        compression_enabled: When True, compressed blocks occupy fewer bytes
            so more logical blocks fit into the same physical storage.
        block_size: Logical block size in bytes.
    """

    def __init__(self, base_ways: int, compression_enabled: bool = False, block_size: int = 128) -> None:
        if base_ways <= 0:
            raise ValueError("base_ways must be positive")
        self.base_ways = base_ways
        self.compression_enabled = compression_enabled
        self.block_size = block_size
        self.physical_bytes = base_ways * block_size
        # Resident blocks in recency order, least recently used first: a dict
        # keeps insertion order, and a touched block is re-inserted.
        self._blocks: Dict[int, ExtendedBlockMetadata] = {}
        self._stored_bytes = 0

    # -- capacity accounting ----------------------------------------------------

    def occupancy_bytes(self) -> int:
        """Physical bytes consumed by resident blocks."""
        return self._stored_bytes

    # -- Algorithm 1: tag lookup --------------------------------------------------

    def lookup(self, tag: int) -> bool:
        """Tag lookup without state changes (the warp's ballot over metadata)."""
        return tag in self._blocks

    def metadata(self, tag: int) -> Optional[ExtendedBlockMetadata]:
        """Metadata of a resident block (or None): the lookup, without state changes."""
        return self._blocks.get(tag)

    def touch(self, tag: int, meta: ExtendedBlockMetadata, is_write: bool = False) -> None:
        """Serve a hit on resident block ``meta``: most recently used, dirty on a write."""
        blocks = self._blocks
        del blocks[tag]
        blocks[tag] = meta
        if is_write:
            meta.dirty = True

    # -- fills and evictions -------------------------------------------------------

    def fill(
        self,
        tag: int,
        dirty: bool = False,
        compression: CompressionLevel = CompressionLevel.UNCOMPRESSED,
    ) -> List[Tuple[int, bool]]:
        """Install ``tag`` as the most recently used block, evicting LRU victims until it fits.

        Re-filling a resident block keeps its dirty bit and stores it at
        ``compression``; if that makes it larger, other blocks make room.
        Returns a list of ``(victim_tag, was_dirty)`` pairs for every evicted
        block (empty when nothing had to be evicted).
        """
        blocks = self._blocks
        needed = compression.compressed_size if self.compression_enabled else self.block_size
        meta = blocks.pop(tag, None)
        if meta is None:
            meta = ExtendedBlockMetadata(tag, dirty, compression, needed)
        else:
            meta.dirty = meta.dirty or dirty
            meta.compression = compression
            self._stored_bytes -= meta.stored_bytes
            meta.stored_bytes = needed

        evicted: List[Tuple[int, bool]] = []
        while self._stored_bytes + needed > self.physical_bytes and blocks:
            victim_tag = next(iter(blocks))
            victim = blocks.pop(victim_tag)
            self._stored_bytes -= victim.stored_bytes
            evicted.append((victim_tag, victim.dirty))

        blocks[tag] = meta
        self._stored_bytes += needed
        return evicted

    def tags(self) -> List[int]:
        """Tags of all resident blocks, least recently used first."""
        return list(self._blocks)


class ExtendedLLCStore:
    """A set of extended LLC sets backed by one kind of on-chip memory.

    Concrete subclasses provide the capacity model: how many block slots the
    underlying memory offers per warp.
    """

    #: Whether BDI compression can be applied to blocks in this store
    #: (the L1 store handles blocks in hardware, so compression does not apply).
    supports_compression = True

    def __init__(
        self,
        num_warps: int,
        ways_per_set: int,
        compression_enabled: bool = False,
        block_size: int = 128,
    ) -> None:
        if num_warps <= 0:
            raise ValueError("num_warps must be positive")
        if ways_per_set <= 0:
            raise ValueError("ways_per_set must be positive")
        self.num_warps = num_warps
        self.ways_per_set = ways_per_set
        self.block_size = block_size
        self.compression_enabled = compression_enabled and self.supports_compression
        # One set per warp, each built (by the kernel's ``locate``) the first
        # time a block is looked up in it: a replay touches a fraction of
        # them.  ``None`` is a set that holds no blocks yet.
        self.sets: List[Optional[ExtendedLLCSet]] = [None] * num_warps

    # -- capacity ----------------------------------------------------------------

    def data_capacity_bytes(self) -> int:
        """Physical data capacity offered to the extended LLC."""
        return self.num_warps * self.ways_per_set * self.block_size
