"""Static address separation between the conventional and extended LLC (§4.1.1).

A Morpheus-enabled GPU has two LLCs, so every cache block must belong to
exactly one of them.  Morpheus divides the (partition-local) address space
*statically* into two regions whose sizes are proportional to the capacities
of the conventional slice and of the extended LLC served by that partition.
The same principle is reused *inside* the extended LLC kernel to split blocks
between the register file and L1 stores — proportionally to each store's
capacity.
"""

from __future__ import annotations

import functools
from typing import Sequence, Tuple

#: Granularity units in one period of the conventional/extended
#: interleaving: 16 units give ~6 % resolution on the capacity split.
_PERIOD_UNITS = 16


class AddressSeparator:
    """Routes partition-local block addresses between the two LLCs.

    The decision is made on the block's *partition-local* index (the
    interleaving across partitions happened upstream), using a modulo split
    over a fixed period so both LLCs see a representative sample of the
    address space:

    * ``period = conventional_share + extended_share`` (in block units),
    * blocks whose ``local_index % period < conventional_share`` go to the
      conventional slice, the rest to the extended LLC.

    Args:
        conventional_capacity_bytes: Capacity of the partition's conventional
            LLC slice.
        extended_capacity_bytes: Extended LLC capacity served through this
            partition (0 disables the extended LLC).
        block_size: Cache block size in bytes.
        num_extended_sets: Extended LLC sets behind this partition; used to
            map an extended-bound block to its set.
        granularity_blocks: Size of one share unit, in blocks.  The default
            (64 blocks = 8 KiB) keeps the interleaving fine enough that both
            LLCs observe every access pattern.
    """

    def __init__(
        self,
        conventional_capacity_bytes: int,
        extended_capacity_bytes: int,
        block_size: int = 128,
        num_extended_sets: int = 256,
        granularity_blocks: int = 64,
    ) -> None:
        if conventional_capacity_bytes <= 0:
            raise ValueError("conventional_capacity_bytes must be positive")
        if extended_capacity_bytes < 0:
            raise ValueError("extended_capacity_bytes must be non-negative")
        if block_size <= 0 or block_size & (block_size - 1):
            raise ValueError("block_size must be a positive power of two")
        if num_extended_sets <= 0:
            raise ValueError("num_extended_sets must be positive")
        if granularity_blocks <= 0:
            raise ValueError("granularity_blocks must be positive")

        self.conventional_capacity_bytes = conventional_capacity_bytes
        self.extended_capacity_bytes = extended_capacity_bytes
        self.block_size = block_size
        self.num_extended_sets = num_extended_sets
        self.granularity_blocks = granularity_blocks

        total = conventional_capacity_bytes + extended_capacity_bytes
        # Shares in granularity units, at least 1 unit for the conventional LLC.
        self._conventional_units = max(
            1, round(self.conventional_capacity_bytes / total * _PERIOD_UNITS)
        )
        self._extended_units = _PERIOD_UNITS - self._conventional_units
        if extended_capacity_bytes == 0:
            self._conventional_units = 1
            self._extended_units = 0
        self._period = self._conventional_units + self._extended_units
        self._unit_bytes = block_size * granularity_blocks

    # -- public API -----------------------------------------------------------

    def route(self, address: int) -> int:
        """The extended LLC set of the block containing ``address``, or -1.

        -1 means the conventional slice serves the block.  Without an
        extended share the period is one conventional unit, so every block
        lands there.
        """
        if address < 0:
            raise ValueError("address must be non-negative")
        if (address // self._unit_bytes) % self._period < self._conventional_units:
            return -1
        return (address // self.block_size) % self.num_extended_sets


#: Blocks in one period of :func:`proportional_split`: the split depends only
#: on a block's position within it.
SPLIT_PERIOD = 64


def proportional_split(
    capacities: Sequence[Tuple[str, int]], address: int, block_size: int = 128
) -> str:
    """Split an address across named regions proportionally to their capacities.

    This is the intra-SM analogue of :class:`AddressSeparator` used by the
    extended LLC kernel to pick the register-file or L1 store for a given
    block (§4.2, task 3).

    Args:
        capacities: ``(name, capacity_bytes)`` pairs; zero-capacity regions
            never receive blocks.
        address: Byte address of the block.
        block_size: Cache block size.

    Returns:
        The name of the region responsible for the block.
    """
    live = [(name, cap) for name, cap in capacities if cap > 0]
    if not live:
        raise ValueError("at least one region must have non-zero capacity")
    total = sum(cap for _, cap in live)
    position = (address // block_size) % SPLIT_PERIOD
    cursor = 0
    for name, cap in live:
        share = max(1, round(cap / total * SPLIT_PERIOD))
        cursor += share
        if position < cursor:
            return name
    return live[-1][0]


@functools.lru_cache(maxsize=16)
def proportional_split_table(
    capacities: Tuple[Tuple[str, int], ...], block_size: int = 128
) -> Tuple[str, ...]:
    """:func:`proportional_split` for every position of its period.

    The block at ``address`` goes to
    ``table[(address // block_size) % SPLIT_PERIOD]``.
    """
    return tuple(
        proportional_split(capacities, position * block_size, block_size)
        for position in range(SPLIT_PERIOD)
    )
