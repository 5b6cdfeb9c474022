"""BDI compression of extended-LLC blocks, as the replay models it (§4.3.1).

The extended LLC kernel mediates every register-file/shared-memory insertion,
so it can transparently store *compressed* blocks and fit more of them into
each extended LLC set.  The paper defines three compression levels for a
128-byte block:

* **high** — compressible 4x, stored in 32 bytes,
* **low** — compressible 2x, stored in 64 bytes,
* **uncompressed** — stored as-is in 128 bytes.

The traces carry addresses, not block contents, so the replay does not run
Base-Delta-Immediate itself.  Each filled block draws its level from the
workload's compressibility mix
(:meth:`repro.core.extended_llc.Compressibility.level_for_tag`) and takes
that many bytes of its set, and :func:`effective_capacity_factor` gives the
mix's steady-state capacity gain, which sizes the extended share of the
address space.
"""

from __future__ import annotations

import enum


#: Stored size in bytes of a 128-byte block, by compression level value.
_COMPRESSED_SIZE = {"high": 32, "low": 64, "uncompressed": 128}


class CompressionLevel(enum.Enum):
    """Compression level of one extended LLC block."""

    HIGH = "high"            # 4x -> 32 bytes
    LOW = "low"              # 2x -> 64 bytes
    UNCOMPRESSED = "uncompressed"

    def __init__(self, value: str) -> None:
        #: Stored size in bytes of a 128-byte block at this level: a plain
        #: attribute, so reading it on every fill hashes no member.
        self.compressed_size = _COMPRESSED_SIZE[value]


def effective_capacity_factor(
    high_fraction: float, low_fraction: float
) -> float:
    """Effective capacity multiplier for a workload's block compressibility mix.

    Args:
        high_fraction: Fraction of blocks compressible 4x.
        low_fraction: Fraction compressible 2x (the remainder is uncompressed).

    Returns:
        128 over the average stored bytes of a block of this mix: how many
        more blocks the same storage holds once every block is stored at
        its level.
    """
    if not 0.0 <= high_fraction <= 1.0 or not 0.0 <= low_fraction <= 1.0:
        raise ValueError("fractions must be in [0, 1]")
    if high_fraction + low_fraction > 1.0 + 1e-9:
        raise ValueError("high_fraction + low_fraction must not exceed 1")
    uncompressed = max(0.0, 1.0 - high_fraction - low_fraction)
    # Average stored bytes per 128-byte logical block.
    avg_stored = high_fraction * 32 + low_fraction * 64 + uncompressed * 128
    return 128.0 / avg_stored
