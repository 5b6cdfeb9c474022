"""Bloom filters used by the Morpheus hit/miss predictor.

A Bloom filter answers set-membership queries with no false negatives and a
tunable false-positive rate.  The paper sizes each filter at 32 bytes
(256 bits) per extended LLC set and uses two filters per set, cleared
alternately (§4.1.2).
"""

from __future__ import annotations

import hashlib
from typing import Iterable


def _key_mask(key: int, num_bits: int, num_hashes: int) -> int:
    """The filter bits of ``key``: double hashing over a blake2 digest.

    The hit/miss predictor keeps each tag's mask in a memo of its own
    (:class:`~repro.core.hit_miss_predictor.HitMissPredictor`).
    """
    digest = hashlib.blake2b(
        int(key).to_bytes(16, "little", signed=False), digest_size=16
    ).digest()
    h1 = int.from_bytes(digest[:8], "little")
    h2 = int.from_bytes(digest[8:], "little") | 1
    mask = 0
    for i in range(num_hashes):
        mask |= 1 << ((h1 + i * h2) % num_bits)
    return mask


class BloomFilter:
    """A standard (non-counting) Bloom filter over integer keys.

    Args:
        size_bytes: Bit-array size in bytes (32 in the paper).
        num_hashes: Number of hash functions.
    """

    def __init__(self, size_bytes: int = 32, num_hashes: int = 4) -> None:
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        if num_hashes <= 0:
            raise ValueError("num_hashes must be positive")
        self.size_bytes = size_bytes
        self.num_bits = size_bytes * 8
        self.num_hashes = num_hashes
        self._bits = 0
        self._insertions = 0

    def insert(self, key: int) -> None:
        """Insert ``key`` into the filter."""
        if key < 0:
            raise ValueError("keys must be non-negative")
        self._bits |= _key_mask(key, self.num_bits, self.num_hashes)
        self._insertions += 1

    def query(self, key: int) -> bool:
        """Return True if ``key`` *may* be in the set (never a false negative)."""
        if key < 0:
            raise ValueError("keys must be non-negative")
        mask = _key_mask(key, self.num_bits, self.num_hashes)
        return (self._bits & mask) == mask

    def insert_all(self, keys: Iterable[int]) -> None:
        """Insert every key in ``keys``."""
        for key in keys:
            self.insert(key)

    def clear(self) -> None:
        """Reset the filter to empty."""
        self._bits = 0
        self._insertions = 0

    @property
    def insertions(self) -> int:
        """Number of insert operations since the last clear."""
        return self._insertions

    @property
    def fill_ratio(self) -> float:
        """Fraction of bits currently set (a proxy for the false-positive rate)."""
        return bin(self._bits).count("1") / self.num_bits

    def __contains__(self, key: int) -> bool:
        return self.query(key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BloomFilter(size_bytes={self.size_bytes}, num_hashes={self.num_hashes}, "
            f"fill={self.fill_ratio:.3f})"
        )
