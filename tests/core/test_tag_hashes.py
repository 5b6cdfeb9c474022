"""The replay's two per-tag hashes against the bodies they replaced.

A streaming application's Morpheus replay hashes nearly every tag it fills
into the extended LLC: :func:`~repro.core.bloom_filter._key_mask` gives a
tag's Bloom filter bits, and :meth:`Compressibility.level_for_tag` a filled
block's compression level.  Both were made cheaper without changing a
result: the mask reduces its two hashes modulo the filter size before its
loop and reads the digest with one ``from_bytes``, and neither converts its
tag with ``int()``.  The straightforward bodies are kept here as references,
and ``hypothesis`` properties assert equal masks and levels over tags in
[0, 2**64), filter sizes from 1 to 1024 bits (non-powers of two included),
1 to 8 hashes and random compressibility mixes.
"""

from __future__ import annotations

import hashlib

from hypothesis import given, settings, strategies as st

from repro.core.bloom_filter import _key_mask
from repro.core.compression import CompressionLevel
from repro.core.extended_llc import Compressibility


def reference_key_mask(key: int, num_bits: int, num_hashes: int) -> int:
    """Double hashing over a blake2 digest, one full-width sum per bit."""
    digest = hashlib.blake2b(
        int(key).to_bytes(16, "little", signed=False), digest_size=16
    ).digest()
    h1 = int.from_bytes(digest[:8], "little")
    h2 = int.from_bytes(digest[8:], "little") | 1
    mask = 0
    for i in range(num_hashes):
        mask |= 1 << ((h1 + i * h2) % num_bits)
    return mask


def reference_level_for_tag(compressibility: Compressibility, tag: int) -> CompressionLevel:
    """A uniform draw in [0, 1) from the tag's digest, against the mix."""
    digest = hashlib.blake2b(int(tag).to_bytes(16, "little"), digest_size=8).digest()
    draw = int.from_bytes(digest, "little") / 2 ** 64
    if draw < compressibility.high_fraction:
        return CompressionLevel.HIGH
    if draw < compressibility.high_fraction + compressibility.low_fraction:
        return CompressionLevel.LOW
    return CompressionLevel.UNCOMPRESSED


_TAGS = st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=20)


@st.composite
def compressibility_mixes(draw) -> Compressibility:
    """A mix of highly and lowly compressible fractions summing to at most 1."""
    high = draw(st.floats(min_value=0.0, max_value=1.0))
    low = draw(st.floats(min_value=0.0, max_value=1.0 - high))
    return Compressibility(high_fraction=high, low_fraction=low)


#: Filter sizes in bits: the edges and the paper's 256, then any size.
_NUM_BITS = st.one_of(
    st.sampled_from((1, 2, 255, 256, 257, 1024)), st.integers(min_value=1, max_value=1024)
)


@given(_TAGS, _NUM_BITS, st.integers(min_value=1, max_value=8))
@settings(max_examples=300, deadline=None)
def test_key_mask_matches_reference(tags, num_bits, num_hashes):
    for tag in tags:
        assert _key_mask(tag, num_bits, num_hashes) == reference_key_mask(
            tag, num_bits, num_hashes
        )


@given(_TAGS, compressibility_mixes())
@settings(max_examples=300, deadline=None)
def test_level_for_tag_matches_reference(tags, compressibility):
    for tag in tags:
        assert compressibility.level_for_tag(tag) is reference_level_for_tag(
            compressibility, tag
        )
