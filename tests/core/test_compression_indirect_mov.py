"""Tests for the compression levels, the compression capacity factor and the
extended-LLC timing's Indirect-MOV latency check.

The file name predates the removal of the BDI compressor, the compression
level allocator and the Indirect-MOV model, and is kept so the IDs of the
tests in it stay the same.  The replay reads Indirect-MOV only as a latency;
its effect on an access is tested in ``test_stores_and_extended_llc.py``
(``TestExtendedLLCKernel::test_indirect_mov_isa_reduces_latency``).
"""

import pytest

from repro.core.compression import CompressionLevel, effective_capacity_factor
from repro.core.config import ExtendedLLCTiming


class TestCompressionLevel:
    def test_sizes(self):
        assert CompressionLevel.HIGH.compressed_size == 32
        assert CompressionLevel.LOW.compressed_size == 64
        assert CompressionLevel.UNCOMPRESSED.compressed_size == 128


class TestEffectiveCapacityFactor:
    def test_all_uncompressed(self):
        assert effective_capacity_factor(0.0, 0.0) == pytest.approx(1.0)

    def test_all_high(self):
        assert effective_capacity_factor(1.0, 0.0) == pytest.approx(4.0)

    def test_mixed(self):
        factor = effective_capacity_factor(0.3, 0.3)
        assert 1.0 < factor < 4.0

    def test_invalid_fractions(self):
        with pytest.raises(ValueError):
            effective_capacity_factor(0.8, 0.5)


class TestIndirectMovTiming:
    def test_non_positive_latency_rejected(self):
        with pytest.raises(ValueError):
            ExtendedLLCTiming(indirect_mov_hardware_ns=0)
        with pytest.raises(ValueError):
            ExtendedLLCTiming(indirect_mov_software_ns=-1)
