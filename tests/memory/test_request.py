"""Tests for memory requests."""

import pytest

from repro.memory.request import AccessType, MemoryRequest


class TestAccessType:
    def test_load_is_not_write(self):
        assert not AccessType.LOAD.is_write

    def test_store_is_write(self):
        assert AccessType.STORE.is_write

    def test_atomic_is_write(self):
        assert AccessType.ATOMIC.is_write


class TestMemoryRequest:
    def test_defaults(self):
        request = MemoryRequest(address=0x1000)
        assert request.access_type is AccessType.LOAD
        assert request.size_bytes == 128
        assert not request.is_write

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            MemoryRequest(address=-1)

    def test_negative_sm_id_rejected(self):
        with pytest.raises(ValueError):
            MemoryRequest(address=0, sm_id=-1)

    def test_non_positive_size_rejected(self):
        with pytest.raises(ValueError):
            MemoryRequest(address=0, size_bytes=0)

    def test_store_is_write(self):
        request = MemoryRequest(address=0, access_type=AccessType.STORE)
        assert request.is_write

