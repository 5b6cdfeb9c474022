"""Tests for the Bloom filter and the dual-filter hit/miss predictor."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bloom_filter import BloomFilter
from repro.core.hit_miss_predictor import HitMissPredictor


class TestBloomFilter:
    def test_empty_filter_rejects_everything(self):
        bloom = BloomFilter()
        assert not bloom.query(42)

    def test_inserted_keys_always_found(self):
        bloom = BloomFilter()
        for key in range(50):
            bloom.insert(key)
        assert all(bloom.query(key) for key in range(50))

    def test_no_false_negatives_property(self):
        bloom = BloomFilter(size_bytes=32, num_hashes=4)
        keys = random.Random(7).sample(range(10_000), 64)
        bloom.insert_all(keys)
        assert all(key in bloom for key in keys)

    def test_false_positive_rate_is_low_for_small_sets(self):
        bloom = BloomFilter(size_bytes=32, num_hashes=4)
        bloom.insert_all(range(32))
        false_positives = sum(1 for key in range(1000, 2000) if bloom.query(key))
        assert false_positives / 1000 < 0.25

    def test_clear(self):
        bloom = BloomFilter()
        bloom.insert(1)
        bloom.clear()
        assert not bloom.query(1)
        assert bloom.insertions == 0
        assert bloom.fill_ratio == 0.0

    def test_negative_key_rejected(self):
        bloom = BloomFilter()
        with pytest.raises(ValueError):
            bloom.insert(-1)
        with pytest.raises(ValueError):
            bloom.query(-1)

    def test_fill_ratio_monotonic(self):
        bloom = BloomFilter()
        previous = 0.0
        for key in range(0, 200, 10):
            bloom.insert(key)
            assert bloom.fill_ratio >= previous
            previous = bloom.fill_ratio

    @given(st.sets(st.integers(min_value=0, max_value=1 << 40), min_size=1, max_size=80))
    @settings(max_examples=30, deadline=None)
    def test_membership_property(self, keys):
        bloom = BloomFilter(size_bytes=64)
        bloom.insert_all(keys)
        assert all(bloom.query(key) for key in keys)


def _reference_positions(key, num_bits, num_hashes):
    """The per-bit version: double hashing over a blake2 digest of the key."""
    digest = hashlib.blake2b(int(key).to_bytes(16, "little"), digest_size=16).digest()
    h1 = int.from_bytes(digest[:8], "little")
    h2 = int.from_bytes(digest[8:], "little") | 1
    return [(h1 + i * h2) % num_bits for i in range(num_hashes)]


class TestBloomFilterMatchesReference:
    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=8),
        st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=1 << 40)),
            min_size=1,
            max_size=150,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_query_and_insert_match_per_bit_version(self, size_bytes, num_hashes, operations):
        bloom = BloomFilter(size_bytes=size_bytes, num_hashes=num_hashes)
        bits = set()
        for insert, key in operations:
            positions = _reference_positions(key, size_bytes * 8, num_hashes)
            if insert:
                bloom.insert(key)
                bits.update(positions)
            else:
                assert bloom.query(key) == all(pos in bits for pos in positions)
            assert bloom.fill_ratio == len(bits) / (size_bytes * 8)


class TestHitMissPredictor:
    def _simulate_lru_set(self, predictor, set_index, associativity, accesses):
        """Drive the predictor alongside a reference LRU set; return mispredictions."""
        resident = []  # LRU order, most recent last
        false_negatives = 0
        for tag in accesses:
            predicted_hit = predictor.predict(set_index, tag)
            actual_hit = tag in resident
            predictor.record_outcome(predicted_hit, actual_hit)
            if actual_hit and not predicted_hit:
                false_negatives += 1
            # Update the reference LRU set (insert on miss, touch on hit).
            if actual_hit:
                resident.remove(tag)
            elif len(resident) >= associativity:
                resident.pop(0)
            resident.append(tag)
            predictor.record_access(set_index, tag)
        return false_negatives

    def test_never_false_negative_under_lru(self):
        associativity = 8
        predictor = HitMissPredictor(num_sets=4, associativity=associativity)
        rng = random.Random(11)
        accesses = [rng.randrange(40) for _ in range(2000)]
        false_negatives = self._simulate_lru_set(predictor, 0, associativity, accesses)
        assert false_negatives == 0
        assert predictor.stats.false_negatives == 0

    def test_false_positive_rate_reasonable(self):
        associativity = 8
        predictor = HitMissPredictor(num_sets=1, associativity=associativity)
        rng = random.Random(3)
        accesses = [rng.randrange(256) for _ in range(3000)]
        self._simulate_lru_set(predictor, 0, associativity, accesses)
        assert predictor.stats.false_positive_rate < 0.5

    def test_filters_swap_after_associativity_distinct_tags(self):
        predictor = HitMissPredictor(num_sets=1, associativity=4)
        for tag in range(4):
            predictor.record_access(0, tag)
        assert predictor.stats.swaps == 1

    def test_prediction_counts(self):
        predictor = HitMissPredictor(num_sets=2)
        predictor.predict(0, 10)
        predictor.predict(1, 20)
        assert predictor.stats.predictions == 2
        assert predictor.stats.predicted_misses == 2

    def test_storage_matches_paper(self):
        predictor = HitMissPredictor(num_sets=256, filter_bytes=32)
        assert predictor.storage_bytes() == 16 * 1024

    def test_invalid_set_index(self):
        predictor = HitMissPredictor(num_sets=2)
        with pytest.raises(ValueError):
            predictor.predict(5, 1)

    def test_reset(self):
        predictor = HitMissPredictor(num_sets=2)
        predictor.record_access(0, 1)
        predictor.predict(0, 1)
        predictor.reset()
        assert predictor.stats.predictions == 0
        assert not predictor.predict(0, 1)

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=10, max_size=400))
    @settings(max_examples=20, deadline=None)
    def test_no_false_negatives_property(self, accesses):
        associativity = 8
        predictor = HitMissPredictor(num_sets=1, associativity=associativity)
        false_negatives = self._simulate_lru_set(predictor, 0, associativity, accesses)
        assert false_negatives == 0
