"""Tests for workload profiles, traces and trace generation."""

import random
from array import array
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.applications import (
    APPLICATIONS,
    COMPUTE_BOUND_APPS,
    MEMORY_BOUND_APPS,
    THRASHING_APPS,
    WorkloadClass,
    get_application,
)
from repro.workloads.generator import TraceGenerator, _stable_seed
from repro.workloads.trace import MemoryTrace


class TestApplications:
    def test_table2_application_counts(self):
        assert len(MEMORY_BOUND_APPS) == 14
        assert len(COMPUTE_BOUND_APPS) == 3
        assert len(APPLICATIONS) == 17

    def test_paper_names_present(self):
        for name in ("p-bfs", "cfd", "kmeans", "sgem", "nw", "page-r", "lbm", "mri-q", "hotsp", "lib"):
            assert name in APPLICATIONS

    def test_classification(self):
        assert get_application("kmeans").workload_class == WorkloadClass.MEMORY_BOUND
        assert get_application("mri-q").workload_class != WorkloadClass.MEMORY_BOUND

    def test_unknown_application(self):
        with pytest.raises(KeyError):
            get_application("does-not-exist")

    def test_thrashing_apps_have_per_sm_footprints(self):
        for name in THRASHING_APPS:
            assert get_application(name).per_sm_footprint_kib > 0

    def test_saturating_apps_have_no_per_sm_footprint(self):
        for name in MEMORY_BOUND_APPS:
            if name not in THRASHING_APPS:
                assert get_application(name).per_sm_footprint_kib == 0

    def test_footprint_grows_with_sms_for_thrashing_apps(self):
        profile = get_application("kmeans")
        assert profile.footprint_bytes(68) > profile.footprint_bytes(10)

    def test_llc_apki_positive_for_memory_bound(self):
        for name in MEMORY_BOUND_APPS:
            assert get_application(name).llc_apki() > 50

    def test_compute_bound_apps_have_low_llc_apki(self):
        for name in COMPUTE_BOUND_APPS:
            assert get_application(name).llc_apki() < 30

    def test_l1_hit_rate_improves_with_capacity(self):
        profile = get_application("cfd")
        bigger = profile.l1_hit_rate_for_capacity(256 * 1024)
        assert bigger > profile.l1_hit_rate
        assert bigger < 1.0

    def test_l1_hit_rate_baseline_unchanged(self):
        profile = get_application("cfd")
        assert profile.l1_hit_rate_for_capacity(128 * 1024) == pytest.approx(profile.l1_hit_rate)


class TestTrace:
    def test_negative_address_rejected(self):
        with pytest.raises(ValueError, match="negative address"):
            MemoryTrace(array("q", [0, -128]), bytes(2))

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="2 addresses but 1 write flags"):
            MemoryTrace(array("q", [0, 128]), b"\x01")

    def test_block_size_must_be_a_power_of_two(self):
        with pytest.raises(ValueError):
            MemoryTrace(array("q"), b"", block_size=96)


class TestTraceGenerator:
    def test_deterministic_with_seed(self):
        profile = get_application("cfd")
        first = TraceGenerator(profile, 20, scale=1 / 32, seed=3).generate(500)
        second = TraceGenerator(profile, 20, scale=1 / 32, seed=3).generate(500)
        assert first.addresses == second.addresses

    @pytest.mark.parametrize("block_size", [128, 64])
    def test_emits_block_aligned_requests(self, block_size):
        profile = get_application("histo")  # stores and atomics next to loads
        trace = TraceGenerator(profile, 20, scale=1 / 32, seed=3, block_size=block_size).generate(500)
        assert trace.block_size == block_size
        assert all(address % block_size == 0 for address in trace.addresses)
        assert set(trace.writes) == {0, 1}

    def test_different_seeds_differ(self):
        profile = get_application("cfd")
        first = TraceGenerator(profile, 20, scale=1 / 32, seed=3).generate(500)
        second = TraceGenerator(profile, 20, scale=1 / 32, seed=4).generate(500)
        assert first.addresses != second.addresses

    def test_footprint_scales_down(self):
        profile = get_application("cfd")
        full = TraceGenerator(profile, 20, scale=1.0).parameters(100)
        scaled = TraceGenerator(profile, 20, scale=1 / 16).parameters(100)
        assert scaled.footprint_blocks < full.footprint_blocks

    def test_streaming_cursor_persists_across_calls(self):
        profile = get_application("stencil")  # high streaming fraction
        generator = TraceGenerator(profile, 20, scale=1 / 32, seed=1)
        first_blocks = {a // 128 for a in generator.generate(2000).addresses}
        second = generator.generate(2000)
        footprint = generator.parameters(1).footprint_blocks
        second_streaming = {a // 128 for a in second.addresses if a // 128 >= footprint}
        # Streaming blocks of the second trace must not repeat those of the first.
        assert not (second_streaming & {b for b in first_blocks if b >= footprint})

    def test_write_fraction_roughly_matches_profile(self):
        profile = get_application("lbm")
        trace = TraceGenerator(profile, 20, scale=1 / 32, seed=2).generate(4000)
        assert sum(trace.writes) / len(trace) == pytest.approx(profile.write_fraction, abs=0.1)

    def test_invalid_arguments(self):
        profile = get_application("cfd")
        with pytest.raises(ValueError):
            TraceGenerator(profile, 0)
        with pytest.raises(ValueError):
            TraceGenerator(profile, 10, scale=2.0)


class _Request(NamedTuple):
    """One access as the request-object generator built it."""

    address: int
    access_type: str  # "load", "store" or "atomic"
    sm_id: int
    size_bytes: int

    @property
    def is_write(self):
        return self.access_type != "load"


class _ReferenceGenerator:
    """The request-object generation loop the flat arrays replaced, kept as the reference.

    Each call reseeds its RNG from (seed, application, compute SMs), carries
    the streaming cursor over from the previous call, and builds one request
    per access: its block (streaming, hot or cold region), then its type from
    an atomic draw and, only when that fails, a store draw.
    """

    def __init__(self, profile, num_compute_sms, scale, seed, block_size):
        self.profile = profile
        self.num_compute_sms = num_compute_sms
        self.scale = scale
        self.seed = seed
        self.block_size = block_size
        self._streaming_cursor = None

    def generate(self, num_accesses):
        profile = self.profile
        num_sms = self.num_compute_sms
        block_size = self.block_size
        footprint_bytes = profile.footprint_bytes(num_sms) * self.scale
        footprint_blocks = max(16, int(footprint_bytes / block_size))
        hot_blocks = max(1, int(footprint_blocks * profile.hot_fraction))
        cold_blocks = max(1, footprint_blocks - hot_blocks)
        rng = random.Random(_stable_seed(self.seed, profile.name, num_sms))

        requests = []
        if self._streaming_cursor is None:
            self._streaming_cursor = footprint_blocks
        for index in range(num_accesses):
            if rng.random() < profile.streaming_fraction:
                block = self._streaming_cursor
                self._streaming_cursor += 1
            elif rng.random() < profile.hot_probability:
                block = rng.randrange(hot_blocks)
            else:
                block = hot_blocks + rng.randrange(cold_blocks)

            if rng.random() < profile.atomic_fraction:
                access_type = "atomic"
            elif rng.random() < profile.write_fraction:
                access_type = "store"
            else:
                access_type = "load"
            requests.append(_Request(block * block_size, access_type, index % num_sms, block_size))
        return requests


def assert_pairs_match(application, num_compute_sms, scale, seed, block_size, lengths):
    """The flat (warm-up, measurement) pair equals the reference pair access by access."""
    profile = get_application(application)
    flat = TraceGenerator(profile, num_compute_sms, scale=scale, seed=seed, block_size=block_size)
    reference = _ReferenceGenerator(profile, num_compute_sms, scale, seed, block_size)
    for num_accesses in lengths:
        trace = flat.generate(num_accesses)
        requests = reference.generate(num_accesses)
        assert len(trace) == num_accesses
        assert trace.block_size == block_size
        assert list(trace.addresses) == [request.address for request in requests]
        assert [bool(flag) for flag in trace.writes] == [request.is_write for request in requests]


class TestFlatGeneratorMatchesReference:
    @pytest.mark.parametrize("application", sorted(APPLICATIONS))
    def test_every_application(self, application):
        for block_size in (64, 128):
            assert_pairs_match(application, 24, 1 / 32, 1, block_size, (300, 700))

    @given(
        st.sampled_from(sorted(APPLICATIONS)),
        st.integers(min_value=1, max_value=68),
        st.sampled_from((1 / 64, 1 / 32, 1 / 16, 1 / 4, 1.0)),
        st.integers(min_value=0, max_value=1_000),
        st.sampled_from((64, 128)),
        st.integers(min_value=0, max_value=400),
        st.integers(min_value=0, max_value=400),
    )
    @settings(max_examples=120, deadline=None)
    def test_warmup_and_measurement_pair(
        self, application, num_compute_sms, scale, seed, block_size, warmup, measured
    ):
        assert_pairs_match(
            application, num_compute_sms, scale, seed, block_size, (warmup, measured)
        )
