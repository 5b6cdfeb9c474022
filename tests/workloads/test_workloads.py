"""Tests for workload profiles, traces and trace generation."""

import pytest

from repro.workloads.applications import (
    APPLICATIONS,
    COMPUTE_BOUND_APPS,
    MEMORY_BOUND_APPS,
    THRASHING_APPS,
    WorkloadClass,
    get_application,
)
from repro.memory.request import AccessType, MemoryRequest
from repro.workloads.generator import TraceGenerator
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
        assert get_application("kmeans").is_memory_bound
        assert not get_application("mri-q").is_memory_bound

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
    def test_footprint(self):
        trace = MemoryTrace([MemoryRequest(address=i * 128) for i in range(10)])
        assert trace.unique_blocks() == 10
        assert trace.footprint_bytes() == 1280

    def test_footprint_counts_blocks_of_the_trace_block_size(self):
        requests = [MemoryRequest(address=i * 64, size_bytes=64) for i in range(10)]
        trace = MemoryTrace(requests, block_size=64)
        assert trace.unique_blocks() == 10
        assert trace.footprint_bytes() == 640

    def test_write_and_atomic_fractions(self):
        requests = [
            MemoryRequest(address=0, access_type=AccessType.STORE),
            MemoryRequest(address=0),
            MemoryRequest(address=0, access_type=AccessType.ATOMIC),
        ]
        trace = MemoryTrace(requests)
        assert trace.write_fraction() == pytest.approx(2 / 3)
        assert trace.atomic_fraction() == pytest.approx(1 / 3)

    def test_block_size_must_be_a_power_of_two(self):
        with pytest.raises(ValueError):
            MemoryTrace(block_size=96)


class TestTraceGenerator:
    def test_deterministic_with_seed(self):
        profile = get_application("cfd")
        first = TraceGenerator(profile, 20, scale=1 / 32, seed=3).generate(500)
        second = TraceGenerator(profile, 20, scale=1 / 32, seed=3).generate(500)
        assert first.addresses() == second.addresses()

    @pytest.mark.parametrize("block_size", [128, 64])
    def test_emits_block_aligned_requests(self, block_size):
        profile = get_application("histo")  # stores and atomics next to loads
        trace = TraceGenerator(profile, 20, scale=1 / 32, seed=3, block_size=block_size).generate(500)
        assert trace.block_size == block_size
        assert all(request.address % block_size == 0 for request in trace)
        assert all(request.size_bytes == block_size for request in trace)
        assert [request.sm_id for request in trace] == [index % 20 for index in range(500)]
        assert {request.access_type for request in trace} == set(AccessType)

    def test_different_seeds_differ(self):
        profile = get_application("cfd")
        first = TraceGenerator(profile, 20, scale=1 / 32, seed=3).generate(500)
        second = TraceGenerator(profile, 20, scale=1 / 32, seed=4).generate(500)
        assert first.addresses() != second.addresses()

    def test_footprint_scales_down(self):
        profile = get_application("cfd")
        full = TraceGenerator(profile, 20, scale=1.0).parameters(100)
        scaled = TraceGenerator(profile, 20, scale=1 / 16).parameters(100)
        assert scaled.footprint_blocks < full.footprint_blocks

    def test_streaming_cursor_persists_across_calls(self):
        profile = get_application("stencil")  # high streaming fraction
        generator = TraceGenerator(profile, 20, scale=1 / 32, seed=1)
        first_blocks = {a // 128 for a in generator.generate(2000).addresses()}
        second = generator.generate(2000)
        footprint = generator.parameters(1).footprint_blocks
        second_streaming = {a // 128 for a in second.addresses() if a // 128 >= footprint}
        # Streaming blocks of the second trace must not repeat those of the first.
        assert not (second_streaming & {b for b in first_blocks if b >= footprint})

    def test_write_fraction_roughly_matches_profile(self):
        profile = get_application("lbm")
        trace = TraceGenerator(profile, 20, scale=1 / 32, seed=2).generate(4000)
        assert trace.write_fraction() == pytest.approx(profile.write_fraction, abs=0.1)

    def test_invalid_arguments(self):
        profile = get_application("cfd")
        with pytest.raises(ValueError):
            TraceGenerator(profile, 0)
        with pytest.raises(ValueError):
            TraceGenerator(profile, 10, scale=2.0)
