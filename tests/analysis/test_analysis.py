"""Tests for metrics, latency breakdowns, overheads and report formatting."""

import pytest

from repro.analysis.latency_breakdown import llc_latency_timelines
from repro.analysis.metrics import geometric_mean
from repro.analysis.overheads import compute_overheads
from repro.analysis.report import format_series, format_table


class TestMetrics:
    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([2.0, 2.0, 2.0]) == pytest.approx(2.0)

    def test_geometric_mean_rejects_bad_input(self):
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])


class TestLatencyBreakdown:
    def test_all_five_timelines_present(self):
        timelines = llc_latency_timelines()
        assert set(timelines) == {
            "conventional_hit",
            "conventional_miss",
            "extended_hit",
            "extended_miss",
            "predicted_extended_miss",
        }

    def test_conventional_miss_around_608ns(self):
        timelines = llc_latency_timelines()
        assert timelines["conventional_miss"].total_ns == pytest.approx(608.0, rel=0.15)

    def test_extended_miss_longer_than_conventional_miss(self):
        timelines = llc_latency_timelines()
        assert timelines["extended_miss"].total_ns > timelines["conventional_miss"].total_ns

    def test_extended_miss_about_27_percent_longer(self):
        timelines = llc_latency_timelines()
        ratio = timelines["extended_miss"].total_ns / timelines["conventional_miss"].total_ns
        assert 1.1 < ratio < 1.45

    def test_predicted_miss_as_fast_as_conventional_miss(self):
        timelines = llc_latency_timelines()
        assert timelines["predicted_extended_miss"].total_ns <= timelines["conventional_miss"].total_ns * 1.05

    def test_hits_faster_than_misses(self):
        timelines = llc_latency_timelines()
        assert timelines["conventional_hit"].total_ns < timelines["conventional_miss"].total_ns
        assert timelines["extended_hit"].total_ns < timelines["extended_miss"].total_ns

    def test_extended_miss_includes_extra_noc_segments(self):
        timelines = llc_latency_timelines()
        assert dict(timelines["extended_miss"].segments)["noc_to_cache_sm"] > 0
        assert "noc_to_cache_sm" not in dict(timelines["predicted_extended_miss"].segments)


class TestOverheads:
    def test_storage_per_partition_is_21_kib(self):
        overheads = compute_overheads()
        assert overheads.total_bytes_per_partition == 21 * 1024
        assert overheads.bloom_filter_bytes_per_partition == 16 * 1024
        assert overheads.query_logic_bytes_per_partition == 5 * 1024

    def test_storage_fraction_about_4_percent(self):
        overheads = compute_overheads()
        assert overheads.storage_fraction_of_llc_slice == pytest.approx(0.04, abs=0.01)

    def test_power_fraction_below_one_percent(self):
        overheads = compute_overheads()
        assert overheads.power_fraction < 0.011

    def test_total_storage_about_210_kib(self):
        assert compute_overheads().total_bytes == 210 * 1024


class TestReportFormatting:
    def test_format_table_contains_all_cells(self):
        table = format_table(["app", "speedup"], [["kmeans", 2.34], ["cfd", 1.4]], title="Fig2")
        assert "Fig2" in table
        assert "kmeans" in table
        assert "2.34" in table

    def test_format_series(self):
        line = format_series("kmeans", {10: 1.0, 20: 1.6})
        assert "kmeans" in line
        assert "1.600" in line
