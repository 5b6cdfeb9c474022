"""LLC latency timelines (Figure 5).

Figure 5 breaks the latency of conventional and extended LLC hits and misses
into their components: interconnect traversals, (software) tag lookups, data
array accesses and DRAM.  The breakdown here is assembled from the same
timing primitives the simulator uses, so the benchmark that regenerates the
figure stays consistent with the performance model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.config import ExtendedLLCTiming, MorpheusConfig


@dataclass(frozen=True)
class LatencyBreakdown:
    """One timeline of Figure 5: named segments in nanoseconds, in order."""

    name: str
    segments: Tuple[Tuple[str, float], ...]

    @property
    def total_ns(self) -> float:
        """End-to-end latency of the timeline."""
        return sum(duration for _, duration in self.segments)


def llc_latency_timelines(
    config: MorpheusConfig | None = None,
    llc_hit_ns: float = 160.0,
    dram_ns: float = 364.0,
    kernel_wait_ns: float = 148.0,
    noc_one_way_ns: float | None = None,
) -> Dict[str, LatencyBreakdown]:
    """Build the five Figure 5 timelines.

    Args:
        config: Morpheus configuration providing the extended LLC timing.
        llc_hit_ns: Conventional LLC array access latency (~160 ns).
        dram_ns: Off-chip access latency beyond the LLC lookup (so that a
            conventional miss totals ~608 ns, as the paper reports).
        kernel_wait_ns: Warp-scheduling wait before the extended LLC kernel
            warp services a request (makes an extended miss ~773 ns).
        noc_one_way_ns: One-way SM <-> LLC-partition interconnect latency.

    Returns:
        Mapping of timeline name to its breakdown: ``conventional_hit``,
        ``conventional_miss``, ``extended_hit``, ``extended_miss`` and
        ``predicted_extended_miss``.
    """
    cfg = config or MorpheusConfig()
    timing: ExtendedLLCTiming = cfg.timing
    noc = timing.noc_one_way_ns if noc_one_way_ns is None else noc_one_way_ns

    conventional_hit = LatencyBreakdown(
        name="conventional_hit",
        segments=(
            ("noc_to_partition", noc),
            ("llc_lookup", llc_hit_ns),
            ("noc_to_core", noc),
        ),
    )
    conventional_miss = LatencyBreakdown(
        name="conventional_miss",
        segments=(
            ("noc_to_partition", noc),
            ("llc_lookup", llc_hit_ns),
            ("dram", dram_ns),
            ("noc_to_core", noc),
        ),
    )

    extended_service = timing.kernel_dispatch_ns + timing.tag_lookup_ns + kernel_wait_ns
    extended_data = timing.register_file_access_ns + timing.indirect_mov_software_ns
    extended_hit = LatencyBreakdown(
        name="extended_hit",
        segments=(
            ("noc_to_partition", noc),
            ("controller", 8.0),
            ("noc_to_cache_sm", noc),
            ("extended_tag_lookup", extended_service),
            ("extended_data_access", extended_data),
            ("noc_to_partition_return", noc),
            ("noc_to_core", noc),
        ),
    )
    extended_miss = LatencyBreakdown(
        name="extended_miss",
        segments=(
            ("noc_to_partition", noc),
            ("controller", 8.0),
            ("noc_to_cache_sm", noc),
            ("extended_tag_lookup", extended_service),
            ("noc_to_partition_return", noc),
            ("dram", dram_ns),
            ("noc_to_core", noc),
        ),
    )
    predicted_extended_miss = LatencyBreakdown(
        name="predicted_extended_miss",
        segments=(
            ("noc_to_partition", noc),
            ("controller", 8.0),
            ("dram", dram_ns),
            ("noc_to_core", noc),
        ),
    )
    return {
        breakdown.name: breakdown
        for breakdown in (
            conventional_hit,
            conventional_miss,
            extended_hit,
            extended_miss,
            predicted_extended_miss,
        )
    }
