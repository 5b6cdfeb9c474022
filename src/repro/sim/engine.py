"""The memory-hierarchy engine: drives an LLC-level trace through the model.

The engine owns the banked conventional LLC, the optional Morpheus
controllers (one per partition, sharing one aggregate extended LLC), the
interconnect and the DRAM model.  It replays a trace of LLC-level accesses
and collects the counts the performance model needs: hit rates per level,
average access latency, per-level bytes, interconnect load and DRAM traffic.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.config import MorpheusConfig
from repro.core.controller import AccessOutcome, MorpheusController
from repro.core.extended_llc import Compressibility, ExtendedLLC
from repro.gpu.config import GPUConfig
from repro.interconnect.network import InterconnectNetwork
from repro.memory.dram import DRAMModel
from repro.memory.llc import BankedLLC
from repro.memory.request import MemoryRequest
from repro.workloads.trace import MemoryTrace


@dataclass
class HierarchyCounters:
    """Counts accumulated by one engine run over a trace."""

    llc_accesses: int = 0
    conventional_hits: int = 0
    extended_hits: int = 0
    extended_requests: int = 0
    dram_accesses: int = 0
    predicted_misses: int = 0
    false_positive_trips: int = 0
    writebacks: int = 0
    total_latency_cycles: float = 0.0
    conventional_bytes: float = 0.0
    extended_bytes: float = 0.0
    dram_bytes: float = 0.0
    noc_bytes: float = 0.0
    elapsed_cycles: float = 0.0

    @property
    def llc_hits(self) -> int:
        """Hits in either LLC."""
        return self.conventional_hits + self.extended_hits

    @property
    def llc_hit_rate(self) -> float:
        """Overall LLC hit rate."""
        return self.llc_hits / self.llc_accesses if self.llc_accesses else 0.0

    @property
    def conventional_hit_rate(self) -> float:
        """Conventional LLC hit rate over all LLC accesses."""
        return self.conventional_hits / self.llc_accesses if self.llc_accesses else 0.0

    @property
    def extended_hit_rate(self) -> float:
        """Extended LLC hit rate over extended-routed accesses."""
        return self.extended_hits / self.extended_requests if self.extended_requests else 0.0

    @property
    def extended_fraction(self) -> float:
        """Fraction of LLC accesses routed to the extended LLC."""
        return self.extended_requests / self.llc_accesses if self.llc_accesses else 0.0

    @property
    def dram_access_fraction(self) -> float:
        """Fraction of LLC accesses that ended in DRAM."""
        return self.dram_accesses / self.llc_accesses if self.llc_accesses else 0.0

    @property
    def average_latency_cycles(self) -> float:
        """Average LLC-level access latency observed over the trace."""
        return self.total_latency_cycles / self.llc_accesses if self.llc_accesses else 0.0

    def to_jsonable(self) -> Dict[str, float]:
        """Render the counters as a JSON-compatible field dict."""
        return dataclasses.asdict(self)

    @classmethod
    def from_jsonable(cls, payload: Dict[str, float]) -> "HierarchyCounters":
        """Rebuild counters from :meth:`to_jsonable` output (bit-identical)."""
        return cls(**payload)


class MemoryHierarchyEngine:
    """Replays LLC-level traces against the modelled memory hierarchy.

    Args:
        gpu: GPU configuration (provides LLC, DRAM and interconnect configs).
        morpheus: Morpheus configuration; ``None`` models a conventional GPU.
        cache_sm_ids: SMs in cache mode (ignored when ``morpheus`` is None).
        compressibility: Workload block-compressibility mix for the extended LLC.
        capacity_scale: Factor by which cache capacities are scaled down to
            match a downscaled trace footprint (keeps hit rates representative
            while traces stay short).
        request_interval_cycles: Modelled gap between consecutive trace
            entries entering the memory system; sets the offered load for the
            bandwidth/queueing models.
    """

    def __init__(
        self,
        gpu: GPUConfig,
        morpheus: Optional[MorpheusConfig] = None,
        cache_sm_ids: Optional[List[int]] = None,
        compressibility: Optional[Compressibility] = None,
        capacity_scale: float = 1.0,
        request_interval_cycles: float = 2.0,
    ) -> None:
        if not 0.0 < capacity_scale <= 1.0:
            raise ValueError("capacity_scale must be in (0, 1]")
        if request_interval_cycles <= 0:
            raise ValueError("request_interval_cycles must be positive")
        self.gpu = gpu
        self.morpheus_config = morpheus
        self.capacity_scale = capacity_scale
        self.request_interval_cycles = request_interval_cycles

        llc_config = gpu.llc
        if capacity_scale < 1.0:
            scaled = max(
                llc_config.num_partitions * llc_config.associativity * llc_config.block_size,
                int(llc_config.capacity_bytes * capacity_scale),
            )
            llc_config = llc_config.with_capacity(scaled)
        self.llc = BankedLLC(llc_config)
        self.dram = DRAMModel(gpu.dram)
        self.network = InterconnectNetwork(gpu.interconnect)

        self.extended_llc: Optional[ExtendedLLC] = None
        self.controllers: List[MorpheusController] = []
        if morpheus is not None and cache_sm_ids:
            rf_bytes = int(gpu.register_file_bytes_per_sm * capacity_scale)
            l1_bytes = int(gpu.l1_shared_bytes_per_sm * capacity_scale)
            self.extended_llc = ExtendedLLC(
                cache_sm_ids=list(cache_sm_ids),
                config=morpheus,
                register_file_bytes=max(morpheus.block_size * 4, rf_bytes),
                l1_shared_bytes=max(morpheus.block_size * 4, l1_bytes),
                compressibility=compressibility,
            )
            self.controllers = [
                MorpheusController(
                    partition,
                    self.extended_llc,
                    morpheus,
                    core_clock_ghz=gpu.core_clock_ghz,
                    dram_access=self._dram_access,
                    noc_round_trip=self._extended_noc_round_trip,
                )
                for partition in self.llc.partitions
            ]
        self.counters = HierarchyCounters()
        self._now = 0.0
        self._start_cycle = 0.0

    # -- callbacks injected into the Morpheus controllers --------------------------

    def _dram_access(self, request: MemoryRequest, at_cycle: float) -> float:
        latency = self.dram.access(request, at_cycle)
        self.counters.dram_accesses += 1
        self.counters.dram_bytes += request.size_bytes
        return latency

    def _extended_noc_round_trip(self, size_bytes: int, at_cycle: float) -> float:
        # The extra hop to the cache-mode SM uses the same network; pick the
        # port of the SM-side partition pseudo-randomly by size/time.
        partition_id = int(at_cycle) % self.gpu.interconnect.num_partitions
        latency = self.network.traverse(
            partition_id, size_bytes, at_cycle, elapsed_cycles=max(1.0, self._now)
        )
        self.counters.noc_bytes += size_bytes + self.gpu.block_size
        return latency

    # -- trace replay ------------------------------------------------------------------

    def run(self, trace: MemoryTrace) -> HierarchyCounters:
        """Replay ``trace`` and return the accumulated counters."""
        block = self.gpu.block_size
        interval = self.request_interval_cycles
        start_cycle = self._start_cycle
        counters = self.counters
        partition_of = self.llc.mapping.partition_of
        traverse = self.network.traverse
        controllers = self.controllers
        for index, entry in enumerate(trace):
            # Time continues across run() calls so warm-up and measurement
            # share one continuous timeline (queue occupancies stay valid).
            now = start_cycle + index * interval
            self._now = now
            request = entry.to_request(issue_cycle=int(now), block_size=block)

            # The SM -> LLC partition hop (all LLC traffic pays this).
            partition_id = partition_of(request.address)
            noc_latency = traverse(
                partition_id, 32, now, response_bytes=block, elapsed_cycles=max(1.0, now)
            )
            counters.noc_bytes += 32 + block

            if controllers:
                outcome = controllers[partition_id].access(request, now)
                self._account_morpheus(outcome, request, noc_latency)
            else:
                self._access_baseline(request, partition_id, now, noc_latency)

            counters.llc_accesses += 1
        self._start_cycle += len(trace) * self.request_interval_cycles
        self.counters.elapsed_cycles = max(
            1.0, self.counters.elapsed_cycles + len(trace) * self.request_interval_cycles
        )
        return self.counters

    def _access_baseline(
        self, request: MemoryRequest, partition_id: int, now: float, noc_latency: float
    ) -> None:
        counters = self.counters
        hit, latency, writeback = self.llc.partitions[partition_id].access(request, now)
        total = noc_latency + latency
        if hit:
            counters.conventional_hits += 1
        else:
            total += self._dram_access(request, now + latency)
        counters.conventional_bytes += request.size_bytes
        if writeback is not None:
            # An evicted dirty block always moves one full cache block to
            # DRAM, regardless of the triggering request's size.
            counters.writebacks += 1
            counters.dram_bytes += self.gpu.block_size
        counters.total_latency_cycles += total

    def _account_morpheus(
        self, outcome: AccessOutcome, request: MemoryRequest, noc_latency: float
    ) -> None:
        counters = self.counters
        if outcome.hit_level == "llc":
            counters.conventional_hits += 1
            counters.conventional_bytes += request.size_bytes
        elif outcome.hit_level == "extended_llc":
            counters.extended_hits += 1
            counters.extended_requests += 1
            counters.extended_bytes += request.size_bytes
        else:  # served by DRAM
            if outcome.predicted_miss or outcome.false_positive:
                counters.extended_requests += 1
            else:
                counters.conventional_bytes += request.size_bytes
            if outcome.predicted_miss:
                counters.predicted_misses += 1
            if outcome.false_positive:
                counters.false_positive_trips += 1
        if outcome.writebacks:
            counters.writebacks += len(outcome.writebacks)
            # Each evicted dirty block writes one full cache block back to DRAM.
            counters.dram_bytes += len(outcome.writebacks) * self.gpu.block_size
        counters.total_latency_cycles += noc_latency + outcome.latency_cycles

    # -- derived metrics -----------------------------------------------------------------

    def predictor_stats(self):
        """Aggregate hit/miss predictor statistics across all controllers."""
        from repro.core.hit_miss_predictor import PredictorStats

        total = PredictorStats()
        for controller in self.controllers:
            stats = controller.predictor.stats
            total.predictions += stats.predictions
            total.predicted_hits += stats.predicted_hits
            total.predicted_misses += stats.predicted_misses
            total.false_positives += stats.false_positives
            total.false_negatives += stats.false_negatives
            total.swaps += stats.swaps
        return total

    def llc_throughput_gbps(self) -> float:
        """Achieved conventional LLC throughput over the replayed trace."""
        return self.llc.throughput_gbps(self.counters.elapsed_cycles)

    def reset_counters(self) -> None:
        """Zero all measurement counters while preserving cache contents.

        Used after a warm-up replay so that steady-state hit rates are
        measured without the cold-start transient.
        """
        from repro.interconnect.network import NetworkStats

        self.counters = HierarchyCounters()
        self.network.stats = NetworkStats()
        self.dram.total_accesses = 0
        self.dram.total_bytes = 0
        for partition in self.llc.partitions:
            partition.cache.reset_stats()
            partition.bytes_served = 0
            partition.requests_served = 0
        for controller in self.controllers:
            controller.stats.__init__()

    def reset(self) -> None:
        """Reset all components and counters (configuration preserved)."""
        self.llc.reset()
        self.dram.reset()
        self.network.reset()
        if self.extended_llc is not None:
            self.extended_llc.reset()
        for controller in self.controllers:
            controller.reset()
        self.counters = HierarchyCounters()
        self._now = 0.0
        self._start_cycle = 0.0
