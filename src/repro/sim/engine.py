"""The memory-hierarchy engine: drives an LLC-level trace through the model.

The engine owns the banked conventional LLC, the optional Morpheus
controllers (one per partition, sharing one aggregate extended LLC), the
interconnect and the DRAM model.  It replays a trace of LLC-level accesses,
handing each layer an access's byte address and write flag as plain values,
and collects the counts the performance model needs: hit rates per level,
average access latency, per-level bytes, interconnect load and DRAM traffic.
Every layer moves one block of the GPU's block size per access.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.config import MorpheusConfig
from repro.core.controller import MorpheusController, NocRoundTripFn
from repro.core.extended_llc import Compressibility, ExtendedLLC
from repro.gpu.config import GPUConfig
from repro.interconnect.network import InterconnectNetwork
from repro.memory.dram import DRAMModel
from repro.memory.llc import BankedLLC, CacheStats
from repro.workloads.trace import MemoryTrace

#: Bytes an SM sends to an LLC partition per request (one block comes back).
REQUEST_BYTES = 32


def _extended_round_trip(
    network: InterconnectNetwork, num_partitions: int, block_size: int
) -> NocRoundTripFn:
    """The controllers' extra hop to a cache-mode SM, on ``network``.

    The hop uses the port of a partition picked pseudo-randomly by time;
    it carries one block out and one block back.
    """

    def round_trip(at_cycle: float) -> float:
        # max(1.0, at_cycle) as elapsed time, without the builtin call.
        return network.traverse(
            int(at_cycle) % num_partitions, block_size, at_cycle, block_size,
            at_cycle if at_cycle > 1.0 else 1.0,
        )

    return round_trip


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
            Its block size must be the GPU's.
        cache_sm_ids: SMs in cache mode (ignored when ``morpheus`` is None).
        compressibility: Workload block-compressibility mix for the extended LLC.
        capacity_scale: Factor by which cache capacities are scaled down to
            match a downscaled trace footprint (keeps hit rates representative
            while traces stay short).
        request_interval_cycles: Modelled gap between consecutive trace
            requests entering the memory system; sets the offered load for
            the bandwidth/queueing models.

    Raises:
        ValueError: if ``morpheus`` has another block size than ``gpu``.
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
        if morpheus is not None and morpheus.block_size != gpu.block_size:
            raise ValueError(
                f"the Morpheus config has {morpheus.block_size}-byte blocks, "
                f"the GPU has {gpu.block_size}-byte blocks"
            )
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
            # The controllers reach DRAM and the NoC directly, not through
            # the engine, and the engine counts that traffic from each
            # outcome: no controller points back at the engine, so reference
            # counting frees it as soon as a replay drops it.
            round_trip = _extended_round_trip(
                self.network, self.llc.mapping.num_partitions, gpu.block_size
            )
            self.controllers = [
                MorpheusController(
                    partition,
                    self.extended_llc,
                    morpheus,
                    core_clock_ghz=gpu.core_clock_ghz,
                    dram_access=self.dram.access,
                    noc_round_trip=round_trip,
                )
                for partition in self.llc.partitions
            ]
        self.counters = HierarchyCounters()
        self._start_cycle = 0.0
        # Per-access constants of the replay loop.
        self._block_size = gpu.block_size
        self._num_partitions = self.llc.mapping.num_partitions

    # -- trace replay ------------------------------------------------------------------

    def run(self, trace: MemoryTrace) -> HierarchyCounters:
        """Replay ``trace`` and return the accumulated counters.

        Raises:
            ValueError: if the trace's block size is not the GPU's.
        """
        block = self._block_size
        if trace.block_size != block:
            raise ValueError(
                f"trace {trace.name!r} has {trace.block_size}-byte blocks, "
                f"the GPU has {block}-byte blocks"
            )
        interval = self.request_interval_cycles
        start_cycle = self._start_cycle
        counters = self.counters
        num_partitions = self._num_partitions
        traverse = self.network.traverse
        controllers = self.controllers
        partitions = self.llc.partitions
        dram_access = self.dram.access
        accesses = zip(trace.addresses, map(bool, trace.writes))
        for index, (address, is_write) in enumerate(accesses):
            # Time continues across run() calls so warm-up and measurement
            # share one continuous timeline (queue occupancies stay valid).
            now = start_cycle + index * interval

            # The SM -> LLC partition hop (all LLC traffic pays this).
            partition_id = (address // block) % num_partitions
            # max(1.0, now) as elapsed time, without the builtin call.
            noc_latency = traverse(
                partition_id, REQUEST_BYTES, now, block, now if now > 1.0 else 1.0
            )

            if not controllers:
                # A conventional GPU: the partition's slice, then DRAM on a miss.
                hit, latency, writeback = partitions[partition_id].access(address, is_write, now)
                total = noc_latency + latency
                if hit:
                    counters.conventional_hits += 1
                else:
                    total += dram_access(address, now + latency)
                    counters.dram_accesses += 1
                    counters.dram_bytes += block
                counters.conventional_bytes += block
                if writeback is not None:
                    counters.writebacks += 1
                    counters.dram_bytes += block
                counters.total_latency_cycles += total
                continue

            hit_level, latency, predicted_miss, false_positive, writebacks = (
                controllers[partition_id].access(address, is_write, now)
            )
            if hit_level == "llc":
                counters.conventional_hits += 1
                counters.conventional_bytes += block
            elif hit_level == "extended_llc":
                counters.extended_hits += 1
                counters.extended_requests += 1
                counters.extended_bytes += block
                # The round trip to the cache-mode SM: one block out, one back.
                counters.noc_bytes += 2 * block
            else:  # served by DRAM
                counters.dram_accesses += 1
                counters.dram_bytes += block
                if predicted_miss:
                    counters.extended_requests += 1
                    counters.predicted_misses += 1
                elif false_positive:
                    counters.extended_requests += 1
                    counters.false_positive_trips += 1
                    counters.noc_bytes += 2 * block  # the wasted round trip
                else:
                    counters.conventional_bytes += block
            if writebacks:
                counters.writebacks += len(writebacks)
                # Each evicted dirty block writes one block back to DRAM.
                counters.dram_bytes += len(writebacks) * block
            counters.total_latency_cycles += noc_latency + latency
        # Every access's partition hop carried its request out and one block back.
        counters.noc_bytes += len(trace) * (REQUEST_BYTES + block)
        counters.llc_accesses += len(trace)
        self._start_cycle += len(trace) * interval
        counters.elapsed_cycles = max(1.0, counters.elapsed_cycles + len(trace) * interval)
        return counters

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

    def reset_counters(self) -> None:
        """Zero all measurement counters while preserving cache contents.

        Used after a warm-up replay so that steady-state hit rates are
        measured without the cold-start transient.
        """
        from repro.interconnect.network import NetworkStats

        self.counters = HierarchyCounters()
        self.network.stats = NetworkStats()
        for partition in self.llc.partitions:
            partition.stats = CacheStats()
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
        self._start_cycle = 0.0
