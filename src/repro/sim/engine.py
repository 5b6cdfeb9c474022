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

from typing import List, Optional

from repro.core.config import MorpheusConfig
from repro.core.controller import HierarchyCounters, MorpheusController, NocRoundTripFn
from repro.core.extended_llc import Compressibility, ExtendedLLC
from repro.gpu.config import GPUConfig
from repro.interconnect.network import InterconnectNetwork, NetworkStats
from repro.memory.dram import DRAMModel
from repro.memory.llc import BankedLLC
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
            # the engine, and count what they decide into the engine's
            # counters: no controller points back at the engine, so reference
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
        self.reset_counters()
        self._start_cycle = 0.0
        # Per-access constants of the replay loop.
        self._block_size = gpu.block_size
        self._num_partitions = self.llc.mapping.num_partitions

    # -- trace replay ------------------------------------------------------------------

    def run(self, trace: MemoryTrace) -> HierarchyCounters:
        """Replay ``trace`` and return the accumulated counters.

        The Morpheus controllers count the outcomes they decide into the
        counters themselves; a conventional GPU's outcomes are counted here.
        Every byte counter is set from its counts once, at the end.

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
        total_latency = counters.total_latency_cycles
        # Time continues across run() calls so warm-up and measurement share
        # one continuous timeline (queue occupancies stay valid).  Each
        # access first pays the SM -> LLC partition hop; max(1.0, now) is its
        # elapsed time, without the builtin call.
        accesses = enumerate(zip(trace.addresses, map(bool, trace.writes)))
        if controllers:
            for index, (address, is_write) in accesses:
                now = start_cycle + index * interval
                partition_id = (address // block) % num_partitions
                noc_latency = traverse(
                    partition_id, REQUEST_BYTES, now, block, now if now > 1.0 else 1.0
                )
                total_latency += noc_latency + controllers[partition_id].access(
                    address, is_write, now
                )
        else:
            # A conventional GPU: the partition's slice, then DRAM on a miss.
            partitions = self.llc.partitions
            dram_access = self.dram.access
            hits = misses = writebacks = 0
            for index, (address, is_write) in accesses:
                now = start_cycle + index * interval
                partition_id = (address // block) % num_partitions
                noc_latency = traverse(
                    partition_id, REQUEST_BYTES, now, block, now if now > 1.0 else 1.0
                )
                hit, latency, writeback = partitions[partition_id].access(address, is_write, now)
                if hit:
                    hits += 1
                    total_latency += noc_latency + latency
                else:
                    misses += 1
                    total_latency += noc_latency + latency + dram_access(address, now + latency)
                if writeback is not None:
                    writebacks += 1
            counters.conventional_hits += hits
            counters.dram_accesses += misses
            counters.writebacks += writebacks
        counters.total_latency_cycles = total_latency
        counters.llc_accesses += len(trace)
        self._count_bytes(counters)
        self._start_cycle += len(trace) * interval
        counters.elapsed_cycles = max(1.0, counters.elapsed_cycles + len(trace) * interval)
        return counters

    def _count_bytes(self, counters: HierarchyCounters) -> None:
        """Set each byte counter of ``counters`` to its counts times its sizes.

        Every layer moves one block per access.  Each access's partition hop
        carries its request out and one block back; an extended hit or a
        false positive's wasted trip adds the round trip to the cache-mode
        SM, one block each way; each DRAM access and each writeback moves a
        block to or from DRAM.  The counters stay floats.
        """
        block = self._block_size
        counters.conventional_bytes = float(
            (counters.llc_accesses - counters.extended_requests) * block
        )
        counters.extended_bytes = float(counters.extended_hits * block)
        counters.dram_bytes = float((counters.dram_accesses + counters.writebacks) * block)
        counters.noc_bytes = float(
            counters.llc_accesses * (REQUEST_BYTES + block)
            + 2 * block * (counters.extended_hits + counters.false_positive_trips)
        )

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
        """Start new counters while preserving cache contents.

        Used after a warm-up replay so that steady-state hit rates are
        measured without the cold-start transient.  The counters a run
        returned before stay as they were: the controllers count into the
        new ones from here on.
        """
        self.counters = counters = HierarchyCounters()
        self.network.stats = NetworkStats()
        for controller in self.controllers:
            controller.counters = counters
