"""The Morpheus controller (§4.1): one hardware unit per LLC partition.

The controller performs the three tasks the paper assigns it:

1. **Address separation** between the conventional LLC slice and the extended
   LLC (:class:`~repro.core.address_separation.AddressSeparator`).
2. **Communication** with the extended LLC: extended-LLC traffic pays an
   extra interconnect round trip to reach the owning cache-mode SM.  The
   paper's query logic (request queue, warp status table, read/write data
   buffers) is not modelled: the replay never queues a request, so it
   would add no delay.  Its storage still counts in §7.5's overheads
   (:attr:`~repro.core.config.MorpheusConfig.query_logic_storage_bytes`).
3. **Hit/miss prediction** with the dual Bloom filter scheme
   (:class:`~repro.core.hit_miss_predictor.HitMissPredictor`), so that
   predicted extended-LLC misses go straight to DRAM and cost no more than a
   conventional LLC miss (Fig. 5).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from repro.core.address_separation import AddressSeparator
from repro.core.config import MorpheusConfig
from repro.core.extended_llc import NO_WRITEBACKS, ExtendedLLC, ExtendedLLCKernel
from repro.core.hit_miss_predictor import HitMissPredictor, SetPredictor
from repro.memory.llc import LLCPartition
from repro.memory.request import MemoryRequest

DramAccessFn = Callable[[MemoryRequest, float], float]
NocRoundTripFn = Callable[[int, float], float]
#: ``(hit_level, latency_cycles, predicted_miss, false_positive,
#: writebacks)``, as :meth:`MorpheusController.access` returns it.
_Outcome = Tuple[str, float, bool, bool, Tuple[int, ...]]
#: The kernel that owns an extended set, its local set there, and the set's
#: predictor unit.
_ExtendedSet = Tuple[ExtendedLLCKernel, int, SetPredictor]


def _constant(latency: float) -> Callable[..., float]:
    """A callback that returns ``latency`` whatever it is called with."""

    def callback(*_: Any) -> float:
        return latency

    return callback


class PredictorMode(enum.Enum):
    """Hit/miss predictor flavour used by the controller (Fig. 13 ablation)."""

    BLOOM = "bloom"
    NONE = "none"
    PERFECT = "perfect"


@dataclass
class ControllerStats:
    """Per-controller (per-partition) statistics."""

    requests: int = 0
    conventional_requests: int = 0
    extended_requests: int = 0
    conventional_hits: int = 0
    extended_hits: int = 0
    extended_misses: int = 0
    predicted_misses: int = 0
    false_positive_trips: int = 0
    dram_accesses: int = 0
    writebacks: int = 0

    @property
    def extended_hit_rate(self) -> float:
        """Hit rate of extended-LLC-bound requests."""
        if self.extended_requests == 0:
            return 0.0
        return self.extended_hits / self.extended_requests

    @property
    def llc_hits(self) -> int:
        """Hits in either LLC (conventional or extended)."""
        return self.conventional_hits + self.extended_hits

    @property
    def llc_hit_rate(self) -> float:
        """Overall LLC hit rate observed by this controller."""
        if self.requests == 0:
            return 0.0
        return self.llc_hits / self.requests


class MorpheusController:
    """The per-partition Morpheus controller.

    Args:
        partition: The conventional LLC slice colocated with this controller.
        extended_llc: The aggregate extended LLC (``None`` or an empty one
            disables Morpheus and the controller degenerates to a plain LLC
            partition front-end).
        config: Morpheus configuration.
        core_clock_ghz: GPU core clock, used to convert the timing model's
            nanoseconds into cycles.
        dram_access: Callback ``(request, at_cycle) -> latency_cycles`` used
            to fetch blocks from DRAM.  A constant ~600 ns is used when the
            simulator does not inject one.
        noc_round_trip: Callback ``(size_bytes, at_cycle) -> latency_cycles``
            for the extra controller <-> cache-mode-SM round trip.  Defaults
            to twice the timing model's one-way latency.

    Neither callback may hold a reference back to whatever owns this
    controller: that would make a reference cycle, which only the cyclic
    garbage collector frees.
    """

    def __init__(
        self,
        partition: LLCPartition,
        extended_llc: Optional[ExtendedLLC],
        config: MorpheusConfig | None = None,
        core_clock_ghz: float = 1.44,
        dram_access: Optional[DramAccessFn] = None,
        noc_round_trip: Optional[NocRoundTripFn] = None,
    ) -> None:
        self.partition = partition
        self.extended_llc = extended_llc if extended_llc is not None and extended_llc.enabled else None
        self.config = config or MorpheusConfig()
        self.core_clock_ghz = core_clock_ghz
        self.predictor_mode = PredictorMode(self.config.predictor)
        # Resolved once: the Bloom filters predict, the perfect predictor
        # knows residency, and no predictor forwards every request.
        self._bloom = self.predictor_mode is PredictorMode.BLOOM
        self._perfect = self.predictor_mode is PredictorMode.PERFECT

        extended_capacity = (
            int(self.extended_llc.effective_capacity_bytes()) if self.extended_llc else 0
        )
        num_partitions = self.partition.config.num_partitions
        per_partition_extended = extended_capacity // num_partitions if num_partitions else 0
        extended_sets = self.extended_sets_per_partition()
        self.separator = AddressSeparator(
            conventional_capacity_bytes=self.partition.capacity_bytes,
            extended_capacity_bytes=per_partition_extended,
            block_size=self.config.block_size,
            num_extended_sets=extended_sets,
        )
        self.predictor = HitMissPredictor(
            num_sets=extended_sets,
            associativity=self.config.extended_llc_associativity,
            filter_bytes=self.config.bloom_filter_bytes,
        )
        # Extended set index -> (owning kernel, its local set, predictor
        # unit), each resolved on the set's first access.  Each partition's
        # controller owns a disjoint slice of the extended LLC sets, so the
        # full extended capacity is used across partitions.
        self._extended_sets: List[Optional[_ExtendedSet]] = [None] * extended_sets
        self._global_set_base = self.partition.partition_id * extended_sets
        self._block_size = self.config.block_size
        # A predicted miss skips the extended LLC and pays a quarter of the
        # conventional tag lookup before going to DRAM.
        self._predicted_miss_latency = self.partition.config.hit_latency_cycles * 0.25
        self._dram_access = dram_access or _constant(600.0 * core_clock_ghz)
        self._noc_round_trip = noc_round_trip or _constant(
            2.0 * self.config.timing.noc_one_way_ns * core_clock_ghz
        )
        self.stats = ControllerStats()

    # -- helpers --------------------------------------------------------------

    def extended_sets_per_partition(self) -> int:
        """Extended LLC sets this partition's controller is responsible for."""
        if not self.extended_llc:
            return 1
        total = self.extended_llc.total_sets
        per_partition = total // self.partition.config.num_partitions
        return min(self.config.max_extended_sets_per_partition, max(1, per_partition))

    def _resolve_extended_set(self, set_index: int) -> _ExtendedSet:
        """Fill in and return the table entry of extended set ``set_index``."""
        assert self.extended_llc is not None
        _, kernel, local_set = self.extended_llc.owner_of_set(self._global_set_base + set_index)
        entry = self._extended_sets[set_index] = (
            kernel, local_set, self.predictor.unit(set_index)
        )
        return entry

    # -- the LLC lookup procedure (Figure 3 / Figure 6a) ------------------------------

    def access(self, request: MemoryRequest, now_cycle: float = 0.0) -> _Outcome:
        """Process one LLC request arriving at this partition.

        Returns ``(hit_level, latency_cycles, predicted_miss,
        false_positive, writebacks)``: ``hit_level`` is ``"llc"``,
        ``"extended_llc"`` or ``"dram"``; ``predicted_miss`` marks an
        extended access the predictor sent straight to DRAM and
        ``false_positive`` one that paid a wasted round trip to the extended
        LLC; ``writebacks`` holds the block addresses of the dirty victims
        to write back to DRAM.
        """
        stats = self.stats
        stats.requests += 1
        decision = self.separator.route(request.address)
        # Without an extended LLC the separator has no extended share, so
        # every request takes the conventional path.
        if decision.target != "conventional":
            return self._access_extended(request, now_cycle, decision.extended_set)

        stats.conventional_requests += 1
        hit, latency, writeback = self.partition.access(request, now_cycle)
        writebacks = NO_WRITEBACKS
        if writeback is not None:
            writebacks = (writeback,)
            stats.writebacks += 1
        if hit:
            stats.conventional_hits += 1
            return "llc", latency, False, False, writebacks
        stats.dram_accesses += 1
        dram_latency = self._dram_access(request, now_cycle + latency)
        return "dram", latency + dram_latency, False, False, writebacks

    def _access_extended(
        self, request: MemoryRequest, now_cycle: float, set_index: int
    ) -> _Outcome:
        """Serve one extended-LLC request in a single pass.

        The block's store set is found and its residency read once; that
        one read is the predictor's ground truth and decides the hit or
        miss served (nothing touches the set in between).
        """
        stats = self.stats
        stats.extended_requests += 1
        tag = request.address // self._block_size
        entry = self._extended_sets[set_index]
        if entry is None:
            entry = self._resolve_extended_set(set_index)
        kernel, local_set, unit = entry
        route, llc_set = kernel.locate(local_set, tag)
        meta = llc_set.metadata(tag)
        resident = meta is not None

        # Every access, hit or fill, enters the set's Bloom filters; nothing
        # below reads them, so the update need not wait for the fill.
        if self._bloom:
            predicted_hit = unit.predict_and_record(tag, resident)
        else:
            # Without a predictor every request is forwarded, as on a hit.
            predicted_hit = resident if self._perfect else True
            unit.record_access(tag)

        if not predicted_hit:
            # Predicted miss: go straight to DRAM (as fast as a conventional miss),
            # then install the block in the extended LLC.
            stats.predicted_misses += 1
            stats.extended_misses += 1
            stats.dram_accesses += 1
            dram_latency = self._dram_access(request, now_cycle)
            _, writebacks = kernel.install(route, llc_set, tag, request.is_write)
            stats.writebacks += len(writebacks)
            return "dram", self._predicted_miss_latency + dram_latency, True, False, writebacks

        # Predicted hit: pay the NoC round trip to the cache-mode SM and run
        # the extended LLC kernel's lookup there.
        noc_latency = self._noc_round_trip(request.size_bytes, now_cycle)
        if resident:
            llc_set.touch(tag, meta, request.is_write)
            stats.extended_hits += 1
            service_latency = route.service_latency_ns(meta.compression) * self.core_clock_ghz
            return "extended_llc", noc_latency + service_latency, False, False, NO_WRITEBACKS

        # False positive (or no-prediction miss): the round trip was wasted;
        # fetch from DRAM and fill the extended LLC.
        stats.extended_misses += 1
        if not self._perfect:
            stats.false_positive_trips += 1
        stats.dram_accesses += 1
        service_latency = route.latency_ns * self.core_clock_ghz
        dram_latency = self._dram_access(request, now_cycle + noc_latency + service_latency)
        _, writebacks = kernel.install(route, llc_set, tag, request.is_write)
        stats.writebacks += len(writebacks)
        return "dram", noc_latency + service_latency + dram_latency, False, True, writebacks

    # -- overhead reporting (§7.5) ---------------------------------------------------

    def storage_overhead_bytes(self) -> int:
        """On-chip storage added by this controller (Bloom filters + query logic)."""
        return (
            self.config.bloom_filter_storage_bytes_per_partition
            + self.config.query_logic_storage_bytes
        )

    def reset(self) -> None:
        """Reset predictor and statistics (LLC contents preserved)."""
        self.predictor.reset()
        # The table's entries hold the units that the reset replaced.
        self._extended_sets = [None] * len(self._extended_sets)
        self.stats = ControllerStats()
