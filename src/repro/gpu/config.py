"""GPU hardware configuration (Table 1 of the paper).

The baseline models an NVIDIA RTX 3080 (GA102): 68 SMs, a two-level warp
scheduler, a 320-bit GDDR6X interface with 10 GiB of memory, a 5 MiB
conventional LLC split over 10 partitions, 128 KiB of unified L1/shared
memory per SM and a 256 KiB register file per SM.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.interconnect.network import InterconnectConfig
from repro.memory.dram import DRAMConfig
from repro.memory.llc import LLCConfig

KIB = 1024


@dataclass(frozen=True)
class GPUConfig:
    """Top-level GPU configuration.

    Attributes hold the Table 1 values the simulation reads plus the
    per-component configs.  All latency values are in core cycles at
    ``core_clock_ghz``.  Table 1 also gives each SM 48 warps and 1,536
    threads, 128 CUDA cores, a 64 KiB L1 data cache and a two-level warp
    scheduler; no model reads those, so they are not fields.
    """

    num_sms: int = 68
    core_clock_ghz: float = 1.44
    register_file_bytes_per_sm: int = 256 * KIB
    l1_shared_bytes_per_sm: int = 128 * KIB
    block_size: int = 128

    llc: LLCConfig = field(default_factory=LLCConfig)
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    interconnect: InterconnectConfig = field(default_factory=InterconnectConfig)

    def __post_init__(self) -> None:
        if self.num_sms <= 0:
            raise ValueError("num_sms must be positive")
        if self.llc.num_partitions != self.interconnect.num_partitions:
            raise ValueError(
                "LLC and interconnect must agree on the number of partitions "
                f"({self.llc.num_partitions} vs {self.interconnect.num_partitions})"
            )

    # -- derived configurations ----------------------------------------------

    def with_num_sms(self, num_sms: int) -> "GPUConfig":
        """Return a copy restricted to ``num_sms`` SMs (core scaling studies)."""
        if not 1 <= num_sms <= self.num_sms:
            raise ValueError(f"num_sms must be in [1, {self.num_sms}], got {num_sms}")
        return replace(self, num_sms=num_sms)

    def with_llc_scale(self, factor: float) -> "GPUConfig":
        """Return a copy with the conventional LLC scaled by ``factor`` (2x / 4x studies)."""
        return replace(self, llc=self.llc.scaled_capacity(factor))

    def with_llc_capacity(self, capacity_bytes: int) -> "GPUConfig":
        """Return a copy with an exact conventional LLC capacity."""
        return replace(self, llc=self.llc.with_capacity(capacity_bytes))

    def with_frequency_boost(self, factor: float) -> "GPUConfig":
        """Return a copy with memory-system clocks boosted by ``factor``.

        Models the Frequency-Boost baseline: interconnect, LLC and DRAM run
        ``factor``x faster (latencies shrink, bandwidths grow).
        """
        if factor <= 0:
            raise ValueError("factor must be positive")
        boosted_llc = replace(
            self.llc,
            hit_latency_cycles=self.llc.hit_latency_cycles / factor,
            bandwidth_gbps_per_partition=self.llc.bandwidth_gbps_per_partition * factor,
        )
        boosted_noc = replace(
            self.interconnect,
            one_way_latency_cycles=self.interconnect.one_way_latency_cycles / factor,
            bytes_per_cycle_per_port=self.interconnect.bytes_per_cycle_per_port * factor,
        )
        return replace(
            self,
            llc=boosted_llc,
            dram=self.dram.scaled(factor),
            interconnect=boosted_noc,
        )

    def with_extra_l1(self, extra_bytes_per_sm: int) -> "GPUConfig":
        """Return a copy with ``extra_bytes_per_sm`` added to each SM's L1.

        Models the Unified-SM-Mem baseline, which folds unused register file
        space into the L1 data cache.
        """
        if extra_bytes_per_sm < 0:
            raise ValueError("extra_bytes_per_sm must be non-negative")
        return replace(
            self, l1_shared_bytes_per_sm=self.l1_shared_bytes_per_sm + extra_bytes_per_sm
        )


RTX3080_CONFIG = GPUConfig()
"""The default baseline configuration used throughout the reproduction."""
